"""In-memory span tracer that wraps the library's public functions from outside.

`Tracer.install` replaces every public function (and public method) of the
``landauspec`` modules, plus the dense ``numpy.linalg`` kernels the library
calls, with a wrapper that records one span per call: name, start, end and
the span that was open when it started.  A function bound into another
module by ``from .x import y`` is replaced in that namespace too, so
``eigentracker.assemble_L`` and ``operators.assemble_L`` record the same
``operators.assemble_L`` span.  `Tracer.uninstall` puts every original back.

Self time is a span's duration minus the part of its interval covered by
its child spans; `summarize` adds it up per function and per layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy.linalg

PACKAGE = "landauspec"
# numpy.linalg kernels the library calls through ``np.linalg.<name>``.
LINALG_FUNCTIONS = ("solve", "cond", "svd", "eigvals", "eig", "inv", "norm")

# Metric names the benchmark publishes under a shorter name than the
# qualified one.
ALIASES = {"sphbasis.QuadratureGrid.build": "sphbasis.grid_build"}


class Tracer:
    """Records spans as ``[name, start, end, parent]`` lists, where
    ``parent`` is the index of the enclosing span or None.

    ``counters`` holds extra per-function quantities (bytes written, solver
    iterations); ``names`` holds every span name wrapped.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.names = set()
        self._open = []
        self._patches = []

    def wrap(self, name, fn, counter=None):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        The wrapper returns what ``fn`` returns and lets its exceptions
        propagate; the span is closed either way.  ``counter`` is an
        optional ``(counter name, value(args, result))`` pair added to
        ``counters`` after a successful call, outside the span.
        """
        tracer = self
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            index = len(tracer.spans)
            span = [name, tracer.clock(), None, parent]
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._open.pop()
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, counters=None):
        """Wrap the public functions of every imported PACKAGE module and
        the numpy.linalg kernels in LINALG_FUNCTIONS.  ``counters`` maps
        a span name to the ``counter`` argument of `wrap`."""
        counters = counters or {}
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapper = self.wrap(name, obj, counters.get(name))
                    for other in modules:
                        for other_attr, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, other_attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj, counters)
        for attr in LINALG_FUNCTIONS:
            name = f"linalg.{attr}"
            self._patch(numpy.linalg, attr,
                        self.wrap(name, getattr(numpy.linalg, attr), counters.get(name)))

    def _wrap_methods(self, layer, cls, counters):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            name = ALIASES.get(qual, qual)
            if isinstance(raw, classmethod):
                value = classmethod(self.wrap(name, raw.__func__, counters.get(name)))
            elif isinstance(raw, staticmethod):
                value = staticmethod(self.wrap(name, raw.__func__, counters.get(name)))
            elif inspect.isfunction(raw):
                value = self.wrap(name, raw, counters.get(name))
            else:
                continue
            self._patch(cls, attr, value)

    def uninstall(self):
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per-function ``{name: {"calls", "self_s"}}`` and per-layer
    ``{layer: self_s}``, where the layer is the first dotted component."""
    per_fn = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    per_layer = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        entry = per_fn[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
        per_layer[span[0].partition(".")[0]] += own
    return dict(per_fn), dict(per_layer)
