"""Structural rules of the package source, read from its syntax trees."""

import ast
import pathlib

from landauspec import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "landauspec"

# Public functions and classes that nothing in the package, the benchmark
# or the acceptance tests reads, each with the contract that keeps it.
KEPT_UNREAD = {
    "epsilon_from_force": "the benchmark's import contract: its brentq is "
                          "the one import of scipy.optimize, whose import "
                          "time the benchmark measures",
    "load_state_json": "the file contract of `export`: the reader of the "
                       "state files that the command writes",
}

# Members of public classes that nothing in the package, the benchmark or
# the acceptance tests reads, each with the contract that keeps it.
KEPT_UNREAD_MEMBERS = {
    "GraphMap.defect": "the residual of the graph fixed point: the "
                       "invariance tests bound the graph by it, and the "
                       "group reports are to carry it as a diagnostic",
}


def _calls_by_function(name):
    """Functions under src/landauspec whose body calls something whose
    dotted name ends in `name`, as "module.py:function"."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            callers += [f"{path.name}:{func.name}"
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] == name]
    return callers


def test_no_private_names_imported_across_modules():
    # a module-private helper that another module needs belongs in the
    # public API of its home module
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith(
                "landauspec")
            if not internal:
                continue
            crossings += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert crossings == []


def test_package_starts_no_thread_or_process():
    # every command runs its jobs one at a time in one thread, so the
    # caches need no race handling and no BLAS thread probe is read
    banned = {"threading", "concurrent", "multiprocessing", "queue", "ctypes"}
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] in banned]
    assert imports == []


def test_package_reads_no_environment():
    # every setting comes from a flag or the config file, so a run is
    # described by its command line and config.json
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in ("environ", "getenv")]
    assert reads == []


def test_no_explicit_inverse_or_condition_number():
    # condition checks come from factorizations the code already holds
    # (Schur, Sylvester, LU); an explicit inverse costs a solve per column
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("cond", "inv")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"):
                calls.append(f"{path.name}:{node.lineno}: linalg.{node.attr}")
    assert calls == []


def test_stream_scale_is_applied_only_to_states_and_blocks():
    # OperatorMatrix.entries is the real D^-1 L D, and the operator file
    # holds it as it is; D (operators.stream_scale) is applied only where a
    # complex result leaves the real form: the product with a state and the
    # re-phased near-1 blocks.  The Riesz projector is measured through its
    # real factors, and a converter of the whole operator would be a third
    # caller
    assert sorted(_calls_by_function("stream_scale")) == [
        "operators.py:apply_flat", "perturbation.py:split_blocks"]


def test_stream_slots_are_defined_once():
    # the slots that the stream scaling multiplies by i, and that carry the
    # stream family, have one home; the modules that need them import it
    homes = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "STREAM_SLOTS"
                     for t in node.targets)]
    assert len(homes) == 1, homes


def test_cli_handlers_read_exactly_their_declared_settings():
    # each cmd_<name> handler, with the cli functions it calls, reads the
    # config fields of the settings its command declares in cli.SETTINGS
    # and no others, so no command accepts a flag it ignores
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def fields_read(name, seen):
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        fields = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "config"):
                fields.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Name):
                fields |= fields_read(node.func.id, seen)
        return fields

    # main reads `out` to write every command's reports and echoes the
    # config through to_dict
    assert fields_read("main", set()) == {"out", "to_dict"}
    read = {name[len("cmd_"):]: fields_read(name, set()) | {"out"}
            for name in functions if name.startswith("cmd_")}
    declared = {command: {s.field for s in cli.read_by(command)}
                for command in cli.COMMANDS}
    assert read == declared


def test_quadrature_is_chosen_only_in_sphbasis():
    # the Gauss rule is a function of k_max that sphbasis.legendre_values
    # builds; a module choosing its own node count could sample the
    # profiles on a rule other than the one the assembly integrates with
    def name(node):
        for attr in ("id", "attr", "name"):  # Name, Attribute, alias
            if isinstance(getattr(node, attr, None), str):
                return getattr(node, attr)
        return None

    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sphbasis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if name(node) == "default_node_count" or (
                    isinstance(node, ast.Attribute) and node.attr == "build"
                    and name(node.value) == "QuadratureGrid"):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def test_nodal_values_become_coefficients_only_in_sphbasis():
    # sphbasis.project and project_div_curl are the weak-form projections;
    # a module reading a grid's weights or a table's norms carries a copy
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sphbasis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("w", "norms"):
                reads.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert reads == []


def test_k_integrand_has_one_caller():
    # K's physics and its projection are each written once: the pointwise
    # integrand and the projection step are each called once by each of
    # the two front ends of K's pipeline and by nothing else, _k_columns
    # (synthesis by products, for any block) and assemble_K (unit columns
    # read off the table rows)
    for callee in ("_k_integrand", "_k_project"):
        assert sorted(_calls_by_function(callee)) == [
            "operators.py:_k_columns", "operators.py:assemble_K"], callee


def test_output_directory_is_made_only_by_main():
    # main makes the directory once the handler has returned its reports,
    # so a run that stops before then leaves none; a handler making it
    # early would leave one
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        uses += [f"{path.name}:{owner.get(node, '<module>')}"
                 for node in ast.walk(tree)
                 if "makedirs" in (getattr(node, "attr", None),
                                   getattr(node, "id", None))]
    assert uses == ["cli.py:main"]


def test_files_are_written_only_through_a_rename():
    # three functions open a file for writing, each a temp file that
    # os.replace then renames over the target, so no run leaves a partial
    # file; a writer elsewhere could
    writers = {"write_text", "write_bytes", "tofile", "save", "savez",
               "savetxt"}

    def writes(node):
        if not isinstance(node, ast.Call):
            return False
        name = ast.unparse(node.func).split(".")[-1]
        if name != "open":
            return name in writers
        modes = [*node.args[1:2], *(kw.value for kw in node.keywords
                                    if kw.arg == "mode")]
        # a mode that is not a constant could be anything
        return any(not isinstance(mode, ast.Constant)
                   or set(str(mode.value)) & set("wax+") for mode in modes)

    owners = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func))
        for node in ast.walk(tree):
            if writes(node):
                func = owner.get(node)
                owners[f"{path.name}:{getattr(func, 'name', '<module>')}"] \
                    = func
    assert sorted(owners) == ["cli.py:write_atomic",
                              "operators.py:save_operator",
                              "statespace.py:save_state_json"]
    for name, func in owners.items():
        assert any(isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "os.replace"
                   for node in ast.walk(func)), name


def test_profile_denominator_is_formed_only_in_landau():
    # landau evaluates the closed form of the family; a function elsewhere
    # forming d = 1 - eps cos(theta) carries a second copy of it.  The one
    # exception is swirl_ode_residual: its cancellation design needs the
    # closed form in extended precision (longdouble), which landau does
    # not evaluate.
    allowed = {"eigentracker.py:swirl_ode_residual"}

    def forms_denominator(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Constant)
                and node.left.value == 1
                and isinstance(node.right, ast.BinOp)
                and isinstance(node.right.op, ast.Mult)
                and isinstance(node.right.left, ast.Name)
                and node.right.left.id in ("eps", "epsilon"))

    owners = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "landau.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    map(forms_denominator, ast.walk(func))):
                owners.add(f"{path.name}:{func.name}")
    assert owners == allowed


def test_schur_form_and_sylvester_solve_have_one_home():
    # track's group and contour_projection's projectors come from one
    # real Schur form per operator, reordered per circle and split by one
    # Sylvester solve, so every guard on them is written once.  dgees is
    # called twice in _real_schur, the workspace query and the
    # factorisation; dtrsen and dtrsyl once each in _ordered_schur.  Only
    # the projector asks the form for its Schur vectors; both helpers are
    # private, so every call to them is in eigentracker
    assert sorted(set(_calls_by_function("dgees"))) == [
        "eigentracker.py:_real_schur"]
    for name in ("dtrsen", "dtrsyl"):
        assert _calls_by_function(name) == ["eigentracker.py:_ordered_schur"]
    vectors, ordered = {}, []
    tree = ast.parse((SRC / "eigentracker.py").read_text())
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if ast.unparse(node.func) == "_real_schur":
                    vectors[func.name] = ast.unparse(node.args[1])
                elif ast.unparse(node.func) == "_ordered_schur":
                    ordered.append(func.name)
    assert vectors == {"track": "False", "contour_projection": "True"}
    assert sorted(ordered) == ["contour_projection", "track"]


def test_track_takes_no_second_eigensolve():
    # the tracked group is read off the Schur form that also counts it; a
    # plain eigensolve beside it would factor each point twice
    tree = ast.parse((SRC / "eigentracker.py").read_text())
    track = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "track")
    calls = [ast.unparse(node.func) for node in ast.walk(track)
             if isinstance(node, ast.Call)]
    assert not [c for c in calls if c.split(".")[-1] in ("eigvals", "eig")]
    assert "_ordered_schur" in calls


def test_l0_is_read_from_its_cached_pattern():
    # L0 does not depend on eps, so its entries are one cached pattern per
    # (m, k_max): assemble_L adds it into K and split_blocks takes it out of
    # L (operators.k_entries), so no perturbed assembly or split builds a
    # second L0; only L at eps = 0 and the verify battery's integrality
    # check are L0 itself.  The epsilon check of load_operator applies the
    # pattern to its two-column probe.
    assert sorted(_calls_by_function("assemble_L0")) == [
        "cli.py:_verify_checks", "operators.py:assemble_L"]
    assert sorted(_calls_by_function("_l0_pattern")) == [
        "operators.py:_check_epsilon", "operators.py:assemble_L",
        "operators.py:assemble_L0", "operators.py:k_entries"]


def test_every_public_name_has_a_reader():
    # a public function or class that only its own tests call is surface
    # with no user; readers are the package outside the name's own def,
    # the benchmark and the acceptance tests
    def names_read(tree, skip=None):
        read, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            stack.extend(ast.iter_child_nodes(node))
        return read

    outside = [*sorted((ROOT / "bench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    external = set().union(*(names_read(ast.parse(path.read_text()))
                             for path in outside))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    reads = {path: names_read(tree) for path, tree in trees.items()}
    unread = set()
    for path, tree in trees.items():
        elsewhere = external.union(*(read for other, read in reads.items()
                                     if other != path))
        unread |= {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")
                   and node.name not in elsewhere
                   and node.name not in names_read(tree, skip=node)}
    assert unread == set(KEPT_UNREAD)


def test_every_public_member_has_a_reader():
    # the same rule one level down: an annotated field, method or property
    # of a public class that only its own tests read is surface with no
    # user.  A read is an attribute load or a string constant (getattr);
    # readers are the package outside the member's own declaration, the
    # benchmark and the acceptance tests.  A name that another attribute
    # shares counts as read, so this misses some members
    def names_read(tree, skip=None):
        read, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
            stack.extend(ast.iter_child_nodes(node))
        return read

    outside = [*sorted((ROOT / "bench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    external = set().union(*(names_read(ast.parse(path.read_text()))
                             for path in outside))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    reads = {path: names_read(tree) for path, tree in trees.items()}
    unread = set()
    for path, tree in trees.items():
        elsewhere = external.union(*(read for other, read in reads.items()
                                     if other != path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                if isinstance(member, ast.AnnAssign):
                    name = member.target.id
                elif isinstance(member, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    name = member.name
                else:
                    continue
                if (not name.startswith("_") and name not in elsewhere
                        and name not in names_read(tree, skip=member)):
                    unread.add(f"{cls.name}.{name}")
    assert unread == set(KEPT_UNREAD_MEMBERS)


def test_no_unused_imports():
    # every name an import binds in the package and its tests is read
    # somewhere in the importing file; the acceptance tests are left as
    # they stand
    paths = [*sorted(SRC.glob("*.py")),
             *(path for path in sorted((ROOT / "tests").glob("*.py"))
               if path.name != "test_acceptance.py")]
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{node.lineno}: {bound}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   for bound in [alias.asname or alias.name.split(".")[0]]
                   if bound not in loaded]
    assert unused == []
