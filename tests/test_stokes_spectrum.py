import inspect
from fractions import Fraction

import numpy as np
import pytest

from landauspec import stokes_spectrum
from landauspec.operators import assemble_L0
from landauspec.statespace import StateIndexMap, x_inner, x_norm
from landauspec.stokes_spectrum import (
    McalMatrix,
    branch_frame,
    branch_vector,
    frame_slots,
    gradient_eigenvalues,
    mcal,
    stream_eigenvalues,
)

F = Fraction


def test_branch_table_k1():
    assert branch_vector(1, 1, 2).coeffs == (F(-1, 2), 1, 1, -2, 0)
    assert branch_vector(1, 1, 0).coeffs == (F(1, 2), 0, 1, -1, 1)
    assert branch_vector(1, 1, -1).coeffs == (1, 1, 1, 1, 0)
    assert branch_vector(1, 1, -3).coeffs == (2, 6, 1, -7, 10)


def test_branch_table_k2():
    assert branch_vector(2, 1, 3).coeffs == (F(-1, 3), 1, 1, -3, 0)
    assert branch_vector(2, 1, 1).coeffs == (0, 0, 1, -3, 2)
    assert branch_vector(2, 1, -2).coeffs == (F(1, 2), 1, 1, 2, 0)
    assert branch_vector(2, 0, -4).coeffs == (F(5, 6), F(10, 3), 1, -3, 7)


def test_branch_stream_family():
    assert branch_vector(3, 1, 3).coeffs == (1, -3)
    assert branch_vector(3, 1, -4).coeffs == (1, 4)
    assert branch_vector(3, 1, 3).family == "stream"


def test_branch_rejects_degenerate():
    with pytest.raises(ValueError):
        branch_vector(0, 0, -2)
    with pytest.raises(ValueError):
        branch_vector(1, 2, 2)
    with pytest.raises(ValueError):
        branch_vector(3, 1, 5)


def test_branch_pressure_consistency():
    # the stored q always equals the pressure trace of the synthesized state
    for k in range(1, 41):
        for lam in gradient_eigenvalues(k):
            b = branch_vector(k, 0, lam)
            q = F(k * (k + 1)) * b.coeffs[0] - b.coeffs[2] - b.coeffs[3]
            assert q == b.coeffs[4]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_branch_eigen_residual(m):
    k_max = 10
    l0 = assemble_L0(m, k_max)
    for k in range(max(abs(m), 1), k_max + 1):
        for lam in stream_eigenvalues(k) + gradient_eigenvalues(k):
            v = branch_vector(k, m, lam).to_state(k_max).to_flat()
            resid = np.linalg.norm(l0.entries @ v - lam * v)
            assert resid <= 1e-12 * np.linalg.norm(v), (k, lam)


def test_mcal_determinant_examples():
    assert mcal(0).determinant() == -1
    assert mcal(1).determinant() == -9
    assert mcal(7).determinant() == -225
    # the elimination behind it: a row swap flips the sign, and a column
    # without a pivot makes the determinant 0
    assert McalMatrix(((F(0), F(1)), (F(1), F(0)))).determinant() == -1
    assert McalMatrix(((F(1), F(2)), (F(2), F(4)))).determinant() == 0
    assert McalMatrix(((F(0), F(0)), (F(0), F(3)))).determinant() == 0


def test_mcal_determinant_closed_form():
    for k in range(0, 51):
        assert mcal(k).determinant() == -((2 * k + 1) ** 2)


def _differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_mcal_determinant_degree_bound():
    # verify's determinant row checks k = 0..10 only: scaled by
    # (4k - 2)(4k + 6) the determinant is a polynomial of degree <= 10, one
    # from each row's degree, so 11 agreeing degrees make it -(2k+1)^2
    # everywhere.  A polynomial of degree d has vanishing (d+1)-th
    # differences, checked here exactly well past the 11 points.
    ks = range(61)
    rows = [stokes_spectrum._frame_rows(k) for k in ks]
    scales = [(4 * k - 2, 1, 4 * k + 6, 1) for k in ks]
    for i, degree in enumerate((3, 2, 3, 2)):
        for j in range(4):
            entries = [r[i][j] * s[i] for r, s in zip(rows, scales)]
            assert all(x.denominator == 1 for x in entries), (i, j)
            assert not any(_differences(entries, degree + 1)), (i, j)
    scaled = [mcal(k).determinant() * s[0] * s[2] for k, s in zip(ks, scales)]
    assert not any(_differences(scaled, 11))


def test_mcal_rejects_negative_degree():
    with pytest.raises(ValueError):
        mcal(-1)


def test_branch_frame_rejects_a_singular_frame(monkeypatch):
    degree_branches = stokes_spectrum._degree_branches

    def degenerate(k):  # both stream branches on one vector
        branches = degree_branches(k)
        branches[-(k + 1)] = branches[k]
        return branches

    monkeypatch.setattr(stokes_spectrum, "_degree_branches", degenerate)
    branch_frame.cache_clear()
    with pytest.raises(ValueError, match="frame matrix is singular"):
        branch_frame(3)


@pytest.mark.parametrize("k_max", [2, 8, 24])
@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_frame_slots_hit_every_flat_index_once(m, k_max):
    hits = np.concatenate([idx for _, _, idx in frame_slots(m, k_max)])
    assert sorted(hits) == list(range(StateIndexMap(m, k_max).dim))


def test_mcal_rows_scale_branch_vectors():
    # each row is a rational rescaling of the matching branch vector, with
    # the potential slots carried to (div xi, div xi') form.
    for k in range(1, 25):
        scales = {k - 1: F(k + 1, 4 * k - 2), k + 1: F(1),
                  -k - 2: F(k, 4 * k + 6), -k: F(1)}
        kk = F(k * (k + 1))
        for row, (lam, scale) in zip(mcal(k).rows, scales.items()):
            b = branch_vector(k, 0, lam).coeffs
            expect = (kk * b[0] * scale, kk * b[1] * scale,
                      b[2] * scale, b[3] * scale)
            assert row == expect, (k, lam)


def test_branch_frame_is_exact_and_shared():
    for k in (1, 2, 9):
        frames = branch_frame(k)
        assert branch_frame(k) is frames
        assert [f.lams for f in frames] == [stream_eigenvalues(k),
                                            gradient_eigenvalues(k)]
        for f in frames:
            n = len(f.slots)
            for j, lam in enumerate(f.lams):
                vec = branch_vector(k, 0, lam)
                assert vec.family == f.family
                assert tuple(f.rows[i][j] for i in range(n)) == vec.coeffs[:n]
            for a in range(n):
                for b in range(n):
                    entry = sum(f.rows[a][c] * f.inv[c][b] for c in range(n))
                    assert entry == (1 if a == b else 0)
            # the rounded copies are made once, with the frame, read-only
            for exact, rounded in ((f.rows, f.float_rows),
                                   (f.inv, f.float_inv)):
                assert rounded.dtype == np.float64
                assert not rounded.flags.writeable
                assert np.array_equal(rounded, np.array(exact, dtype=float))
    (f0,) = branch_frame(0)
    assert (f0.family, f0.slots, f0.lams, f0.rows, f0.inv) == (
        "isolated", ("radial_star",), (-2,), ((1,),), ((1,),))
    assert f0.float_rows.tolist() == f0.float_inv.tolist() == [[1.0]]
    with pytest.raises(ValueError):
        branch_frame(-1)


@pytest.mark.parametrize("fn, args, bad", [
    (branch_vector, (1, 1, 1.5), "lam = 1.5"),
    (branch_vector, (2.9, 1, 1), "k = 2.9"),
    (branch_vector, (2, 0.5, 1), "m = 0.5"),
    (mcal, (2.7,), "k = 2.7"),
    (branch_frame, (2.5,), "k = 2.5"),
], ids=["branch_vector-lam", "branch_vector-k", "branch_vector-m", "mcal",
        "branch_frame"])
def test_non_integral_arguments_are_rejected(fn, args, bad):
    # int() would truncate them to a neighbouring branch, degree or frame
    cached = branch_frame.cache_info().currsize
    with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
        fn(*args)
    assert branch_frame.cache_info().currsize == cached


def test_integral_floats_are_accepted():
    assert branch_vector(2.0, 1.0, 1.0) == branch_vector(2, 1, 1)
    assert mcal(2.0) == mcal(2)
    assert ([f[:5] for f in branch_frame(2.0)]
            == [f[:5] for f in branch_frame(2)])


def test_integral_float_shares_the_int_frame():
    # the cache is keyed on the int, so 2.0 costs no second elimination
    assert branch_frame(2.0) is branch_frame(2)
    branch_frame(5)
    cached = branch_frame.cache_info().currsize
    assert branch_frame(5.0) is branch_frame(5)
    assert branch_frame.cache_info().currsize == cached


def test_branch_frame_miss_calls_no_public_function(monkeypatch):
    # a call tracer wraps the public functions and methods of this module;
    # a cache miss must reach none of them, or traced counts would depend
    # on what earlier calls left in the cache
    calls = []

    def count(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
        return attr

    wrapped = set()
    for name, obj in list(vars(stokes_spectrum).items()):
        if name.startswith("_") or \
                getattr(obj, "__module__", None) != stokes_spectrum.__name__:
            continue
        if inspect.isfunction(obj):
            wrapped.add(count(stokes_spectrum, name))
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(raw):
                    wrapped.add(count(obj, attr))
    assert {"mcal", "determinant", "gradient_eigenvalues"} <= wrapped

    branch_frame.cache_clear()
    for k in range(9):
        branch_frame(k)
    assert calls == []


def frame_angle(k, lam_a, lam_b, m=1):
    a = branch_vector(k, m, lam_a).to_state(k)
    b = branch_vector(k, m, lam_b).to_state(k)
    c = abs(x_inner(a, b)) / (x_norm(a) * x_norm(b))
    return np.arccos(min(1.0, c))


def test_frame_near_parallel_pairs():
    # the two growing gradient branches close up at rate 1/(k+1), and so do
    # the two decaying ones; the weighted angle stays in a fixed window
    for k in range(1, 41):
        for pair in ((k - 1, k + 1), (-k, -k - 2)):
            ang = frame_angle(k, *pair)
            assert 0.2 <= ang * (k + 1) <= 5.0, (k, pair)


def test_frame_transversal_pairs():
    # stream members are exactly orthogonal in the weighted inner product,
    # and growing-vs-decaying gradient members stay uniformly transversal
    for k in range(1, 41):
        assert abs(np.cos(frame_angle(k, k, -k - 1))) <= 1e-12
        assert abs(np.cos(frame_angle(k, k - 1, -k - 2))) <= 0.6
