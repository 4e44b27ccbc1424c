"""Bivector/skew identification, spectral helpers and the tolerance table."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

from symcurv import _exact as ex
from symcurv import linalg as la


def test_pair_index_lexicographic():
    assert la.pair_index(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(la.pair_index(4)) == 6
    assert la.pair_index(4)[0] == (0, 1)
    assert la.pair_index(4)[-1] == (2, 3)


def test_bivector_to_skew_convention():
    # e_0 ^ e_1 -> entry (1,0) = +1
    m = la.skew_from_bivector_coeffs(np.array([1.0, 0.0, 0.0]), 3)
    assert m[1, 0] == 1.0 and m[0, 1] == -1.0
    assert np.count_nonzero(m) == 2


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_roundtrip_skew_bivector(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n * (n - 1) // 2)
    m = la.skew_from_bivector_coeffs(v, n)
    assert np.allclose(la.bivector_coeffs_from_skew(m), v)


def test_isometry_half_trace():
    # <A, B> = (1/2) tr(A^T B) matches the coefficient dot product
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 10))
    a = la.skew_from_bivector_coeffs(u, 5)
    b = la.skew_from_bivector_coeffs(v, 5)
    assert np.isclose(0.5 * np.trace(a.T @ b), u @ v)


def test_bivector_bracket():
    # [E12, E13] = E23 in the so(3) convention of liealg.make_so
    assert la.bivector_bracket([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 3).tolist() \
        == [0.0, 0.0, 1.0]
    # int64 numerators agree with the Fraction path, and leading axes
    # broadcast to every pair. Small entries stay int64; entries near 2**30
    # make products above 2**53, so int_matmul multiplies Python ints
    rng = np.random.default_rng(1)
    for top, dtype in ((9, np.int64), (2**30, object)):
        a, b = rng.integers(-top, top, (2, 4, 6))
        got = la.bivector_bracket(a[:, None], b[None], 4)
        assert got.dtype == dtype and got.shape == (4, 4, 6)
        want = la.bivector_bracket(ex.farray(a.tolist())[:, None],
                                   ex.farray(b.tolist())[None], 4)
        assert want.dtype == object and (got == want).all()


def test_eig_sym_clusters_and_kernel():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
    d = np.diag([2.0, 2.0, 2.0 + 1e-12, 0.0, 1e-13])
    mat = q @ d @ q.T
    eig = la.eig_sym((mat + mat.T) / 2)
    assert sum(b.shape[1] for lam, b in eig if lam == 0.0) == 2
    lams = [lam for lam, _ in eig if lam != 0.0]
    assert len(lams) == 1 and abs(lams[0] - 2.0) < 1e-9
    nonzero = [basis for lam, basis in eig if lam != 0.0]
    assert nonzero[0].shape[1] == 3


def test_exact_mode_roundtrip():
    v = ex.farray([1, -2, Fraction(1, 3)])
    m = la.skew_from_bivector_coeffs(v, 3)
    assert m.dtype == object
    back = la.bivector_coeffs_from_skew(m)
    assert all(a == b for a, b in zip(back, v))


def test_nullspace_of_integers_keeps_fractions():
    # the elimination takes scaled integers as they are: the kernel and the
    # pivots equal those of the same matrix in Fractions, Python ints and
    # int64 alike, with every entry a Fraction (int / int would give floats)
    rng = np.random.default_rng(5)
    for top in (3, 2**40):
        m = rng.integers(-top, top, (4, 7)) * rng.integers(0, 2, (4, 7))
        m[3] = 2 * m[0] - m[1]  # rank 3 at most
        want, pivots = ex.nullspace(ex.farray(m.tolist()))
        for ints in (m, m.astype(object)):
            got, got_pivots = ex.nullspace(ints)
            assert got_pivots == pivots == ex.column_space(ints)
            assert all(type(v) is Fraction for v in got.reshape(-1))
            assert (got == want).all()
            assert ex.is_zero(np.dot(m.astype(object), got))


def test_is_integral_is_absolute():
    tol = la.INTEGRALITY_TOL
    assert la.is_integral(3 + tol / 2) and not la.is_integral(3 + 2 * tol)
    assert la.is_integral(-2 - tol / 2) and la.is_integral(0.5, tol=0.5)
    # no scale: a large value is judged by the same distance
    assert not la.is_integral(1e6 + 2 * tol)


def test_scale_to_int_keeps_int64_below_2_pow_31():
    # below 2**31 a product of two entries, or a sum of two such products,
    # fits in int64; from 2**31 on the numerators are Python ints
    for top, dtype in ((2**31 - 1, np.int64), (2**31, object)):
        num, den = ex.scale_to_int([Fraction(-top, 5), Fraction(1, 5)])
        assert num.dtype == dtype and num.tolist() == [-top, 1] and den == 5


def test_int_matmul_matches_python_int_product():
    rng = np.random.default_rng(0)
    cases = [
        # float64 branch, stacked operand included
        ((rng.integers(-9, 10, (4, 5, 6)), rng.integers(-9, 10, (6, 3))),
         np.int64),
        ((np.array([[2**53 - 1]]), np.array([[1]])), np.int64),
        # inner * max|a| * max|b| just above 2**53, and the true product
        # 2**53 + 2**27 + 2**26 + 3 is odd, which float64 cannot hold
        ((np.array([[2**27 + 1, 1]]), np.array([[2**26 + 1], [2]])), object),
        # the same switch with the large entries negative: the minimum, not
        # only the maximum, sets each operand's bound
        ((np.array([[-(2**53 - 1)]]), np.array([[1]])), np.int64),
        ((np.array([[-(2**53)]]), np.array([[1]])), object),
        ((np.array([[-(2**27 + 1), 1]]), np.array([[-(2**26 + 1)], [2]])),
         object),
        # an all-zero operand times entries above 2**53, and above float range
        ((np.zeros((2, 3), dtype=np.int64), np.full((3, 2), 2**60 + 1)),
         object),
        ((np.array([[10**400]], dtype=object), np.zeros((1, 1), dtype=np.int64)),
         object),
    ]
    for (a, b), dtype in cases:
        got = ex.int_matmul(a, b)
        assert got.dtype == dtype
        assert np.array_equal(got, a.astype(object) @ b.astype(object))


def _reads(tree, name):
    """Line numbers at which tree loads, imports or takes attribute name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.ImportFrom)
            and any(a.name == name for a in node.names)]


def test_tolerances_live_in_the_table():
    # float tolerance literals only in linalg's table, SYMCURV_TOL (EPS)
    # read only by the check bounds defined there, and those bounds read
    # only by linalg.within, the one rule that judges every check
    src = Path(la.__file__).parent
    lines = Path(la.__file__).read_text().splitlines()
    start = lines.index("# tolerance table")
    end = next(i for i in range(start, len(lines))
               if lines[i].startswith("# ---"))
    bounds, rule = set(), set()
    for node in ast.parse("\n".join(lines)).body:
        if isinstance(node, ast.Assign) and getattr(
                node.targets[0], "id", None) in ("CHECK_TOL", "RECOVER_TOL"):
            bounds.add(node.lineno)
        if isinstance(node, ast.FunctionDef) and node.name == "within":
            rule = set(range(node.lineno, node.end_lineno + 1))
    assert len(bounds) == 2 and start < min(rule) < max(rule) < end
    literals, eps_reads, bound_reads = [], [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        is_linalg = path.name == "linalg.py"
        for i, line in enumerate(text.splitlines()):
            if re.search(r"[0-9]e-[0-9]", line) and not (
                    is_linalg and start < i < end):
                literals.append(f"{path.name}:{i + 1}: {line.strip()}")
        eps_reads += [f"{path.name}:{i}" for i in _reads(tree, "EPS")
                      if not (is_linalg and i in bounds)]
        bound_reads += [f"{path.name}:{i}" for name in ("CHECK_TOL",
                                                        "RECOVER_TOL")
                        for i in _reads(tree, name)
                        if not (is_linalg and i in rule)]
    assert not literals and not eps_reads and not bound_reads


def test_within_divides_once_per_degree():
    tol = la.CHECK_TOL
    assert la.within(tol) and not la.within(2 * tol)
    assert la.within(2 * tol, tol=2 * tol)
    # the floor of 1: a small scale never tightens the bound
    assert la.within(tol, 1e-6, 2) and not la.within(2 * tol, 1e-6, 2)
    assert la.within(5e5 * tol, 1e6) and not la.within(5e5 * tol, 1e5)
    assert la.within(5e11 * tol, 1e6, 2) and not la.within(5e11 * tol, 1e6)
    assert la.within(5 * tol, recover=True)
    # tol * scale ** 2 is inf here, which an inf residual would meet
    assert la.within(1e300, 1e160, 2) and not la.within(np.inf, 1e160, 2)
    for bad in (np.nan, np.inf):
        assert not la.within(bad) and not la.within(bad, 1e300, 2)
        assert not la.within(0.0, bad)
