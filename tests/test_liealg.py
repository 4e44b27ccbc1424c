"""Exact Lie algebra models."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from symcurv import _exact as ex
from symcurv import liealg
from symcurv import symspace as ss

from homomorphism import bracket


def _unit(dim, i):
    v = ex.fzeros(dim)
    v[i] = ex.ONE
    return v


def _product(a, b):
    """Exact a @ b over the columns of a that are not all zero."""
    k = np.flatnonzero((a != 0).any(axis=0))
    return np.dot(a[:, k], b[k, :])


def _commutator(a, b):
    return _product(a, b) - _product(b, a)


def test_so3_brackets():
    so3 = liealg.make_so(3)
    assert so3.basis_labels == ("E12", "E13", "E23")
    # matrix-commutator oracle: [E12, E13] = E23 in this convention
    c = so3.structure[0, 1]
    assert list(c) == [0, 0, 1]
    m12, m13 = so3.matrices[0], so3.matrices[1]
    comm = _commutator(m12, m13)
    assert ex.is_zero(comm - so3.matrices[2])


@pytest.mark.parametrize("alg", [
    liealg.make_so(3), liealg.make_so(4), liealg.make_so(5),
    liealg.make_su(2), liealg.make_su(3), liealg.make_u(2),
    liealg.make_abelian(3),
])
def test_validate(alg):
    rep = liealg.validate(alg)
    assert rep.ok, rep


def test_validate_catches_jacobi_failure():
    so3 = liealg.make_so(3)
    c = so3.structure.copy()
    c[0, 1, 2] = ex.frac(2)
    c[1, 0, 2] = ex.frac(-2)
    bad = liealg.LieAlgebraModel(
        name="bad", dim=3, basis_labels=so3.basis_labels, structure=c,
        inner_product=so3.inner_product)
    rep = liealg.validate(bad)
    assert not rep.ok and rep.witness is not None


def test_su2_structure():
    su2 = liealg.make_su(2)
    assert su2.dim == 3
    # trace form is 2*identity
    assert ex.is_zero(su2.inner_product - 2 * ex.feye(3))


def test_realify_bracket():
    # realification preserves commutators
    su2 = liealg.make_su(2)
    for i in range(3):
        for j in range(3):
            comm = _commutator(su2.matrices[i], su2.matrices[j])
            want = ex.fzeros(comm.shape)
            for k in range(3):
                want = want + su2.structure[i, j, k] * su2.matrices[k]
            assert ex.is_zero(comm - want)


def test_realify_keeps_its_input_dtype():
    x, y = ex.farray([[1, 2], [3, 4]]), ex.farray([["1/2", 0], [0, -1]])
    m = liealg.realify(x, y)
    assert m.dtype == object and all(type(v) is Fraction for v in m.flat)
    assert ex.is_zero(m - ex.farray([[1, 2, "-1/2", 0], [3, 4, 0, 1],
                                     ["1/2", 0, 1, 2], [0, -1, 3, 4]]))
    # a float stack realifies matrix by matrix
    xs, ys = np.random.default_rng(3).standard_normal((2, 5, 3, 3))
    ms = liealg.realify(xs, ys)
    assert ms.dtype == float and ms.shape == (5, 6, 6)
    assert np.array_equal(ms[:, :3, 3:], -ys)
    assert np.array_equal(ms[:, 3:, 3:], xs)
    assert all(np.array_equal(a, b) for a, b in
               zip(liealg.complex_parts(ms), (xs, ys)))


def test_product_algebra():
    a = liealg.make_so(3)
    b = liealg.make_su(2)
    p = liealg.product_algebra(a, b)
    assert p.dim == 6
    assert p.name == "so(3)+su(2)"
    assert liealg.validate(p).ok
    # cross brackets vanish
    assert ex.is_zero(bracket(p, _unit(6, 0), _unit(6, 4)))


def test_change_basis():
    so3 = liealg.make_so(3)
    p = ex.feye(3)
    p[0, 0] = ex.frac(2)
    alg = liealg.change_basis(so3, p, name="scaled")
    assert liealg.validate(alg).ok
    # [2*E12, E13] = 2*E23
    assert alg.structure[0, 1, 2] == 2


def test_serialization_roundtrip():
    su2 = liealg.make_su(2)
    text = liealg.to_text(su2)
    back = liealg.from_text(text)
    assert back.name == su2.name
    assert back.basis_labels == su2.basis_labels
    assert ex.is_zero(back.structure - su2.structure)
    assert ex.is_zero(back.inner_product - su2.inner_product)


def test_standard_algebras_are_one_read_only_model_each():
    so4 = liealg.make_so(4)
    assert so4 is liealg.make_so(4) and liealg.make_u(2) is liealg.make_u(2)
    assert liealg.make_su(2) is liealg.make_su(2)
    for arr in (so4.structure, so4.inner_product, so4.matrices[0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = ex.ONE


def test_products_and_abelian_algebras_carry_no_matrices():
    p = liealg.product_algebra(liealg.make_so(3), liealg.make_abelian(2))
    assert p.matrices is None and liealg.make_abelian(2).matrices is None
    assert "mat" not in liealg.to_text(p)


def test_abelian():
    r2 = liealg.make_abelian(2)
    assert ex.is_zero(r2.structure)
    assert liealg.validate(r2).ok
    assert liealg.make_abelian(0).dim == 0


def test_un_basis_starts_with_the_centre():
    # c1_weight reads i*I as iH1 + ... + iHn, the first n basis elements
    for n in (1, 2, 3):
        mats = liealg.make_u(n).matrices
        assert _same_fractions(np.sum(mats[:n], axis=0),
                               liealg.realify(ex.fzeros((n, n)), ex.feye(n)))


def _trace_form(a, b):
    """Inner product <a, b> = tr(a^T b) / 2 on square Fraction matrices."""
    return Fraction(np.sum(np.asarray(a, dtype=object)
                           * np.asarray(b, dtype=object)), 2)


def _reference_structure(mats):
    """The per-pair Fraction path structure constants were first built
    with: one commutator and d trace pairings per basis pair. The pairings
    skip entries where the commutator is zero, and one solve with every
    pair's right-hand side as a column gives the same unique solutions as
    one solve per pair."""
    d = len(mats)
    gram = ex.fzeros((d, d))
    for i in range(d):
        for j in range(d):
            gram[i, j] = _trace_form(mats[i], mats[j])
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rhs = ex.fzeros((d, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        comm = _commutator(mats[i], mats[j])
        nz = np.nonzero(comm)
        rhs[:, p] = ex.farray([_trace_form(mats[k][nz], comm[nz])
                               for k in range(d)])
    coeffs = ex.solve(gram, rhs) if pairs else ex.fzeros((d, 0))
    c = ex.fzeros((d, d, d))
    for p, (i, j) in enumerate(pairs):
        c[i, j, :] = coeffs[:, p]
        c[j, i, :] = -coeffs[:, p]
    return c, gram


def _same_fractions(a, b):
    return a.shape == b.shape and all(
        type(x) is Fraction and type(y) is Fraction and x == y
        for x, y in zip(a.reshape(-1), b.reshape(-1)))


def _basis(kind, n):
    if kind == "so":
        return liealg.make_so(n).matrices
    if kind == "u":
        return liealg.make_u(n).matrices
    if kind == "su":
        return liealg.make_su(n).matrices
    return ss._cp_basis(n)[0]


@pytest.mark.parametrize("kind,n", [("so", n) for n in range(2, 10)]
                         + [("u", n) for n in (1, 2, 3)]
                         + [("su", n) for n in (2, 3, 4)]
                         + [("cp", n) for n in (1, 2, 3)])
def test_scaled_integer_structure_matches_fraction_path(kind, n):
    mats = _basis(kind, n)
    c, gram = liealg._structure_from_matrices(mats)
    ref_c, ref_gram = _reference_structure(mats)
    assert _same_fractions(c, ref_c)
    assert _same_fractions(gram, ref_gram)


def test_scaled_integer_structure_large_entries():
    # entries this large overflow int64 products, so the Python-int path runs
    big = Fraction(3**40, 7)
    mats = [m * big for m in liealg.make_su(3).matrices]
    num, _ = ex.scale_to_int(np.stack(mats))
    assert num.dtype == object
    c, gram = liealg._structure_from_matrices(mats)
    ref_c, ref_gram = _reference_structure(mats)
    assert _same_fractions(c, ref_c)
    assert _same_fractions(gram, ref_gram)


def _reference_jacobi_witness(c):
    d = c.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                s = (np.tensordot(c[i, j], c[:, k, :], axes=(0, 0))
                     + np.tensordot(c[j, k], c[:, i, :], axes=(0, 0))
                     + np.tensordot(c[k, i], c[:, j, :], axes=(0, 0)))
                if any(v != 0 for v in s):
                    return (i, j, k)
    return None


@pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(2**40, 5)])
def test_jacobi_witness_matches_triple_loop(scale):
    so4 = liealg.make_so(4)
    c = so4.structure * scale
    c[1, 3, 2] = Fraction(5, 7)  # antisymmetric, but breaks Jacobi
    c[3, 1, 2] = Fraction(-5, 7)
    bad = liealg.LieAlgebraModel(
        name="bad", dim=so4.dim, basis_labels=so4.basis_labels, structure=c,
        inner_product=so4.inner_product)
    rep = liealg.validate(bad)
    assert not rep.jacobi_ok and rep.antisymmetry_ok
    assert rep.witness == ("jacobi", _reference_jacobi_witness(c))


def _dense_jacobi(c):
    """The full (d, d, d, d) Jacobi tensor that the sorted triples replaced."""
    t = np.einsum("ijm,mkl->ijkl", c, c)
    return t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)


@pytest.mark.parametrize("alg", [liealg.make_so(4), liealg.make_su(3),
                                 liealg.make_u(2)])
def test_jacobi_matches_dense_tensor(alg):
    # antisymmetric corruptions: the verdict and the first failing sorted
    # triple agree with the full tensor
    rng = np.random.default_rng(0)
    for _ in range(30):
        c = alg.structure.copy()
        for i, j, k in rng.integers(0, alg.dim, (2, 3)):
            v = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            c[i, j, k], c[j, i, k] = v, -v
        rep = liealg.validate(dataclasses.replace(alg, structure=c))
        if not rep.antisymmetry_ok:
            continue
        num, _ = ex.scale_to_int(c)
        fails = [tuple(int(v) for v in t)
                 for t in np.argwhere(_dense_jacobi(num).any(axis=-1))
                 if t[0] < t[1] < t[2]]
        assert rep.jacobi_ok == (not fails)
        if fails:
            assert rep.witness == ("jacobi", fails[0])


def test_validate_memory_follows_nonzero_products():
    # so(9)+so(9)+so(9), d = 108: an accumulator over every sorted triple
    # and output index alone would take 176 MB
    so9 = liealg.make_so(9)
    alg = liealg.product_algebra(so9, liealg.product_algebra(so9, so9))
    tracemalloc.start()
    try:
        rep = liealg.validate(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 50 * 2**20


@pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(2**40, 5)])
def test_invariance_witness_matches_fraction_product(scale):
    # the larger scale puts the inner product's numerators on Python ints
    so4 = liealg.make_so(4)
    ip = so4.inner_product * scale
    ip[2, 2] = 3 * scale  # still symmetric, but no longer ad-invariant
    bad = liealg.LieAlgebraModel(
        name="bad", dim=so4.dim, basis_labels=so4.basis_labels,
        structure=so4.structure, inner_product=ip)
    s = np.dot(bad.structure, ip)
    want = tuple(int(v) for v in np.argwhere(s + s.transpose(0, 2, 1))[0])
    rep = liealg.validate(bad)
    assert rep.antisymmetry_ok and rep.jacobi_ok and not rep.invariance_ok
    assert rep.witness == ("invariance", want)
