"""Cartan pairs, curvature operators, Condition A, catalog."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from symcurv import _exact as ex
from symcurv import liealg, reps
from symcurv import symspace as ss
from symcurv.linalg import EPS, bivector_coeffs_from_skew, pair_index

from counterexample import is_counterexample
from eigenspaces import eigenspace_structure_residuals
from homomorphism import bracket, validate_homomorphism


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unit_sphere_curvature_identity(n):
    curv = ss.curvature_operator(ss.catalog(f"S{n}"))
    assert ex.is_zero(curv.matrix - ex.feye(curv.dim))


def test_cp2_spectrum():
    curv = ss.curvature_operator(ss.catalog("CP2"))
    assert curv.spectrum() == [(0.0, 2), (2.0, 3), (6.0, 1)]
    assert curv.kernel_basis.shape[1] == 2
    assert curv.image_basis.shape[1] == 4


def test_cp1_holomorphic_normalization():
    curv = ss.curvature_operator(ss.catalog("CP1"))
    assert curv.matrix[0, 0] == 4


def test_not_cartan_pair():
    so4 = liealg.make_so(4)
    # h = span{E12} leaves [m, m] outside h (e.g. [E13, E14] lands on E34)
    with pytest.raises(ss.NotCartanPair):
        ss.make_symmetric_space(so4, (0,), [1] * 5, "bad")


def test_metric_not_invariant():
    so4 = liealg.make_so(4)
    h = tuple(range(3, so4.dim))
    with pytest.raises(ss.MetricNotInvariant):
        ss.make_symmetric_space(so4, h, [1, 2, 3], "bad")
    with pytest.raises(ss.MetricNotInvariant):
        ss.make_symmetric_space(so4, h, [1, 1, -1], "bad")


def test_condition_a_table():
    holds = ["S2", "S4", "CP2", "S2xS2", "S2xR1", "SU2_group"]
    fails = ["R2", "S2xR2", "R1xR1"]
    for name in holds:
        assert ss.condition_a(ss.catalog(name)).holds, name
    for name in fails:
        rep = ss.condition_a(ss.catalog(name))
        assert not rep.holds and rep.witness is not None, name


@pytest.mark.parametrize("name", ["S3xR2", "S8xR4", "S4xR1xR1", "CP2xR2",
                                  "S2xR2", "R2"])
def test_condition_a_witness_is_a_kernel_vector_off_the_bracket_span(name):
    # the first four have more bracket columns than bivectors
    space = ss.catalog(name)
    curv = ss.curvature_operator(space)
    rep = ss.condition_a(space)
    w = rep.witness
    assert not rep.holds and np.all(np.isfinite(w))
    assert abs(np.linalg.norm(w) - 1) <= 1e-12
    assert np.abs(curv.float_matrix @ w).max() <= 1e-12
    if curv.image_basis.shape[1]:
        bmat = ex.to_float(_reference_bracket_matrix(
            curv.kernel_basis, curv.image_basis, space.m_dim))
        assert np.abs(bmat.T @ w).max() <= 1e-12 * np.abs(bmat).max()


def test_product_space_structure():
    p = ss.catalog("S2xS3")
    assert p.m_dim == 5
    curv = ss.curvature_operator(p)
    # mixed bivectors are flat: kernel has dim 2*3 = 6
    assert curv.kernel_basis.shape[1] == 6
    assert ss.condition_a(p).holds


def test_product_keeps_factors_only_on_its_isotropy_algebra():
    # ext(...) reads the isotropy algebra's factors; g records none, so a
    # product does not keep its factors' structure tensors alive
    space = ss.catalog("S8xS8xS8")
    assert space.g.factors == ()
    first, second = space.isotropy_ref.factors
    assert (first.name, second.name) == ("so(8)+so(8)", "so(8)")
    assert second is ss.catalog("S8").isotropy_ref
    assert [f.name for f in first.factors] == ["so(8)", "so(8)"]


def test_su2_group_round():
    curv = ss.curvature_operator(ss.catalog("SU2_group"))
    assert curv.spectrum() == [(1.0, 3)]


def test_eigenspace_structure():
    for name in ["S4", "CP2", "S2xS2"]:
        curv = ss.curvature_operator(ss.catalog(name))
        res = eigenspace_structure_residuals(curv)
        assert max(res.values()) < 1e-8, (name, res)


def test_rescale_metric():
    s2 = ss.rescale_metric(ss.catalog("S2"), 4)
    curv = ss.curvature_operator(s2)
    assert curv.matrix[0, 0] == Fraction(1, 4)


def test_catalog_errors():
    with pytest.raises(ss.UnknownSpace):
        ss.catalog("S9")
    with pytest.raises(ss.UnknownSpace):
        ss.catalog("CP7")
    with pytest.raises(ss.UnknownSpace):
        ss.catalog("bogus")


def test_catalog_product_grammar():
    assert ss.catalog("S2×R1").name == "S2xR1"


def test_serialization_roundtrip():
    s3 = ss.catalog("S3")
    back = ss.space_from_text(ss.space_to_text(s3))
    assert back.name == "S3"
    assert ex.is_zero(ss.curvature_operator(back).matrix
                      - ss.curvature_operator(s3).matrix)


def test_isotropy_rep_is_homomorphism():
    for name in ["S2", "S4", "CP2", "SU2_group", "S2xS3"]:
        rep = ss.isotropy_rep(ss.catalog(name))
        assert validate_homomorphism(rep).ok, name


def _dense_reference(space):
    """The dense path R^M was first built with: brackets in g of m basis
    vectors, then one curvature column per bivector. Returns
    (matrix, h_coeff, isotropy images of the reference basis)."""
    g, m, h, d = space.g, space.m_indices, space.h_indices, space.metric_diag

    def unit(idx):
        v = ex.fzeros(g.dim)
        v[idx] = ex.ONE
        return v

    def skew(h_coeffs):
        hvec = ex.fzeros(g.dim)
        for t, gi in enumerate(h):
            hvec[gi] = h_coeffs[t]
        out = ex.fzeros((len(m), len(m)))
        for c, gc in enumerate(m):
            br = bracket(g, hvec, unit(gc))
            for e, ge in enumerate(m):
                if br[ge] != 0:
                    out[e, c] = br[ge] * ex.fsqrt(d[e] / d[c])
        return out

    pairs = pair_index(len(m))
    hc = ex.fzeros((len(pairs), len(h)))
    for p, (a, b) in enumerate(pairs):
        br = bracket(g, unit(m[a]), unit(m[b]))
        scale = ex.fsqrt(Fraction(1) / (d[a] * d[b]))
        for t, gi in enumerate(h):
            hc[p, t] = br[gi] * scale
    mat = ex.fzeros((len(pairs), len(pairs)))
    for p in range(len(pairs)):
        mat[:, p] = bivector_coeffs_from_skew(skew(hc[p]))
    # the isotropy algebra is stored in h's basis: its coordinate map is
    # the identity
    eye = ex.feye(len(h))
    iso = np.zeros((0, len(m), len(m))) if not h else np.stack(
        [ex.to_float(skew(eye[t])) for t in range(len(h))])
    return mat, hc, iso


def _same_fractions(a, b):
    return a.shape == b.shape and all(
        type(x) is Fraction and type(y) is Fraction and x == y
        for x, y in zip(a.reshape(-1), b.reshape(-1)))


@pytest.mark.parametrize("name", ["S2", "S3", "S4", "S5", "CP1", "CP2",
                                  "S2xS3", "S2xR1", "SU2_group", "R2"])
def test_sliced_curvature_matches_dense_path(name):
    space = ss.catalog(name)
    mat, hc, iso = _dense_reference(space)
    curv = ss.curvature_operator(space)
    assert _same_fractions(curv.matrix, mat)
    assert _same_fractions(curv.h_coeff, hc)
    kernel, pivots = ex.nullspace(mat)
    assert _same_fractions(curv.kernel_basis, kernel)
    cols = ex.column_space(mat)
    assert curv.image_cols == pivots == cols
    image = mat[:, cols] if cols else ex.fzeros((mat.shape[0], 0))
    assert _same_fractions(curv.image_basis, image)
    assert np.array_equal(ss.isotropy_rep(space).images, iso)


_ISOTROPY_SPACES = ([f"S{n}" for n in range(2, 9)]
                    + [f"CP{n}" for n in (1, 2, 3)]
                    + [f"R{n}" for n in range(1, 5)]
                    + ["SU2_group", "S2xS3", "S2xR2", "CP3xCP3", "S4xS4xS4"])


@pytest.mark.parametrize("name", _ISOTROPY_SPACES)
def test_isotropy_algebra_is_h_in_its_basis(name):
    space = ss.catalog(name)
    h = space.h_indices
    assert _same_fractions(space.isotropy_ref.structure,
                           space.g.structure[np.ix_(h, h, h)])


@pytest.mark.parametrize("name", _ISOTROPY_SPACES)
def test_ad_ref_matches_fraction_tensordot(name):
    space = ss.catalog(name)
    want = ex.to_float(np.tensordot(ex.feye(space.h_dim), space.ad_h,
                                    axes=(1, 0)))
    assert space.ad_ref.tobytes() == want.tobytes()
    assert space.ad_ref.shape == want.shape


# every unordered pair, repeats included, is taken once in this order
_PRODUCT_FACTORS = ["R1", "CP1", "S2", "S4", "S3", "SU2_group", "CP2", "R2",
                    "S2xR1"]


@pytest.mark.parametrize("a, b", itertools.combinations_with_replacement(
    _PRODUCT_FACTORS, 2))
def test_product_of_catalog_spaces_is_blockwise(a, b):
    sa, sb = ss.catalog(a), ss.catalog(b)
    prod = ss.catalog(f"{a}x{b}")
    # the paper's R^2 hypothesis: the mixed bivectors x_a ^ y_b are flat,
    # and Condition A survives the product unless both factors are flat
    ca, cb = ss.condition_a(sa), ss.condition_a(sb)
    rep = _assert_condition_a_matches_reference(prod)
    assert rep.dim_kernel == ca.dim_kernel + cb.dim_kernel + sa.m_dim * sb.m_dim
    assert rep.dim_image == ca.dim_image + cb.dim_image
    assert rep.holds == (ca.holds and cb.holds
                         and sa.flat_dim * sb.flat_dim == 0)
    # the brackets span all of ker R^M but the flat bivectors, and each
    # failing product carries the paper's R^2 counterexample
    assert rep.dim_kernel - rep.dim_span_bracket == math.comb(prod.flat_dim, 2)
    assert rep.holds or is_counterexample(prod, rep.witness)
    # the flat factor is computed, additive over products, and the paper's
    # boundary: Condition A holds exactly when it has dimension at most 1
    assert prod.flat_dim == sa.flat_dim + sb.flat_dim
    assert [ss.catalog(f"R{n}").flat_dim for n in range(1, 5)] == [1, 2, 3, 4]
    for space in (sa, sb, prod):
        assert ss.condition_a(space).holds == (space.flat_dim <= 1)
    want = reps.external_sum(ss.isotropy_rep(sa), ss.isotropy_rep(sb))
    assert ss.isotropy_rep(prod).images.tobytes() == want.images.tobytes()
    # R^M on the A-pairs and on the B-pairs is each factor's, zero elsewhere
    na, nb = sa.m_dim, sb.m_dim
    pairs = pair_index(na + nb)
    blocks = [[p for p, (i, j) in enumerate(pairs) if j < na],
              [p for p, (i, j) in enumerate(pairs) if i >= na]]
    mat = ss.curvature_operator(prod).matrix.copy()
    for rows, factor in zip(blocks, (sa, sb)):
        assert _same_fractions(mat[np.ix_(rows, rows)],
                               ss.curvature_operator(factor).matrix)
        mat[np.ix_(rows, rows)] = ex.ZERO
    assert ex.is_zero(mat)
    # product_space skips make_symmetric_space's checks; they still hold
    for space in (sa, sb, prod):
        checked = ss.make_symmetric_space(
            space.g, space.h_indices, space.metric_diag, space.name,
            isotropy_ref=space.isotropy_ref)
        assert checked.m_indices == space.m_indices


def test_products_validate_only_their_atoms(monkeypatch):
    # a fresh atom cache, so that S8 is built (and validated) here
    monkeypatch.setattr(ss, "_catalog_atom", functools.lru_cache(
        maxsize=None)(ss._catalog_atom.__wrapped__))
    names = []
    make = ss.make_symmetric_space

    def counted(*args, **kwargs):
        space = make(*args, **kwargs)
        names.append(space.name)
        return space

    monkeypatch.setattr(ss, "make_symmetric_space", counted)
    assert ss.catalog("S8xS8xS8").m_dim == 24
    assert names == ["S8"]


def test_curvature_operator_checks_self_adjointness():
    # one [m, m] constant off its pattern, at an h index where it was 0:
    # ad(h)|_m keeps its old value, so R^M is no longer symmetric
    s3 = ss.catalog("S3")
    c = s3.g.structure.copy()
    m0, m1 = s3.m_indices[:2]
    k = next(k for k in s3.h_indices if c[m0, m1, k] == 0)
    c[m0, m1, k], c[m1, m0, k] = ex.ONE, -ex.ONE
    bad = dataclasses.replace(s3, g=dataclasses.replace(s3.g, structure=c))
    with pytest.raises(ss.SymSpaceError,
                       match="curvature operator failed exact self-adjointness"):
        ss.curvature_operator(bad)


def test_curvature_operator_memoized_per_space():
    s2 = ss.catalog("S2")
    curv = ss.curvature_operator(s2)
    assert ss.curvature_operator(s2) is curv
    scaled = ss.rescale_metric(s2, 2)
    renamed = dataclasses.replace(s2, name="S2copy")
    assert ss.curvature_operator(scaled) is not curv
    assert ss.curvature_operator(renamed) is not curv
    assert ex.is_zero(ss.curvature_operator(scaled).matrix - curv.matrix / 2)
    assert ex.is_zero(ss.curvature_operator(renamed).matrix - curv.matrix)


def _reference_bracket_matrix(ker, img, n):
    """The per-pair loop Condition A brackets were first built with: one
    exact commutator of skew matrices per (kernel, image) column pair. Each
    column is scaled to Python ints by its own denominator, so that the
    matrix products multiply ints rather than Fractions."""
    def skews(basis):
        out = []
        for col in basis.T:
            den = math.lcm(*(v.denominator for v in col))
            a = np.zeros((n, n), dtype=object)
            for v, (i, j) in zip(col, pair_index(n)):
                a[j, i], a[i, j] = int(v * den), -int(v * den)
            out.append((a, den))
        return out

    cols = []
    img_skews = skews(img)
    for ka, da in skews(ker):
        for ib, db in img_skews:
            comm = np.dot(ka, ib) - np.dot(ib, ka)
            cols.append([Fraction(v, da * db)
                         for v in bivector_coeffs_from_skew(comm)])
    return np.array(cols, dtype=object).reshape(-1, len(pair_index(n))).T


def _reference_condition_a(space):
    """(holds, dim_kernel, dim_image, dim_span_bracket, witness) from the
    reference bracket matrix B: the span is B's exact rank, and the witness
    is ker @ c for the first exact null vector c of the map taking c to
    every [ker @ c, x], normalized in float. That vector is checked to
    bracket to exactly zero with every image column."""
    curv = ss.curvature_operator(space)
    ker, img = curv.kernel_basis, curv.image_basis
    dim_ker, dim_img = ker.shape[1], img.shape[1]
    if dim_ker == 0:
        return True, 0, dim_img, 0, None
    bmat = _reference_bracket_matrix(ker, img, space.m_dim)
    dim_span = ex.rank(bmat)
    if dim_span == dim_ker:
        return True, dim_ker, dim_img, dim_span, None
    # column a * dim_img + b of B is [ker_a, img_b]: rows of the stack are
    # the coefficients of [ker @ c, img_b] in c, one block per b
    stack = bmat.reshape(len(bmat), dim_ker, dim_img).transpose(2, 0, 1)
    c = ex.nullspace(stack.reshape(-1, dim_ker))[0][:, 0]
    v = np.dot(ker, c)
    assert ex.is_zero(_reference_bracket_matrix(v[:, None], img, space.m_dim))
    w = ex.to_float(v)
    return False, dim_ker, dim_img, dim_span, w / np.linalg.norm(w)


def _assert_condition_a_matches_reference(space):
    holds, dim_ker, dim_img, dim_span, w = _reference_condition_a(space)
    rep = ss.condition_a(space)
    assert (rep.holds, rep.dim_kernel, rep.dim_image,
            rep.dim_span_bracket) == (holds, dim_ker, dim_img, dim_span)
    if holds:
        assert rep.witness is None
    else:
        assert np.array_equal(rep.witness, w)
    return rep


@pytest.mark.parametrize("name", ["S4xS4", "S3xS3", "S2xS3", "CP3", "S2xS2",
                                  "S2xR2", "CP2", "R1xR1", "S3xR2", "S8xR4",
                                  "S4xR1xR1", "CP2xR2", "CP3xCP3",
                                  "S4xS4xS4"])
def test_scaled_integer_brackets_match_fraction_path(name):
    # the spaces with a flat factor fail, and their witness is compared too
    _assert_condition_a_matches_reference(ss.catalog(name))


def test_condition_a_raises_when_brackets_leave_the_kernel(monkeypatch):
    # an image column of S3 among the kernel columns: its brackets with the
    # image are nonzero and lie in the image, so R^M B != 0
    space = ss.catalog("S2xS3")
    curv = ss.curvature_operator(space)
    ker = curv.kernel_basis.copy()
    ker[:, 0] = curv.image_basis[:, -1]
    bad = dataclasses.replace(curv, kernel_basis=ker)
    monkeypatch.setattr(ss, "curvature_operator", lambda _: bad)
    with pytest.raises(ss.ContainmentViolated):
        ss.condition_a(space)


def test_scaled_integer_brackets_large_entries(monkeypatch):
    # numerators this large overflow int64 brackets, so the Python-int path
    # runs; scaling the kernel basis changes no span
    for name in ("S2xS2", "S2xR2"):
        space = ss.catalog(name)
        curv = ss.curvature_operator(space)
        want = ss.condition_a(space)
        scaled = dataclasses.replace(
            curv, kernel_basis=curv.kernel_basis * Fraction(5**30, 3))
        num, _ = ex.scale_to_int(
            np.concatenate([scaled.kernel_basis, scaled.image_basis], axis=1))
        assert num.dtype == object
        with monkeypatch.context() as patch:
            patch.setattr(ss, "curvature_operator", lambda _: scaled)
            rep = _assert_condition_a_matches_reference(space)
        assert rep.dim_span_bracket == want.dim_span_bracket, name
        assert rep.holds == want.holds, name


def _eigenspace_residuals_ref(curv):
    """The per-pair loops that eigenspace_structure_residuals replaced."""
    n = curv.m_dim
    nonzero = [b for lam, b in curv.eigendata if abs(lam) > 10 * EPS]

    def skew(c):
        a = np.zeros((n, n))
        for v, (i, j) in zip(c, pair_index(n)):
            a[j, i], a[i, j] = v, -v
        return a

    def brackets(ba, bb):
        return [bivector_coeffs_from_skew(skew(x) @ skew(y) - skew(y) @ skew(x))
                for x in ba.T for y in bb.T]

    def off_span(vecs, basis):
        return max((np.linalg.norm(v - basis @ (basis.T @ v)) for v in vecs),
                   default=0.0)

    sub = max((off_span(brackets(b, b), b) for b in nonzero), default=0.0)
    comm = max((np.linalg.norm(v) for i, a in enumerate(nonzero)
                for b in nonzero[i + 1:] for v in brackets(a, b)), default=0.0)
    image = np.concatenate(nonzero, axis=1) if nonzero else None
    closed = off_span(brackets(image, image), image) if nonzero else 0.0
    return {"subalgebra": sub, "commuting": comm, "image_closed": closed}


def test_batched_eigenspace_residuals_match_loops():
    for name in ["S2", "S4", "S5", "CP2", "CP3", "S2xS3", "S2xR1", "R2"]:
        curv = ss.curvature_operator(ss.catalog(name))
        assert eigenspace_structure_residuals(curv) == \
            _eigenspace_residuals_ref(curv), name
