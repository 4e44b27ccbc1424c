"""Induced curvature, reconstruction, characteristic numbers, classifier."""

import dataclasses
import itertools
import json
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import allpairs
from symcurv import _exact as ex
from symcurv import bundles as bn
from symcurv import cli, liealg
from symcurv import reps
from symcurv import spherebundle as sb
from symcurv import symspace as ss
from symcurv.linalg import (
    EPS, NotInImage, pair_index, skew_from_bivector_coeffs, within)


def test_tangent_bundle_reproduces_curvature_operator():
    for name in ["S2", "S4", "CP2"]:
        space = ss.catalog(name)
        b = bn.induce(space, ss.isotropy_rep(space))
        rm = ex.to_float(b.curv.matrix)
        for p in range(b.curv.dim):
            want = skew_from_bivector_coeffs(rm[:, p], space.m_dim)
            assert np.abs(b.blocks[p] - want).max() < 1e-12, name


def test_trivial_rep_zero_curvature():
    s4 = ss.catalog("S4")
    b = bn.induce(s4, reps.trivial_rep(s4.isotropy_ref, 3))
    assert np.abs(b.blocks).max() == 0.0


def test_source_mismatch():
    with pytest.raises(bn.SourceMismatch):
        bn.induce(ss.catalog("S4"), reps.spin2_irrep(2))


def test_instanton_values_in_su2():
    # half-spinor curvature spans a 3-dim bracket-closed algebra
    b = bn.induce(ss.catalog("S4"), reps.spin4_irrep(1, 0))
    flat = b.blocks.reshape(6, -1)
    assert np.linalg.matrix_rank(flat, tol=1e-9) == 3
    _, sv, vt = np.linalg.svd(flat)
    basis = vt[: (sv > 1e-9 * sv[0]).sum()]
    proj = basis.T @ basis
    for i in range(6):
        for j in range(6):
            comm = b.blocks[i] @ b.blocks[j] - b.blocks[j] @ b.blocks[i]
            assert np.abs(proj @ comm.ravel() - comm.ravel()).max() < 1e-9


def test_bracket_identity_and_corruption():
    s4 = ss.catalog("S4")
    b = bn.induce(s4, reps.spin4_irrep(1, 0))
    assert bn.check_bracket_identity(b).ok
    bad = b.blocks.copy()
    bad[2] = 0.0
    corrupt = bn.InducedBundle(space=s4, rep=b.rep, blocks=bad, curv=b.curv)
    report = bn.check_bracket_identity(corrupt)
    assert not report.ok and report.witness is not None


def test_bracket_identity_product_space():
    space = ss.catalog("S2xS3")
    rep = reps.from_descriptor(
        "ext(spin2:2,spinor:3)")
    b = bn.induce(space, rep)
    assert bn.check_bracket_identity(b, tol=1e-8).ok
    assert bn.check_kernel_inclusion(b, tol=1e-8).ok


def test_kernel_inclusion_cp2():
    cp2 = ss.catalog("CP2")
    assert cp2.h_dim == 4
    b = bn.induce(cp2, reps.un_det_power(2, 1))
    assert b.curv.kernel_basis.shape[1] == 2
    assert bn.check_kernel_inclusion(b).ok


def test_recover_roundtrip():
    cases = [
        ("S4", reps.spin4_irrep(1, 0)),
        ("S4", reps.spin4_irrep(2, 0)),
        ("S2", reps.spin2_irrep(3)),
        ("CP2", reps.un_fundamental_twist(2, 1)),
    ]
    for name, rep in cases:
        space = ss.catalog(name)
        b = bn.induce(space, rep)
        rec = bn.recover_rho_hat(space, b.blocks)
        back = rec.as_rep()
        assert np.abs(back.images - rep.images).max() < 1e-8, name


def test_recover_tangent_is_isotropy():
    s4 = ss.catalog("S4")
    b = bn.induce(s4, ss.isotropy_rep(s4))
    back = bn.recover_rho_hat(s4, b.blocks).as_rep()
    assert np.abs(back.images - ss.isotropy_rep(s4).images).max() < 1e-10


def test_recover_rejects_random():
    s4 = ss.catalog("S4")
    curv = ss.curvature_operator(s4)
    rng = np.random.default_rng(11)
    rejected = 0
    for _ in range(100):
        blocks = rng.standard_normal((6, 4, 4))
        blocks = blocks - blocks.transpose(0, 2, 1)
        try:
            bn.recover_rho_hat(s4, blocks)
        except (bn.KernelNotIncluded, bn.NotHomomorphism):
            rejected += 1
    assert rejected >= 95


def test_recover_kernel_not_included():
    cp2 = ss.catalog("CP2")
    curv = ss.curvature_operator(cp2)
    ker = ex.to_float(curv.kernel_basis)[:, 0]
    blocks = np.einsum("p,ij->pij", ker,
                       np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(bn.KernelNotIncluded):
        bn.recover_rho_hat(cp2, blocks)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_recover_rejects_non_finite_blocks(value):
    # a NaN drops out of max() and of every bound, and inf warns in matmul,
    # so both are rejected before any arithmetic
    s4 = ss.catalog("S4")
    bundle = bn.induce(s4, reps.from_descriptor("spin4:(1,0)"))
    blocks = np.full_like(bundle.blocks, value)
    with pytest.raises(bn.NotFinite):
        bn.recover_rho_hat(s4, blocks)
    bad = dataclasses.replace(bundle, blocks=blocks)
    assert bn.check_roundtrip(bad) == bn.IdentityReport(False, None)
    # finite, but its products overflow: the NaN they leave has to fail
    # the homomorphism bound, which must not overflow either
    with pytest.raises(bn.NotHomomorphism):
        bn.recover_rho_hat(s4, 1e160 * bundle.blocks)


def test_nan_block_fails_the_identity_checks_with_a_witness():
    # nan > tol is False: a NaN residual must still fail and name its pair
    cp2 = ss.catalog("CP2")
    good = bn.induce(cp2, reps.from_descriptor("fund:(2,1)",
                                               source=cp2.isotropy_ref))
    blocks = good.blocks.copy()
    blocks[3] = np.nan
    bundle = bn.InducedBundle(space=cp2, rep=good.rep, blocks=blocks,
                              curv=good.curv)
    nb = len(blocks)
    eye = np.eye(nb)
    res = bn.bracket_residuals(bundle, np.repeat(eye, nb, axis=0),
                               np.tile(eye, (nb, 1)))
    report = bn.check_bracket_identity(bundle)
    assert not report.ok and np.isnan(report.max_residual)
    assert report.witness == divmod(int(np.flatnonzero(np.isnan(res))[0]), nb)
    report = bn.check_kernel_inclusion(bundle)
    assert not report.ok and np.isnan(report.max_residual)
    assert report.witness == 0


def test_kernel_check_without_kernel_fails_non_finite_blocks():
    # S4 has ker R^M = 0: no residual to name, but the inf scale fails
    bundle = dataclasses.replace(
        bn.induce(ss.catalog("S4"), reps.from_descriptor("spin4:(1,0)")),
        blocks=np.full((6, 4, 4), np.inf))
    assert bn.check_kernel_inclusion(bundle) == \
        bn.IdentityReport(False, 0.0, None)


def _euclidean_plane():
    """e(2) = so(2) + R^2, basis J, P1, P2: [J, P1] = P2, [J, P2] = -P1 and
    [P1, P2] = 0. R^M = 0, but so(2) rotates m."""
    c = ex.fzeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = ex.ONE, -ex.ONE
    c[0, 2, 1], c[2, 0, 1] = -ex.ONE, ex.ONE
    g = liealg.LieAlgebraModel(name="e(2)", dim=3,
                               basis_labels=("J", "P1", "P2"), structure=c,
                               inner_product=ex.feye(3))
    return ss.make_symmetric_space(g, (0,), [1, 1], "E2",
                                   isotropy_ref=liealg.make_so(2))


def test_isotropy_outside_the_holonomy_algebra():
    space = _euclidean_plane()
    assert space.flat_dim == 2  # R^M = 0: all of m is flat
    assert space.holonomy.isotropy is None
    bundle = bn.induce(space, reps.spin2_irrep(1))
    with pytest.raises(NotInImage):
        bn.recover_rho_hat(space, bundle.blocks).as_rep()
    checks = bn.check_suite(bundle)
    assert checks["bracket_identity"].ok and checks["kernel_inclusion"].ok
    assert checks["reconstruction_roundtrip"] == bn.IdentityReport(False, None)


def test_char_numbers_s2():
    s2 = ss.catalog("S2")
    for k in range(-5, 6):
        rep = reps.trivial_rep(s2.isotropy_ref, 2) if k == 0 \
            else reps.spin2_irrep(k)
        c = bn.characteristic_numbers(bn.induce(s2, rep))
        assert abs(c.euler - k) < 1e-9


def test_char_numbers_s4_table():
    s4 = ss.catalog("S4")
    table = {
        "spin4:(1,1)": (2.0, 0.0),
        "spin4:(1,0)": (1.0, 2.0),
        "spin4:(0,1)": (-1.0, -2.0),
        "sum(spin4:(2,0),trivial:1)": (0.0, 4.0),
        "sum(spin4:(0,2),trivial:1)": (0.0, -4.0),
        "sum(trivial:1,trivial:1,trivial:1,trivial:1)": (0.0, 0.0),
    }
    for desc, (e, p1) in table.items():
        rep = reps.from_descriptor(desc, source=s4.isotropy_ref)
        c = bn.characteristic_numbers(bn.induce(s4, rep))
        assert abs(c.euler - e) < 1e-9 and abs(c.p1 - p1) < 1e-9, desc


def test_c2_of_half_spinors():
    s4 = ss.catalog("S4")
    plus = bn.characteristic_numbers(bn.induce(s4, reps.spin4_irrep(1, 0)))
    minus = bn.characteristic_numbers(bn.induce(s4, reps.spin4_irrep(0, 1)))
    assert abs(plus.c2 - (-1.0)) < 1e-9
    assert abs(minus.c2 - 1.0) < 1e-9
    # p1 = c1^2 - 2 c2 with c1 = 0
    assert abs(plus.p1 - (-2 * plus.c2)) < 1e-9


def test_char_rescale_invariance():
    s4 = ss.rescale_metric(ss.catalog("S4"), 4)
    c = bn.characteristic_numbers(bn.induce(s4, reps.spin4_irrep(1, 0)))
    assert abs(c.euler - 1.0) < 1e-9 and abs(c.p1 - 2.0) < 1e-9


_RESCALE_SPACES = ("S2", "S4", "CP2", "S2xS3")
_RESCALE_BUNDLES = (("S2", "spin2:1"), ("S4", "spin4:(1,0)"),
                    ("S4", "spin4:(1,1)"), ("S4", "spin4:(3,2)"),
                    ("CP1", "det:(1,1)"))


@settings(max_examples=8, deadline=None)
@example(c=Fraction(10**9))
@example(c=Fraction(1, 10**6))
@given(c=st.fractions(Fraction(1, 10**6), 10**9, max_denominator=10**6))
def test_metric_rescaling(c):
    # metric * c scales R^M by 1/c exactly; every float decision taken on
    # its spectrum has to follow, whatever the scale
    for name in _RESCALE_SPACES:
        space = ss.catalog(name)
        scaled = ss.rescale_metric(space, c)
        curv = ss.curvature_operator(space)
        got = ss.curvature_operator(scaled)
        assert (got.matrix == curv.matrix / c).all(), name
        lams, mults = zip(*curv.spectrum())
        got_lams, got_mults = zip(*got.spectrum())
        assert got_mults == mults, (name, c)
        assert np.allclose(got_lams, np.array(lams) / float(c), rtol=1e-12,
                           atol=0.0), (name, c)
        assert sum(b.shape[1] for lam, b in got.eigendata
                   if lam == 0.0) == got.kernel_basis.shape[1]
        want = ss.condition_a(space)
        report = ss.condition_a(scaled)
        assert (report.holds, report.dim_kernel, report.dim_span_bracket) == \
            (want.holds, want.dim_kernel, want.dim_span_bracket), (name, c)
    for name, desc in _RESCALE_BUNDLES:
        space = ss.catalog(name)
        rep = reps.from_descriptor(desc, source=space.isotropy_ref)
        want = bn.characteristic_numbers(bn.induce(space, rep)).to_dict()
        bundle = bn.induce(ss.rescale_metric(space, c), rep)
        got = bn.characteristic_numbers(bundle).to_dict()
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (name, c)
        # and so do the check verdicts
        for check in (bn.check_bracket_identity, bn.check_kernel_inclusion,
                      bn.check_roundtrip):
            assert check(bundle).ok, (name, desc, c, check.__name__)
        if reps.is_irreducible(rep):
            assert sb.schur_constancy_check(bundle).ok, \
                (name, desc, c)


def _rotated_frame(space, skew):
    """Cayley rotation Q = (I - A)(I + A)^-1 of A, skew with upper entries
    skew, and the space whose m basis is rotated by Q (h is kept)."""
    n = space.m_dim
    a = ex.fzeros((n, n))
    for v, (i, j) in zip(skew, pair_index(n)):
        a[i, j], a[j, i] = v, -v
    eye = ex.feye(n)
    q = np.dot(eye - a, ex.inverse(eye + a))
    p = ex.feye(space.g.dim)
    p[np.ix_(space.m_indices, space.m_indices)] = q
    rotated = ss.make_symmetric_space(
        liealg.change_basis(space.g, p), space.h_indices, space.metric_diag,
        space.name, isotropy_ref=space.isotropy_ref)
    return q, rotated


@settings(max_examples=2, deadline=None)
@given(skew=st.lists(st.fractions(-2, 2, max_denominator=3), min_size=6,
                     max_size=6))
def test_frame_change(skew):
    # an orthonormal change of the m-frame conjugates R^M by Lambda^2 Q and
    # changes nothing the paper derives from it (the metrics are uniform)
    for name in ("CP2", "S3", "S4"):
        space = ss.catalog(name)
        q, rotated = _rotated_frame(space, skew)
        pairs = pair_index(space.m_dim)
        lam2 = ex.farray([[q[a, c] * q[b, d] - q[a, d] * q[b, c]
                           for c, d in pairs] for a, b in pairs])
        curv = ss.curvature_operator(space)
        got = ss.curvature_operator(rotated)
        assert ex.is_zero(got.matrix - np.dot(np.dot(lam2, curv.matrix),
                                               lam2.T)), name
        lams, mults = zip(*curv.spectrum())
        got_lams, got_mults = zip(*got.spectrum())
        assert got_mults == mults, name
        assert np.allclose(got_lams, lams, rtol=1e-12, atol=0.0), name
        want = ss.condition_a(space)
        report = ss.condition_a(rotated)
        assert (report.holds, report.dim_kernel, report.dim_span_bracket) == \
            (want.holds, want.dim_kernel, want.dim_span_bracket), name
        if name == "S4":  # the one supported base of the three
            rep = reps.spin4_irrep(1, 0)
            want = bn.characteristic_numbers(bn.induce(space, rep)).to_dict()
            got = bn.characteristic_numbers(bn.induce(rotated, rep)).to_dict()
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_char_additivity():
    s4 = ss.catalog("S4")
    rep = reps.from_descriptor("sum(spin4:(1,0),trivial:1)",
                               source=s4.isotropy_ref)
    # p1 additive; euler of (rank 4 + trivial) is not defined at rank 5,
    # but rep + trivial at rank 4 has euler 0
    c = bn.characteristic_numbers(bn.induce(
        s4, reps.from_descriptor("sum(spin4:(2,0),trivial:1)")))
    assert abs(c.euler) < 1e-9
    base = bn.characteristic_numbers(bn.induce(s4, reps.spin4_irrep(2, 0)))
    assert abs(c.p1 - base.p1) < 1e-9


def test_whitney_sums_add_characteristic_numbers():
    # over S2 and CP1 c1 adds; over S4 p1 and c2 add (c1 vanishes there).
    # A sum with a real summand has no complex structure, hence no c1 or c2
    checked = 0
    for name, keys in (("S2", ("c1",)), ("CP1", ("c1",)),
                       ("S4", ("p1", "c2"))):
        space = ss.catalog(name)
        pool = bn.catalog_irreps(space, 4, weight_cap=3)
        nums = {label: bn.characteristic_numbers(bn.induce(space, rep))
                for label, rep in pool}
        for (la, ra), (lb, rb) in itertools.combinations_with_replacement(
                pool, 2):
            got = bn.characteristic_numbers(
                bn.induce(space, reps.direct_sum(ra, rb)))
            for key in keys:
                if getattr(got, key) is not None:
                    want = getattr(nums[la], key) + getattr(nums[lb], key)
                    assert abs(getattr(got, key) - want) <= 1e-12, \
                        (name, la, lb, key)
                    checked += 1
    assert checked == 36


def test_cp1_line_bundle():
    cp1 = ss.catalog("CP1")
    c = bn.characteristic_numbers(bn.induce(cp1, reps.un_det_power(1, 1)))
    assert abs(c.c1 - 1.0) < 1e-9 and abs(c.euler - 1.0) < 1e-9


def test_unsupported_base():
    s5 = ss.catalog("S5")
    with pytest.raises(bn.UnsupportedBase):
        bn.characteristic_numbers(bn.induce(s5, reps.spin_fundamental(5)))


def test_classify_s4_rank4():
    reports = [r for r in bn.classify_bundles(ss.catalog("S4"), 4)
               if r.rank == 4]
    assert len(reports) == 6
    pairs = sorted((round(r.char.euler, 6), round(r.char.p1, 6))
                   for r in reports)
    assert pairs == [(-1.0, -2.0), (0.0, -4.0), (0.0, 0.0), (0.0, 4.0),
                     (1.0, 2.0), (2.0, 0.0)]
    assert all(c.ok for r in reports for c in r.checks.values())


def test_verified_block_follows_check_suite():
    space = ss.catalog("S2")
    report = bn.classify_bundles(space, 2, weight_cap=1)[-1]
    bundle = bn.induce(space, reps.spin2_irrep(1))
    assert list(report.to_dict()["verified"]) == list(bn.check_suite(bundle))
    assert list(bn.check_suite(bundle)) == [
        "bracket_identity", "kernel_inclusion", "reconstruction_roundtrip"]


def test_check_suite_evaluates_the_kernel_residuals_once(monkeypatch):
    # kernel_inclusion and the roundtrip's reconstruction judge one vector
    cp2 = ss.catalog("CP2")
    rep = reps.from_descriptor("fund:(2,1)", source=cp2.isotropy_ref)
    calls = []
    residuals = bn._kernel_residuals

    def counted(curv, blocks):
        calls.append(len(blocks))
        return residuals(curv, blocks)

    monkeypatch.setattr(bn, "_kernel_residuals", counted)
    bundle = bn.induce(cp2, rep)
    checks = bn.check_suite(bundle)
    assert len(calls) == 1 and all(c.ok for c in checks.values())
    kernel = checks["kernel_inclusion"]
    assert kernel.max_residual == float(bundle.kernel_residuals.max())
    assert len(bundle.kernel_residuals) == 2  # dim ker R^M on CP2
    # a bare recover_rho_hat still evaluates, and judges, its own blocks
    assert bn.recover_rho_hat(cp2, bundle.blocks).hom_residual >= 0
    assert len(calls) == 2
    bn.classify_bundles(cp2, 4)
    assert len(calls) == 2 + 50  # classify CP2 --rank 4: 50 bundles


def test_classify_s3():
    reports = bn.classify_bundles(ss.catalog("S3"), 5)
    rank4 = [r for r in reports if r.rank == 4]
    labels = {r.label for r in rank4}
    assert "spinor:3" in labels
    # no nontrivial irreducible rank-2 bundles
    assert all(r.rep_type == "reducible" for r in reports if r.rank == 2)


def test_classify_s5_below_tangent_rank():
    reports = bn.classify_bundles(ss.catalog("S5"), 4)
    assert all(set(r.components) == {"trivial:1"} for r in reports)


def test_classify_unsupported():
    with pytest.raises(bn.UnsupportedSpace):
        bn.classify_bundles(ss.catalog("S6"), 4)


# ---------------------------------------------------------------------------
# The per-pair loops that the batched checks replaced, kept as references:
# the stacked products run the same BLAS calls, so results agree bit for bit.

def _skew_ref(coeffs, n):
    a = np.zeros((n, n))
    for c, (i, j) in zip(coeffs, pair_index(n)):
        a[j, i] = c
        a[i, j] = -c
    return a


def _biv_ref(a):
    return np.array([a[j, i] for i, j in pair_index(a.shape[0])], dtype=float)


def _residual_ref(bundle, a, b):
    def value(c):
        return np.tensordot(np.asarray(c, dtype=float), bundle.blocks,
                            axes=(0, 0))

    n = bundle.space.m_dim
    rm = ex.to_float(bundle.curv.matrix)
    rma = _skew_ref(rm @ np.asarray(a, dtype=float), n)
    sb = _skew_ref(np.asarray(b, dtype=float), n)
    lhs = value(_biv_ref(rma @ sb - sb @ rma))
    ra, rb = value(a), value(b)
    return float(np.abs(lhs - (ra @ rb - rb @ ra)).max(initial=0.0))


def _bracket_ref(bundle, tol):
    nb = bundle.blocks.shape[0]
    worst, witness = 0.0, None
    eye = np.eye(nb)
    for p in range(nb):
        for q in range(nb):
            r = _residual_ref(bundle, eye[p], eye[q])
            if r > worst:
                worst, witness = r, (p, q)
    ok = within(worst, bundle.blocks, 2, tol)
    return bn.IdentityReport(ok, worst, None if ok else witness)


def _kernel_vector_ref(blocks, ker):
    """Worst |R^E v| over the columns v of ker, and the first that has it."""
    worst, witness = 0.0, None
    for i in range(ker.shape[1]):
        r = float(np.abs(np.tensordot(ker[:, i], blocks,
                                      axes=(0, 0))).max(initial=0.0))
        if r > worst:
            worst, witness = r, i
    return worst, witness


def _kernel_ref(bundle, tol):
    worst, witness = _kernel_vector_ref(
        bundle.blocks, ex.to_float(bundle.curv.kernel_basis))
    ok = within(worst, bundle.blocks, 1, tol)
    return bn.IdentityReport(ok, worst, None if ok else witness)


def _hom_residual_ref(img, images, n):
    worst = 0.0
    for i in range(img.shape[1]):
        si = _skew_ref(img[:, i], n)
        for j in range(i + 1, img.shape[1]):
            sj = _skew_ref(img[:, j], n)
            br = _biv_ref(si @ sj - sj @ si)
            coeffs = img.T @ br
            worst = max(worst, float(np.linalg.norm(br - img @ coeffs)))
            lhs = np.tensordot(coeffs, images, axes=(0, 0))
            rhs = images[i] @ images[j] - images[j] @ images[i]
            worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
    return worst


def _recover_ref(space, blocks):
    """Returns (image_basis, images, hom_residual), or raises; the images
    come from inverting R^M through its eigendecomposition."""
    curv = ss.curvature_operator(space)
    blocks = np.asarray(blocks, dtype=float)
    n = space.m_dim

    def value(coeffs):
        return np.tensordot(coeffs, blocks, axes=(0, 0))

    worst, witness = _kernel_vector_ref(blocks,
                                        ex.to_float(curv.kernel_basis))
    if not within(worst, blocks, 1, recover=True):
        raise bn.KernelNotIncluded(
            f"candidate curvature does not vanish on ker R^M "
            f"(kernel vector {witness})")
    img = ex.to_float(curv.image_basis)
    if img.shape[1]:
        img, _ = np.linalg.qr(img)
    images = np.zeros((img.shape[1], blocks.shape[1], blocks.shape[1]))
    for i in range(img.shape[1]):
        images[i] = value(allpairs.solve_on_image(curv.eigendata, img[:, i]))
    worst = _hom_residual_ref(img, images, n)
    if not within(worst, blocks, 2, recover=True):
        raise bn.NotHomomorphism("reconstructed map is not a homomorphism",
                                 worst)
    return img, images, worst


def _as_rep_images_ref(rec):
    ref = rec.space.isotropy_ref
    k = rec.images.shape[1] if rec.images.shape[0] else 0
    out = np.zeros((ref.dim, k, k))
    for t in range(ref.dim):
        biv = _biv_ref(rec.space.ad_ref[t])
        coeffs = rec.image_basis.T @ biv
        resid = np.linalg.norm(biv - rec.image_basis @ coeffs)
        if resid > 100 * EPS * max(1.0, np.linalg.norm(biv)):
            return "not in image"
        out[t] = np.tensordot(coeffs, rec.images, axes=(0, 0))
    return out.tobytes()


_GUARD_CASES = [
    ("S2", "spin2:3"), ("S3", "spinor:3"), ("S3", "sum(trivial:1,spinor:3)"),
    ("S4", "spin4:(1,0)"), ("S4", "spin4:(2,0)"), ("S4", "trivial:0"),
    ("S5", "spinor:5"), ("CP1", "det:(1,2)"), ("CP2", "fund:(2,1)"),
    ("CP2", "sum(det:(2,1),fund:(2,-1))"), ("S2xS3", "ext(spin2:2,spinor:3)"),
]


def _guard_bundles():
    """Each guard case clean, then with three kinds of corrupted blocks."""
    rng = np.random.default_rng(3)
    for name, desc in _GUARD_CASES:
        space = ss.catalog(name)
        b = bn.induce(space, reps.from_descriptor(desc,
                                                  source=space.isotropy_ref))
        yield f"{name} {desc}", b
        for noise in (1e-13, 1e-5):
            bad = b.blocks + noise * rng.standard_normal(b.blocks.shape)
            yield f"{name} {desc} noise {noise}", dataclasses.replace(
                b, blocks=bad - bad.transpose(0, 2, 1))
        if len(b.blocks) > 1:
            bad = b.blocks.copy()
            bad[1] = 0.0
            yield f"{name} {desc} zeroed", dataclasses.replace(b, blocks=bad)


def test_batched_induce_matches_loop():
    for name, desc in _GUARD_CASES:
        space = ss.catalog(name)
        rep = reps.from_descriptor(desc, source=space.isotropy_ref)
        hc = ex.to_float(ss.curvature_operator(space).h_coeff)
        coeffs = hc @ np.eye(space.h_dim)
        want = np.zeros((len(hc), rep.target_dim, rep.target_dim))
        for p in range(len(hc)):
            want[p] = np.tensordot(coeffs[p], rep.images, axes=(0, 0))
        assert bn.induce(space, rep).blocks.tobytes() == want.tobytes(), name


def test_batched_identity_checks_match_loops():
    for case, b in _guard_bundles():
        for tol in (None, 0.0, 1e-8):
            assert bn.check_bracket_identity(b, tol=tol) == \
                _bracket_ref(b, tol), (case, tol)
            assert bn.check_kernel_inclusion(b, tol=tol) == \
                _kernel_ref(b, tol), (case, tol)


def test_batched_random_pair_residuals_match_loop():
    for case, b in _guard_bundles():
        if b.curv.dim == 0:
            continue
        for seed in (0, 1, 7, 12345):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(50):
                a = rng.standard_normal(b.curv.dim)
                c = rng.standard_normal(b.curv.dim)
                want.append(_residual_ref(b, a, c))
            ab = np.random.default_rng(seed).standard_normal((50, 2, b.curv.dim))
            got = bn.bracket_residuals(b, ab[:, 0], ab[:, 1])
            assert got.tolist() == want, (case, seed)
            assert bn.bracket_identity_residual(b, ab[3, 0], ab[3, 1]) == want[3]


def test_verify_random_residual_matches_loop(capsys):
    for name, desc, seed in [("S4", "spin4:(1,0)", 0), ("S5", "spinor:5", 4),
                             ("CP2", "fund:(2,1)", 9)]:
        space = ss.catalog(name)
        b = bn.induce(space, reps.from_descriptor(desc))
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(50):
            a = rng.standard_normal(b.curv.dim)
            c = rng.standard_normal(b.curv.dim)
            worst = max(worst, _residual_ref(b, a, c))
        cli.main(["verify", name, desc, "--seed", str(seed)])
        got = json.loads(capsys.readouterr().out)
        assert got["checks"]["bracket_identity_random"]["residual"] == \
            cli._round12(worst)


def _bare_s3():
    """S3 read from a config block without its isotropy algebra."""
    text = ss.space_to_text(dataclasses.replace(ss.catalog("S3"), name="S3bare"))
    return ss.space_from_text("\n".join(
        line for line in text.splitlines()
        if not line.startswith("isotropy")))


def test_as_rep_without_isotropy_algebra(tmp_path, capsys):
    # a block without isotropy lines gets h itself, with g's brackets
    s3, bare = ss.catalog("S3"), _bare_s3()
    ref = bare.isotropy_ref
    assert (ref.name, ref.dim) == ("so(4)|h", 3)
    assert (ref.structure == s3.isotropy_ref.structure).all()
    tangent = ss.isotropy_rep(bare)
    back = bn.recover_rho_hat(bare, bn.induce(bare, tangent).blocks).as_rep()
    assert back.source is ref
    assert np.abs(back.images - tangent.images).max() <= 1e-12
    # a zero isotropy algebra gives the same shape, so R2's roundtrip runs
    assert cli.main(["verify", "R2", "trivial:2"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["reconstruction_roundtrip"] == {"ok": True, "residual": 0.0}
    path = tmp_path / "spaces.txt"
    path.write_text(ss.space_to_text(bare))
    assert cli.main(["verify", "S3bare", "trivial:3", "--config",
                     str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"]


def test_product_with_a_factor_lacking_its_isotropy_algebra():
    s2 = ss.catalog("S2")
    for prod in (ss.product_space(_bare_s3(), s2),
                 ss.product_space(s2, _bare_s3())):
        assert prod.h_dim == 4 and "so(4)|h" in prod.isotropy_ref.name
        with pytest.raises(bn.SourceMismatch):
            bn.induce(prod, reps.spin2_irrep(1))
    # a flat factor has no h, so the other factor's algebra carries over
    assert ss.catalog("S2xR2").isotropy_ref.name == "so(2)"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except bn.BundleError as e:
        return type(e), str(e)


def test_batched_recover_matches_loop():
    rng = np.random.default_rng(5)
    cases = [(case, b.space, b.blocks) for case, b in _guard_bundles()]
    r2 = ss.catalog("R2")  # Im R^M = 0: no image vectors at all
    cases += [("R2 zero", r2, np.zeros((1, 2, 2))),
              ("R2 random", r2, rng.standard_normal((1, 2, 2)))]
    outcomes = set()
    for case, space, blocks in cases:
        want = _outcome(_recover_ref, space, blocks)
        got = _outcome(bn.recover_rho_hat, space, blocks)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, case
            outcomes.add(want[0])
            continue
        img, images, _ = want
        scale = max(1.0, np.abs(blocks).max(initial=0.0))
        assert np.abs(got.images - images).max(initial=0.0) <= 1e-12 * scale, \
            case
        assert got.hom_residual == _hom_residual_ref(
            got.image_basis, got.images, space.m_dim), case
        assert got.image_basis.tobytes() == img.tobytes(), case
        want = _as_rep_images_ref(got)
        try:
            back = got.as_rep().images.tobytes()
        except NotInImage:
            back = "not in image"
        assert back == want, case
        outcomes.add(img.shape[1])
    # both rejections, and the r <= 1 cases (R2: r = 0, CP1: r = 1)
    assert {bn.KernelNotIncluded, bn.NotHomomorphism, 0, 1} <= outcomes


def test_classify_derives_per_space_data_once(monkeypatch):
    # a fresh copy, so that no memo of the catalog space is warm: the frame's
    # QR and the exact R^M = kappa I test run once, not once per bundle
    space = dataclasses.replace(ss.catalog("CP2"))
    calls = {"qr": 0, "is_zero": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(ex, "is_zero", counted("is_zero", ex.is_zero))
    assert len(bn.classify_bundles(space, 4)) == 50
    assert calls == {"qr": 1, "is_zero": 1}


_PARTS4_REF = (((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0),
               ((0, 3), (1, 2), 1.0))


def _frame_form_ref(bundle):
    """The curvature form as a function of an ordered frame pair."""
    idx = {p: i for i, p in enumerate(pair_index(bundle.space.m_dim))}

    def f(a, b):
        if a == b:
            return np.zeros((bundle.rank, bundle.rank))
        if a < b:
            return bundle.blocks[idx[(a, b)]]
        return -bundle.blocks[idx[(b, a)]]

    return f


def _pf4_ref(a, b):
    def polarized(a, b):
        return a[0, 1] * b[2, 3] - a[0, 2] * b[1, 3] + a[0, 3] * b[1, 2]
    return polarized(a, b) + polarized(b, a)


def _characteristic_numbers_ref(bundle):
    """characteristic_numbers(bundle).to_dict() read through a frame-pair
    function, with the exact R^M = kappa I test run per call."""
    mat = bundle.curv.matrix
    kappa = mat[0, 0]
    assert ex.is_zero(mat - kappa * ex.feye(len(mat))) and kappa > 0
    kappa, f, jc = float(kappa), _frame_form_ref(bundle), \
        bundle.rep.complex_structure
    out = {"base": bundle.space.name, "rank": bundle.rank, "euler": None,
           "p1": None, "c1": None, "c2": None}
    if bundle.space.m_dim == 2:
        vol = 4 * np.pi / kappa
        if bundle.rank == 2:
            out["euler"] = f(0, 1)[1, 0] * vol / (2 * np.pi)
        if jc is not None:
            out["c1"] = bn._complex_trace(f(0, 1), jc).imag * vol / (2 * np.pi)
        return out
    vol = (8 * np.pi ** 2 / 3) / kappa ** 2
    trff = sum(2 * s * np.trace(f(*p) @ f(*q)) for p, q, s in _PARTS4_REF)
    out["p1"] = -trff * vol / (8 * np.pi ** 2)
    if bundle.rank == 4:
        pf = sum(s * _pf4_ref(f(*p), f(*q)) for p, q, s in _PARTS4_REF)
        out["euler"] = pf * vol / (4 * np.pi ** 2)
    if jc is not None:
        trcff = sum(2 * s * bn._complex_trace(f(*p) @ f(*q), jc)
                    for p, q, s in _PARTS4_REF)
        trc1 = sum(2 * s * bn._complex_trace(f(*p), jc)
                   * bn._complex_trace(f(*q), jc) for p, q, s in _PARTS4_REF)
        out["c2"] = ((trcff - trc1) * vol / (8 * np.pi ** 2)).real
    return out


def test_characteristic_numbers_match_frame_pair_reference():
    seen = set()
    for name, rank in [("S2", 4), ("S4", 4), ("CP1", 4)]:
        space = ss.catalog(name)
        pool = [r for _, r in bn.catalog_irreps(space, rank)]
        sums = [reps.direct_sum(a, b)
                for a, b in itertools.combinations_with_replacement(pool, 2)]
        for rep in pool + sums:
            bundle = bn.induce(space, rep)
            got = bn.characteristic_numbers(bundle).to_dict()
            want = _characteristic_numbers_ref(bundle)
            # repr tells -0.0 from 0.0, so equal reprs are equal bits
            assert repr(got) == repr(want), (name, rep.label)
            seen.update(k for k, v in got.items() if v is not None)
    assert {"euler", "p1", "c1", "c2"} <= seen


def _c1_weight_ref(space, rep):
    """The exact projection c1_weight replaced: the coordinates of i*I in
    the isotropy algebra's basis, solved from its Gram matrix."""
    un = space.isotropy_ref
    n = un.complex_n
    target = liealg.realify(ex.fzeros((n, n)), ex.feye(n))
    rhs = ex.farray([Fraction(np.sum(m * target), 2) for m in un.matrices])
    coeffs = ex.to_float(ex.solve(un.inner_product, rhs))
    img = np.tensordot(coeffs, rep.images, axes=(0, 0))
    return bn._complex_trace(img, rep.complex_structure).imag / n


@pytest.mark.parametrize("name", ["CP2", "CP3"])
def test_c1_weight_matches_exact_projection(name):
    space = ss.catalog(name)
    n = space.isotropy_ref.complex_n
    pool = [ctor(n, k) for k in range(-4, 5)
            for ctor in (reps.un_det_power, reps.un_fundamental_twist)]
    sums = [reps.direct_sum(a, b)
            for a, b in itertools.combinations_with_replacement(pool, 2)]
    for rep in pool + sums:
        got, want = bn.c1_weight(space, rep), _c1_weight_ref(space, rep)
        assert repr(got) == repr(want), (name, rep.label)


def test_weight_mode_needs_a_u_n_isotropy():
    space = ss.catalog("S4")
    s4j = dataclasses.replace(space, isotropy_ref=dataclasses.replace(
        space.isotropy_ref, complex_n=2))
    assert bn.weight_mode_n(s4j) is None
    assert [bn.weight_mode_n(ss.catalog(name)) for name in
            ("CP1", "CP2", "CP3", "CP2xR1", "CP1xR1", "S4")] == \
        [None, 2, 3, 2, 1, None]


def test_classify_walks_deep_multisets_without_recursion():
    # 200 copies of trivial:1 nest 200 summands deep. The better of two
    # timed walks is judged, so that one stall of the BLAS threads (seen
    # once in about ten runs on 2 vCPUs) does not decide it
    space = ss.catalog("S2")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        times = []
        for _ in range(2):
            start = time.perf_counter()
            reports = bn.classify_bundles(space, 200, weight_cap=0)
            times.append(time.perf_counter() - start)
    finally:
        sys.setrecursionlimit(limit)
    assert [r.rank for r in reports] == list(range(1, 201))
    assert all(c.ok for r in reports for c in r.checks.values())
    assert min(times) < 1.0
