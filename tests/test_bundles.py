"""Induced curvature, reconstruction, characteristic numbers, classifier."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symcurv import _exact as ex
from symcurv import bundles as bn
from symcurv import cli, liealg
from symcurv import reps
from symcurv import symspace as ss
from symcurv.linalg import (
    EPS, NotInImage, pair_index, skew_from_bivector_coeffs, solve_on_image)


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
        assert got.eigendata.kernel.shape[1] == got.kernel_basis.shape[1]
        want = ss.condition_a(space)
        report = ss.condition_a(scaled)
        assert (report.holds, report.dim_kernel, report.dim_span_bracket) == \
            (want.holds, want.dim_kernel, want.dim_span_bracket), (name, c)
    for name, desc in _RESCALE_BUNDLES:
        space = ss.catalog(name)
        rep = reps.from_descriptor(desc, source=space.isotropy_ref)
        want = bn.characteristic_numbers(bn.induce(space, rep)).to_dict()
        got = bn.characteristic_numbers(
            bn.induce(ss.rescale_metric(space, c), rep)).to_dict()
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (name, c)


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
        space.name, flat_dim=space.flat_dim, isotropy_ref=space.isotropy_ref)
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
    assert all(r.bracket_ok and r.kernel_ok and r.roundtrip_ok
               for r in reports)


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
    return bn.IdentityReport(worst <= tol, worst,
                             witness if worst > tol else None)


def _kernel_ref(bundle, tol):
    ker = ex.to_float(bundle.curv.kernel_basis)
    worst, witness = 0.0, None
    for i in range(ker.shape[1]):
        r = float(np.abs(np.tensordot(ker[:, i], bundle.blocks,
                                      axes=(0, 0))).max(initial=0.0))
        if r > worst:
            worst, witness = r, i
    return bn.IdentityReport(worst <= tol, worst,
                             witness if worst > tol else None)


def _recover_ref(space, blocks, tol):
    """Returns (image_basis, images, hom_residual), or raises."""
    curv = ss.curvature_operator(space)
    blocks = np.asarray(blocks, dtype=float)
    n = space.m_dim
    scale = max(1.0, np.abs(blocks).max(initial=0.0))

    def value(coeffs):
        return np.tensordot(coeffs, blocks, axes=(0, 0))

    ker = ex.to_float(curv.kernel_basis)
    for i in range(ker.shape[1]):
        if np.abs(value(ker[:, i])).max(initial=0.0) > tol * scale:
            raise bn.KernelNotIncluded(
                f"candidate curvature does not vanish on ker R^M "
                f"(kernel vector {i})")
    img = ex.to_float(curv.image_basis)
    if img.shape[1]:
        img, _ = np.linalg.qr(img)
    images = np.zeros((img.shape[1], blocks.shape[1], blocks.shape[1]))
    for i in range(img.shape[1]):
        images[i] = value(solve_on_image(curv.eigendata, img[:, i]))
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
    if worst > tol * max(1.0, scale * scale):
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
            want[p] = rep.image(coeffs[p])
        assert bn.induce(space, rep).blocks.tobytes() == want.tobytes(), name


def test_batched_identity_checks_match_loops():
    for case, b in _guard_bundles():
        for tol in (None, 0.0, 1e-8):
            want_tol = 10 * EPS if tol is None else tol
            assert bn.check_bracket_identity(b, tol=tol) == \
                _bracket_ref(b, want_tol), (case, tol)
            assert bn.check_kernel_inclusion(b, tol=tol) == \
                _kernel_ref(b, want_tol), (case, tol)


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
        cli.main(["verify", name, desc, "--seed", str(seed),
                  "--samples", "10"])
        got = json.loads(capsys.readouterr().out)
        assert got["checks"]["bracket_identity_random"]["residual"] == \
            cli._round12(worst)


def _bare_s3():
    """S3 read from a config block without its isotropy algebra."""
    text = ss.space_to_text(dataclasses.replace(ss.catalog("S3"), name="S3bare"))
    return ss.space_from_text("\n".join(
        line for line in text.splitlines()
        if not line.startswith("isotropy")))


def test_as_rep_without_isotropy_algebra(capsys):
    s3 = ss.catalog("S3")
    bare = _bare_s3()
    assert bare.isotropy_ref is None
    blocks = bn.induce(s3, ss.isotropy_rep(s3)).blocks
    back = bn.recover_rho_hat(bare, blocks).as_rep()
    assert back.source.dim == 0 and back.images.shape == (0, 3, 3)
    # a zero isotropy algebra gives the same shape, so R2's roundtrip runs
    assert cli.main(["verify", "R2", "trivial:2", "--samples", "5"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["reconstruction_roundtrip"] == {"ok": True, "residual": 0.0}


def test_product_with_a_factor_lacking_its_isotropy_algebra():
    s2 = ss.catalog("S2")
    for prod in (ss.product_space(_bare_s3(), s2),
                 ss.product_space(s2, _bare_s3())):
        assert prod.h_dim == 4 and prod.isotropy_ref is None
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
        want = _outcome(_recover_ref, space, blocks, 100 * EPS)
        got = _outcome(bn.recover_rho_hat, space, blocks)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, case
            outcomes.add(want[0])
            continue
        img, images, worst = want
        assert got.hom_residual == worst, case
        assert got.images.tobytes() == images.tobytes(), case
        assert got.image_basis.tobytes() == img.tobytes(), case
        if space.isotropy_ref is not None:
            want = _as_rep_images_ref(got)
            try:
                back = got.as_rep().images.tobytes()
            except NotInImage:
                back = "not in image"
            assert back == want, case
        outcomes.add(img.shape[1])
    # both rejections, and the r <= 1 cases (R2: r = 0, CP1: r = 1)
    assert {bn.KernelNotIncluded, bn.NotHomomorphism, 0, 1} <= outcomes
