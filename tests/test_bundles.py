"""Induced curvature, reconstruction, characteristic numbers, classifier."""

import numpy as np
import pytest

from symcurv import _exact as ex
from symcurv import bundles as bn
from symcurv import reps
from symcurv import symspace as ss
from symcurv.linalg import skew_from_bivector_coeffs


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
