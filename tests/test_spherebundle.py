"""Fiberwise curvature term, Schur constancy, A-tensor norm, scalar curvature."""

import numpy as np
import pytest

from symcurv import bundles as bn
from symcurv import reps
from symcurv import spherebundle as sb
from symcurv import symspace as ss


def _bundle(space_name, desc):
    space = ss.catalog(space_name)
    return bn.induce(space, reps.from_descriptor(desc, source=space.isotropy_ref))


def test_c_tilde_half_spinor_is_3i():
    res = sb.c_tilde(_bundle("S4", "spin4:(1,0)"))
    assert res.is_multiple_of_identity
    assert abs(res.constant - 3.0) < 1e-9
    assert res.residual < 1e-12


def test_c_tilde_psd_and_commutes():
    for name, desc in [("S2", "spin2:3"), ("S4", "spin4:(2,0)"),
                       ("CP2", "fund:(2,1)")]:
        b = _bundle(name, desc)
        res = sb.c_tilde(b)
        vals = np.linalg.eigvalsh(res.operator)
        assert vals.min() > -1e-10, (name, desc)
        for blk in b.blocks:
            comm = res.operator @ blk - blk @ res.operator
            assert np.abs(comm).max() < 1e-9, (name, desc)


def test_c_tilde_spin2():
    # rank-2 weight-k bundle over S2: single block (k/2)*J, so C~ = (k^2/2) I
    for k in (1, 2, 3):
        res = sb.c_tilde(_bundle("S2", f"spin2:{k}"))
        assert res.is_multiple_of_identity
        assert abs(res.constant - k * k / 2) < 1e-9


def test_schur_constancy_pass():
    rep = sb.schur_constancy_check(_bundle("S4", "spin4:(0,1)"))
    assert rep.ok and rep.max_deviation < 1e-9


def test_schur_constancy_reducible_fails():
    rep = sb.schur_constancy_check(
        _bundle("S4", "sum(spin4:(1,0),trivial:1)"))
    assert not rep.ok
    assert rep.max_deviation > 1e-3


def test_schur_check_fails_a_nan_block():
    # the NaN constant fails the bound
    good = _bundle("S4", "spin4:(1,0)")
    blocks = good.blocks.copy()
    blocks[0, 0, 1] = np.nan
    bad = bn.InducedBundle(good.space, good.rep, blocks, good.curv)
    assert not sb.c_tilde(bad).is_multiple_of_identity
    assert not sb.schur_constancy_check(bad).ok


def test_schur_deviation_keeps_a_nan(monkeypatch):
    # a NaN sample stays the worst deviation, also when finite ones follow
    bundle = _bundle("S4", "spin4:(1,0)")
    values = iter([np.nan] + [3.0] * (sb.SCHUR_SAMPLES - 1))
    monkeypatch.setattr(sb, "c_of", lambda ct, u: next(values))
    rep = sb.schur_constancy_check(bundle)
    assert np.isnan(rep.max_deviation) and not rep.ok


def test_c_of_unit_vectors():
    b = _bundle("S4", "spin4:(1,0)")
    ct = sb.c_tilde(b)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        assert abs(sb.c_of(ct, u) - 3.0) < 1e-9


def test_round_fiber_profile():
    prof = sb.round_fiber_profile(4)
    assert prof.g(0.7) == pytest.approx(0.7)
    assert prof.s_f == pytest.approx(6.0)  # (k-1)(k-2) at radius 1
    half = sb.round_fiber_profile(4, radius=0.5)
    assert half.s_f == pytest.approx(24.0)


def test_a_tensor_norm_scaling():
    b = _bundle("S4", "spin4:(1,0)")
    prof = sb.round_fiber_profile(4)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    base = sb.a_tensor_norm(b, 1.0, prof, u)
    assert base == pytest.approx(0.25 * 3.0)
    # |A|^2(r u) = G(r)^2 |A|^2(u) / G(1)^2; G(r) = r for the round profile
    assert sb.a_tensor_norm(b, 2.0, prof, u) == pytest.approx(4 * base)


def test_a_tensor_norm_validation():
    b = _bundle("S4", "spin4:(1,0)")
    prof = sb.round_fiber_profile(4)
    with pytest.raises(ValueError):
        sb.a_tensor_norm(b, -1.0, prof, np.array([1.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        sb.a_tensor_norm(b, 1.0, prof, np.array([2.0, 0, 0, 0]))


def test_base_scalar_curvature():
    assert sb.base_scalar_curvature(ss.catalog("S4")) == pytest.approx(12.0)
    assert sb.base_scalar_curvature(ss.catalog("S2")) == pytest.approx(2.0)


def test_total_scalar_curvature():
    b = _bundle("S4", "spin4:(1,0)")
    prof = sb.round_fiber_profile(4)
    s_m = sb.base_scalar_curvature(b.space)
    u = np.array([0.0, 1.0, 0.0, 0.0])
    a2 = sb.a_tensor_norm(b, 1.0, prof, u)
    total = sb.total_scalar_curvature(s_m, prof, a2)
    assert total == pytest.approx(12.0 + 6.0 - 0.75)
