"""Acceptance suite: eight end-to-end criteria, one pass/fail line each."""

import json
import time

import numpy as np

from symcurv import bundles as bn
from symcurv import cli
from symcurv import reps
from symcurv import spherebundle as sb
from symcurv import symspace as ss

from counterexample import is_counterexample
from eigenspaces import eigenspace_structure_residuals


def _report(num, title, ok):
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {title}"


def _catalog_pairs():
    """Every (space, irreducible bundle rep) pair the enumerator knows,
    plus tangent bundles of a few extra catalog spaces."""
    pairs = []
    for name, cap in [("S2", 4), ("S3", 6), ("S4", 6), ("S5", 8),
                      ("CP1", 4), ("CP2", 4)]:
        space = ss.catalog(name)
        for _desc, rep in bn.catalog_irreps(space, cap):
            pairs.append((space, rep))
    for name in ["S6", "SU2_group", "S2xS3", "CP3", "S2xS2"]:
        space = ss.catalog(name)
        pairs.append((space, ss.isotropy_rep(space)))
    return pairs


def test_acceptance_1_rank4_classification():
    start = time.monotonic()
    reports = [r for r in bn.classify_bundles(ss.catalog("S4"), 4)
               if r.rank == 4]
    elapsed = time.monotonic() - start
    ok = len(reports) == 6 and elapsed < 60.0
    want = sorted([(2.0, 0.0), (-1.0, -2.0), (1.0, 2.0),
                   (0.0, 0.0), (0.0, 4.0), (0.0, -4.0)])
    got = []
    for r in reports:
        ok = ok and r.char.integral() \
            and abs(r.char.euler - round(r.char.euler)) < 1e-6 \
            and abs(r.char.p1 - round(r.char.p1)) < 1e-6
        got.append((float(round(r.char.euler)), float(round(r.char.p1))))
    ok = ok and sorted(got) == want
    _report(1, "six rank-4 bundles with integral (euler, p1)", ok)


def test_acceptance_2_euler_weights():
    s2 = ss.catalog("S2")
    ok = True
    for k in range(-5, 6):
        rep = (reps.trivial_rep(s2.isotropy_ref, 2) if k == 0
               else reps.spin2_irrep(k))
        e = bn.characteristic_numbers(bn.induce(s2, rep)).euler
        ok = ok and abs(e - k) < 1e-6
    _report(2, "euler number equals weight for k in -5..5", ok)


def test_acceptance_3_condition_a_table():
    holds = ["S2", "S3", "S4", "S5", "S6", "S7", "S8", "CP1", "CP2", "CP3",
             "S2xS2", "S2xS3", "S3xS3", "S4xS4", "S2xR1", "SU2_group"]
    fails = ["R2", "S2xR2", "R1xR1"]
    ok = True
    for name in holds:
        ok = ok and ss.condition_a(ss.catalog(name)).holds
    for name in fails:
        space = ss.catalog(name)
        rep = ss.condition_a(space)
        ok = ok and not rep.holds and rep.witness is not None
        # the paper's R^2 counterexample: the witness twists a bundle that
        # satisfies the bracket identity but not kernel inclusion
        ok = ok and is_counterexample(space, rep.witness)
    _report(3, "containment condition truth table", ok)


def test_acceptance_4_structural_identities():
    rng = np.random.default_rng(42)
    worst = 0.0
    for space, rep in _catalog_pairs():
        curv = ss.curvature_operator(space)
        res = eigenspace_structure_residuals(curv)
        worst = max(worst, *res.values())
        bundle = bn.induce(space, rep)
        worst = max(worst, bn.check_bracket_identity(bundle).max_residual)
        for _ in range(50):
            a = rng.standard_normal(curv.dim)
            b = rng.standard_normal(curv.dim)
            worst = max(worst, bn.bracket_identity_residual(bundle, a, b))
        worst = max(worst, bn.check_kernel_inclusion(bundle).max_residual)
    _report(4, f"structural identities, worst residual {worst:.2e}",
            worst < 1e-8)


def test_acceptance_5_reconstruction():
    worst = 0.0
    for space, rep in _catalog_pairs():
        curv = ss.curvature_operator(space)
        bundle = bn.induce(space, rep)
        rec = bn.recover_rho_hat(space, bundle.blocks)
        worst = max(worst, float(np.abs(rec.as_rep().images
                                        - rep.images).max()))
    roundtrip_ok = worst <= 1e-8

    s4 = ss.catalog("S4")
    curv = ss.curvature_operator(s4)
    rng = np.random.default_rng(123)
    rejected = 0
    for _ in range(100):
        blocks = rng.standard_normal((6, 4, 4))
        blocks = blocks - blocks.transpose(0, 2, 1)
        try:
            bn.recover_rho_hat(s4, blocks)
        except (bn.KernelNotIncluded, bn.NotHomomorphism):
            rejected += 1
    _report(5, f"reconstruction roundtrip {worst:.2e}, "
               f"{rejected}/100 random inputs rejected",
            roundtrip_ok and rejected >= 95)


def test_acceptance_6_representation_types():
    ok = True
    for k in range(1, 7):
        rep = reps.su2_irrep(k)
        ok = ok and rep.target_dim == 2 * (k + 1)
        if k % 2 == 1:
            ok = ok and reps.classify_type(rep).kind == "quaternionic"
        else:
            try:
                reps.classify_type(rep)
                ok = False
            except reps.Reducible:
                pass
            real = reps.real_form(rep)
            ok = ok and real.target_dim == k + 1
            ok = ok and reps.classify_type(real).kind == "real"
    for k1, k2 in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)]:
        rep = reps.spin4_irrep(k1, k2)
        odd = (k1 + k2) % 2 == 1
        want_dim = (2 if odd else 1) * (k1 + 1) * (k2 + 1)
        ok = ok and rep.target_dim == want_dim
        kind = reps.classify_type(rep).kind
        ok = ok and kind == ("quaternionic" if odd else "real")
    _report(6, "type and dimension table for weighted irreducibles", ok)


def test_acceptance_7_schur_constancy():
    bundle = bn.induce(ss.catalog("S4"), reps.spin4_irrep(1, 0))
    ct = sb.c_tilde(bundle)
    ok = ct.is_multiple_of_identity and ct.residual < 1e-9
    rng = np.random.default_rng(7)
    dev = 0.0
    for _ in range(1000):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        dev = max(dev, abs(sb.c_of(ct, u) - ct.constant))
    ok = ok and dev < 1e-9
    reducible = bn.induce(
        ss.catalog("S4"),
        reps.direct_sum(reps.spin4_irrep(1, 0),
                        reps.trivial_rep(ss.catalog("S4").isotropy_ref, 1)))
    ok = ok and not sb.c_tilde(reducible).is_multiple_of_identity
    _report(7, f"fiberwise curvature constancy, max deviation {dev:.2e}", ok)


def test_acceptance_8_determinism(capsys):
    def grab(argv):
        code = cli.main(argv)
        assert code == 0
        return capsys.readouterr().out

    ok = True
    for argv in [["classify", "S4", "--rank", "4", "--seed", "3"],
                 ["verify", "S4", "spin4:(1,0)", "--seed", "3"],
                 ["info", "CP2"]]:
        first, second = grab(list(argv)), grab(list(argv))
        ok = ok and first == second and json.loads(first) is not None
    _report(8, "byte-identical artifacts across repeated runs", ok)
