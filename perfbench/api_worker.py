"""api_warm worker: one long-lived process using symcurv as a library.

Usage: python api_worker.py OUT.json MODE SEED SECONDS SPAWNED
  setup     build the bases and irrep pools, then exit
  loop      set up, draw the seed's operation list once, then run it in
            passes until SECONDS have elapsed (at least one pass)
  traced    set up and run one pass of the same list with layer spans
            installed
  universe  run every unperturbed operation any seed can draw (recording)

SPAWNED is the parent's time.monotonic() when it started this process;
setup_s runs from then until the pools are built. Writes it, per-operation
results, pass times, spans, exact digests and the peak RSS before hashing
(peak_rss_kb) to OUT.json.
"""

import json
import resource
import sys
import time

import numpy as np

import compare
import spans
import workloads
from symcurv import bundles as bn
from symcurv import reps as rp
from symcurv import spherebundle as sb
from symcurv import symspace as ss
from symcurv.linalg import NotInImage

NOISE = 0.1  # perturbation scale relative to max(1, |blocks|)


def setup():
    spaces, pools = {}, {}
    for base, rank_bound, weight_cap in workloads.API_BASES:
        spaces[base] = ss.catalog(base)
        pools[base] = dict(bn.catalog_irreps(spaces[base], rank_bound,
                                             weight_cap=weight_cap))
    return spaces, pools


def build_rep(pool, labels):
    rep = pool[labels[0]]
    for lbl in labels[1:]:
        rep = rp.direct_sum(rep, pool[lbl])
    return rep


def run_op(space, rep):
    """induce -> identities -> reconstruction -> roundtrip -> numbers ->
    Schur check -> irreducibility, as plain data for the comparator.

    The Schur check samples with a fixed seed: on a reducible sum its
    maximum deviation depends on the samples, and the recorded value must
    hold for every run seed."""
    bundle = bn.induce(space, rep)
    bracket = bn.check_bracket_identity(bundle)
    kernel = bn.check_kernel_inclusion(bundle)
    rec = bn.recover_rho_hat(space, bundle.blocks)
    back = rec.as_rep()
    try:
        char = bn.characteristic_numbers(bundle).to_dict()
    except bn.UnsupportedBase:
        char = None
    schur = sb.schur_constancy_check(bundle, seed=0)
    return {
        "rank": int(rep.target_dim),
        "bracket_ok": bool(bracket.ok),
        "bracket_residual": float(bracket.max_residual),
        "kernel_ok": bool(kernel.ok),
        "kernel_residual": float(kernel.max_residual),
        "hom_residual": float(rec.hom_residual),
        "roundtrip_residual": float(np.abs(back.images - rep.images).max(initial=0.0)),
        "char": char,
        "schur_ok": bool(schur.ok),
        "schur_constant": float(schur.constant),
        "schur_max_deviation": float(schur.max_deviation),
        "irreducible": bool(rp.is_irreducible(rep)),
    }


def run_perturbed(space, rep, rng):
    """Induce, add noise to the blocks, and report whether recovery refused."""
    blocks = bn.induce(space, rep).blocks
    scale = NOISE * max(1.0, float(np.abs(blocks).max(initial=0.0)))
    blocks = blocks + scale * rng.standard_normal(blocks.shape)
    try:
        bn.recover_rho_hat(space, blocks)
    except (bn.BundleError, NotInImage):
        return {"rejected": True}
    return {"rejected": False}


def run_pass(ops, spaces, pools, seed, tracer=None):
    results = []
    for i, (base, labels, perturbed) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        rep = build_rep(pools[base], labels)
        if perturbed:
            rng = np.random.default_rng([seed, i])
            results.append(run_perturbed(spaces[base], rep, rng))
        else:
            results.append(run_op(spaces[base], rep))
    return results


def digests(spaces):
    return {name: {"structure": compare.fraction_digest(sp.g.structure),
                   "curvature": compare.fraction_digest(
                       ss.curvature_operator(sp).matrix)}
            for name, sp in spaces.items()}


def main(out_path, mode, seed, seconds, spawned):
    tracer = None
    curvatures = []
    if mode == "traced":
        spans.capture_curvatures(curvatures)
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.op = "setup"
    spaces, pools = setup()
    out = {"setup_s": time.monotonic() - spawned}
    labels = {b: list(p) for b, p in pools.items()}
    if mode == "universe":
        out["results"] = {
            workloads.pair_key(base, lbls): run_op(
                spaces[base], build_rep(pools[base], lbls))
            for base, lbls in workloads.api_universe(labels)}
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["digests"] = digests(spaces)
    elif mode in ("loop", "traced"):
        ops = workloads.draw_api_ops(seed, labels)
        out["ops"] = [[b, list(lbls), p] for b, lbls, p in ops]
        out["results"] = []
        if tracer is not None:
            loop_from = len(tracer.spans), len(curvatures)
            seconds = 0  # one traced pass

        def one_pass():
            start = time.perf_counter()
            results = run_pass(ops, spaces, pools, seed, tracer)
            elapsed = time.perf_counter() - start
            out["results"].append(results)
            return elapsed

        out["passes"] = workloads.passes_until(seconds, one_pass)
        if tracer is not None:
            tracer.active = False
            out["spans"] = tracer.spans
            out["loop_spans_from"] = loop_from[0]
            out["missing"] = tracer.missing
            out["lambda2_entries"] = sum(
                c.dim ** 2 for _, c in curvatures[loop_from[1]:])
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["digests"] = digests(spaces)
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4]),
         float(sys.argv[5]))
