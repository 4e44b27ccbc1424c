"""Command-line front end.

Commands: info, classify, verify, charclasses. Output formats json (default),
csv, text. Exit codes: 0 success / all checks pass, 1 check failure,
2 unknown or unsupported input, 3 descriptor/argument parse error.

All floats in JSON output are rounded to 12 significant digits and keys are
sorted, so a fixed seed yields byte-identical output across runs.
"""

import argparse
import json
import sys

import numpy as np

from . import _exact as ex
from . import bundles as bn
from . import liealg
from . import linalg
from . import reps as rp
from . import spherebundle as sb
from . import symspace as ss

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNSUPPORTED = 2
EXIT_PARSE_ERROR = 3


def _round12(obj):
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(f"{float(obj):.12g}")
        return 0.0 if v == 0 else v
    return obj


def emit(data, fmt, csv_rows=None):
    """Print a report dict as json / csv / human-readable text."""
    if fmt == "json":
        print(json.dumps(_round12(data), sort_keys=True, indent=2))
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _dict_rows(data)
        for row in rows:
            print(",".join("" if v is None else str(_round12(v)) for v in row))
    else:
        for line in _text_lines(data):
            print(line)


def _dict_rows(data, prefix=""):
    rows = []
    for k in sorted(data):
        v = data[k]
        if isinstance(v, dict):
            rows.extend(_dict_rows(v, prefix=f"{prefix}{k}."))
        else:
            rows.append((prefix + k, v))
    return rows


def _text_lines(data, indent=0):
    pad = "  " * indent
    lines = []
    for k in sorted(data) if isinstance(data, dict) else []:
        v = data[k]
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            lines.extend(_text_lines(v, indent + 1))
        elif isinstance(v, list):
            lines.append(f"{pad}{k}: {v}")
        else:
            lines.append(f"{pad}{k}: {_round12(v)}")
    return lines


def load_space(name, config_path=None):
    """Catalog lookup, falling back to spaces defined in a config file."""
    try:
        return ss.catalog(name)
    except ss.UnknownSpace:
        # only the block named on its `space` line is parsed, so errors in
        # blocks for other spaces do not hide it
        for block in _config_blocks(config_path) if config_path else ():
            names = [p[1:] for p in map(str.split, block.splitlines())
                     if p[:1] == ["space"]]
            if names and " ".join(names[-1]) == name:
                return ss.space_from_text(block)
        raise


def _config_blocks(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(
            f"cannot read config file {path}: {e.strerror or e}") from None
    return [b for b in text.split("\n\n") if b.strip()]


_REP_ALIASES = {"un_det": "det", "un_fund": "fund", "spin_fund": "spinor"}


def parse_rep(desc, space):
    """Rep descriptor with CLI conveniences: un_det:k / un_fund:k pick up the
    complex rank from a CP^n base; spin_fund is an alias for spinor."""
    desc = desc.strip()
    for alias, canon in _REP_ALIASES.items():
        if desc.startswith(alias + ":"):
            param = desc[len(alias) + 1 :]
            if canon in ("det", "fund") and not param.startswith("("):
                cn = getattr(space.isotropy_ref, "complex_n", None)
                if cn is None:
                    raise rp.DescriptorError(
                        f"{alias}:k needs a CP^n base to infer n")
                param = f"({cn},{param})"
            desc = f"{canon}:{param}"
            break
    return rp.from_descriptor(desc, source=space.isotropy_ref)


def cmd_info(args):
    space = load_space(args.space, args.config)
    curv = ss.curvature_operator(space)
    cond = ss.condition_a(space)
    data = {
        "name": space.name,
        "dim_m": space.m_dim,
        "dim_h": space.h_dim,
        "flat_dim": space.flat_dim,
        "lambda2_dim": curv.dim,
        "spectrum": [{"eigenvalue": lam, "multiplicity": mult}
                     for lam, mult in curv.spectrum()],
        "kernel_dim": cond.dim_kernel,
        "image_dim": cond.dim_image,
        "condition_a": "holds" if cond.holds else "fails",
    }
    rows = [("name", space.name), ("dim_m", space.m_dim),
            ("dim_h", space.h_dim), ("flat_dim", space.flat_dim),
            ("kernel_dim", cond.dim_kernel), ("image_dim", cond.dim_image),
            ("condition_a", data["condition_a"])]
    rows += [("eigenvalue " + f"{lam:.12g}", mult)
             for lam, mult in curv.spectrum()]
    emit(data, args.output, csv_rows=rows)
    return EXIT_OK


def cmd_classify(args):
    space = load_space(args.space, args.config)
    reports = bn.classify_bundles(space, args.rank, weight_cap=args.weight_cap,
                                  tol=args.tol)
    data = {"space": space.name, "rank_bound": args.rank,
            "bundles": [r.to_dict() for r in reports]}
    rows = [("rank", "label", "type", "euler", "p1", "c1", "c2",
             "bracket", "kernel", "roundtrip")]
    for r in reports:
        ch = r.char
        rows.append((r.rank, r.label, r.rep_type,
                     None if ch is None else ch.euler,
                     None if ch is None else ch.p1,
                     None if ch is None else ch.c1,
                     None if ch is None else ch.c2,
                     r.bracket_ok, r.kernel_ok, r.roundtrip_ok))
    if args.output == "text":
        for row in rows:
            print("  ".join("-" if v is None else str(_round12(v))
                            for v in row))
    else:
        emit(data, args.output, csv_rows=rows)
    return EXIT_OK


def cmd_verify(args):
    space = load_space(args.space, args.config)
    rep = parse_rep(args.rep, space)
    bundle = bn.induce(space, rep)
    tol = linalg.CHECK_TOL if args.tol is None else args.tol
    bracket = bn.check_bracket_identity(bundle, tol=tol)
    kernel = bn.check_kernel_inclusion(bundle, tol=tol)
    # 50 random pairs, drawn a then b per pair
    ab = np.random.default_rng(args.seed).standard_normal(
        (50, 2, bundle.curv.dim))
    rand_worst = float(bn.bracket_residuals(bundle, ab[:, 0], ab[:, 1]).max())
    scale = max(1.0, float(np.abs(bundle.blocks).max(initial=0.0))) ** 2
    rand_ok = rand_worst <= tol * scale * 10
    rt_resid = bn.roundtrip_residual(bundle)
    roundtrip_ok = rt_resid is not None and rt_resid <= tol
    irreducible = rp.is_irreducible(rep)
    schur = sb.schur_constancy_check(bundle, samples=args.samples,
                                     seed=args.seed)
    schur_status = ("pass" if schur.ok else "fail") if irreducible \
        else ("not-applicable" if not schur.ok else "pass")
    checks_ok = (bracket.ok and kernel.ok and rand_ok and roundtrip_ok
                 and schur_status != "fail")
    data = {
        "space": space.name,
        "rep": rep.label,
        "rank": rep.target_dim,
        "kernel_dim": int(bundle.curv.kernel_basis.shape[1]),
        "checks": {
            "bracket_identity": {"ok": bool(bracket.ok),
                                 "residual": bracket.max_residual},
            "bracket_identity_random": {"ok": bool(rand_ok),
                                        "residual": rand_worst},
            "kernel_inclusion": {"ok": bool(kernel.ok),
                                 "residual": kernel.max_residual},
            "reconstruction_roundtrip": {"ok": bool(roundtrip_ok),
                                         "residual": rt_resid},
            "schur_constancy": {"status": schur_status,
                                "constant": schur.constant,
                                "max_deviation": schur.max_deviation,
                                "irreducible": bool(irreducible)},
        },
        "all_passed": bool(checks_ok),
    }
    emit(data, args.output)
    return EXIT_OK if checks_ok else EXIT_CHECK_FAILED


def _cp_weight_report(space, rep):
    """c1 as a representation weight for CP^n bases with n > 1: the complex
    trace of the image of the central element i*I, normalized so det^k has
    weight k."""
    bn.check_source(space, rep)
    un = space.isotropy_ref
    n = un.complex_n
    target = liealg.realify(ex.fzeros((n, n)), ex.feye(n))  # i * identity
    gram = un.inner_product
    rhs = ex.farray([ex.trace_form(m, target) for m in un.matrices])
    coeffs = ex.to_float(ex.solve(gram, rhs))
    img = rep.image(coeffs)
    if rep.complex_structure is None:
        raise bn.UnsupportedBase("weight report needs a complex structure")
    trc = bn._complex_trace(img, rep.complex_structure)
    return trc.imag / n


def cmd_charclasses(args):
    space = load_space(args.space, args.config)
    rep = parse_rep(args.rep, space)
    tol = args.tol or linalg.INTEGRALITY_TOL
    cn = getattr(space.isotropy_ref, "complex_n", None)  # n of CP^n's u(n)
    if cn and space.m_dim > 2 and space.m_dim - space.flat_dim == 2 * cn:
        weight = _cp_weight_report(space, rep)
        data = {"base": space.name, "rank": rep.target_dim,
                "mode": "representation-weight", "c1_weight": weight,
                "integral": bool(abs(weight - round(weight)) <= tol)}
        emit(data, args.output)
        return EXIT_OK
    bundle = bn.induce(space, rep)
    report = bn.characteristic_numbers(bundle, tolerance=tol)
    data = report.to_dict()
    data["mode"] = "chern-weil"
    data["integral"] = bool(report.integral())
    emit(data, args.output)
    return EXIT_OK


def _add_common(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--output", choices=("json", "csv", "text"),
                        default=d or "json")
    parser.add_argument("--tol", type=float, default=d,
                        help="tolerance override for numeric checks")
    parser.add_argument("--seed", type=int, default=d if suppress else 0,
                        help="seed for randomized property checks")
    parser.add_argument("--config", default=d,
                        help="file with user-defined spaces "
                             "(serialization format)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="symcurv",
        description="Curvature of parallel connections over symmetric spaces",
    )
    _add_common(p)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("info", parents=[common],
                        help="space data and Condition A verdict")
    pi.add_argument("space")
    pi.set_defaults(func=cmd_info)

    pc = sub.add_parser("classify", parents=[common],
                        help="enumerate parallel bundles")
    pc.add_argument("space")
    pc.add_argument("--rank", type=int, required=True)
    pc.add_argument("--weight-cap", type=int, default=6,
                    help="bound on circle weights for so(2)/u(n) irreps")
    pc.set_defaults(func=cmd_classify)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the identity suite on a bundle")
    pv.add_argument("space")
    pv.add_argument("rep")
    pv.add_argument("--samples", type=int, default=1000)
    pv.set_defaults(func=cmd_verify)

    ph = sub.add_parser("charclasses", parents=[common],
                        help="characteristic numbers")
    ph.add_argument("space")
    ph.add_argument("rep")
    ph.set_defaults(func=cmd_charclasses)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    bad_tol = args.tol is not None and not 0 < args.tol < float("inf")
    error = "tolerance must be positive" if bad_tol else linalg.EPS_ERROR
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        return args.func(args)
    except (ss.UnknownSpace, ss.SymSpaceError, bn.UnsupportedBase,
            bn.UnsupportedSpace, rp.UnsupportedDim, bn.SourceMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (rp.DescriptorError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
