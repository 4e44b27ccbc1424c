"""Command-line front end.

Commands: info, classify, verify, charclasses. Output formats json (default),
csv, text. Exit codes: 0 success / all checks pass, 1 check failure,
2 unknown or unsupported input, 3 descriptor/argument parse error.

All floats in JSON output are rounded to 12 significant digits and keys are
sorted, so a fixed seed yields byte-identical output across runs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import linalg
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
        lines = [json.dumps(_round12(data), sort_keys=True, indent=2)]
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _dict_rows(data)
        lines = (",".join("" if v is None else str(_round12(v)) for v in row)
                 for row in rows)
    else:
        lines = _text_lines(data)
    write_lines(lines)


def write_lines(lines):
    """Print lines; when the reader closes stdout, drop the rest quietly by
    pointing stdout at devnull, as Python's docs on SIGPIPE advise."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
        if config_path and (space := ss.config_space(_read(config_path), name)):
            return space
        raise


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(
            f"cannot read config file {path}: {e.strerror or e}") from None


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
    rows = [(k, data[k]) for k in ("name", "dim_m", "dim_h", "flat_dim",
                                   "kernel_dim", "image_dim", "condition_a")]
    rows += [("eigenvalue " + f"{lam:.12g}", mult)
             for lam, mult in curv.spectrum()]
    emit(data, args.output, csv_rows=rows)
    return EXIT_OK


def cmd_classify(args):
    from . import bundles as bn
    space = load_space(args.space, args.config)
    reports = bn.classify_bundles(space, args.rank, weight_cap=args.weight_cap,
                                  tol=args.tol)
    data = {"space": space.name, "rank_bound": args.rank,
            "bundles": [r.to_dict() for r in reports]}
    rows = [("rank", "label", "type", "euler", "p1", "c1", "c2",
             "bracket", "kernel", "roundtrip")]
    for r in reports:
        ch = r.char and r.char.to_dict()
        rows.append((r.rank, r.label, r.rep_type,
                     *(ch and ch[k] for k in ("euler", "p1", "c1", "c2")),
                     *(c.ok for c in r.checks.values())))
    if args.output == "text":
        write_lines("  ".join("-" if v is None else str(_round12(v))
                              for v in row) for row in rows)
    else:
        emit(data, args.output, csv_rows=rows)
    ok = all(c.ok for r in reports for c in r.checks.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args):
    from . import bundles as bn, reps as rp, spherebundle as sb
    space = load_space(args.space, args.config)
    rep = rp.from_descriptor(args.rep, source=space.isotropy_ref)
    bundle = bn.induce(space, rep)
    # 50 random pairs, drawn a then b per pair, judged at ten times the bound
    ab = np.random.default_rng(args.seed).standard_normal(
        (50, 2, bundle.curv.dim))
    rand = float(bn.bracket_residuals(bundle, ab[:, 0], ab[:, 1]).max())
    checks = bn.check_suite(bundle, tol=args.tol)
    checks["bracket_identity_random"] = bn.IdentityReport(linalg.within(
        rand / 10, bundle.blocks, 2, args.tol), rand)
    irreducible = rp.is_irreducible(rep)
    schur = sb.schur_constancy_check(bundle, seed=args.seed, tol=args.tol)
    schur_status = ("pass" if schur.ok else
                    "fail" if irreducible else "not-applicable")
    checks_ok = all(c.ok for c in checks.values()) and schur_status != "fail"
    data = {
        "space": space.name,
        "rep": rep.label,
        "rank": rep.target_dim,
        "kernel_dim": int(bundle.curv.kernel_basis.shape[1]),
        "checks": {name: {"ok": bool(c.ok), "residual": c.max_residual}
                   for name, c in checks.items()},
        "all_passed": bool(checks_ok),
    }
    data["checks"]["schur_constancy"] = {
        "status": schur_status, "constant": schur.constant,
        "max_deviation": schur.max_deviation, "irreducible": bool(irreducible)}
    emit(data, args.output)
    return EXIT_OK if checks_ok else EXIT_CHECK_FAILED


def cmd_charclasses(args):
    from . import bundles as bn, reps as rp
    space = load_space(args.space, args.config)
    rep = rp.from_descriptor(args.rep, source=space.isotropy_ref)
    tol = args.tol or linalg.INTEGRALITY_TOL
    if bn.weight_mode_n(space):
        weight = bn.c1_weight(space, rep)
        data = {"base": space.name, "rank": rep.target_dim,
                "mode": "representation-weight", "c1_weight": weight,
                "integral": linalg.is_integral(weight, tol)}
        emit(data, args.output)
        return EXIT_OK
    bundle = bn.induce(space, rep)
    report = bn.characteristic_numbers(bundle, tolerance=tol)
    data = report.to_dict()
    data["mode"] = "chern-weil"
    data["integral"] = bool(report.integral())
    emit(data, args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so main reports them as every parse error."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    p = _Parser(
        prog="symcurv",
        description="Curvature of parallel connections over symmetric spaces",
    )
    # the options every command takes, after the command name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "csv", "text"),
                        default="json")
    common.add_argument("--tol", type=float,
                        help="tolerance override for numeric checks")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property checks")
    common.add_argument("--config",
                        help="file with user-defined spaces "
                             "(serialization format)")
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
    pv.set_defaults(func=cmd_verify)

    ph = sub.add_parser("charclasses", parents=[common],
                        help="characteristic numbers")
    ph.add_argument("space")
    ph.add_argument("rep")
    ph.set_defaults(func=cmd_charclasses)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        bad_tol = args.tol is not None and not 0 < args.tol < float("inf")
        low = [f"--{o.replace('_', '-')} must be at least {m}" for o, m in
               dict(rank=0, weight_cap=0).items()
               if getattr(args, o, m) < m]
        error = ("tolerance must be positive" if bad_tol else
                 low[0] if low else linalg.EPS_ERROR)
        if error:
            parser.error(error)
    except argparse.ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        return args.func(args)
    except Exception as e:
        from . import bundles as bn, reps as rp  # only once a command failed
        if isinstance(e, (ss.SymSpaceError, bn.UnsupportedBase,
                          bn.UnsupportedSpace, rp.UnsupportedDim,
                          rp.SourceMismatch, MemoryError, OverflowError)):
            code = EXIT_UNSUPPORTED
        elif isinstance(e, (rp.DescriptorError, ValueError)):
            code = EXIT_PARSE_ERROR
        else:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
