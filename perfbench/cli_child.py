"""One symcurv command in a fresh process, with its exact results hashed.

Usage: python cli_child.py OUT.json MODE ARG...

Runs symcurv.cli.main(ARGS) and, after it returns, writes the exit code,
stdout and exact digests of the loaded space's structure tensor and (when
the command built it) curvature matrix to OUT.json. post_s is the time
spent after cli.main returned, which the caller subtracts from the command
time; peak_rss_kb is the process's peak RSS when it returned, before the
hashing. MODE "plain" only captures the space and curvature operator; MODE
"traced" also installs the layer spans and writes them out.
"""

import contextlib
import io
import json
import resource
import sys
import time

import compare
import spans
from symcurv import cli


def main(out_path, mode, argv):
    curvatures = []
    spans.capture_curvatures(curvatures)
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)
    loaded = []
    load_space = cli.load_space

    def capture(*args, **kwargs):
        space = load_space(*args, **kwargs)
        loaded.append(space)
        return space

    cli.load_space = capture
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse errors
            code = e.code
    post_start = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digests = None
    if loaded:
        space = loaded[-1]
        curv = [c for s, c in curvatures if s is space]
        digests = {
            "space": space.name,
            "structure": compare.fraction_digest(space.g.structure),
            "curvature": compare.fraction_digest(curv[-1].matrix) if curv else None,
        }
    payload = {"exit_code": code, "stdout": buf.getvalue(), "digests": digests,
               "lambda2_entries": sum(c.dim ** 2 for _, c in curvatures),
               "peak_rss_kb": peak_kb}
    if tracer is not None:
        payload.update(spans=tracer.spans, missing=tracer.missing)
    payload["post_s"] = time.perf_counter() - post_start
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
