"""Record the expected outputs the benchmark checks against.

Run from the root of a symcurv checkout whose outputs are known good:

    python3 perfbench/record.py

It runs every CLI command once in a fresh process (seed 0), once more
through cli_child.py to take exact digests of the space's structure tensor
and curvature matrix (and to confirm that the wrapped command prints the
same), and runs every api_warm operation any seed can draw. The result
replaces perfbench/expected.json. A later change whose outputs legitimately
differ re-records and says why.
"""

import json
import os
import platform
import shutil
import sys

import run
import workloads


def main():
    work = os.path.join(os.getcwd(), ".perfbench_run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        rss = []
        expected = {"recorded_with": {"python": platform.python_version(),
                                      "numpy": run.numpy_version(work, rss)}}
        config = os.path.join(work, "spaces.txt")
        run.run_child([run.PY, "-c", workloads.CONFIG_SOURCE, config], work)
        child = os.path.join(run.HERE, "cli_child.py")
        for name, commands in workloads.CLI_WORKLOADS.items():
            rec = expected[name] = {"commands": {}, "digests": {}}
            for tmpl in commands:
                argv = workloads.cli_argv(tmpl, 0, config)
                c = run.run_child([run.PY, "-m", "symcurv.cli", *argv], work)
                wrapped = run.run_child([run.PY, child, "{out}", "plain", *argv],
                                        work)
                r = wrapped.result
                if r is None or (r["exit_code"], r["stdout"]) != (c.code, c.stdout):
                    sys.exit(f"cli_child.py run of {tmpl!r} differs from the CLI")
                rec["commands"][tmpl] = {"exit_code": c.code,
                                         "stdout": run.parse_stdout(c.stdout)}
                rec["digests"][tmpl] = r["digests"]
                print(f"{name}: {tmpl} exit {c.code} ({c.wall:.1f} s)", flush=True)
        worker = os.path.join(run.HERE, "api_worker.py")
        argv = [run.PY, worker, "{out}", "universe", "0", "0", "{spawned}"]
        c = run.run_child(argv, work)
        if c.result is None:
            sys.exit(f"api_warm universe failed:\n{c.stderr}")
        expected["api_warm"] = {"results": c.result["results"],
                                "digests": c.result["digests"]}
        print(f"api_warm: {len(c.result['results'])} operations ({c.wall:.1f} s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
