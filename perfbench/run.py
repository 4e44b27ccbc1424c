"""symcurv benchmark runner (stdlib only).

Run from the root of a symcurv checkout:

    python3 perfbench/run.py --workload cli_spaces --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every workload is a closed loop with one client: one process at a time,
BLAS threads pinned to 1. The program is imported from ./src. The last
stdout line is a JSON object with keys correct, attempted, failed and
metrics; the lines before it are a readable report. See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PY = sys.executable
CHILD_TIMEOUT_S = 170
CPUS = sorted(os.sched_getaffinity(0))
SWITCH_S = 0.1
WORKLOADS = ("cli_spaces", "cli_bundles", "api_warm")


class Child(NamedTuple):
    """A finished child process: exit code, wall time, peak RSS, output."""
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    result: dict | None


def child_env(home):
    env = {k: v for k, v in os.environ.items()
           if k not in ("SYMCURV_TOL", "PYTHONPATH", "PYTHONHOME")}
    env.update(PYTHONPATH=os.path.join(os.getcwd(), "src"), HOME=home,
               XDG_CACHE_HOME=os.path.join(home, ".cache"), TMPDIR=home,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _move(pid, done):
    """Until done is set, move pid to the next CPU every SWITCH_S seconds;
    kill it after CHILD_TIMEOUT_S. On a shared VM the CPUs can differ in
    speed by 20% (seen on a 2-vCPU Xeon guest), so a process left where it
    lands would time its CPU, not the code; moved, it spends equal time on
    each."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    for k in itertools.count():
        try:
            os.sched_setaffinity(pid, {CPUS[k % len(CPUS)]})
        except OSError:  # exited, or affinity not permitted here
            pass
        if done.wait(SWITCH_S):
            return
        if time.perf_counter() > deadline:
            os.kill(pid, signal.SIGKILL)
            return


def run_child(argv, work):
    """Run argv in a fresh empty HOME/cwd under work and reap it with wait4,
    so the peak RSS is this child's alone (or the peak_rss_kb the child
    reports, when it hashes its results after the measured work). "{out}"
    in argv names a JSON file the child may write, parsed into
    Child.result; "{spawned}" becomes time.monotonic() at the start."""
    home = tempfile.mkdtemp(dir=work)
    out_path = os.path.join(home, "result.json")
    stdout_path = os.path.join(home, "stdout.txt")
    stderr_path = os.path.join(home, "stderr.txt")
    with open(stdout_path, "w") as fo, open(stderr_path, "w") as fe:
        spawned = repr(time.monotonic())
        argv = [a.replace("{out}", out_path).replace("{spawned}", spawned)
                for a in argv]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=home, env=child_env(home),
                                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        done = threading.Event()
        mover = threading.Thread(target=_move, args=(proc.pid, done))
        mover.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            mover.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as fh:
        stdout = fh.read()
    with open(stderr_path) as fh:
        stderr = fh.read()
    result = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            result = json.load(fh)
    shutil.rmtree(home)
    peak_kb = usage.ru_maxrss
    if result is not None and "peak_rss_kb" in result:
        peak_kb = result["peak_rss_kb"]  # taken before the child's hashing
    return Child(proc.returncode, wall, peak_kb / 1024.0, stdout, stderr,
                 result)


def parse_stdout(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def numpy_version(work, rss):
    """Import the package once before timing: reports the numpy version
    and leaves the bytecode cache warm, as an installed package has it."""
    c = run_child([PY, "-c", "import numpy, symcurv.cli; print(numpy.__version__)"],
                  work)
    rss.append(c.rss_mb)
    if c.code != 0:
        raise SystemExit(f"error: cannot import symcurv from ./src:\n{c.stderr}")
    return c.stdout.strip()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, expected, actual):
        self.attempted += 1
        found = compare.mismatches(expected, actual)
        if found:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(found[:3]))


def trace_metrics(layer_self, counts, overhead, traced_wall, reject_ratio):
    out = {f"{name}_s": layer_self.get(name, 0.0) for name in spans.LAYER_NAMES}
    out["symspace.lambda2_entries"] = counts.get("symspace.lambda2_entries", 0)
    out["bundles.ops"] = counts.get("bundles.ops", 0)
    out["exact.rref_calls"] = counts.get("exact.rref_calls", 0)
    out["bundles.reject_ratio"] = reject_ratio
    out["trace.overhead_s"] = overhead
    out["trace.wall_s"] = traced_wall
    return out


def add(total, part):
    for k, v in part.items():
        total[k] = total.get(k, 0) + v


def run_cli(name, args, expected, work):
    exp = expected[name]
    commands = workloads.CLI_WORKLOADS[name]
    config = os.path.join(work, "spaces.txt")
    child = os.path.join(HERE, "cli_child.py")
    rss, tally, info = [], Tally(), {}
    info["numpy"] = numpy_version(work, rss)
    if "{config}" in " ".join(commands):
        c = run_child([PY, "-c", workloads.CONFIG_SOURCE, config], work)
        rss.append(c.rss_mb)
    per_cmd = {t: [] for t in commands}
    setups = []

    def command(tmpl, mode):
        """Run one command through cli_child.py and check its exit code,
        stdout and digests. Returns (command time, child result or None);
        the time excludes the hashing done after the command returned."""
        argv = workloads.cli_argv(tmpl, args.seed, config)
        c = run_child([PY, child, "{out}", mode, *argv], work)
        rss.append(c.rss_mb)
        r = c.result
        label = tmpl if mode == "plain" else tmpl + " [traced]"
        if r is None:
            tally.check(f"{label} [exit {c.code}]", "result", None)
            return c.wall, None
        tally.check(label,
                    {**exp["commands"][tmpl], "digests": exp["digests"][tmpl]},
                    {"exit_code": r["exit_code"],
                     "stdout": parse_stdout(r["stdout"]),
                     "digests": r["digests"]})
        return c.wall - r["post_s"], r

    def one_pass():
        total = 0.0
        for tmpl in commands:
            if not args.trace and not per_cmd[tmpl]:
                # set-up samples spread over the first pass
                setups.append(run_child([PY, "-c", "import symcurv.cli"], work))
            wall, _ = command(tmpl, "plain")
            per_cmd[tmpl].append(wall)
            total += wall
        return total

    if not args.trace:
        walls = workloads.passes_until(args.seconds, one_pass)
        rss += [c.rss_mb for c in setups]
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(c.wall for c in setups),
                   "peak_rss_mb": max(rss)}
    else:
        walls = workloads.passes_until(args.seconds / 2, one_pass)
        layer_self, counts, top, traced_wall = {}, {}, {}, 0.0
        for tmpl in commands:
            wall, r = command(tmpl, "traced")
            if r is None:
                continue
            traced_wall += wall
            own = spans.self_times(r["spans"])
            own["cli.self"] = wall - spans.top_level_time(r["spans"])
            add(layer_self, own)
            top[tmpl] = sorted(own.items(), key=lambda kv: -kv[1])[:3]
            add(counts, spans.counts(r["spans"]))
            add(counts, {"symspace.lambda2_entries": r["lambda2_entries"]})
            info["missing"] = r["missing"]
        metrics = trace_metrics(layer_self, counts,
                                traced_wall - statistics.median(walls),
                                traced_wall, 0.0)
        info["top_layers"] = top
    info["passes"] = walls
    info["per_command_s"] = {t: statistics.median(v) for t, v in per_cmd.items()}
    return metrics, tally, info


def api_expected(exp, op):
    """Expected result of one api_warm operation: a perturbed input must be
    rejected; any other must reproduce the recorded result."""
    base, labels, perturbed = op
    if perturbed:
        return {"rejected": True}
    return exp["results"][workloads.pair_key(base, labels)]


def run_api(args, expected, work):
    exp = expected["api_warm"]
    worker = os.path.join(HERE, "api_worker.py")
    rss, tally, info = [], Tally(), {}
    info["numpy"] = numpy_version(work, rss)

    def worker_run(mode, seconds):
        c = run_child([PY, worker, "{out}", mode, str(args.seed), str(seconds),
                       "{spawned}"], work)
        rss.append(c.rss_mb)
        if c.result is None:
            raise SystemExit(f"error: api_warm worker ({mode}) exited "
                             f"{c.code}:\n{c.stderr}")
        return c.result

    def check(r, label):
        for p, results in enumerate(r["results"]):
            for op, res in zip(r["ops"], results):
                key = workloads.pair_key(op[0], op[1])
                tally.check(f"{label} pass {p} {key}", api_expected(exp, op), res)
        for base, want in exp["digests"].items():
            tally.check(f"{label} digests {base}", want, r["digests"].get(base))

    if not args.trace:
        # set-up samples before, in and after the loop process
        before = worker_run("setup", 0)
        loop = worker_run("loop", args.seconds)
        after = worker_run("setup", 0)
        check(loop, "loop")
        metrics = {"wall_s": statistics.median(loop["passes"]),
                   "setup_s": statistics.median(
                       r["setup_s"] for r in (before, loop, after)),
                   "peak_rss_mb": max(rss)}
    else:
        loop = worker_run("loop", args.seconds / 2)
        check(loop, "loop")
        traced = worker_run("traced", 0)
        check(traced, "traced")
        first = traced["loop_spans_from"]
        layer_self = spans.self_times(traced["spans"], first)
        counts = spans.counts(traced["spans"], first)
        counts["symspace.lambda2_entries"] = traced["lambda2_entries"]
        perturbed = [res["rejected"] for r in (loop, traced)
                     for results in r["results"]
                     for (_, _, p), res in zip(r["ops"], results) if p]
        traced_wall = traced["passes"][0]
        metrics = trace_metrics(
            layer_self, counts, traced_wall - statistics.median(loop["passes"]),
            traced_wall, sum(perturbed) / len(perturbed) if perturbed else 0.0)
        info["setup_layer_self"] = spans.self_times(traced["spans"][:first])
        info["missing"] = traced["missing"]
    info["passes"] = loop["passes"]
    return metrics, tally, info


def report(name, args, metrics, tally, info, env):
    print(f"== {name}  seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"   env: python={env['python']} numpy={info['numpy']} "
          f"nproc={env['nproc']} cpu={env['cpu']}")
    passes = ", ".join(f"{w:.3f}" for w in info["passes"])
    print(f"   passes (s): {passes}")
    if not args.trace:
        for k, v in metrics.items():
            print(f"   {k:<12} {v:12.4f} {unit_of(k)}")
    ratio = tally.failed / tally.attempted
    print(f"   {'fail_ratio':<12} {ratio:12.4f} ratio "
          f"({tally.failed} of {tally.attempted} checks)")
    for tmpl, wall in info.get("per_command_s", {}).items():
        print(f"     {wall:9.3f} s  {tmpl}")
    if args.trace:
        wall = metrics["trace.wall_s"]
        print(f"   traced wall {wall:.4f} s, tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s (traced minus untraced)")
        print(f"   {'layer':<26} {'self s':>10} {'share':>7}")
        for k, v in metrics.items():
            if k.endswith("_s") and not k.startswith("trace."):
                print(f"   {k:<26} {v:10.4f} {v / wall:7.1%}")
        for k in ("symspace.lambda2_entries", "bundles.ops",
                  "exact.rref_calls", "bundles.reject_ratio"):
            print(f"   {k:<26} {metrics[k]:10g}")
        for tmpl, layers in info.get("top_layers", {}).items():
            print(f"   largest in {tmpl}: " + ", ".join(
                f"{k}_s {v:.3f}" for k, v in layers))
        if info.get("setup_layer_self"):
            print("   set-up layers (outside the timed loop):")
            for k, v in sorted(info["setup_layer_self"].items()):
                print(f"     {k + '_s':<24} {v:10.4f}")
        if info.get("missing"):
            print("   not wrapped (absent): " + ", ".join(info["missing"]))
    for p in tally.problems[:20]:
        print(f"   MISMATCH {p}")


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "symcurv", "__init__.py")):
        print("error: run from the root of a symcurv checkout "
              "(src/symcurv not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    env = environment()
    work = os.path.join(root, ".perfbench_run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    attempted = failed = 0
    try:
        for name in names:
            if name == "api_warm":
                m, tally, info = run_api(args, expected, work)
            else:
                m, tally, info = run_cli(name, args, expected, work)
            report(name, args, m, tally, info, env)
            for k, v in m.items():
                key = k if len(names) == 1 else f"{name}.{k}"
                metrics[key] = {"value": v, "unit": unit_of(k)}
            attempted += tally.attempted
            failed += tally.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric):
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
