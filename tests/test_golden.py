"""The benchmark's CLI commands, run in process with seed 0, against the
exit codes, outputs and exact digests recorded in perfbench/expected.json.

The perfbench modules are loaded by file path and only read, so output or
digest drift shows up here as well as in a benchmark run.
"""

import importlib.util
import json
import os
import sys

import pytest

from symcurv import cli
from symcurv import symspace as ss

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
compare = _load("compare")
with open(os.path.join(PERFBENCH, "expected.json")) as fh:
    EXPECTED = json.load(fh)


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """The CP3cfg file, written by the benchmark's own set-up script."""
    path = str(tmp_path_factory.mktemp("perfbench") / "spaces.txt")
    argv = sys.argv
    sys.argv = ["-c", path]
    try:
        exec(workloads.CONFIG_SOURCE, {})
    finally:
        sys.argv = argv
    return path


@pytest.mark.parametrize("workload, template", [
    (w, t) for w in ("cli_spaces", "cli_bundles")
    for t in workloads.CLI_WORKLOADS[w]])
def test_benchmark_command_matches_recorded_results(monkeypatch, capsys,
                                                    config, workload,
                                                    template):
    loaded, curvatures = [], []
    load_space, curvature_operator = cli.load_space, ss.curvature_operator

    def capture_space(*args, **kwargs):
        loaded.append(load_space(*args, **kwargs))
        return loaded[-1]

    def capture_curvature(space):
        curvatures.append((space, curvature_operator(space)))
        return curvatures[-1][1]

    monkeypatch.setattr(cli, "load_space", capture_space)
    monkeypatch.setattr(ss, "curvature_operator", capture_curvature)
    code = cli.main(workloads.cli_argv(template, 0, config))
    out = capsys.readouterr().out
    try:
        stdout = json.loads(out)
    except ValueError:
        stdout = out
    recorded = EXPECTED[workload]
    assert compare.mismatches(recorded["commands"][template],
                              {"exit_code": code, "stdout": stdout}) == []
    space = loaded[-1]
    curv = [c for s, c in curvatures if s is space]
    assert recorded["digests"][template] == {
        "space": space.name,
        "structure": compare.fraction_digest(space.g.structure),
        "curvature": compare.fraction_digest(curv[-1].matrix) if curv else None,
    }
