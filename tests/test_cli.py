"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import fcntl
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import symcurv
from symcurv import _exact as ex
from symcurv import bundles as bn
from symcurv import cli, liealg, reps
from symcurv import symspace as ss


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info_json(capsys):
    code, out = run(capsys, "info", "S4")
    assert code == 0
    data = json.loads(out)
    assert data["dim_m"] == 4
    assert data["condition_a"] == "holds"


def test_info_text(capsys):
    code, out = run(capsys, "info", "CP2", "--output", "text")
    assert code == 0
    assert "condition_a" in out


def test_info_unknown_space(capsys):
    code, _ = run(capsys, "info", "S17")
    assert code == cli.EXIT_UNSUPPORTED


def test_classify_s4(capsys):
    code, out = run(capsys, "classify", "S4", "--rank", "4")
    assert code == 0
    data = json.loads(out)
    rank4 = [b for b in data["bundles"] if b["rank"] == 4]
    assert len(rank4) == 6
    pairs = sorted((b["char"]["euler"], b["char"]["p1"]) for b in rank4)
    assert pairs == [(-1.0, -2.0), (0.0, -4.0), (0.0, 0.0), (0.0, 4.0),
                     (1.0, 2.0), (2.0, 0.0)]


def test_classify_csv(capsys):
    code, out = run(capsys, "classify", "S2", "--rank", "2",
                    "--weight-cap", "3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 1 and "," in lines[0]


def test_classify_missing_rank(capsys):
    assert cli.main(["classify", "S4"]) == cli.EXIT_PARSE_ERROR
    assert capsys.readouterr().err == (
        "error: the following arguments are required: --rank\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--help"])
    assert exc.value.code == 0
    assert "--rank" in capsys.readouterr().out


def test_classify_unsupported(capsys):
    code, _ = run(capsys, "classify", "S6", "--rank", "4")
    assert code == cli.EXIT_UNSUPPORTED


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "S4", "spin4:(1,0)")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    checks = data["checks"]
    assert checks["bracket_identity"]["ok"]
    assert checks["kernel_inclusion"]["ok"]
    assert checks["reconstruction_roundtrip"]["ok"]
    assert checks["schur_constancy"]["status"] == "pass"


def test_verify_reducible_schur_not_applicable(capsys):
    code, out = run(capsys, "verify", "S4", "sum(spin4:(1,0),trivial:1)")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["schur_constancy"]["status"] == "not-applicable"
    assert data["all_passed"] is True


def test_verify_schur_honours_tol(capsys):
    # sampling leaves a deviation of about 1.3e-15 on this irreducible
    _, out = run(capsys, "verify", "S4", "spin4:(1,0)", "--tol", "1e-30")
    schur = json.loads(out)["checks"]["schur_constancy"]
    assert schur["irreducible"] and schur["status"] == "fail"
    assert 0 < schur["max_deviation"] < 1e-12


def test_verify_rank_zero(capsys):
    # a rank-0 bundle: the commutant has no unknowns and an empty basis
    code, out = run(capsys, "verify", "S4", "trivial:0")
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["all_passed"] and data["rank"] == 0


def test_verify_bad_descriptor(capsys):
    code, _ = run(capsys, "verify", "S4", "spin4:(1")
    assert code == cli.EXIT_PARSE_ERROR


def test_verify_wrong_source(capsys):
    code, _ = run(capsys, "verify", "S4", "spin2:3")
    assert code == cli.EXIT_UNSUPPORTED


def test_verify_sum_over_two_algebras(capsys):
    # su2:2 acts on su(2); the trivial part takes S3's so(3)
    code, err = _run_err(capsys, "verify", "S3", "sum(su2:2,trivial:1)")
    assert code == cli.EXIT_UNSUPPORTED
    assert err == "error: su(2) vs so(3)\n"


def test_charclasses_spinor(capsys):
    code, out = run(capsys, "charclasses", "S4", "spin4:(1,0)")
    assert code == 0
    data = json.loads(out)
    assert data["euler"] == 1.0
    assert data["p1"] == 2.0
    assert data["c2"] == -1.0


def test_charclasses_alias(capsys):
    code, out = run(capsys, "charclasses", "CP1", "un_det:1")
    assert code == 0
    assert json.loads(out)["c1"] == 1.0


@pytest.mark.parametrize("space, desc, rank", [
    ("CP2", "sum(un_det:1,un_fund:1)", 6),
    ("S5", "sum(spin_fund:5,trivial:1)", 9),
    ("S2xS3", "ext(spin2:2,spin_fund:3)", 6),
    ("S2xS3", "ext(trivial:1,spinor:3)", 5),
    ("CP1xS2", "ext(un_det:1,spin2:2)", 4),
])
def test_aliases_inside_sum_and_ext(capsys, space, desc, rank):
    code, out = run(capsys, "verify", space, desc)
    assert code == 0
    assert json.loads(out)["rank"] == rank


def test_charclasses_cp2_weight_mode(capsys):
    code, out = run(capsys, "charclasses", "CP2", "un_det:1")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "representation-weight"
    assert data["c1_weight"] == 1.0


def test_charclasses_weight_mode_needs_a_u_n_isotropy(tmp_path, capsys):
    # complex_n on S4's so(4) does not make it a CP^2 base
    path = tmp_path / "spaces.txt"
    path.write_text(_renamed_text("S4", "S4j") + "isotropy complex_n 2\n")
    s4j = ss.space_from_text(path.read_text())
    assert s4j.isotropy_ref.complex_n == 2
    with pytest.raises(bn.UnsupportedBase):  # c1_weight checks its base
        bn.c1_weight(s4j, reps.spin4_irrep(1, 0))
    code, want = run(capsys, "charclasses", "S4", "spin4:(1,0)")
    got = run(capsys, "charclasses", "S4j", "spin4:(1,0)", "--config",
              str(path))
    assert json.loads(want)["mode"] == "chern-weil"
    assert got == (code, want.replace('"S4"', '"S4j"'))


def test_config_flat_dim_line_is_ignored(tmp_path, capsys):
    # CP2xR1 labelled flat_dim 0: the flat factor is computed from the
    # brackets, so the file's line changes neither info nor the weight mode
    path = tmp_path / "spaces.txt"
    path.write_text(_renamed_text("CP2xR1", "PR") + "flat_dim 0\n")
    for argv in (["info"], ["charclasses", "un_det:1"]):
        code, want = run(capsys, argv[0], "CP2xR1", *argv[1:])
        got = run(capsys, argv[0], "PR", *argv[1:], "--config", str(path))
        assert got == (code, want.replace('"CP2xR1"', '"PR"')), argv
    assert json.loads(got[1])["mode"] == "representation-weight"
    assert json.loads(run(capsys, "info", "PR", "--config",
                          str(path))[1])["flat_dim"] == 1


def test_charclasses_unsupported_base(capsys):
    code, _ = run(capsys, "charclasses", "S5", "spinor:5")
    assert code == cli.EXIT_UNSUPPORTED


def test_determinism(capsys):
    _, first = run(capsys, "classify", "S4", "--rank", "4", "--seed", "5")
    _, second = run(capsys, "classify", "S4", "--rank", "4", "--seed", "5")
    assert first == second
    _, v1 = run(capsys, "verify", "S4", "spin4:(2,0)", "--seed", "9")
    _, v2 = run(capsys, "verify", "S4", "spin4:(2,0)", "--seed", "9")
    assert v1 == v2


def test_config_space(tmp_path, capsys):
    from symcurv import symspace as ss
    text = ss.space_to_text(ss.catalog("S3"))
    path = tmp_path / "spaces.txt"
    path.write_text(text)
    code, out = run(capsys, "info", "S3", "--config", str(path))
    assert code == 0
    assert json.loads(out)["dim_m"] == 3


_ROUNDTRIP_SPACES = [f"S{n}" for n in range(2, 9)] + ["CP1", "CP2", "CP3"] + [
    f"R{n}" for n in range(1, 5)] + ["SU2_group", "S2xS3"]


@pytest.mark.parametrize("name", _ROUNDTRIP_SPACES)
def test_config_roundtrip_under_new_name(tmp_path, capsys, name):
    space = ss.catalog(name)
    new = f"{name}cfg"
    path = tmp_path / "spaces.txt"
    path.write_text(ss.space_to_text(dataclasses.replace(space, name=new)))
    back = ss.space_from_text(path.read_text())
    assert back.isotropy_ref.name == space.isotropy_ref.name
    assert back.isotropy_ref.complex_n == space.isotropy_ref.complex_n
    for cmd in (["info"], ["classify", "--rank", "3", "--weight-cap", "2"]):
        code, want = run(capsys, cmd[0], name, *cmd[1:])
        got = run(capsys, cmd[0], new, *cmd[1:], "--config", str(path))
        assert got == (code, want.replace(f'"{name}"', f'"{new}"')), cmd


def test_config_space_runs_bundle_commands(tmp_path, capsys):
    # misleading names: commands must go by the space's data, not its name
    names = {"S4": "CP4copy", "CP2": "P2copy"}
    path = tmp_path / "spaces.txt"
    path.write_text("\n".join(
        ss.space_to_text(dataclasses.replace(ss.catalog(n), name=new))
        for n, new in names.items()))
    for argv in (["verify", "S4", "spin4:(1,0)"],
                 ["charclasses", "S4", "spin4:(1,0)"],
                 ["verify", "CP2", "un_fund:1"],
                 ["charclasses", "CP2", "un_det:1"]):
        code, want = run(capsys, *argv)
        new = names[argv[1]]
        got = run(capsys, argv[0], new, *argv[2:], "--config", str(path))
        assert code == 0
        assert got == (code, want.replace(f'"{argv[1]}"', f'"{new}"'))


def test_classify_honours_tol(capsys):
    _, default = run(capsys, "classify", "S4", "--rank", "3")
    _, explicit = run(capsys, "classify", "S4", "--rank", "3", "--tol", "1e-8")
    assert default == explicit
    assert all(b["verified"]["bracket_identity"]
               for b in json.loads(default)["bundles"])
    # rounding leaves bracket residuals of about 1e-16 on some spin4 irreps
    # (on S2 every residual is exactly 0, so no tolerance fails there)
    code, out = run(capsys, "classify", "S4", "--rank", "3", "--tol", "1e-30")
    assert code == cli.EXIT_CHECK_FAILED
    failed = {b["label"] for b in json.loads(out)["bundles"]
              if not b["verified"]["bracket_identity"]}
    assert failed and "trivial:1" not in failed


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_tol_flag_is_a_parse_error(capsys, value):
    assert cli.main(["info", "S2", "--tol", value]) == cli.EXIT_PARSE_ERROR
    assert capsys.readouterr().err == "error: tolerance must be positive\n"


def _assert_rejected_before_work(capsys, monkeypatch, argv, message):
    def load_space(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "load_space", load_space)
    assert cli.main(argv) == cli.EXIT_PARSE_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_samples_below_one_is_a_parse_error(capsys, monkeypatch, value):
    # --samples 0 once skipped the Schur check and reported it passed; the
    # check now draws a fixed number of samples and --samples is no option
    _assert_rejected_before_work(
        capsys, monkeypatch,
        ["verify", "S4", "sum(spin4:(1,0),trivial:1)", "--samples", value],
        f"unrecognized arguments: --samples {value}")


@pytest.mark.parametrize("option", [("--output", "csv"), ("--tol", "1e-8"),
                                    ("--seed", "3"), ("--config", "x.txt")])
def test_common_options_follow_the_command(capsys, monkeypatch, option):
    # each command declares --output, --tol, --seed and --config; the
    # program itself takes none of them
    assert run(capsys, "info", "S2", *option)[0] == cli.EXIT_OK
    monkeypatch.setattr(cli, "load_space", lambda *args: pytest.fail("ran"))
    assert cli.main([*option, "info", "S2"]) == cli.EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: argument command: ")
    assert len(err.splitlines()) == 1


def test_negative_rank_is_a_parse_error(capsys, monkeypatch):
    # it once printed an empty table and exited 0
    _assert_rejected_before_work(capsys, monkeypatch,
                                 ["classify", "CP2", "--rank", "-1"],
                                 "--rank must be at least 0")


def test_negative_weight_cap_is_a_parse_error(capsys, monkeypatch):
    # it once dropped every twist from the CP2 pool without a word
    _assert_rejected_before_work(
        capsys, monkeypatch,
        ["classify", "CP2", "--rank", "4", "--weight-cap", "-1"],
        "--weight-cap must be at least 0")


def test_least_option_values_still_run(capsys):
    assert cli.main(["classify", "CP2", "--rank", "0"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["bundles"] == []
    assert cli.main(["classify", "CP2", "--rank", "2", "--weight-cap", "0"]) \
        == cli.EXIT_OK
    labels = [b["label"] for b in json.loads(capsys.readouterr().out)["bundles"]]
    assert labels == ["trivial:1", "sum(trivial:1,trivial:1)"]


def _env(**extra):
    src = os.path.dirname(os.path.dirname(symcurv.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_symcurv_tol_is_a_parse_error(value):
    env = _env(SYMCURV_TOL=value)
    imp = subprocess.run([sys.executable, "-c", "import symcurv"], env=env,
                         capture_output=True, text=True)
    assert imp.returncode == 0, imp.stderr
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "info", "S2"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == cli.EXIT_PARSE_ERROR
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "SYMCURV_TOL" in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_symcurv_tol_moves_every_verify_check():
    # the random-pair residual here is about 3.6e-15: far below 1e-8, far
    # above the 10 * SYMCURV_TOL bound every verify check is judged against
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "verify", "S4",
                          "spin4:(1,0)"],
                         env=_env(SYMCURV_TOL="1e-20"), capture_output=True,
                         text=True)
    assert res.returncode == cli.EXIT_CHECK_FAILED, res.stderr
    checks = json.loads(res.stdout)["checks"]
    check = checks["bracket_identity_random"]
    assert not check["ok"] and 0 < check["residual"] < 1e-8
    # the commutant's rank cutoff follows float64 precision, not the tolerance
    schur = checks["schur_constancy"]
    assert schur["irreducible"] and schur["status"] == "fail"


def test_info_where_condition_a_fails_writes_no_warning(capsys):
    # S3xR2 fails Condition A, so info takes the witness path: a kernel
    # vector commuting with Im R^M, normalized in float
    _, want = run(capsys, "info", "S3xR2")
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "info", "S3xR2"],
                         env=_env(), capture_output=True, text=True)
    assert res.returncode == cli.EXIT_OK
    assert res.stdout == want and res.stderr == ""


@pytest.mark.parametrize("space", ["CP2", "CP3"])
def test_tiny_symcurv_tol_leaves_info_unchanged(capsys, space):
    # info judges no residual: its spectrum is clustered at a gap set by
    # float64 precision, which a tolerance below rounding does not move
    _, want = run(capsys, "info", space)
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "info", space],
                         env=_env(SYMCURV_TOL="1e-20"), capture_output=True,
                         text=True)
    assert res.returncode == cli.EXIT_OK, res.stderr
    assert res.stdout == want and res.stderr == ""


def test_tiny_symcurv_tol_still_builds_real_forms():
    # real_form tests its fixed space to float64 precision, so a tolerance
    # below rounding fails the checks it judges, not the construction
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "verify", "S4",
                          "spin4:(2,0)"],
                         env=_env(SYMCURV_TOL="1e-20"), capture_output=True,
                         text=True)
    assert res.returncode == cli.EXIT_CHECK_FAILED and res.stderr == ""
    assert json.loads(res.stdout)["checks"]["schur_constancy"]["irreducible"]


def test_check_verdicts_follow_a_rescaled_metric(tmp_path):
    # S4 of radius 1e-3: R^M and every block grow by 1e6, and so does each
    # residual, to the degree of its check; the verdicts must not move
    space = dataclasses.replace(
        ss.rescale_metric(ss.catalog("S4"), Fraction(1, 10**6)), name="S4mm")
    path = tmp_path / "spaces.txt"
    path.write_text(ss.space_to_text(space))
    common = ["--config", str(path)]
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "verify",
                          "S4mm", "spin4:(3,2)", *common], env=_env(),
                         capture_output=True, text=True)
    assert res.returncode == cli.EXIT_OK, res.stdout + res.stderr
    assert json.loads(res.stdout)["all_passed"]
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", "classify",
                          "S4mm", "--rank", "4", "--config", str(path)],
                         env=_env(), capture_output=True, text=True)
    assert res.returncode == cli.EXIT_OK, res.stderr
    bundles = json.loads(res.stdout)["bundles"]
    assert len(bundles) == 11
    assert all(all(b["verified"].values()) for b in bundles), bundles


def test_closed_pipe_ends_quietly():
    # the reader takes one line and closes the pipe while the command is
    # still writing: a pipe of one page holds less than its 16 kB, so the
    # write after the close always fails
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "symcurv.cli", "classify",
                             "CP2", "--rank", "4"], env=_env(),
                            stdout=write_fd, stderr=subprocess.PIPE)
    os.close(write_fd)
    first = b""
    while not first.endswith(b"\n"):
        first += os.read(read_fd, 1)
    os.close(read_fd)
    _, err = proc.communicate()
    assert first == b"{\n"
    assert (proc.returncode, err) == (cli.EXIT_OK, b"")


# Runs argv and prints its exit code and ru_maxrss, then its stdout. A
# child's ru_maxrss starts at its parent's RSS, so the measured run is
# forked from this small process rather than from the test process.
_PEAK_RSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)\n"
    "out = p.stdout.read()\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)\n"
    "sys.stdout.buffer.write(out)\n"
)


def _peak_rss_run(*argv, **env):
    """(stdout, peak RSS in KiB) of a fresh `symcurv` process that exits 0."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_LAUNCHER,
                           sys.executable, "-m", "symcurv.cli", *argv],
                          env=_env(**env), capture_output=True)
    head, out = proc.stdout.split(b"\n", 1)
    code, peak_kb = map(int, head.split())
    assert proc.returncode == 0 and code == cli.EXIT_OK, proc.stderr
    return out, peak_kb


def test_verify_spinor8_peak_memory():
    # the commutant of the 32-dim spinor rep once took a (28672, 1024)
    # system and about 985 MB, then a (28672, 128) one and about 81 MB; the
    # checks now hold one chunk of their rows at a time, about 43 MB
    out, peak_kb = _peak_rss_run("verify", "S8", "spinor:8",
                                 SYMCURV_TOL="1e-9")  # the default
    assert not json.loads(out)["checks"]["schur_constancy"]["irreducible"]
    assert peak_kb < 60 * 1024  # KiB on Linux


def test_verify_spinor_sum_peak_memory():
    # the commutant's (21504, 256) system, held whole, took about 90 MB;
    # its closed-form normal matrix takes this to about 43 MB
    out, peak_kb = _peak_rss_run("verify", "S7", "sum(spinor:7,spinor:7)")
    assert json.loads(out)["all_passed"]
    assert peak_kb < 60 * 1024  # KiB on Linux


def test_verify_product_bundle_peak_memory():
    # the bracket identity once held every basis pair's one-hot rows and
    # re-derived each block from them, about 73 MB; reading the blocks in
    # chunks of i takes about 50 MB
    out, peak_kb = _peak_rss_run("verify", "S8xS8", "ext(spinor:8,trivial:1)")
    assert json.loads(out)["all_passed"]
    assert peak_kb < 60 * 1024  # KiB on Linux


def test_verify_spin4_peak_memory():
    # the commutant's constraint system took this to about 124 MB; its
    # closed-form normal matrix takes about 54 MB
    out, peak_kb = _peak_rss_run("verify", "S4", "spin4:(12,12)")
    assert json.loads(out)["all_passed"]
    assert peak_kb < 80 * 1024  # KiB on Linux


@pytest.mark.parametrize("space, limit_mb", [("S6xS6xS6", 48),
                                             ("S8xS8xS8", 80)],
                         ids=["S6xS6xS6", "S8xS8xS8"])
def test_info_product_space_peak_memory(space, limit_mb):
    # Condition A once held every bracket [ker, Im] at once, 153 x 4860 and
    # 276 x 16128 entries: about 60 and 196 MB. One image column's brackets
    # at a time take about 38 and 60 MB
    out, peak_kb = _peak_rss_run("info", space)
    assert json.loads(out)["condition_a"] == "holds"
    assert peak_kb < limit_mb * 1024  # KiB on Linux


# Prints the symcurv modules, and numpy.random if it is loaded, after
# `import symcurv.cli` and, given arguments, after cli.main ran them. A
# fresh interpreter is needed: pytest has imported every module into this
# one.
_LOADED_MODULES = (
    "import sys\n"
    "from symcurv import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, *(m for m in sys.modules\n"
    "              if m.startswith('symcurv.') or m == 'numpy.random'))\n"
)
_BUNDLE_LAYERS = {"symcurv.bundles", "symcurv.reps", "symcurv.spherebundle"}
# importing numpy.random adds about 6 MB of RSS; only verify samples
_NO_SAMPLING = {"symcurv.spherebundle", "numpy.random"}


@pytest.mark.parametrize("argv, absent", [
    ((), _BUNDLE_LAYERS),
    (("info", "S7"), _BUNDLE_LAYERS | {"numpy.random"}),
    (("classify", "S4", "--rank", "4"), _NO_SAMPLING),
    (("charclasses", "CP2", "un_det:1"), _NO_SAMPLING),
])
def test_command_loads_only_its_layers(argv, absent):
    res = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                         env=_env(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    code, *loaded = res.stdout.splitlines()[-1].split()
    assert code == "0", res.stderr
    assert "symcurv.symspace" in loaded and not absent & set(loaded)


def test_package_attributes_import_submodules():
    res = subprocess.run(
        [sys.executable, "-c", "import symcurv\n"
         "print(symcurv.bundles.induce.__name__, hasattr(symcurv, 'nope'))"],
        env=_env(), capture_output=True, text=True)
    assert res.stdout == "induce False\n", res.stderr


_HUGE = 10 ** 400


@pytest.mark.parametrize("argv, code", [
    (("info", "S17"), cli.EXIT_UNSUPPORTED),  # UnknownSpace
    (("info", "Bad", "--config", "spaces.txt"),
     cli.EXIT_UNSUPPORTED),  # SymSpaceError: MetricNotInvariant
    (("charclasses", "S5", "spinor:5"), cli.EXIT_UNSUPPORTED),  # UnsupportedBase
    (("classify", "S6", "--rank", "4"), cli.EXIT_UNSUPPORTED),  # UnsupportedSpace
    (("verify", "S4", "spinor:9"), cli.EXIT_UNSUPPORTED),  # UnsupportedDim
    (("verify", "S4", "spin2:3"), cli.EXIT_UNSUPPORTED),  # SourceMismatch
    (("verify", "S4", "spin4:(1"), cli.EXIT_PARSE_ERROR),  # DescriptorError
    (("classify", "S4", "--rank", "x"), cli.EXIT_PARSE_ERROR),  # usage error
    (("info", "S2", "--output", "xml"), cli.EXIT_PARSE_ERROR),  # usage error
    (("info", "Foo", "--config", "absent.txt"),
     cli.EXIT_PARSE_ERROR),  # ValueError: an unreadable file
    # OverflowError: a descriptor integer too large for a float
    (("verify", "S2", f"spin2:{_HUGE}"), cli.EXIT_UNSUPPORTED),
    (("verify", "CP1", f"det:(1,{_HUGE})"), cli.EXIT_UNSUPPORTED),
    (("verify", "CP1", f"un_det:{_HUGE}"), cli.EXIT_UNSUPPORTED),
    (("charclasses", "CP2", f"fund:(2,{_HUGE})"), cli.EXIT_UNSUPPORTED),
    # ValueError: a zero denominator, a value that is not an integer, or h
    # indices out of range or repeated
    (("info", "Zm", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("verify", "Zi", "spinor:3", "--config", "spaces.txt"),
     cli.EXIT_PARSE_ERROR),
    (("charclasses", "Zc", "spinor:3", "--config", "spaces.txt"),
     cli.EXIT_PARSE_ERROR),
    (("info", "Zt", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("info", "Ci", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("info", "Hx", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("info", "H9", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("info", "H4", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("info", "Dx", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
    (("info", "Nx", "--config", "spaces.txt"), cli.EXIT_PARSE_ERROR),
])
def test_fresh_process_error_exits_with_one_line(tmp_path, argv, code):
    # the bundle layers' error classes are imported on the error path only,
    # which an in-process test cannot reach: pytest has them loaded
    text = _renamed_text("S3", "Bad")
    blocks = [text.replace("\nmetric 1 1 1\n", "\nmetric 1 1 2\n")]
    for name, old, new in [
            ("Zm", "metric 1 1 1", "metric 1/0 1 1"),
            ("Zi", "ip 0 0 1", "ip 0 0 1/0"),
            ("Zc", "c 0 1 3 1", "c 0 1 3 1/0"),
            ("Zt", "isotropy ip 0 0 1", "isotropy mat 0 0 1 1/0"),
            ("Ci", "c 0 1 3 1", "c 0 1.5 3 1"),
            ("Hx", "h_indices 3 4 5", "h_indices 3 4 x"),
            ("H9", "h_indices 3 4 5", "h_indices 3 4 9"),
            ("H4", "h_indices 3 4 5", "h_indices 3 4 4"),
            ("Dx", "dim 6", "dim x"),
            ("Nx", "isotropy ip 0 0 1", "isotropy ip 0 0 1\nisotropy complex_n x")]:
        renamed = _renamed_text("S3", name)
        assert f"\n{old}\n" in renamed
        blocks.append(renamed.replace(f"\n{old}\n", f"\n{new}\n"))
    (tmp_path / "spaces.txt").write_text("\n".join(blocks))
    res = subprocess.run([sys.executable, "-m", "symcurv.cli", *argv],
                         cwd=tmp_path, env=_env(), capture_output=True,
                         text=True)
    assert (res.returncode, res.stdout) == (code, "")
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.splitlines()) == 1


def _run_err(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def test_missing_config_file_is_a_parse_error(tmp_path, capsys):
    for path in (tmp_path / "absent.txt", tmp_path):
        code, err = _run_err(capsys, "info", "Foo", "--config", str(path))
        assert code == cli.EXIT_PARSE_ERROR
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("line", ["c 0 1 5 1", "c 0 -1 2 1", "c 0 1 1",
                                  "ip 0 3 1", "mat 0 0 9 1", "mat 3 0 0 1"])
def test_config_index_out_of_range_is_a_parse_error(tmp_path, capsys, line):
    text = ss.space_to_text(dataclasses.replace(ss.catalog("S2"), name="Bad"))
    path = tmp_path / "spaces.txt"
    path.write_text(text + line + "\n")
    code, err = _run_err(capsys, "info", "Bad", "--config", str(path))
    assert code == cli.EXIT_PARSE_ERROR
    assert err.startswith("error: ") and "out of range" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("old, new, want", [
    ("c 0 1 3 1", "c 0 1.5 3 1", "c 0 1.5 3 1: '1.5' is not an integer"),
    ("dim 6", "dim x", "dim x: 'x' is not an integer"),
    ("h_indices 3 4 5", "h_indices 3 4 x", "h_indices 3 4 x: 'x' is not an integer"),
    ("h_indices 3 4 5", "h_indices 3 4 4",
     "h_indices 3 4 4: not distinct indices in 0..5"),
])
def test_config_integer_error_names_its_line(tmp_path, capsys, old, new, want):
    text = _renamed_text("S3", "Bad").replace(f"\n{old}\n", f"\n{new}\n")
    assert new in text
    assert _config_err(tmp_path, capsys, text, "Bad") == (
        cli.EXIT_PARSE_ERROR, f"error: {want}\n")


@pytest.mark.parametrize("text, key", [
    ("algebra x\ndim\nspace Q\nmetric 1\n", "dim"),
])
def test_bare_config_header_is_a_parse_error(tmp_path, capsys, text, key):
    path = tmp_path / "spaces.txt"
    path.write_text(text)
    code, err = _run_err(capsys, "info", "Q", "--config", str(path))
    assert code == cli.EXIT_PARSE_ERROR
    assert err == f"error: {key}: missing value\n"


def test_bad_config_block_does_not_hide_another_space(tmp_path, capsys):
    good = dataclasses.replace(ss.catalog("S2"), name="Good")
    bad = dataclasses.replace(ss.catalog("S2"), name="Bad")
    path = tmp_path / "spaces.txt"
    path.write_text(ss.space_to_text(bad) + "c 0 1 5 1\n\n"
                    + ss.space_to_text(good))
    code, out = run(capsys, "info", "Good", "--config", str(path))
    assert code == 0 and json.loads(out)["name"] == "Good"


def test_charclasses_weight_mode_checks_rep_source(capsys):
    code, err = _run_err(capsys, "charclasses", "CP2", "su2:1")
    assert code == cli.EXIT_UNSUPPORTED
    assert (code, err) == _run_err(capsys, "verify", "CP2", "su2:1")
    assert err == ("error: rep source 'su(2)' does not match isotropy "
                   "algebra 'u(2)' of CP2\n")


@pytest.mark.parametrize("argv", [
    ("verify", "S2", "spin2:0"), ("verify", "SU2_group", "su2:-1"),
    ("verify", "S4", "spin4:(-1,0)"), ("charclasses", "S2", "spin2:0"),
])
def test_out_of_range_rep_parameter_is_a_parse_error(capsys, argv):
    code, err = _run_err(capsys, *argv)
    assert code == cli.EXIT_PARSE_ERROR
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _config_err(tmp_path, capsys, text, name):
    path = tmp_path / "spaces.txt"
    path.write_text(text)
    return _run_err(capsys, "info", name, "--config", str(path))


def _renamed_text(name, new):
    return ss.space_to_text(dataclasses.replace(ss.catalog(name), name=new))


@pytest.mark.parametrize("cmd", ["verify", "charclasses"])
def test_alias_needs_an_isotropy_algebra(tmp_path, capsys, cmd):
    text = _renamed_text("CP2", "CPx")
    path = tmp_path / "spaces.txt"
    path.write_text("".join(line for line in text.splitlines(keepends=True)
                            if not line.startswith("isotropy")))
    code, err = _run_err(capsys, cmd, "CPx", "un_det:1", "--config", str(path))
    assert (code, err) == (cli.EXIT_PARSE_ERROR,
                           "error: un_det:k needs a CP^n base to infer n\n")


def test_config_algebra_failing_jacobi_is_a_parse_error(tmp_path, capsys):
    text = _renamed_text("S3", "Bad")
    assert "\nc 0 1 3 1\n" in text
    code, err = _config_err(tmp_path, capsys,
                            text.replace("\nc 0 1 3 1\n", "\nc 0 1 3 2\n"), "Bad")
    assert code == cli.EXIT_PARSE_ERROR
    assert err == "error: algebra so(4) fails jacobi at (0, 1, 4)\n"


def test_config_isotropy_failing_invariance_is_a_parse_error(tmp_path, capsys):
    text = _renamed_text("S3", "Bad")
    assert "\nisotropy ip 0 0 1\n" in text
    code, err = _config_err(
        tmp_path, capsys,
        text.replace("\nisotropy ip 0 0 1\n", "\nisotropy ip 0 0 2\n"), "Bad")
    assert code == cli.EXIT_PARSE_ERROR
    assert err == "error: algebra so(3) fails invariance at (1, 0, 2)\n"


@pytest.mark.parametrize("swap, want", [
    # an isotropy algebra of another dimension
    (None, "error: isotropy algebra so(2) has dimension 1, h has 3\n"),
    # the right algebra with two basis elements swapped
    ([1, 0, 2], "error: isotropy algebra so(3) differs from h at (0, 1, 2)\n"),
])
def test_config_isotropy_not_matching_h_is_a_parse_error(tmp_path, capsys,
                                                         swap, want):
    s3 = ss.catalog("S3")
    iso = (ss.catalog("S2").isotropy_ref if swap is None else
           liealg.change_basis(s3.isotropy_ref, ex.feye(3)[swap]))
    bad = dataclasses.replace(s3, name="Bad", isotropy_ref=iso)
    code, err = _config_err(tmp_path, capsys, ss.space_to_text(bad), "Bad")
    assert (code, err) == (cli.EXIT_PARSE_ERROR, want)


def test_config_with_h_to_ref_lines_still_loads(tmp_path, capsys):
    # files written before the isotropy algebra was stored in h's basis
    # carry its coordinate map, always the identity, as h_to_ref lines
    space = ss.catalog("CP2")
    text = _renamed_text("CP2", "Old") + "".join(
        f"h_to_ref {t} {t} 1\n" for t in range(space.h_dim))
    path = tmp_path / "spaces.txt"
    path.write_text(text)
    assert "h_to_ref" not in _renamed_text("CP2", "Old")
    for argv in (["info"], ["verify", "un_fund:1"],
                 ["charclasses", "un_det:1"]):
        code, want = run(capsys, argv[0], "CP2", *argv[1:])
        got = run(capsys, argv[0], "Old", *argv[1:], "--config", str(path))
        assert got == (code, want.replace('"CP2"', '"Old"')), argv


def test_input_too_large_for_memory_is_unsupported(capsys):
    # its images would take 2.4 PB, so the allocation fails at once
    code, err = _run_err(capsys, "verify", "S3", "trivial:10000000")
    assert code == cli.EXIT_UNSUPPORTED
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _algebra_tree(alg):
    return alg.name, alg.dim, alg.complex_n, tuple(map(_algebra_tree,
                                                       alg.factors))


@pytest.mark.parametrize("name", ["S2xS3", "CP1xS2", "S2xS3xS4"])
def test_config_product_keeps_isotropy_factors(name):
    want = _algebra_tree(ss.catalog(name).isotropy_ref)
    text = _renamed_text(name, "P")
    assert _algebra_tree(ss.space_from_text(text).isotropy_ref) == want
    assert want[3]  # the factors, nested on S2xS3xS4
    # a file written before factors were kept still loads, without them
    old = ss.space_from_text("".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("isotropy factor")))
    assert _algebra_tree(old.isotropy_ref) == want[:3] + ((),)


@pytest.mark.parametrize("name, desc", [
    ("S2xS3", "ext(trivial:1,spinor:3)"), ("CP1xS2", "ext(un_det:1,spin2:2)")])
def test_config_product_builds_ext_on_its_factors(tmp_path, capsys, name,
                                                   desc):
    path = tmp_path / "spaces.txt"
    path.write_text(_renamed_text(name, "P"))
    code, want = run(capsys, "verify", name, desc)
    got = run(capsys, "verify", "P", desc, "--config", str(path))
    assert code == 0
    assert got == (code, want.replace(f'"{name}"', '"P"'))


@pytest.mark.parametrize("old, new, want", [
    # so(3)'s bracket doubled
    ("isotropy factor1 c 0 1 2 1\n", "isotropy factor1 c 0 1 2 2\n",
     "factor so(3) differs from its block of so(2)+so(3)"),
    # so(2) claimed to have dimension 2
    ("isotropy factor0 dim 1\n", "isotropy factor0 dim 2\n",
     "factor blocks of so(2)+so(3) do not split its dimension"),
], ids=["structure", "dimension"])
def test_config_factor_not_matching_its_block_is_a_parse_error(
        tmp_path, capsys, old, new, want):
    text = _renamed_text("S2xS3", "Bad")
    assert "\n" + old in text
    code, err = _config_err(tmp_path, capsys, text.replace("\n" + old,
                                                           "\n" + new), "Bad")
    assert (code, err) == (cli.EXIT_PARSE_ERROR, f"error: {want}\n")
