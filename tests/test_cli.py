"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symcurv
from symcurv import _exact as ex
from symcurv import cli, liealg
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
    with pytest.raises(SystemExit):
        cli.main(["classify", "S4"])


def test_classify_unsupported(capsys):
    code, _ = run(capsys, "classify", "S6", "--rank", "4")
    assert code == cli.EXIT_UNSUPPORTED


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "S4", "spin4:(1,0)", "--samples", "50")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    checks = data["checks"]
    assert checks["bracket_identity"]["ok"]
    assert checks["kernel_inclusion"]["ok"]
    assert checks["reconstruction_roundtrip"]["ok"]
    assert checks["schur_constancy"]["status"] == "pass"


def test_verify_reducible_schur_not_applicable(capsys):
    code, out = run(capsys, "verify", "S4", "sum(spin4:(1,0),trivial:1)",
                    "--samples", "50")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["schur_constancy"]["status"] == "not-applicable"
    assert data["all_passed"] is True


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


def test_charclasses_cp2_weight_mode(capsys):
    code, out = run(capsys, "charclasses", "CP2", "un_det:1")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "representation-weight"
    assert data["c1_weight"] == 1.0


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
    for argv in (["verify", "S4", "spin4:(1,0)", "--samples", "50"],
                 ["charclasses", "S4", "spin4:(1,0)"],
                 ["verify", "CP2", "un_fund:1", "--samples", "50"],
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
    assert code == 0
    failed = {b["label"] for b in json.loads(out)["bundles"]
              if not b["verified"]["bracket_identity"]}
    assert failed and "trivial:1" not in failed


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_tol_flag_is_a_parse_error(capsys, value):
    assert cli.main(["info", "S2", "--tol", value]) == cli.EXIT_PARSE_ERROR
    assert capsys.readouterr().err == "error: tolerance must be positive\n"


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
                          "spin4:(1,0)", "--samples", "10"],
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
    # S3xR2 fails Condition A with more bracket columns than bivectors, where
    # a QR basis of the bracket span would leave a zero witness to normalize
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
                          "spin4:(2,0)", "--samples", "10"],
                         env=_env(SYMCURV_TOL="1e-20"), capture_output=True,
                         text=True)
    assert res.returncode == cli.EXIT_CHECK_FAILED and res.stderr == ""
    assert json.loads(res.stdout)["checks"]["schur_constancy"]["irreducible"]


def test_verify_spinor8_peak_memory():
    # the commutant of the 32-dim spinor rep once took a (28672, 1024)
    # system and about 985 MB
    proc = subprocess.Popen([sys.executable, "-m", "symcurv.cli", "verify",
                             "S8", "spinor:8", "--samples", "10"],
                            env=_env(SYMCURV_TOL="1e-9"),  # the default
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == cli.EXIT_OK, err
    assert not json.loads(out)["checks"]["schur_constancy"]["irreducible"]
    assert usage.ru_maxrss < 300 * 1024  # KiB on Linux


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


@pytest.mark.parametrize("text, key", [
    ("algebra x\ndim\nspace Q\nmetric 1\n", "dim"),
    ("algebra x\ndim 1\nspace Q\nmetric 1\nflat_dim\n", "flat_dim"),
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
    for argv in (["info"], ["verify", "un_fund:1", "--samples", "50"],
                 ["charclasses", "un_det:1"]):
        code, want = run(capsys, argv[0], "CP2", *argv[1:])
        got = run(capsys, argv[0], "Old", *argv[1:], "--config", str(path))
        assert got == (code, want.replace('"CP2"', '"Old"')), argv
