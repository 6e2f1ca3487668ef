"""Tests for the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

from taulap.cli import main

MODEL4 = {
    "dimension": 4,
    "lambda": 0.3,
    "volume": 2.5,
    "eigenvalues": [
        {"E": 0.6, "mult": 1},
        {"E": 1.1, "mult": 2},
        {"E": 1.7, "mult": 1},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exact subcommands


def test_fg_text(capsys):
    code, out, _ = run(capsys, "fg", "--gmax", "2")
    assert code == 0
    assert "F2:" in out
    assert "t2^3/T0^5: 7/240" in out
    assert "t4/T0^3: 1/1152" in out


def test_fg_json(capsys):
    code, out, _ = run(capsys, "fg", "--gmax", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["F2"] == {
        "t2^3/T0^5": "7/240",
        "t2*t3/T0^4": "29/5760",
        "t4/T0^3": "1/1152",
    }
    assert data["F3"]["t7/T0^5"] == "1/82944"
    assert len(data["F3"]) == 11


def test_fg_other_conventions(capsys):
    code, out, _ = run(capsys, "fg", "--gmax", "2", "--convention", "rho")
    assert code == 0
    assert "r0^-5*r1^3" in out
    code, out, _ = run(capsys, "fg", "--gmax", "2", "--convention", "eynard")
    assert code == 0
    assert "t5^3/(2-t3)^5" in out


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "--indices", "2,2,2")
    assert (code, out.strip()) == (0, "7/240")
    code, out, _ = run(capsys, "tau", "--indices", "7")
    assert (code, out.strip()) == (0, "1/82944")


def test_tau_domain_error(capsys):
    code, _, err = run(capsys, "tau", "--indices", "2,2")
    assert code == 1
    assert "error:" in err


def test_coeffs(capsys):
    code, out, _ = run(capsys, "coeffs", "--family", "S", "--mmax", "2")
    assert code == 0
    assert "S_0 = 1" in out
    assert "S_1 = -r0^-1*r1" in out
    code, out, _ = run(capsys, "coeffs", "--family", "R", "--mmax", "1")
    assert "R_0 = 1/3" in out
    assert "R_1 = -2/15*r0^-1*r1" in out


def test_correlator(capsys):
    code, out, _ = run(capsys, "correlator", "--genus", "1", "--boundaries", "1")
    assert code == 0
    assert "2*r0^-2*r1*z1^-3 - 2*r0^-1*z1^-5" in out
    assert "coupling power: lambda^4" in out


def test_correlator_rational_seed(capsys):
    code, out, _ = run(capsys, "correlator", "--genus", "0", "--boundaries", "2")
    assert code == 0
    assert "(z1+z2)^2" in out
    assert "coupling power: lambda^2" in out


def test_correlator_invalid(capsys):
    code, _, err = run(capsys, "correlator", "--genus", "0", "--boundaries", "1")
    assert code == 1
    assert "error:" in err


def test_npoint_planar_pair(capsys):
    code, out, _ = run(capsys, "npoint", "--genus", "0", "--groups", '[["1"],["2"]]')
    assert (code, out.strip()) == (0, "1/18")


def test_npoint_custom_moments_and_coupling(capsys):
    code, out, _ = run(
        capsys,
        "npoint",
        "--genus",
        "1",
        "--groups",
        '[["1"]]',
        "--moments",
        '{"0": "1", "1": "1"}',
        "--coupling",
        "1",
    )
    # lambda^4 * (2 r1 / (r0^2 z^3) - 2 / (r0 z^5)) at z=1 is 0
    assert (code, out.strip()) == (0, "0")


def test_npoint_rejects_bad_groups(capsys):
    code, _, err = run(capsys, "npoint", "--genus", "0", "--groups", "not json")
    assert code == 1
    assert "JSON" in err
    code, _, err = run(capsys, "npoint", "--genus", "0", "--groups", "[[]]")
    assert code == 1


# ---------------------------------------------------------------------------
# spectral subcommand


def test_model_text(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL4))
    code, out, _ = run(capsys, "model", "--file", str(path), "--lmax", "2")
    assert code == 0
    assert "shift: -0.0844528113" in out
    assert "moment[0]: 0.877283613" in out


def test_model_json_with_eval(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL4))
    code, out, _ = run(
        capsys, "model", "--file", str(path), "--format", "json",
        "--eval", "[[1.3],[2.1]]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["wave_renorm"] == 1.0
    lam, x, y = 0.3, 1.3, 2.1
    assert data["correlator"] == pytest.approx(lam**2 * 4 / (x * y * (x + y) ** 2))


def test_model_missing_file(capsys):
    code, _, err = run(capsys, "model", "--file", "/nonexistent/model.json")
    assert code == 1
    assert "error:" in err


def test_model_invalid_spectrum(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 5, "lambda": 0.1, "volume": 1.0,
                                "eigenvalues": [{"E": 1.0, "mult": 1}]}))
    code, _, err = run(capsys, "model", "--file", str(path))
    assert code == 1


# ---------------------------------------------------------------------------
# validation suites


def test_check_oracle(capsys):
    code, out, _ = run(capsys, "check", "--suite", "oracle", "--gmax", "3")
    assert code == 0
    assert "all checks passed" in out


def test_check_dse1(capsys):
    code, out, _ = run(capsys, "check", "--suite", "dse1", "--gmax", "3")
    assert code == 0


def test_check_dseb_threaded(capsys):
    code, out, _ = run(capsys, "check", "--suite", "dseB", "--threads", "2")
    assert code == 0
    assert "loop equation (2, 2): ok" in out


def test_check_virasoro(capsys):
    code, out, _ = run(capsys, "check", "--suite", "virasoro", "--gmax", "3")
    assert code == 0
    assert "constraint 17: ok" in out


def test_check_failure_exits_two(capsys, monkeypatch):
    import taulap.recursion

    monkeypatch.setattr(taulap.recursion, "dse_certify", lambda *a, **k: False)
    code, _, err = run(capsys, "check", "--suite", "dseB")
    assert code == 2
    assert "FAILED" in err


def test_model_eval_rejects_malformed_points(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL4))
    for points in ("notjson", "[]", '[["a"]]', "5"):
        code, out, err = run(capsys, "model", "--file", str(path), "--eval", points)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_model_rejects_non_finite_and_fractional_spectra(capsys, tmp_path):
    path = tmp_path / "model.json"
    for change in ({"E": "inf", "mult": 1}, {"E": 0.5, "mult": 1.7}):
        path.write_text(json.dumps({**MODEL4, "eigenvalues": [change]}))
        code, _, err = run(capsys, "model", "--file", str(path))
        assert code == 1
        assert err.startswith("error:")
    path.write_text(json.dumps({**MODEL4, "dimension": 4.9}))
    assert run(capsys, "model", "--file", str(path))[0] == 1


def test_model_huge_levels_never_end_in_a_traceback(capsys, tmp_path):
    path = tmp_path / "model.json"
    for dimension in (0, 6):
        for energy in (1e80, 1e120, 1e300):
            path.write_text(json.dumps({"dimension": dimension, "lambda": 0.1, "volume": 1.0,
                                        "eigenvalues": [{"E": energy, "mult": 1}]}))
            code, out, err = run(capsys, "model", "--file", str(path), "--format", "json")
            assert "Traceback" not in err
            if code == 0:
                assert all(math.isfinite(v) for v in json.loads(out)["moments"].values())
            else:
                assert code == 1
                assert err.startswith("error:") and err.count("\n") == 1


def test_model_without_root_exits_one(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dimension": 0, "lambda": 5.0, "volume": 1.0,
                                "eigenvalues": [{"E": 1.0, "mult": 1}]}))
    code, out, err = run(capsys, "model", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no root" in err


def test_model_rejects_generator_cutoff_above_ceiling(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dimension": 4, "lambda": 0.1, "volume": 1.0,
                                "generator": {"e": "linear", "cutoff_N": 10**9, "mu2": 1.0}}))
    code, out, err = run(capsys, "model", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors_exit_64(capsys):
    for argv in (
        [],
        ["fg", "--gmax", "1"],
        ["fg", "--convention", "bogus"],
        ["tau"],
        ["check", "--suite", "bogus"],
        ["tau", "--indices", "a,b"],
        ["check", "--suite", "oracle", "--gmax", "0"],
        ["check", "--suite", "virasoro", "--gmax", "-2"],
        ["coeffs", "--family", "R", "--mmax", "-1"],
        ["coeffs", "--family", "S", "--mmax", "-3"],
        ["check", "--suite", "dseB", "--gmax", "1"],
        ["check", "--suite", "dseB", "--gmax", "3"],
        ["check", "--suite", "dseB", "--threads", "0"],
        ["check", "--suite", "dseB", "--threads", "-2"],
        ["check", "--suite", "oracle", "--threads", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "taulap.cli", "tau", "--indices", "2,3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "29/5760"
