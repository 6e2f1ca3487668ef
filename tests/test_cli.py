"""Tests for the command-line interface."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taulap.cli
from taulap.boundary import correlator, evaluate_correlator, generic_moments
from taulap.cli import MAX_BOUNDARIES, MAX_GENUS, MAX_LITERAL_DIGITS, MAX_LMAX, MAX_MMAX, main

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


def test_tau_error_names_the_offending_indices(capsys):
    code, _, err = run(capsys, "tau", "--indices", "2,-3")
    assert (code, err.strip()) == (1, "error: indices must be nonnegative, got -3")
    code, _, err = run(capsys, "tau", "--indices", "0,2,3")
    assert code == 1
    assert err.strip().endswith("outside the stable-range table computed here, got 0")


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


def test_planar_pair_prints_its_frozen_bytes(capsys):
    # the whole stdout of the planar pair, and its repr, byte for byte
    code, out, err = run(capsys, "correlator", "--genus", "0", "--boundaries", "2")
    assert (code, err) == (0, "")
    assert out == "(4*z1^-1*z2^-1) / ((z1+z2)^2)\ncoupling power: lambda^2\n"
    assert repr(correlator(0, 2)) == "ZRational((4*z1^-1*z2^-1) / ((z1+z2)^2))"


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


def test_npoint_default_moments_reach_every_admitted_correlator(capsys):
    # G_{g,B} uses the moment indices 0..3g-3+B; the largest pair the command line admits
    assert max(3 * g - 3 + b for g, b in enumerate(MAX_BOUNDARIES)) == 40
    assert sorted(generic_moments()) == list(range(41))
    code, out, err = run(capsys, "npoint", "--genus", "5", "--groups", '[["3/2"]]')
    assert (code, err) == (0, "")
    assert Fraction(out.strip()) == evaluate_correlator(5, [[Fraction(3, 2)]], Fraction(1, 2))


def test_npoint_moments_must_bind_every_index_before_the_build(capsys, monkeypatch):
    reached = []
    monkeypatch.setattr(taulap.cli, "evaluate_correlator", lambda *args: reached.append(args) or 0)
    argv = ["npoint", "--genus", "3", "--groups", '[["3/2"]]', "--moments"]
    code, _, err = run(capsys, *argv, '{"0": "2", "1": "3", "7": "1"}')
    assert code == 1
    assert err.splitlines() == [
        "error: --moments binds no value for index 2, 3, 4, 5, 6: G_(3,1) uses every index 0..7"
    ]
    assert not reached
    code, _, _ = run(capsys, *argv, json.dumps({str(l): l + 1 for l in range(8)}))
    assert code == 0 and len(reached) == 1


def test_long_literals_are_rejected_before_any_int_is_built(capsys, monkeypatch):
    reached = []
    monkeypatch.setattr(taulap.cli, "evaluate_correlator", lambda *args: reached.append(args) or 0)
    npoint = ["npoint", "--genus", "1"]
    for argv in (
        [*npoint, "--groups", '[["1e2000"]]'],
        [*npoint, "--groups", '[["3/2"]]', "--moments", '{"0": "1e3000", "1": "1"}'],
        [*npoint, "--groups", '[["1e300000"]]'],
        # a JSON integer past Python's int-from-string limit
        [*npoint, "--groups", "[[" + "1" * 5000 + "]]"],
        [*npoint, "--groups", "[[1e300]]"],
        [*npoint, "--groups", '[["1"]]', "--coupling", "1/" + "3" * (MAX_LITERAL_DIGITS + 1)],
        ["model", "--file", "-", "--eval", '[["1e2000"]]'],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        lines = err.splitlines()
        assert len(lines) == 1 and f"more than {MAX_LITERAL_DIGITS} digits" in lines[0], argv
    assert not reached
    # the digits a literal is written with plus the size of its exponent
    for value in ("1" * MAX_LITERAL_DIGITS, "1e97", "-12.5e-95", "7/" + "9" * (MAX_LITERAL_DIGITS - 1)):
        assert run(capsys, *npoint, "--groups", json.dumps([[value]]))[0] == 0, value
    for value in ("1" * (MAX_LITERAL_DIGITS + 1), "1e98", "-12.5e-96"):
        assert run(capsys, *npoint, "--groups", json.dumps([[value]]))[0] == 1, value


def test_an_exact_result_too_long_to_print_exits_one(capsys):
    big = "9" * 99
    moments = {"0": "1/" + big, **{str(l): "1" for l in range(1, 17)}}
    code, out, err = run(capsys, "npoint", "--genus", "6", "--groups", json.dumps([[big]]),
                         "--moments", json.dumps(moments))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: the exact result has too many digits to print"]


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


def test_check_dseb(capsys):
    code, out, _ = run(capsys, "check", "--suite", "dseB")
    assert code == 0
    for g, b in [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]:
        assert f"loop equation ({g}, {b}): ok" in out


def test_check_virasoro(capsys):
    code, out, _ = run(capsys, "check", "--suite", "virasoro", "--gmax", "3")
    assert code == 0
    assert "constraint 17: ok" in out


def test_check_failure_exits_two(capsys, monkeypatch):
    import taulap.recursion

    # a residual that no longer cancels at (0, 3), one stray term, is reported, and the suite fails
    res = taulap.recursion.dse_residual(0, 3)
    corrupted = {**res, ((-3, -3, -3), (-1,)): 1}
    real = taulap.recursion.dse_residual
    monkeypatch.setattr(taulap.recursion, "dse_residual",
                        lambda g, b: corrupted if (g, b) == (0, 3) else real(g, b))
    code, out, err = run(capsys, "check", "--suite", "dseB")
    assert code == 2
    assert "loop equation (0, 3): NONZERO" in out
    assert "loop equation (0, 4): ok" in out
    assert "FAILED: dseB (0,3)" in err


def test_model_eval_rejects_malformed_points(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL4))
    for points in ("notjson", "[]", '[["a"]]', "5"):
        code, out, err = run(capsys, "model", "--file", str(path), "--eval", points)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_eval_outside_the_float_range_exits_one(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL4))
    # z^-5 overflows; a pole factor (z1+z2)^2 underflows to zero; a point is not finite
    for genus, points in (("1", "[[1e-300]]"), ("0", "[[1e-200],[1e-200]]"), ("0", "[[NaN]]"),
                          ("0", "[[1e400],[2]]")):
        code, out, err = run(capsys, "model", "--file", str(path), "--genus", genus,
                             "--eval", points)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    code, out, err = run(capsys, "npoint", "--genus", "0", "--groups", "[[NaN],[1]]")
    assert (code, out) == (1, "")
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
        ["check", "--suite", "dseB", "--threads", "2"],
        ["model", "--file", "-", "--tol", "nan"],
        ["model", "--file", "-", "--tol", "inf"],
        ["model", "--file", "-", "--tol", "0"],
        ["model", "--file", "-", "--tol", "-1"],
        ["model", "--file", "-", "--lmax", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        capsys.readouterr()


@pytest.mark.parametrize("text", ["2,,2", ",", ""])
def test_empty_index_entry_is_a_usage_error(capsys, text):
    """An empty entry is not skipped: ``2,,2`` is not ``2,2``, and ``,`` is not ``[]``."""
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--indices", text])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"taulap tau: error: argument --indices: empty entry in index list {text!r}"
    ]


def test_gmax_ceiling_is_checked_at_parse_time(capsys, monkeypatch):
    reached = []
    for name in ("_cmd_fg", "_cmd_check"):
        monkeypatch.setattr(taulap.cli, name, lambda args: reached.append(args.gmax) or 0)
    for command in (["fg"], ["check", "--suite", "oracle"], ["check", "--suite", "virasoro"]):
        assert main([*command, "--gmax", str(MAX_GENUS)]) == 0
        capsys.readouterr()
        for gmax in (MAX_GENUS + 1, 100000):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--gmax", str(gmax)])
            assert exc.value.code == 64
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"taulap: error: --gmax must be at most {MAX_GENUS}"
            ]
    assert reached == [MAX_GENUS] * 3


def test_sizes_are_bounded_at_parse_time(capsys, monkeypatch):
    reached = []
    for name in ("_cmd_correlator", "_cmd_npoint", "_cmd_model", "_cmd_tau", "_cmd_coeffs"):
        monkeypatch.setattr(taulap.cli, name, lambda args: reached.append(args.command) or 0)
    genus = f"--genus must be at most {MAX_GENUS}"
    # (arguments, the largest accepted value, values past it, the message)
    cases = [
        (["correlator", "--boundaries", "1", "--genus"], MAX_GENUS, [MAX_GENUS + 1, 30], genus),
        (["npoint", "--groups", "[[1]]", "--genus"], MAX_GENUS, [MAX_GENUS + 1], genus),
        (["model", "--file", "-", "--genus"], MAX_GENUS, [MAX_GENUS + 1], genus),
        # <tau_{3g-2}> has genus g
        (["tau", "--indices"], 3 * MAX_GENUS - 2, [3 * MAX_GENUS + 1, 46],
         f"--indices must imply a genus of at most {MAX_GENUS}"),
        (["coeffs", "--family", "R", "--mmax"], MAX_MMAX, [MAX_MMAX + 1, 100000],
         f"--mmax must be between 0 and {MAX_MMAX}"),
        (["model", "--file", "-", "--lmax"], MAX_LMAX, [MAX_LMAX + 1, -1],
         f"--lmax must be between 0 and {MAX_LMAX}"),
    ]
    # the boundary count is bounded per genus: (1, 12) and (14, 10) run out of memory
    assert len(MAX_BOUNDARIES) == MAX_GENUS + 1
    for g, most in enumerate(MAX_BOUNDARIES):
        beyond = [most + 1, 10, 20] if most < 10 else [most + 1, 20]
        cases.append((["correlator", "--genus", str(g), "--boundaries"], most, beyond,
                      f"--boundaries must be at most {most} at genus {g}"))
    # one group per boundary
    for g in (0, MAX_GENUS):
        most = MAX_BOUNDARIES[g]
        cases += [
            (["npoint", "--genus", str(g), "--groups"], json.dumps([[1]] * most),
             [json.dumps([[1]] * (most + 1))], f"--groups must list at most {most} groups at genus {g}"),
            (["model", "--file", "-", "--genus", str(g), "--eval"], json.dumps([[1]] * most),
             [json.dumps([[1]] * 20)], f"--eval must list at most {most} groups at genus {g}"),
        ]
    for argv, top, beyond, message in cases:
        assert main([*argv, str(top)]) == 0
        capsys.readouterr()
        for value in beyond:
            with pytest.raises(SystemExit) as exc:
                main([*argv, str(value)])
            assert exc.value.code == 64
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"taulap: error: {message}"
            ]
    assert reached == [argv[0] for argv, *_ in cases]


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "taulap.cli", "tau", "--indices", "2,3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "29/5760"


def test_closed_output_pipe_exits_one_quietly():
    # the reader leaves after 10 bytes of about 420 kB, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "taulap.cli", "correlator", "--genus", "0", "--boundaries", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 10
    assert err == b""


# ---------------------------------------------------------------------------
# exit-code contract over generated argument lists
#
# Every size that drives a computation stays small (genus <= 3, at most two
# points a group), so each example runs in milliseconds once the caches are
# warm. An uncaught exception is what would print a traceback, so it fails
# the test by propagating out of ``main``.

_INT = st.integers(min_value=-2, max_value=3).map(str)
_BAD_INT = st.sampled_from(["", "x", "1.5", "--", "1e3"])
_SMALL = _INT | _BAD_INT
_NUMBER = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["1/2", "-7/3", "3/0", "x", "", True, None, [1], 1e-300, 1e300, 1.5, 0.0]),
    # exponent literals on both sides of MAX_LITERAL_DIGITS
    st.sampled_from(["2.5e-3", "-1E5", "1e97", "1e98", "1e2000", "1e300000", "1e-2000", "1e"]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_JUNK_JSON = st.sampled_from(["not json", "[]", "[[]]", "{}", "[1]", "null", '{"0": 1}'])


def _groups(point: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(st.lists(point, min_size=1, max_size=2), min_size=1, max_size=3).map(json.dumps)


def _option(flag: str, value: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), value.map(lambda v: [flag, v]))


def _command(name: str, *options: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*options).map(lambda parts: [name] + [tok for part in parts for tok in part])


_MODEL = st.one_of(
    st.just(MODEL4),
    st.fixed_dictionaries({
        "dimension": st.sampled_from([0, 2, 4, 6, 3, 2.5, "x"]),
        "lambda": st.sampled_from([0, 0.05, 0.3, 2.0, -1, float("nan"), "x"]),
        "volume": st.sampled_from([1, 2.5, 0, -1, float("inf")]),
        "eigenvalues": st.lists(
            st.fixed_dictionaries({
                "E": st.sampled_from([0.5, 1.0, 3.0, 1e-300, 1e300, 0, -1, "x"]),
                "mult": st.sampled_from([1, 2, 0, 1.5, "x"]),
            }),
            max_size=3,
        ),
    }),
    st.fixed_dictionaries({
        "dimension": st.sampled_from([2, 4, 6, 0]),
        "lambda": st.sampled_from([0.05, 0.3]),
        "volume": st.sampled_from([1, 2.5]),
        "generator": st.fixed_dictionaries({
            "e": st.sampled_from(["linear", "cubic"]),
            "cutoff_N": st.sampled_from([0, 3, 20, -1, 2.5, "x"]),
            "mu2": st.sampled_from([1.0, 0.5, 0, "x"]),
        }),
    }),
).map(json.dumps) | st.sampled_from(["", "not json", "[]", "{}"])

_ARGV = st.one_of(
    _command(
        "fg",
        _option("--gmax", st.sampled_from(["-1", "2", "3", str(MAX_GENUS + 1), "100000", "x"])),
        _option("--convention", st.sampled_from(["t", "rho", "iz", "eynard", "bogus"])),
        _option("--format", st.sampled_from(["text", "json", "xml"])),
    ),
    _command(
        "tau",
        _option("--indices", st.lists(st.integers(min_value=-1, max_value=5), max_size=2).map(
            lambda ds: ",".join(map(str, ds))) | st.sampled_from(["a,b", ",", "2,,2"])),
    ),
    _command(
        "coeffs",
        _option("--family", st.sampled_from(["S", "R", "T"])),
        _option("--mmax", _SMALL),
    ),
    _command(
        "correlator",
        _option("--genus", _SMALL),
        _option("--boundaries", _SMALL),
    ),
    _command(
        "npoint",
        _option("--genus", st.integers(min_value=-1, max_value=2).map(str) | _BAD_INT),
        _option("--groups", _groups(_NUMBER) | _JUNK_JSON),
        _option("--moments", st.dictionaries(
            st.sampled_from(["0", "1", "2", "3", "4", "-1", "a"]), _NUMBER, max_size=5
        ).map(json.dumps) | _JUNK_JSON),
        _option("--coupling", st.sampled_from(["1/2", "0", "-3", "2.5", "x", "inf"])),
    ),
    _command(
        "model",
        st.sampled_from([["--file", "-"], ["--file", "/nonexistent/model.json"], []]),
        _option("--lmax", _SMALL),
        _option("--tol", st.sampled_from(["1e-12", "1e-3", "0", "-1", "nan", "inf", "x"])),
        _option("--eval", _groups(_NUMBER) | _JUNK_JSON),
        _option("--genus", _SMALL),
        _option("--format", st.sampled_from(["text", "json", "yaml"])),
    ),
    _command(
        "check",
        _option("--suite", st.sampled_from(["oracle", "dse1", "dseB", "virasoro", "bogus"])),
        _option("--gmax", st.sampled_from(["-1", "0", "1", "2", "3", str(MAX_GENUS + 1), "x"])),
    ),
    st.lists(st.sampled_from(["fg", "tau", "--threads", "2", "--help", "-h", "--gmax", "bogus", ""]),
             max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV, stdin=_MODEL)
def test_every_argument_list_exits_with_a_documented_code(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 64), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
