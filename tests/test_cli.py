import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import dualstokes
import dualstokes.cli as cli
from dualstokes import (Dual, IntegralEstimate, REPORT_SCHEMA, StokesReport,
                        Theta)
from dualstokes.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


_STUCK = {
    "name": "stuck", "theta": 1, "r": 0.5, "n": 1, "k": 1,
    "form": {"degree": 0, "coeffs": [{"index": [], "expr": "x1^2"}]},
    "refinement": {"tol_re": 0.0, "tol_ze": 0.0,
                   "base_subdivisions": 2, "max_doublings": 1},
}

_AREA = {
    "name": "area", "theta": 1, "r": 1.0, "n": 2, "k": 2,
    "form": {"degree": 2, "coeffs": [{"index": [1, 2], "expr": "1"}]},
}


def test_verify_builtin_passes():
    code, out, err = run_cli("verify", "--builtin", "type1-unit-square")
    assert code == 0
    assert err == ""
    assert out.startswith("ok")
    assert "type1-unit-square" in out
    assert "lhs=1+1*eps" in out and "rhs=1+1*eps" in out


def test_verify_all_builtin_with_reports(tmp_path):
    json_path = tmp_path / "reports.json"
    csv_path = tmp_path / "reports.csv"
    code, out, _ = run_cli("verify", "--all-builtin",
                           "--json", str(json_path), "--csv", str(csv_path))
    assert code == 0
    assert out.count("ok") == 8
    data = json.loads(json_path.read_text())
    assert len(data) == 8
    for item in data:
        jsonschema.validate(item, REPORT_SCHEMA)
        assert item["passed"] and item["converged"]
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert len(rows) == 9
    assert rows[0][0] == "scenario"
    assert {row[0] for row in rows[1:]} == {item["scenario"] for item in data}


def test_verify_scenario_file(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(json.dumps([{
        "name": "square", "theta": 2, "r": 0.5, "n": 2, "k": 2,
        "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "x1"}]},
    }]))
    code, out, _ = run_cli("verify", "--scenario", str(path))
    assert code == 0
    assert "square" in out and "lhs=1-1*eps" in out


def test_verify_without_inputs_is_config_error():
    code, out, err = run_cli("verify")
    assert code == 2
    assert err == ("error: nothing to run: pass --scenario, --builtin, "
                   "or --all-builtin\n")


def test_integrate_without_inputs_names_only_its_flags():
    code, out, err = run_cli("integrate")
    assert code == 2
    assert err == "error: nothing to run: pass --scenario or --builtin\n"


@pytest.mark.parametrize("component", ["x3", "x2+"])
def test_verify_cube_map_that_does_not_parse_exits_2(tmp_path, component):
    path = tmp_path / "bad-map.json"
    path.write_text(json.dumps(
        {**_AREA, "cubes": [{"map": ["x1", component]}]}))
    code, out, err = run_cli("verify", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bad cube map" in err


def test_verify_bad_inputs(tmp_path):
    code, _, err = run_cli("verify", "--scenario",
                           str(tmp_path / "absent.json"))
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli("verify", "--scenario", str(bad))[0] == 2
    assert run_cli("verify", "--builtin", "no-such-thing")[0] == 2


def test_verify_unwritable_report_path(tmp_path):
    code, _, err = run_cli(
        "verify", "--builtin", "classical-ftc-anchor",
        "--json", str(tmp_path / "missing-dir" / "x.json"))
    assert code == 2 and "error:" in err


def test_verify_budget_exhaustion(tmp_path):
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(_STUCK))
    code, out, _ = run_cli("verify", "--scenario", str(path))
    assert code == 3
    assert out.startswith("NOCONV stuck")


def test_verify_reports_failures(monkeypatch):
    est = IntegralEstimate.exact(Dual(1.0, 0.0))
    fake = StokesReport(scenario="rigged", theta=Theta.TYPE1, r=0.0, k=2, n=2,
                        converged=True, passed=False, lhs=est, rhs=est,
                        diff_re=9.0, diff_ze=0.0, tol_re=1e-3, tol_ze=1e-3)
    monkeypatch.setattr(cli, "run_scenario", lambda scenario: fake)
    code, out, _ = run_cli("verify", "--builtin", "type1-unit-square")
    assert code == 1
    assert out.startswith("FAIL")
    assert "tol=" in out


def test_integrate_scenario(tmp_path):
    path = tmp_path / "area.json"
    path.write_text(json.dumps(_AREA))
    code, out, _ = run_cli("integrate", "--scenario", str(path))
    assert code == 0
    assert "area: value=1+2*eps" in out
    assert "subdivisions=" in out


def test_integrate_rejects_wrong_degree():
    # the bundled scenarios carry boundary-degree forms, not top-degree ones
    code, _, err = run_cli("integrate", "--builtin", "type1-unit-square")
    assert code == 2 and "error:" in err


def test_integrate_budget_exhaustion(tmp_path):
    stuck = dict(_STUCK)
    stuck["form"] = {"degree": 1, "coeffs": [{"index": [1], "expr": "x1^2"}]}
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(stuck))
    code, out, _ = run_cli("integrate", "--scenario", str(path))
    assert code == 3
    assert out.startswith("NOCONV stuck")


def test_selftest_summary():
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert "8/8 bundled scenarios passed" in out


def test_list_names_builtins():
    code, out, _ = run_cli("list")
    assert code == 0
    for name in ("type1-unit-square", "type2-ftc-parabola",
                 "classical-green-anchor"):
        assert name in out


def test_dim_command():
    code, out, _ = run_cli("dim", "4", "2")
    assert code == 0
    assert out.strip() == "6"


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        run_cli()
    assert info.value.code == 2


# runs `python -m dualstokes` with the address space capped at {cap} bytes
_CAPPED = ("import resource, runpy, sys; "
           "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
           "resource.setrlimit(resource.RLIMIT_AS, ({cap}, hard)); "
           "sys.argv[0] = 'dualstokes'; "
           "runpy.run_module('dualstokes', run_name='__main__')")


def _cli_in_subprocess(tmp_path, scenario, *options, memory_cap=None,
                       command="verify"):
    # a fresh interpreter, so nothing the test process set up can leak in;
    # a memory cap applies to that interpreter alone
    path = tmp_path / "f.json"
    path.write_text(scenario if isinstance(scenario, str)
                    else json.dumps(scenario))
    src = Path(dualstokes.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    run = (["-m", "dualstokes"] if memory_cap is None
           else ["-c", _CAPPED.format(cap=memory_cap)])
    return subprocess.run(
        [sys.executable, *run, command, "--scenario", str(path), *options],
        capture_output=True, text=True, env=env, timeout=60)


def _assert_config_error_in_subprocess(tmp_path, scenario, *options,
                                       memory_cap=None, command="verify"):
    # a clean exit 2: no traceback, no exit 1
    proc = _cli_in_subprocess(tmp_path, scenario, *options,
                              memory_cap=memory_cap, command=command)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    return proc.stderr


def _square_with_coefficient(expr: str) -> dict:
    # verify the 1-form expr*dx1 over the unit square
    return {**_AREA, "form": {"degree": 1, "coeffs": [
        {"index": [1], "expr": expr}]}}


def test_verify_bad_number_is_config_error(tmp_path):
    _assert_config_error_in_subprocess(
        tmp_path, {**_AREA, "refinement": {"tol_re": "x"}})


@pytest.mark.parametrize("expr", ["exp(x1*1000)", "(x1*1e200)^2"])
def test_verify_overflow_is_config_error(tmp_path, expr):
    # the enclosures overflow during integration, not at load
    err = _assert_config_error_in_subprocess(
        tmp_path, _square_with_coefficient(expr))
    assert "overflow" in err


@pytest.mark.parametrize("expr", ["exp(1000)", "1e200^2", "sin(1e308*10)"])
def test_verify_fold_that_overflows_is_config_error(tmp_path, expr):
    # the constant folds overflow while the scenario loads, and load
    # reports a bad form
    err = _assert_config_error_in_subprocess(
        tmp_path, _square_with_coefficient(expr))
    assert "bad form" in err and "overflows the float range" in err


def test_verify_deep_nesting_is_config_error(tmp_path):
    deep = "(" * 3000 + "x1" + ")" * 3000
    err = _assert_config_error_in_subprocess(
        tmp_path, _square_with_coefficient(deep))
    assert "nested" in err


def test_verify_deeply_nested_json_is_config_error(tmp_path):
    # the JSON decoder itself runs out of stack before any scenario check
    err = _assert_config_error_in_subprocess(
        tmp_path, "[" * 100_000 + "]" * 100_000)
    assert "nests too deeply" in err


def test_verify_overflowing_literal_is_config_error(tmp_path):
    # 1e999 would read as inf and spend the whole refinement budget on
    # NaN brackets, exiting 3 as if it merely failed to converge
    err = _assert_config_error_in_subprocess(
        tmp_path, _square_with_coefficient("1e999*x1"))
    assert "1e999" in err


@pytest.mark.parametrize("expr", ["1e308*10*x1", "1e200*x1*1e200"])
def test_verify_non_finite_bracket_is_config_error(tmp_path, expr):
    # finite literals whose product overflows: folded to inf, or inf in
    # the enclosures; either way the bracket is not finite at the first
    # level, which is not a failure to converge (exit 3)
    err = _assert_config_error_in_subprocess(
        tmp_path, _square_with_coefficient(expr))
    assert "not finite" in err


@pytest.mark.parametrize("expr", ["sin(1e308*10*x1)", "sin(1e308*10+x1)",
                                  "cos(x1*1e300*1e300)"])
def test_verify_wave_of_non_finite_argument_is_overflow(tmp_path, expr):
    # NaN, inf at a constant, and inf in the enclosures: no float encloses
    # sin or cos there, which is an overflow, not a NaN or domain error
    err = _assert_config_error_in_subprocess(
        tmp_path, _square_with_coefficient(expr))
    assert "overflowed the float range" in err


def test_integrate_large_constant_does_not_converge_by_default(tmp_path):
    # tolerances are absolute: the register bracket of 1e300 is about
    # 1e-14 of it wide, far above the default 1e-6, so the cube reports
    # NOCONV (exit 3) with that bracket's gap, an exact register bracket
    # that no subdivision narrows
    big = {**_AREA, "name": "big", "form": {"degree": 2, "coeffs": [
        {"index": [1, 2], "expr": "1e300"}]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    code, out, _ = run_cli("integrate", "--scenario", str(path))
    assert code == 3
    assert out.startswith("NOCONV big: gap (")
    assert ("above tolerance (1e-06, 1e-06) in an exact register bracket, "
            "which no subdivision narrows") in out


# tolerances that a register bracket of a value near 1e300 meets
_WIDE = {"tol_re": 1e300, "tol_ze": 1e300}


def test_integrate_chain_sum_past_the_float_range_is_overflow(tmp_path):
    # each cube's bracket is finite, and its gap, about 1e-14 of its
    # value, within the tolerance; weight times bracket is not finite
    big = {**_AREA, "form": {"degree": 2, "coeffs": [
        {"index": [1, 2], "expr": "1e300"}]},
        "cubes": [{"weight": 10 ** 30, "map": ["x1", "x2"]}],
        "refinement": _WIDE}
    err = _assert_config_error_in_subprocess(tmp_path, big,
                                             command="integrate")
    assert "overflowed the float range" in err
    assert "chain sum is not finite" in err


def test_verify_chain_sum_past_the_float_range_is_overflow(tmp_path):
    # both sides overflow: a NaN verdict would exit 1 as a failed check
    big = {**_AREA, "form": {"degree": 1, "coeffs": [
        {"index": [2], "expr": "1e120*x1"}]},
        "cubes": [{"weight": 10 ** 200, "map": ["x1", "x2"]}] * 2,
        "refinement": _WIDE}
    report = tmp_path / "report.json"
    err = _assert_config_error_in_subprocess(tmp_path, big,
                                             "--json", str(report))
    assert "overflowed the float range" in err
    assert "chain sum is not finite" in err
    assert not report.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS bounds allocations on Linux")
def test_verify_partition_too_large_for_memory_is_config_error(tmp_path):
    # 10**12 pieces of one axis cannot be allocated; under a 256 MiB cap
    # the first level raises MemoryError after a few million breakpoints,
    # which is an error (exit 2), not a failed verdict (exit 1); exp is
    # no polynomial, so its integral is a Darboux sum over a partition
    huge = {"name": "huge", "theta": 1, "r": 0.5, "n": 1, "k": 1,
            "form": {"degree": 0,
                     "coeffs": [{"index": [], "expr": "exp(x1)"}]},
            "refinement": {"base_subdivisions": 10 ** 12}}
    err = _assert_config_error_in_subprocess(tmp_path, huge,
                                             memory_cap=256 * 2 ** 20)
    assert "out of memory" in err


def test_verify_long_flat_expression(tmp_path):
    # 3000 terms parse in a loop; differentiating, composing and
    # integrating them must not recurse once per term either
    flat = _square_with_coefficient("+".join(["x1"] * 3000))
    flat["refinement"] = {"tol_re": 1e4, "tol_ze": 1e4,
                          "base_subdivisions": 2, "max_doublings": 0}
    proc = _cli_in_subprocess(tmp_path, flat)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")
    assert "Traceback" not in proc.stderr
