"""Verdicts of fixed scenarios, bit for bit, against checked-in reports.

``golden_reports.json`` holds, per case, the ``repr`` of the report dict
and of each side's lower and upper sums.  The cases are the bundled
scenarios, the benchmark's ``saddle-fine`` and ``tiled-chain-3d``
inputs, and the scenarios of ``nonpolynomial_scenarios.json``.  The
first three kinds have polynomial integrands, so every integral of
theirs, constants included, is an exact bracket; the last call ``exp``,
``sin`` and ``cos``, so every integral of theirs that is not a constant
is a Darboux bracket, and their bits rest on the platform's libm.  A
change meant to keep results exact must keep this test passing; one
meant to move them regenerates both golden files with::

    PYTHONPATH=src python tests/test_golden_reports.py

``golden_darboux_reports.json`` holds the polynomial cases as the
Darboux refinement reports them, with the exact brackets switched off,
as they were before their integrals were exact: the refinement must
report them bit for bit, and each exact bracket must overlap its
Darboux one with the same verdict.
"""

import ast
import json
import re
from pathlib import Path

import pytest

import dualstokes.stokes as stokes
from helpers import load_bench_module

GOLDEN = Path(__file__).with_name("golden_reports.json")
DARBOUX_GOLDEN = Path(__file__).with_name("golden_darboux_reports.json")
NONPOLYNOMIAL = Path(__file__).with_name("nonpolynomial_scenarios.json")
TILED_SEEDS = (1, 9)


POLYNOMIAL_NAMES = tuple(sorted(
    [d["name"] for d in stokes.BUILTIN_SCENARIO_DICTS] + ["saddle-fine"]
    + [f"tiled-chain-3d/{seed}" for seed in TILED_SEEDS]))
NAMES = tuple(sorted(
    POLYNOMIAL_NAMES
    + tuple(f"nonpolynomial/{s.name}"
            for s in stokes.load_scenarios(NONPOLYNOMIAL))))


def _scenario(name: str):
    workloads = load_bench_module("workloads")
    if name == "saddle-fine":
        return workloads.saddle_fine(stokes, 0)[0]
    if name.startswith("tiled-chain-3d/"):
        return workloads.tiled_chain_3d(stokes, int(name.split("/")[1]))[0]
    if name.startswith("nonpolynomial/"):
        wanted = name.split("/")[1]
        return next(s for s in stokes.load_scenarios(NONPOLYNOMIAL)
                    if s.name == wanted)
    return stokes.builtin_scenario(name)


def _record(scenario) -> dict:
    report = stokes.run_scenario(scenario)
    record = {"report": repr(report.to_dict())}
    for label in ("lhs", "rhs"):
        est = getattr(report, label)
        record[label] = None if est is None else [repr(est.lower),
                                                  repr(est.upper)]
    return record


def _golden(path=GOLDEN) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == list(NAMES)
    assert sorted(_golden(DARBOUX_GOLDEN)) == list(POLYNOMIAL_NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    assert _record(_scenario(name)) == _golden()[name]


@pytest.mark.parametrize("name", POLYNOMIAL_NAMES)
def test_darboux_path_matches_its_golden(name, monkeypatch):
    monkeypatch.setattr(stokes, "polynomial_estimate", lambda f, theta, axes: None)
    assert _record(_scenario(name)) == _golden(DARBOUX_GOLDEN)[name]


_DUAL = re.compile(r"Dual\(re=(.*), ze=(.*)\)")


def _parts(text: str) -> tuple[float, float]:
    re_text, ze_text = _DUAL.fullmatch(text).groups()
    return float(re_text), float(ze_text)


@pytest.mark.parametrize("name", POLYNOMIAL_NAMES)
def test_exact_brackets_overlap_darboux_golden(name):
    new, old = _golden()[name], _golden(DARBOUX_GOLDEN)[name]
    new_report = ast.literal_eval(new["report"])
    old_report = ast.literal_eval(old["report"])
    for key in ("scenario", "theta", "r", "k", "n", "converged", "passed"):
        assert new_report[key] == old_report[key], key
    scenario = _scenario(name)
    for label in ("lhs", "rhs"):
        for part in range(2):
            new_lo, new_hi = sorted(_parts(t)[part] for t in new[label])
            old_lo, old_hi = sorted(_parts(t)[part] for t in old[label])
            assert max(new_lo, old_lo) <= min(new_hi, old_hi), (label, part)
        if scenario.expected is not None:
            # the benchmark's check: the midpoint within gap + tol_floor
            side = new_report[label]
            for key, want in zip(("re", "ze"), scenario.expected):
                slack = side[f"gap_{key}"] + scenario.tol_floor
                assert abs(side[key] - want) <= slack, (label, key)


def _write_goldens() -> None:
    records = {name: _record(_scenario(name)) for name in NAMES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    exact = stokes.polynomial_estimate
    stokes.polynomial_estimate = lambda f, theta, axes: None
    try:
        records = {name: _record(_scenario(name)) for name in POLYNOMIAL_NAMES}
    finally:
        stokes.polynomial_estimate = exact
    DARBOUX_GOLDEN.write_text(
        json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_goldens()
