"""Verdicts of fixed scenarios, bit for bit, against checked-in reports.

``golden_reports.json`` holds, per case, the ``repr`` of the report dict
and of each side's lower and upper Darboux sums.  The cases are the
bundled scenarios and the benchmark's ``saddle-fine`` and
``tiled-chain-3d`` inputs; none of them calls ``exp``, ``sin`` or
``cos``, so the platform's libm cannot move a bit.  A change meant to
keep results exact must keep this test passing; one meant to move them
regenerates the file with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

import dualstokes.stokes as stokes
from helpers import load_bench_module

GOLDEN = Path(__file__).with_name("golden_reports.json")
TILED_SEEDS = (1, 9)


NAMES = tuple(sorted([d["name"] for d in stokes.BUILTIN_SCENARIO_DICTS]
                     + ["saddle-fine"]
                     + [f"tiled-chain-3d/{seed}" for seed in TILED_SEEDS]))


def _scenario(name: str):
    workloads = load_bench_module("workloads")
    if name == "saddle-fine":
        return workloads.saddle_fine(stokes, 0)[0]
    if name.startswith("tiled-chain-3d/"):
        return workloads.tiled_chain_3d(stokes, int(name.split("/")[1]))[0]
    return stokes.builtin_scenario(name)


def _record(scenario) -> dict:
    report = stokes.run_scenario(scenario)
    record = {"report": repr(report.to_dict())}
    for label in ("lhs", "rhs"):
        est = getattr(report, label)
        record[label] = None if est is None else [repr(est.lower),
                                                  repr(est.upper)]
    return record


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    assert _record(_scenario(name)) == _golden()[name]


if __name__ == "__main__":
    records = {name: _record(_scenario(name)) for name in NAMES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
