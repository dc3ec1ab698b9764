"""The repository's measurement scripts under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}",
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(better, base, head, head_won):
    q1, median, q3 = base
    return {"better": better, "head_won": head_won,
            "base": {"q1": q1, "median": median, "q3": q3},
            "head": {"median": head}}


def test_bench_pairs_judges_the_claim_rule_and_the_bound():
    judge = _load("bench_pairs").judge
    # 9 of 10 pairs won and a gap past the base's quartiles: a claim
    won = judge(_row("lower", (0.98, 1.0, 1.02), 0.9, 9), 0.25, 10)
    assert won["claim"] and not won["regressed"]
    assert abs(won["change"] + 0.1) < 1e-12
    # 8 of 10 is not nine tenths; a gap inside the quartiles is no claim
    assert not judge(_row("lower", (0.98, 1.0, 1.02), 0.9, 8), 0.25,
                     10)["claim"]
    assert not judge(_row("lower", (0.8, 1.0, 1.2), 0.9, 10), 0.25,
                     10)["claim"]
    # worse by more than the bound, a fraction of the base median
    lost = judge(_row("lower", (0.98, 1.0, 1.02), 1.3, 0), 0.25, 10)
    assert lost["regressed"] and not lost["claim"]
    assert not judge(_row("lower", (0.98, 1.0, 1.02), 1.2, 0), 0.25,
                     10)["regressed"]
    # a higher-is-better metric is judged the other way round
    assert judge(_row("higher", (0.98, 1.0, 1.02), 1.1, 10), 0.25,
                 10)["claim"]
    assert judge(_row("higher", (0.98, 1.0, 1.02), 0.7, 0), 0.25,
                 10)["regressed"]
