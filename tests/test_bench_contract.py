"""The benchmark's tracer (bench/spans.py) still fits the package.

The tracer rebinds module attributes of ``stokes``, ``darboux``,
``forms`` and ``cubes`` by name, so renaming one of those call sites
would otherwise surface only when the benchmark runs.
"""

from pathlib import Path

from dualstokes import (builtin_scenario, cubes, darboux, forms,
                        load_scenarios, stokes)
from helpers import load_bench_module

WAVES = Path(__file__).with_name("nonpolynomial_scenarios.json")
MODULES = {"stokes": stokes, "darboux": darboux, "forms": forms,
           "cubes": cubes}


def _traced_metrics(scenario) -> dict:
    """One traced verdict's metrics; the modules come back unchanged."""
    spans = load_bench_module("spans")
    before = {name: dict(vars(module)) for name, module in MODULES.items()}
    tracer = spans.Tracer(MODULES)
    tracer.switch(True)
    try:
        stokes.run_scenario(scenario)
    finally:
        tracer.switch(False)
    metrics = tracer.fold()
    assert metrics["stokes.verdicts"] == 1
    # bench/run.py adds trace.overhead from its own timings
    assert set(metrics) | {"trace.overhead"} == {
        name for name, _unit, _better in spans.PER_LAYER}
    for name, module in MODULES.items():
        after = vars(module)
        assert all(after[attr] is value
                   for attr, value in before[name].items()), name
    return metrics


def test_tracer_counts_one_verdict_and_restores_modules():
    metrics = _traced_metrics(builtin_scenario("type1-saddle-surface"))
    # the partition hook counts the levels and cells the loop works
    # through: every integral is polynomial, constants included, so
    # every one is an exact bracket and none is a Darboux sum
    assert metrics["darboux.levels"] == 0
    assert metrics["darboux.cells"] == 0


def test_tracer_counts_the_refinement_of_a_wave():
    metrics = _traced_metrics(load_scenarios(WAVES)[0])
    # the two faces on which dx2 pulls back to 0 are exact; every other
    # integral is no polynomial, and each side refines to 32 pieces per axis
    assert metrics["darboux.levels"] == 11
    assert metrics["darboux.cells"] == 1448
