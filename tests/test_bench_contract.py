"""The benchmark's tracer (bench/spans.py) still fits the package.

The tracer rebinds module attributes of ``stokes``, ``darboux``,
``forms`` and ``cubes`` by name, so renaming one of those call sites
would otherwise surface only when the benchmark runs.
"""

from dualstokes import builtin_scenario, cubes, darboux, forms, stokes
from helpers import load_bench_module


def test_tracer_counts_one_verdict_and_restores_modules():
    spans = load_bench_module("spans")
    modules = {"stokes": stokes, "darboux": darboux, "forms": forms,
               "cubes": cubes}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = spans.Tracer(modules)
    scenario = builtin_scenario("type1-saddle-surface")
    tracer.switch(True)
    try:
        stokes.run_scenario(scenario)
    finally:
        tracer.switch(False)
    metrics = tracer.fold()
    assert metrics["stokes.verdicts"] == 1
    # the partition hook counts the levels and cells the loop works through
    assert metrics["darboux.levels"] == 11
    assert metrics["darboux.cells"] == 1432
    # bench/run.py adds trace.overhead from its own timings
    assert set(metrics) | {"trace.overhead"} == {
        name for name, _unit, _better in spans.PER_LAYER}
    for name, module in modules.items():
        after = vars(module)
        assert all(after[attr] is value
                   for attr, value in before[name].items()), name
