"""The benchmark's tracer (bench/spans.py) still fits the package.

The tracer rebinds module attributes of ``stokes``, ``darboux``,
``forms`` and ``cubes`` by name, so renaming one of those call sites
would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

from dualstokes import builtin_scenario, cubes, darboux, forms, stokes

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_verdict_and_restores_modules():
    spans = _load_spans()
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
    assert metrics["darboux.levels"] > 0
    assert metrics["darboux.cells"] > 0
    # bench/run.py adds trace.overhead from its own timings
    assert set(metrics) | {"trace.overhead"} == {
        name for name, _unit, _better in spans.PER_LAYER}
    for name, module in modules.items():
        after = vars(module)
        assert all(after[attr] is value
                   for attr, value in before[name].items()), name
