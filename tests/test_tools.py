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


def test_report_diff_names_each_root_pullback_register(monkeypatch):
    # the collector keys each target's register of each root pullback of
    # a verdict by its repr, with the root's position in the chain, so
    # terms in reversed order, the same floats, move every one of those
    # fields (every register here has more than one term)
    from dualstokes import forms, stokes
    from helpers import load_bench_module
    monkeypatch.syspath_prepend(str(TOOLS))
    spies = _load("report_diff")._SPIES
    scenario = load_bench_module("workloads").tiled_chain_3d(stokes, 1)[0]
    w = scenario.form

    def collected() -> dict:
        for attr in ("chain_normalize", "pullback_polynomial"):
            monkeypatch.setattr(stokes, attr, getattr(stokes, attr))
        scope = {}
        exec(spies, scope)  # wraps the two, as the collector's child does
        scope["collect"]("tiled", [scenario])
        return scope["out"]["tiled: tiled-chain-3d"]

    entry = collected()
    pulled = {field: value for field, value in entry.items()
              if field.startswith("pullback.")}
    assert len(pulled) == 27 * 3
    for i, (_, cube) in enumerate(scenario.chain.terms):
        registers = forms.pullback_polynomial(cube.mapping, w)
        for target, register in registers.items():
            assert len(register[0]) > 1
            assert f"cube {i} pins () {register!r}" in pulled.values()

    pull = stokes.pullback_polynomial

    def reversed_terms(f, form, comps):
        return {target: (dict(reversed(terms.items())), *rest)
                for target, (terms, *rest) in pull(f, form, comps).items()}

    monkeypatch.setattr(stokes, "pullback_polynomial", reversed_terms)
    moved = {field for field, value in collected().items()
             if entry.get(field) != value}
    assert moved >= set(pulled)


def test_report_diff_names_each_derivative_node(monkeypatch):
    # asked for derivatives, the collector keys the repr of each
    # scenario's symbolic d and of its symbolic pullback by each cube's
    # map, named by the cube's position in the chain, so partials that
    # move (here each one doubled) move every one of those fields
    from dualstokes import forms, stokes
    monkeypatch.syspath_prepend(str(TOOLS))
    spies = _load("report_diff")._SPIES
    scenarios = [s for s in stokes.builtin_scenarios() if s.form.k]
    assert scenarios

    def collected() -> dict:
        for attr in ("chain_normalize", "pullback_polynomial"):
            monkeypatch.setattr(stokes, attr, getattr(stokes, attr))
        scope = {}
        exec(spies, scope)
        scope["collect"]("bundled", scenarios, True)
        return scope["out"]

    def derived(entry: dict) -> dict:
        return {field: value for field, value in entry.items()
                if field == "d" or field.startswith("symbolic pullback")}

    out = collected()
    for scenario in scenarios:
        entry = derived(out[f"bundled: {scenario.name}"])
        w = scenario.form
        assert entry.pop("d") == repr(forms.exterior_derivative(w))
        assert entry == {
            f"symbolic pullback cube {i}": repr(forms.pullback(cube.mapping,
                                                               w))
            for i, (_, cube) in enumerate(scenario.chain.terms)}

    partial_diffs = forms.partial_diffs
    monkeypatch.setattr(forms, "partial_diffs", lambda f, indices: tuple(
        p * 2.0 for p in partial_diffs(f, indices)))
    moved = collected()
    for key, entry in out.items():
        before, after = derived(entry), derived(moved[key])
        assert before.keys() == after.keys()
        assert all(before[field] != after[field] for field in before), key
