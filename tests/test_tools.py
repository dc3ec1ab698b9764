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


def _spied(monkeypatch, missing=()) -> dict:
    """The collector's namespace after it wrapped the package's functions,
    each of which is put back after the test, as if `cubes` lacked the
    attributes `missing` while it did."""
    from dualstokes import cubes, expr, stokes
    monkeypatch.syspath_prepend(str(TOOLS))
    for owner, attr in ((stokes, "chain_normalize"),
                        (stokes, "pullback_polynomial"),
                        (cubes, "_proved"), (expr.ExprMap, "run")):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    saved = {attr: getattr(cubes, attr) for attr in missing}
    for attr in missing:
        monkeypatch.delattr(cubes, attr)
    scope = {}
    exec(_load("report_diff")._SPIES, scope)
    for attr, value in saved.items():
        monkeypatch.setattr(cubes, attr, value, raising=False)
    return scope


def test_report_diff_names_each_root_pullback_register(monkeypatch):
    # the collector keys each target's register of each root pullback of
    # a verdict by its repr, with the root's position in the chain, so
    # terms in reversed order, the same floats, move every one of those
    # fields (every register here has more than one term)
    from dualstokes import forms, stokes
    from helpers import load_bench_module
    scenario = load_bench_module("workloads").tiled_chain_3d(stokes, 1)[0]
    w = scenario.form

    def collected() -> dict:
        scope = _spied(monkeypatch)  # as the collector's child does
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
    scenarios = [s for s in stokes.builtin_scenarios() if s.form.k]
    assert scenarios

    def collected() -> dict:
        scope = _spied(monkeypatch)
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


def test_report_diff_counts_proofs_and_lane_runs(monkeypatch):
    # per side, the twin proofs that held and failed and the lane runs of
    # the side's normalization: the tiled boundary's 54 twin pairs are
    # proved; the exp-warped tiling's 4 are no polynomials, so each proof
    # fails and each of the 8 twins makes one lane run; the cubes of
    # either chain reach no proof
    from dualstokes import stokes
    from helpers import load_bench_module
    tiled = load_bench_module("workloads").tiled_chain_3d(stokes, 1)[0]
    warped = stokes.load_scenarios(
        TOOLS.parent / "tests" / "exp_warped_tiling_scenarios.json")[0]
    scope = _spied(monkeypatch)
    scope["collect"]("s", [tiled, warped])
    want = {"tiled-chain-3d": ("0", "0", "0", "54", "0", "0"),
            warped.name: ("0", "0", "0", "0", "4", "8")}
    for name, counts in want.items():
        entry = scope["out"][f"s: {name}"]
        assert tuple(entry[f"count.{side}.{count}"]
                     for side in ("lhs", "rhs")
                     for count in scope["COUNTS"]) == counts
    # a revision without the proofs or the lane arithmetic reads "n/a"
    scope = _spied(monkeypatch, ("_proved", "_LANE_ARITH"))
    scope["collect"]("s", [tiled])
    entry = scope["out"]["s: tiled-chain-3d"]
    assert {entry[f"count.{side}.{count}"] for side in ("lhs", "rhs")
            for count in scope["COUNTS"]} == {"n/a"}


def test_report_diff_lists_count_changes_apart_from_verdicts(monkeypatch,
                                                             capsys):
    # counts that differ are listed under their own heading and leave the
    # exit status 0; a verdict field that differs makes it 1
    import contextlib
    monkeypatch.syspath_prepend(str(TOOLS))
    module = _load("report_diff")
    old = {"a": {"passed": "True", "count.rhs.proofs_held": "54"},
           "b": {"passed": "True", "count.rhs.lane_runs": "0"}}
    new = {"a": {"passed": "True", "count.rhs.proofs_held": "n/a"},
           "b": {"passed": "True", "count.rhs.lane_runs": "0"}}
    sides = iter([old, new, old, {**new, "b": {"passed": "False"}}])
    monkeypatch.setattr(module, "checkout",
                        lambda rev: contextlib.nullcontext(TOOLS))
    monkeypatch.setattr(module, "collect", lambda src, files: next(sides))
    assert module.main(["BASE"]) == 0
    out = capsys.readouterr().out
    verdicts, counts = out.split("Proof and lane-run counts")
    assert verdicts.startswith("0 of 2 verdicts differ from BASE")
    assert "a\n  count.rhs.proofs_held: 54 -> n/a\n" in counts
    assert counts.rstrip().endswith(
        "1 of 2 scenarios differ in their proof or lane-run counts from BASE")
    assert module.main(["BASE"]) == 1
    verdicts, counts = capsys.readouterr().out.split(
        "Proof and lane-run counts")
    assert "b\n  passed: True -> False\n" in verdicts
    assert "b\n  count.rhs.lane_runs: 0 -> None\n" in counts
