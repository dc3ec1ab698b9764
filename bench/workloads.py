"""The benchmark's workloads: inputs from a seed, a timed pass, output checks.

Each workload stresses different layers (see README.md):

* ``saddle-fine``    one cube refined to 256 cells per axis, so almost
                     all time is Darboux sums and interval enclosures;
* ``tiled-chain-3d`` 27 warped cubes whose 162 faces cancel to 54, so
                     chain normalization, pullback and symbolic work
                     dominate and Darboux work is small;
* ``selftest-mix``   what ``dualstokes selftest`` runs, repeated: tiny
                     verdicts where loading and parsing dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SADDLE_REFINEMENT = {"tol_re": 1e-2, "tol_ze": 1e-2,
                     "base_subdivisions": 4, "max_doublings": 8}
# one selftest takes ~0.05 s; this many fill about a second per pass
SELFTEST_REPEATS = 20
TILES = 3
# edge of the type-1 domain [0, 1 + r*eps] at r = 0.5: tiles meet exactly
_EDGE = "(1+0.5*eps)"
# Seeded ranges are narrow enough that every cube converges at the first
# level for every seed, so the seed changes values but not the work done.
_WARP_RANGE = (0.01, 0.03)
_COEFF_RANGE = (0.2, 0.4)


def saddle_fine(stokes, seed: int) -> list:
    base = next(d for d in stokes.BUILTIN_SCENARIO_DICTS
                if d["name"] == "type1-saddle-surface")
    data = dict(base, name="saddle-fine", refinement=dict(SADDLE_REFINEMENT))
    return [stokes.scenario_from_dict(data)]


def tiled_chain_dict(seed: int) -> dict:
    """Cube m maps to (X, Y + a*X*Z, Z + b*X^2), X = x1 + m1*(1+0.5eps), ..."""
    rng = random.Random(seed)
    a, b = (rng.uniform(*_WARP_RANGE) for _ in range(2))
    c1, c2, c3 = (rng.uniform(*_COEFF_RANGE) for _ in range(3))
    cubes = []
    for m1 in range(TILES):
        for m2 in range(TILES):
            for m3 in range(TILES):
                x = f"(x1+{m1}*{_EDGE})"
                y = f"(x2+{m2}*{_EDGE})"
                z = f"(x3+{m3}*{_EDGE})"
                cubes.append({"weight": 1, "map": [
                    x, f"{y}+{a!r}*{x}*{z}", f"{z}+{b!r}*{x}^2"]})
    form = {"degree": 2, "coeffs": [
        {"index": [2, 3], "expr": f"{c1!r}*x1*x2"},
        {"index": [1, 3], "expr": f"{c2!r}*x2*x3"},
        {"index": [1, 2], "expr": f"{c3!r}*x1*x3"}]}
    return {"name": "tiled-chain-3d", "theta": 1, "r": 0.5, "n": 3, "k": 3,
            "form": form, "cubes": cubes,
            "refinement": {"tol_re": 5.0, "tol_ze": 5.0,
                           "base_subdivisions": 2, "max_doublings": 8}}


def tiled_chain_3d(stokes, seed: int) -> list:
    return [stokes.scenario_from_dict(tiled_chain_dict(seed))]


def tiled_boundary_problems(stokes, scenarios) -> list[str]:
    """The tiling's boundary must normalize to its 6 * TILES**2 outer faces.

    The per-cube tolerance leaves the chain's brackets wide, so this catches
    faces that fail to cancel even when the brackets still overlap.
    """
    faces = stokes.chain_normalize(stokes.boundary(scenarios[0].build_chain()))
    want = 6 * TILES ** 2
    if len(faces.terms) != want:
        return [f"tiled-chain-3d: boundary normalizes to {len(faces.terms)} "
                f"faces, not {want}"]
    return []


def no_problems(stokes, scenarios) -> list[str]:
    return []


def selftest_scenarios(stokes, seed: int) -> list:
    return stokes.builtin_scenarios()


def run_each(stokes, scenarios) -> list:
    return [(s, stokes.run_scenario(s)) for s in scenarios]


def run_selftests(stokes, scenarios) -> list:
    """`dualstokes selftest` without printing, SELFTEST_REPEATS times."""
    verdicts = []
    for _ in range(SELFTEST_REPEATS):
        fresh = stokes.builtin_scenarios()
        verdicts.extend(zip(fresh, stokes.run_suite(fresh)))
    return verdicts


@dataclass(frozen=True)
class Workload:
    load: Callable      # (stokes module, seed) -> scenarios
    run_pass: Callable  # (stokes module, scenarios) -> [(scenario, report)]
    # (stokes module, scenarios) -> problems; run once, after the timing
    check_outputs: Callable = no_problems


WORKLOADS = {
    "saddle-fine": Workload(saddle_fine, run_each),
    "tiled-chain-3d": Workload(tiled_chain_3d, run_each,
                               tiled_boundary_problems),
    "selftest-mix": Workload(selftest_scenarios, run_selftests),
}


def _bracket(est, part: str) -> tuple[float, float]:
    a, b = getattr(est.lower, part), getattr(est.upper, part)
    return min(a, b), max(a, b)


def verdict_problems(scenario, report) -> list[str]:
    """Why a verdict fails; empty when it converged, passed and checks out.

    A stated expected value must lie within each side's midpoint +-
    (gap + tol_floor).  Without one, the two sides' brackets must overlap.
    """
    name = scenario.name
    if not report.converged:
        return [f"{name}: did not converge: {report.note}"]
    problems = []
    if not report.passed:
        problems.append(
            f"{name}: sides differ by ({report.diff_re:.3g}, "
            f"{report.diff_ze:.3g}) above ({report.tol_re:.3g}, "
            f"{report.tol_ze:.3g})")
    sides = (("lhs", report.lhs), ("rhs", report.rhs))
    for i, part in enumerate(("re", "ze")):
        if scenario.expected is not None:
            want = scenario.expected[i]
            for label, est in sides:
                got = getattr(est.value, part)
                slack = getattr(est, f"gap_{part}") + scenario.tol_floor
                if abs(got - want) > slack:
                    problems.append(f"{name}: {label}.{part} = {got!r} is "
                                    f"{abs(got - want):.3g} from {want!r}")
        else:
            (lo1, hi1), (lo2, hi2) = (_bracket(est, part) for _, est in sides)
            if max(lo1, lo2) > min(hi1, hi2):
                problems.append(f"{name}: {part} brackets [{lo1!r}, {hi1!r}] "
                                f"and [{lo2!r}, {hi2!r}] do not overlap")
    return problems
