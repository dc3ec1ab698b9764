"""List the verdicts whose reports differ between a git revision and the
work tree.

    python tools/report_diff.py BASE

Runs every bundled scenario, every scenario of ``tests/*_scenarios.json``
and the benchmark's ``saddle-fine`` and ``tiled-chain-3d`` seeds 1-20
(built by the work tree's ``bench/workloads.py``, which it imports without
writing bytecode; the work tree's files on both sides) through the package
at BASE and through the work tree's, each in a process of its own, and
compares each verdict's ``to_dict()``, the ``repr`` of each side's
bracket ends, each side's normalized chain (its term count, and each
term's weight and first cube, the cube named by the position of its root
map in the verdict's chain and by its pins) and the ``repr`` of each
target's register of each root pullback, in the order the verdict takes
them.  So a change to normalization shows that it merges the same terms,
and a change to the pullback that its registers keep their terms' order,
shadow, order and degree, not only that the brackets match.  For every
bundled and ``tests/*_scenarios.json`` scenario it also compares the
``repr`` of the form's symbolic ``exterior_derivative`` and of its
symbolic ``pullback`` by each cube's map, named by the cube's position
in the chain, so a change to the derivatives names every node it moves,
whether or not a verdict reads it.
It prints each scenario that differs, with the fields that moved, old and
new, and exits 1 when one does, 0 when every verdict is bit-identical.

It also counts, per scenario and side, the work of that side's
normalization: the twin proofs that held (``cubes._proved`` True), those
that failed, and the lane runs (runs on ``cubes._LANE_ARITH``); a count
that a revision cannot make, as it lacks ``_proved`` or ``_LANE_ARITH``,
reads "n/a".  A proof changes no report, so these counts are where a
change to the proofs shows.  Every scenario whose counts differ is
listed under a heading of its own, after the verdicts; those listings
leave the exit status as the verdicts set it.
BASE is unpacked by ``git archive`` into a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, checkout

# the collector: run in a child whose PYTHONPATH holds one side's src/,
# it keys by source and scenario each field of each verdict's report,
# each bracket end, each term of each normalized chain and each target's
# register of each root pullback, by its repr, and, when asked, the
# repr of the form's symbolic d and of its symbolic pullback by each
# cube's map, outside the verdict.  The verdict's
# normalizations and pullbacks are read by wrapping the
# `stokes.chain_normalize` and `stokes.pullback_polynomial` it calls; a
# term's cube is named by its root map's position in the verdict's chain
# and its pins, which name the same cube on both sides, and so is the map
# of a pullback.  Each normalization's proofs that held and failed and its
# lane runs are counted by wrapping `cubes._proved` and `ExprMap.run`,
# where the package has them, and keyed as "count.<side>.<name>"
_SPIES = """
import json, sys
from dualstokes import cubes, expr, forms, stokes

COUNTS = ("proofs_held", "proofs_failed", "lane_runs")
proved, lanes = getattr(cubes, "_proved", None), getattr(cubes, "_LANE_ARITH",
                                                         None)
tally = [0, 0, 0]  # the current normalization's counts, in COUNTS order
tallies = []

if proved is not None:
    def spy_proved(*args):
        held = proved(*args)
        tally[0 if held else 1] += 1
        return held

    cubes._proved = spy_proved

if lanes is not None:
    run = expr.ExprMap.run

    def spy_run(self, arith, args):
        if arith is lanes:
            tally[2] += 1
        return run(self, arith, args)

    expr.ExprMap.run = spy_run

def flat(prefix, value, into):
    if isinstance(value, dict):
        for key, item in value.items():
            flat(f"{prefix}{key}.", item, into)
    else:
        into[prefix[:-1]] = repr(value)

normalized, pulled = [], []
normalize, pull = stokes.chain_normalize, stokes.pullback_polynomial

def spy(chain, *args):
    tally[:] = [0, 0, 0]
    result = normalize(chain, *args)
    normalized.append(result)
    held = proved is not None
    tallies.append([tally[0] if held else "n/a", tally[1] if held else "n/a",
                    tally[2] if lanes is not None else "n/a"])
    return result

def spy_pull(f, w, comps):
    result = pull(f, w, comps)
    pulled.append((f, result))
    return result

stokes.chain_normalize, stokes.pullback_polynomial = spy, spy_pull

def name(mapping, roots):
    root, pins = getattr(mapping, "_pin", None) or (mapping, ())
    return f"cube {roots.get(id(root), '?')} pins {pins!r}"

def derive(entry, scenario):
    w = scenario.form
    builds = [("d", forms.exterior_derivative, (w,))] + [
        (f"symbolic pullback cube {i}", forms.pullback, (cube.mapping, w))
        for i, (_, cube) in enumerate(scenario.chain.terms)]
    for field, build, args in builds:
        try:
            entry[field] = repr(build(*args))
        except Exception as exc:
            entry[field] = f"{type(exc).__name__}: {exc}"

def collect(source, scenarios, derivatives=False):
    for scenario in scenarios:
        entry = out[f"{source}: {scenario.name}"] = {}
        normalized.clear()
        pulled.clear()
        tallies.clear()
        if derivatives:
            derive(entry, scenario)
        try:
            report = stokes.run_scenario(scenario)
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            continue
        flat("", report.to_dict(), entry)
        for side, est in (("lhs", report.lhs), ("rhs", report.rhs)):
            if est is not None:
                entry[f"{side}.lower"] = repr(est.lower)
                entry[f"{side}.upper"] = repr(est.upper)
        roots = {id(cube.mapping): i
                 for i, (_, cube) in enumerate(scenario.chain.terms)}
        for side, counts in zip(("lhs", "rhs"), tallies):
            for count, value in zip(COUNTS, counts):
                entry[f"count.{side}.{count}"] = str(value)
        for side, chain in zip(("lhs", "rhs"), normalized):
            entry[f"{side}.normalized.terms"] = repr(len(chain.terms))
            for i, (weight, cube) in enumerate(chain.terms):
                entry[f"{side}.normalized.{i}"] = (
                    f"{weight:+d} {name(cube.mapping, roots)}")
        for i, (f, registers) in enumerate(pulled):
            for target, register in registers.items():
                entry[f"pullback.{i}.{target}"] = (
                    f"{name(f, roots)} {register!r}")

out = {}
"""

# the collector's run: argv holds the work tree's bench/ directory and the
# scenario files, and it prints what it collected as JSON
_COLLECT = _SPIES + """
sys.path.insert(0, sys.argv[1])
import workloads
collect("bundled", stokes.builtin_scenarios(), True)
for path in sys.argv[2:]:
    collect(path, stokes.load_scenarios(path), True)
collect("bench", workloads.saddle_fine(stokes, 1))
for seed in range(1, 21):
    collect(f"bench seed {seed}", workloads.tiled_chain_3d(stokes, seed))
print(json.dumps(out))
"""


def collect(src: Path, files: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-B", "-c", _COLLECT,
                           str(ROOT / "bench"), *files], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode:
        raise SystemExit(f"error: the verdicts in {src} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the git revision to compare against")
    args = parser.parse_args(argv)
    files = sorted(str(p.relative_to(ROOT))
                   for p in (ROOT / "tests").glob("*_scenarios.json"))
    with checkout(args.base) as base_root:
        old = collect(base_root / "src", files)
    new = collect(ROOT / "src", files)
    keys = sorted(old.keys() | new.keys())
    changed = _listing(old, new, keys, False)
    print(f"{changed} of {len(keys)} verdicts differ from {args.base}")
    print(f"\nProof and lane-run counts that differ from {args.base}:")
    counted = _listing(old, new, keys, True)
    print(f"{counted} of {len(keys)} scenarios differ in their proof or "
          f"lane-run counts from {args.base}")
    return 1 if changed else 0


def _listing(old: dict, new: dict, keys: list, counts: bool) -> int:
    """Print each scenario whose fields differ, with the fields that
    moved, old and new: only its counts if `counts`, else all the rest;
    return how many differ."""
    changed = 0
    for key in keys:
        before, after = old.get(key, {}), new.get(key, {})
        moved = [field for field in sorted(before.keys() | after.keys())
                 if field.startswith("count.") == counts
                 and before.get(field) != after.get(field)]
        if moved:
            changed += 1
            print(key)
            for field in moved:
                print(f"  {field}: {before.get(field)} -> {after.get(field)}")
    return changed


if __name__ == "__main__":
    sys.exit(main())
