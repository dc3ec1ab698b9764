"""List the verdicts whose reports differ between a git revision and the
work tree.

    python tools/report_diff.py BASE

Runs every bundled scenario and every scenario of ``tests/*_scenarios.json``
(the work tree's files, on both sides) through the package at BASE and
through the work tree's, each in a process of its own, and compares each
verdict's ``to_dict()`` and the ``repr`` of each side's bracket ends.  It
prints each scenario that differs, with the fields that moved, old and
new, and exits 1 when one does, 0 when every verdict is bit-identical.
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

# run in a child whose PYTHONPATH holds one side's src/; argv holds the
# scenario files, and it prints, keyed by file and scenario, each field
# of each verdict's report and each bracket end, by its repr, as JSON
_COLLECT = """
import json, sys
from dualstokes import stokes

def flat(prefix, value, into):
    if isinstance(value, dict):
        for key, item in value.items():
            flat(f"{prefix}{key}.", item, into)
    else:
        into[prefix[:-1]] = repr(value)

def collect(source, scenarios):
    for scenario in scenarios:
        entry = out[f"{source}: {scenario.name}"] = {}
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

out = {}
collect("bundled", stokes.builtin_scenarios())
for path in sys.argv[1:]:
    collect(path, stokes.load_scenarios(path))
print(json.dumps(out))
"""


def collect(src: Path, files: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _COLLECT, *files], cwd=ROOT,
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
    changed = 0
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, {}), new.get(key, {})
        moved = [field for field in sorted(before.keys() | after.keys())
                 if before.get(field) != after.get(field)]
        if moved:
            changed += 1
            print(key)
            for field in moved:
                print(f"  {field}: {before.get(field)} -> {after.get(field)}")
    print(f"{changed} of {len(old.keys() | new.keys())} verdicts differ "
          f"from {args.base}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
