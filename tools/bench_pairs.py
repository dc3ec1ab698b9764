"""Run the benchmark in pairs: a git revision against the work tree.

    python tools/bench_pairs.py BASE [--pairs N] [--seconds S] [--out FILE]

Each pair runs ``bench/run.py --workload all --trace 0 --seconds S`` once
in a checkout of BASE and once in the work tree, each side from its own
files, and alternates which side runs first.  The result, written to
FILE (``BENCH.json`` by default; name it ``BENCH_<change>.json`` for a
change's claim), holds for each workload and end-to-end metric of
``BENCHMARK.json`` each side's runs, median and quartiles, and the
pairs each side won (ties count for neither), along with the verdicts
each run attempted and failed.  The checkout is unpacked by
``git archive`` into a temporary directory, removed at exit, so the
repository's own files and ``.git`` are left as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def checkout(rev: str):
    """The files of the git revision `rev`, as a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="checkout-") as tmp:
        archive = subprocess.Popen(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
            stdout=subprocess.PIPE)
        unpack = subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                                check=False)
        archive.stdout.close()
        if archive.wait() or unpack.returncode:
            raise SystemExit(f"error: cannot unpack revision {rev!r}")
        yield Path(tmp)


def run_bench(root: Path, seconds: float) -> dict:
    """The last line of ``bench/run.py --workload all`` in `root`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--trace", "0",
         "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: the benchmark in {root} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="bench/run.py --seconds, the same on both sides")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    base_rev, head_rev = (subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
        for rev in (args.base, "HEAD"))
    runs = {"base": [], "head": []}
    with checkout(base_rev) as base_root:
        roots = {"base": base_root, "head": ROOT}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_bench(roots[side], args.seconds))
            print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr)
    workloads = {}
    for workload in spec["workloads"]:
        name, metrics = workload["name"], {}
        for metric in spec["end_to_end"]:
            key = f"{name}.{metric['name']}"
            base, head = ([run["metrics"][key]["value"] for run in runs[side]]
                          for side in ("base", "head"))
            sign = 1 if metric["better"] == "lower" else -1
            metrics[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "base": summary(base), "head": summary(head),
                "head_won": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
                "base_won": sum(sign * (b - h) < 0 for b, h in zip(base, head)),
            }
        workloads[name] = metrics
    result = {
        "base": base_rev, "head": f"the work tree at {head_rev}",
        "command": ["python3", "bench/run.py", "--workload", "all",
                    "--trace", "0", "--seconds", str(args.seconds)],
        "pairs": args.pairs,
        "verdicts": {side: [[run["attempted"], run["failed"]]
                            for run in runs[side]] for side in runs},
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, metrics in workloads.items():
        for metric, row in metrics.items():
            print(f"{name:<15} {metric:<13} base {row['base']['median']:.6g} "
                  f"head {row['head']['median']:.6g} {row['unit']}, head won "
                  f"{row['head_won']} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
