"""Time-to-verdict benchmark for dualstokes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
One caller in one thread runs one pass after another (a closed loop)
through the public API, ``scenario_from_dict`` then ``run_scenario``,
and checks every verdict.  ``--trace 0`` reports the end-to-end metrics,
with times scaled to a reference speed (see ``ReferenceClock``), and
``--trace 1`` the per-layer ones from a separate traced part of the run.
``--workload all`` runs each workload in its own process.  The last line
of output is one JSON object; the exit code is 0 when every verdict
checked out, 1 when one did not, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, verdict_problems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s is the median of this many imports-and-loads in one process
SETUP_REPEATS = 41
MIN_PASSES = 3
# rounds of one untraced and one traced pass
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 900
SAMPLE_INTERVAL_S = 0.02
REFERENCE_ROUNDS = 1000
# about the reference loop's median time on the 2-vCPU machine the
# benchmark was defined on
REFERENCE_S = 0.0009


class Tally:
    """Verdicts attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, verdicts):
        for scenario, report in verdicts:
            self.attempted += 1
            problems = verdict_problems(scenario, report)
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def reference_seconds() -> float:
    """Wall seconds of a fixed pure-Python loop; it runs no dualstokes code."""
    start = perf_counter()
    table, acc = {}, 0.0
    for i in range(REFERENCE_ROUNDS):
        x = (i * 0.37) % 1.0
        acc += x * x - acc * 1e-3
        table[i % 97] = table.get(i % 97, 0) + 1
        if len(str(i)) > 3:
            acc += 1.0
        sorted((x, acc, i))
    return perf_counter() - start


class ReferenceClock:
    """Times a call at the speed that a reference loop sets.

    On a shared host the same code runs up to twice as fast or as slow
    from one tenth of a second to the next.  While the clock times a
    call, a one-shot timer signal interrupts it after each
    SAMPLE_INTERVAL_S of its own time to run the reference loop, so the
    loop samples the machine's speed all through the call.  The call's
    wall time, less the time the loop took, is multiplied by REFERENCE_S
    over the loop's mean time.  A call that reads 1 s took 1 s of wall
    time at the speed where the loop takes REFERENCE_S.
    """

    def __init__(self):
        self.samples, self.sampling_s, self.sampling = [], 0.0, False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame):
        # a signal can arrive just before time() disarms the timer
        if not self.sampling:
            return
        start = perf_counter()
        self.samples.append(reference_seconds())
        self.sampling_s += perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def time(self, call):
        """(call's result, scaled seconds, wall seconds less sampling)."""
        self.samples, self.sampling_s, self.sampling = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            result = call()
        finally:
            self.sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start - self.sampling_s
        if not self.samples:  # the call ended within one interval
            self.samples.append(reference_seconds())
        scaled = seconds * REFERENCE_S / statistics.fmean(self.samples)
        return result, scaled, seconds


def wall_time(call):
    """(call's result, wall seconds, wall seconds): unscaled, no signals."""
    start = perf_counter()
    result = call()
    seconds = perf_counter() - start
    return result, seconds, seconds


def import_fresh():
    """Import dualstokes from src/, dropping any copy already imported."""
    for name in [m for m in sys.modules if m.split(".")[0] == "dualstokes"]:
        del sys.modules[name]
    package = importlib.import_module("dualstokes")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dualstokes came from {package.__file__}, "
                          f"not from {SRC}")
    return package


def set_up(clock, workload, seed):
    """Median scaled seconds to import the package and load the scenarios."""
    def load():
        package = import_fresh()
        return package, workload.load(package.stokes, seed)

    samples = []
    for _ in range(SETUP_REPEATS):
        (package, scenarios), scaled, _ = clock.time(load)
        samples.append(scaled)
    return statistics.median(samples), package, scenarios


def time_pass(timer, run_pass, tally) -> tuple[float, float]:
    """A pass's time as ``timer`` reads it: (seconds, wall seconds).

    Its verdicts are checked after the clock stops.
    """
    gc.collect()
    verdicts, seconds, wall = timer(run_pass)
    tally.check(verdicts)
    return seconds, wall


def repeat_for(seconds, min_rounds, one_round):
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or perf_counter() < deadline:
        one_round()
        rounds += 1


def expected_names(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def describe(times) -> str:
    return (f"median of n={len(times)} passes; "
            f"min {min(times):.4f}, max {max(times):.4f}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "dualstokes").is_dir():
        print(f"error: no package at {SRC / 'dualstokes'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    clock = ReferenceClock()
    try:
        setup_s, package, scenarios = set_up(clock, workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import dualstokes: {exc}", file=sys.stderr)
        return 2
    stokes = package.stokes

    def run_pass():
        return workload.run_pass(stokes, scenarios)

    tally = Tally()
    tally.check(run_pass())  # warm-up, untimed
    if not args.trace:
        times, walls = [], []

        def one_pass():
            scaled, wall = time_pass(clock.time, run_pass, tally)
            times.append(scaled)
            walls.append(wall)

        repeat_for(args.seconds, MIN_PASSES, one_pass)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"verify_s": (statistics.median(times), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mib": (peak, "MiB")}
        notes = {"verify_s": f"{describe(times)}; unscaled wall median "
                             f"{statistics.median(walls):.4f}",
                 "setup_s": f"median of {SETUP_REPEATS} imports and loads"}
    else:
        # Untraced and traced passes alternate, so drift hits both alike.
        # They are timed unscaled: the reference loop would run inside
        # the spans and add to the layers' self times.
        tracer = spans.Tracer(
            {"stokes": stokes, "darboux": package.darboux,
             "forms": package.forms, "cubes": package.cubes})
        plain, traced, per_pass = [], [], []

        def one_round():
            plain.append(time_pass(wall_time, run_pass, tally)[0])
            tracer.switch(True)
            traced.append(time_pass(wall_time, run_pass, tally)[0])
            tracer.switch(False)
            per_pass.append(tracer.fold())

        repeat_for(args.seconds, MIN_TRACED_PASSES, one_round)
        summary, unsteady = spans.summarize(per_pass)
        summary["trace.overhead"] = (statistics.median(traced)
                                     / statistics.median(plain))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {name: (summary[name], units[name]) for name in units}
        notes = {"trace.overhead": f"traced {describe(traced)} over "
                                   f"untraced {describe(plain)}"}
        for name in unsteady:
            tally.problems.append(
                f"{name} differs between traced passes: "
                f"{[p[name] for p in per_pass]}")

    tally.problems.extend(workload.check_outputs(stokes, scenarios))
    if sorted(metrics) != sorted(expected_names(args.trace)):
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2
    fail_frac = tally.failed / tally.attempted
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<30} {value:.6g} {unit}{note}")
    print(f"{'fail_frac':<30} {fail_frac:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} verdicts)")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not tally.problems
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
