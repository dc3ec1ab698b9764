"""Command-line front end.

Exit codes: 0 every check passed, 1 a check converged but failed,
2 bad configuration or arguments, a value past the float range, or a
refinement too large for memory, 3 an integration blew its refinement
budget.  Configuration problems win over everything else; otherwise
non-convergence outranks a plain failure.
"""

from __future__ import annotations

import argparse
import sys

from .darboux import NotConverged
from .stokes import (BUILTIN_SCENARIO_DICTS, ScenarioError, builtin_scenario,
                     builtin_scenarios, exit_code, load_scenarios,
                     run_integral, run_scenario, write_report_csv,
                     write_report_json)
from .tensors import lambda_dim


def _dual_text(value) -> str:
    return f"{value.re:.10g}{value.ze:+.10g}*eps"


def _print_report(report):
    if not report.converged:
        print(f"NOCONV {report.scenario or '(unnamed)'}: {report.note}")
        return
    status = "ok" if report.passed else "FAIL"
    line = (f"{status:6s} {report.scenario or '(unnamed)':<28s} "
            f"lhs={_dual_text(report.lhs.value)} "
            f"rhs={_dual_text(report.rhs.value)} "
            f"diff=({report.diff_re:.3g}, {report.diff_ze:.3g})")
    if not report.passed:
        line += f" tol=({report.tol_re:.3g}, {report.tol_ze:.3g})"
    print(line)


def _gather_scenarios(args) -> list:
    scenarios = []
    for path in args.scenario or ():
        scenarios.extend(load_scenarios(path))
    for name in args.builtin or ():
        scenarios.append(builtin_scenario(name))
    all_builtin = getattr(args, "all_builtin", None)  # verify's flag only
    if all_builtin:
        scenarios.extend(builtin_scenarios())
    if not scenarios:
        flags = ("--scenario or --builtin" if all_builtin is None
                 else "--scenario, --builtin, or --all-builtin")
        raise ScenarioError(f"nothing to run: pass {flags}")
    return scenarios


def _add_scenario_options(parser):
    parser.add_argument("--scenario", action="append", metavar="FILE",
                        help="JSON file with one scenario or a list of them")
    parser.add_argument("--builtin", action="append", metavar="NAME",
                        help="run a bundled scenario by name")


def _cmd_verify(args) -> int:
    scenarios = _gather_scenarios(args)
    reports = [run_scenario(s) for s in scenarios]
    for report in reports:
        _print_report(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            write_report_json(reports, fh)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_report_csv(reports, fh)
    return exit_code(reports)


def _cmd_integrate(args) -> int:
    scenarios = _gather_scenarios(args)
    worst = 0
    for scenario in scenarios:
        try:
            est = run_integral(scenario)
        except NotConverged as exc:
            print(f"NOCONV {scenario.name}: {exc}")
            worst = max(worst, 3)
            continue
        print(f"{scenario.name}: value={_dual_text(est.value)} "
              f"gap=({est.gap_re:.3g}, {est.gap_ze:.3g}) "
              f"subdivisions={est.subdivisions}")
    return worst


def _cmd_selftest(args) -> int:
    reports = [run_scenario(s) for s in builtin_scenarios()]
    for report in reports:
        _print_report(report)
    good = sum(r.passed for r in reports)
    print(f"{good}/{len(reports)} bundled scenarios passed")
    return exit_code(reports)


def _cmd_list(args) -> int:
    for data in BUILTIN_SCENARIO_DICTS:
        print(f"{data['name']:<28s} {data.get('description', '')}")
    return 0


def _cmd_dim(args) -> int:
    print(lambda_dim(args.n, args.k))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualstokes",
        description="Boundary-theorem checks for forms over the dual reals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="check d-then-integrate against boundary-then-integrate")
    _add_scenario_options(p_verify)
    p_verify.add_argument("--all-builtin", action="store_true",
                          help="run every bundled scenario")
    p_verify.add_argument("--json", metavar="FILE",
                          help="write reports as JSON")
    p_verify.add_argument("--csv", metavar="FILE",
                          help="write reports as CSV")
    p_verify.set_defaults(func=_cmd_verify)

    p_int = sub.add_parser(
        "integrate", help="integrate a top-degree form over a chain")
    _add_scenario_options(p_int)
    p_int.set_defaults(func=_cmd_integrate)

    p_self = sub.add_parser(
        "selftest", help="run every bundled scenario and summarize")
    p_self.set_defaults(func=_cmd_selftest)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_dim = sub.add_parser(
        "dim", help="dimension of the alternating k-tensors on n-space")
    p_dim.add_argument("n", type=int)
    p_dim.add_argument("k", type=int)
    p_dim.set_defaults(func=_cmd_dim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an interval enclosure, a constant or a chain sum "
              f"overflowed the float range: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; a refinement level's partition may be "
              "too large (lower base_subdivisions or max_doublings)",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
