import csv
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import dualstokes.stokes as stokes
from dualstokes import (Chain, CubeDomain, DEFAULT_STOKES_TOL, DiffForm, Dual,
                        ExprMap, IntegralEstimate, NotConverged, Ordering,
                        REPORT_SCHEMA, Refinement, ScenarioError, SingularCube,
                        StokesReport, Theta, ascending_tuples, boundary,
                        builtin_scenario, builtin_scenarios, chain_normalize,
                        chain_of, exit_code, exterior_derivative, face,
                        integral_estimate, integrate_over_chain,
                        integrate_over_cube, load_scenarios, parse_expr,
                        pullback, render_expr, run_integral, run_scenario,
                        run_suite, scenario_from_dict, standard_cube,
                        theta_cmp, verify_stokes, write_report_csv,
                        write_report_json)
from dualstokes.darboux import NotFinite
from dualstokes import forms
from dualstokes.expr import _POLYS, NotPolynomial
from dualstokes.forms import pullback_polynomial
from helpers import (REFERENCE_POLYS, THETAS, FormalSum, _exact_add,
                     bracket_contains, load_bench_module, random_chain,
                     random_form, random_poly, reference_exact_expansion,
                     reference_exact_integral, reference_exact_partial,
                     reference_exact_pullback,
                     reference_formal_expansion, reference_formal_partial,
                     reference_formal_values, reference_primitive,
                     reference_pullback_polynomial)


def _report(converged: bool = True, passed: bool = True) -> StokesReport:
    if not converged:
        return StokesReport(scenario="s", theta=Theta.TYPE1, r=0.5, k=2, n=2,
                            converged=False, passed=False, lhs=None, rhs=None,
                            diff_re=None, diff_ze=None, tol_re=1e-3,
                            tol_ze=1e-3, note="budget exhausted")
    est = IntegralEstimate.exact(Dual(1.0, 1.0))
    return StokesReport(scenario="s", theta=Theta.TYPE1, r=0.5, k=2, n=2,
                        converged=True, passed=passed, lhs=est, rhs=est,
                        diff_re=0.0, diff_ze=0.0, tol_re=1e-3, tol_ze=1e-3)


# ---------------------------------------------------------------------------
# refinement settings


def test_refinement_from_dict():
    assert Refinement.from_dict({}) == Refinement()
    custom = Refinement.from_dict({"tol_re": 0.1, "max_doublings": 3})
    assert custom.tol_re == 0.1 and custom.max_doublings == 3
    assert Refinement.from_dict(custom.to_dict()) == custom
    for bad in ({"tol_re": -1}, {"mode": "magic"}, {"base_subdivisions": 0},
                {"base_subdivisions": 2.5}, {"max_doublings": -1},
                {"junk": 1}, ["not a dict"], {"tol_re": "x"},
                {"tol_re": math.nan}, {"tol_ze": math.inf},
                {"tol_re": -math.inf}, {"tol_ze": 10 ** 400},
                {"base_subdivisions": True}, {"max_doublings": False},
                {"mode": "sample"}, {"mode": "enclosure"}):
        with pytest.raises(ScenarioError):
            Refinement.from_dict(bad)


# ---------------------------------------------------------------------------
# integration over cubes and chains


def test_zero_cube_integral_is_exact_eval():
    # the point's register bracket: it bounds the roundings of the value
    dom = CubeDomain(Theta.TYPE1, 0.5, 0)
    cube = SingularCube(dom, ExprMap((parse_expr("2", 0),)))
    w = DiffForm(1, 0, {(): parse_expr("x1^2+1", 1)})
    est = integrate_over_cube(w, cube, Refinement())
    assert est.value == Dual(5.0, 0.0)
    assert bracket_contains(est, (5, 0))
    assert est.subdivisions == 0


def test_chain_integral_weights_scale():
    w = DiffForm(2, 2, {(0, 1): parse_expr("x1*x2", 2)})
    cube = standard_cube(Theta.TYPE1, 0.0, 2)
    ref = Refinement(0.05, 0.05, 4, 4)
    single = integrate_over_chain(w, chain_of(cube), ref)
    double = integrate_over_chain(w, chain_of(cube, 2), ref)
    assert double.value.re == pytest.approx(2 * single.value.re)
    assert double.gap_re == pytest.approx(2 * single.gap_re)
    negated = integrate_over_chain(w, chain_of(cube, -1), ref)
    assert negated.value.re == pytest.approx(-single.value.re)
    assert negated.lower.re <= negated.upper.re
    # the true value 1/4 sits inside every bracket
    assert single.lower.re <= 0.25 <= single.upper.re
    assert negated.lower.re <= -0.25 <= negated.upper.re


def test_empty_chain_integral_is_zero():
    w = DiffForm(2, 2, {(0, 1): parse_expr("x1", 2)})
    empty = Chain(Theta.TYPE2, 0.5, 2, 2, ())
    est = integrate_over_chain(w, empty, Refinement())
    assert est.value == Dual(0.0, 0.0)
    assert est.gap_re == 0.0 and est.gap_ze == 0.0


@pytest.mark.parametrize("text, weight", [
    ("1e300", 10 ** 30),  # the sums themselves overflow
    ("1.7e308", 1),       # finite sums whose midpoint overflows
])
def test_chain_sum_past_the_float_range_overflows(text, weight):
    # a tolerance that the cube's register bracket, about 1e-14 of its
    # value wide, meets, so that the chain sum is reached
    w = DiffForm(2, 2, {(0, 1): parse_expr(text, 2)})
    cube = standard_cube(Theta.TYPE1, 0.5, 2)
    with pytest.raises(OverflowError, match="chain sum is not finite"):
        integrate_over_chain(w, chain_of(cube, weight),
                             Refinement(1e300, 1e300))


def test_large_constant_does_not_converge_at_the_default_tolerance():
    # the tolerances are absolute, and the register bracket of 1e300 over
    # [0, 1 + 0.5 eps]^2 is about 1e-14 of it wide: the cube does not
    # converge, and carries that bracket, which holds 1e300 (1 + eps)
    w = DiffForm(2, 2, {(0, 1): parse_expr("1e300", 2)})
    with pytest.raises(NotConverged) as got:
        integrate_over_cube(w, standard_cube(Theta.TYPE1, 0.5, 2),
                            Refinement())
    est = got.value.estimate
    assert est.subdivisions == 0 and 1e280 < est.gap_re < 1e290
    assert bracket_contains(est, (Fraction(1e300), Fraction(1e300)))


def test_type2_bracket_orientation():
    w = DiffForm(2, 2, {(0, 1): parse_expr("x1*x2", 2)})
    cube = standard_cube(Theta.TYPE2, 0.5, 2)
    est = integrate_over_chain(w, chain_of(cube), Refinement(0.5, 0.5, 4, 2))
    assert theta_cmp(est.lower, est.upper, Theta.TYPE2) in (Ordering.LESS,
                                                            Ordering.EQUAL)
    assert est.lower.ze >= est.upper.ze


def test_integration_shape_errors():
    ref = Refinement()
    sq = standard_cube(Theta.TYPE1, 0.5, 2)
    with pytest.raises(ValueError):
        integrate_over_cube(DiffForm(3, 2, {(0, 1): parse_expr("1", 3)}),
                            sq, ref)
    with pytest.raises(ValueError):
        integrate_over_cube(DiffForm(2, 1, {(0,): parse_expr("1", 2)}),
                            sq, ref)
    with pytest.raises(ValueError):
        verify_stokes(DiffForm(2, 2, {(0, 1): parse_expr("1", 2)}),
                      chain_of(sq))
    with pytest.raises(ValueError):
        verify_stokes(DiffForm(3, 1, {(0,): parse_expr("1", 3)}),
                      chain_of(sq))


# ---------------------------------------------------------------------------
# the boundary theorem itself


def test_inflated_square_exact():
    w = DiffForm(2, 1, {(1,): parse_expr("x1", 2)})
    report = verify_stokes(w, chain_of(standard_cube(Theta.TYPE1, 0.5, 2)))
    assert report.converged and report.passed
    assert report.lhs.value == Dual(1.0, 1.0)
    assert report.rhs.value == Dual(1.0, 1.0)
    assert report.diff_re == 0.0 and report.diff_ze == 0.0
    assert bracket_contains(report.lhs, (1, 1))
    mirrored = verify_stokes(w, chain_of(standard_cube(Theta.TYPE2, 0.5, 2)))
    assert mirrored.passed
    assert mirrored.lhs.value == Dual(1.0, -1.0)


def test_boundary_theorem_random_polynomials():
    rng = random.Random(2026)
    ref = Refinement(tol_re=1.0, tol_ze=1.0, base_subdivisions=4,
                     max_doublings=4)
    checked = 0
    while checked < 12:
        theta = rng.choice(THETAS)
        r = rng.choice((0.0, 0.25, 0.5))
        k = rng.choice((1, 2))
        n = rng.randint(k, k + 1)
        w = random_form(rng, n, k - 1, depth=2)
        if w.is_zero():
            continue
        chain = random_chain(rng, theta, r, k, n,
                             terms=rng.randint(1, 2), depth=2)
        report = verify_stokes(w, chain, ref, scenario=f"case{checked}")
        assert report.converged and report.passed
        # both brackets enclose the same true value, so their midpoints
        # cannot drift apart by more than half the summed gaps
        assert report.diff_re <= (report.lhs.gap_re
                                  + report.rhs.gap_re) / 2 + 1e-12
        assert report.diff_ze <= (report.lhs.gap_ze
                                  + report.rhs.gap_ze) / 2 + 1e-12
        checked += 1


def test_unconverged_budget_reports():
    w = DiffForm(1, 0, {(): parse_expr("x1^2", 1)})
    chain = chain_of(standard_cube(Theta.TYPE1, 0.5, 1))
    ref = Refinement(tol_re=0.0, tol_ze=0.0, base_subdivisions=2,
                     max_doublings=1)
    report = verify_stokes(w, chain, ref)
    assert not report.converged and not report.passed
    assert report.lhs is None and report.rhs is None
    assert report.note
    jsonschema.validate(report.to_dict(), REPORT_SCHEMA)
    assert exit_code([report]) == 3


def test_exit_code_precedence():
    ok, bad, stuck = _report(), _report(passed=False), _report(converged=False)
    assert exit_code([]) == 0
    assert exit_code([ok, ok]) == 0
    assert exit_code([ok, bad]) == 1
    assert exit_code([ok, stuck]) == 3
    assert exit_code([stuck, bad]) == 3


# ---------------------------------------------------------------------------
# reports as data


def test_report_round_trip():
    report = run_scenario(builtin_scenario("type1-unit-square"))
    data = json.loads(json.dumps(report.to_dict()))
    jsonschema.validate(data, REPORT_SCHEMA)
    again = StokesReport.from_dict(data)
    assert again.to_dict() == report.to_dict()
    assert again.lhs.value == report.lhs.value
    assert again.lhs.lower.re <= again.lhs.value.re <= again.lhs.upper.re
    with pytest.raises(ValueError):
        StokesReport.from_dict({**data, "schema": "stokes-report/0"})


def test_json_report_writer():
    reports = [_report(), _report(converged=False)]
    buf = io.StringIO()
    write_report_json(reports, buf)
    data = json.loads(buf.getvalue())
    assert len(data) == 2
    for item in data:
        jsonschema.validate(item, REPORT_SCHEMA)
        assert StokesReport.from_dict(item).to_dict() == item
    noconv = StokesReport.from_dict(data[1])
    assert noconv.lhs is noconv.rhs is None and not noconv.converged
    assert noconv == _report(converged=False)


def test_csv_report_writer():
    buf = io.StringIO()
    write_report_csv([_report(), _report(converged=False)], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert len(rows) == 3
    assert len(rows[0]) == 19
    assert rows[0][0] == "scenario" and rows[0][-1] == "tol_ze"
    assert rows[1][7] == "1.0"  # lhs_re of the converged report
    assert rows[2][7] == ""     # sides of an unconverged report stay blank


# ---------------------------------------------------------------------------
# scenario loading


_BASE = {
    "name": "demo", "theta": 1, "r": 0.5, "n": 2, "k": 2,
    "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "x1"}]},
}


def _broken(**patch):
    data = json.loads(json.dumps(_BASE))
    data.update(patch)
    return data


def test_scenario_from_dict_defaults():
    s = scenario_from_dict(dict(_BASE))
    assert s.theta is Theta.TYPE1
    assert s.form_coeffs == (((1,), "x1"),)
    assert s.cubes == ((1, ("x1", "x2")),)  # identity cube filled in
    assert s.refinement == Refinement()
    assert s.expected is None
    assert s.tol_floor == DEFAULT_STOKES_TOL
    explicit = scenario_from_dict(_broken(
        cubes=[{"weight": -2, "map": ["x2", "x1"]}],
        expected={"re": -1.0, "ze": -1.0}, tol_floor=0.01))
    assert explicit.cubes == ((-2, ("x2", "x1")),)
    assert explicit.expected == (-1.0, -1.0)
    assert explicit.tol_floor == 0.01


def test_scenario_validation_errors():
    cases = [
        "not a dict",
        _broken(name=7),
        _broken(theta=3),
        _broken(r=-1),
        _broken(k=0),
        _broken(extra=1),
        _broken(form={"degree": 1,
                      "coeffs": [{"index": [3], "expr": "x1"}]}),
        _broken(form={"degree": 2,
                      "coeffs": [{"index": [2, 1], "expr": "x1"}]}),
        _broken(form={"degree": 1,
                      "coeffs": [{"index": [2, 1], "expr": "x1"}]}),
        _broken(form={"degree": 1,
                      "coeffs": [{"index": [2], "expr": "x1 +"}]}),
        _broken(form={"degree": 1, "coeffs": [{"index": [2]}]}),
        _broken(form={"degree": 1,
                      "coef": [{"index": [2], "expr": "x1"}]}),
        _broken(form={"degree": 1, "coeffs": [], "extra": None}),
        _broken(form={"degree": 1,
                      "coeffs": [{"index": [1], "expr": "x2"},
                                 {"index": [1], "expr": "x1"}]}),
        _broken(cubes=[]),
        _broken(cubes=[{"weight": 1, "map": ["x1"]}]),
        _broken(cubes=[{"weight": 1.5, "map": ["x1", "x2"]}]),
        _broken(cubes=[{"weight": True, "map": ["x1", "x2"]}]),
        _broken(cubes=[{"map": ["x1", "x2"], "junk": 1}]),
        _broken(cubes=[{"weight": 10 ** 400, "map": ["x1", "x2"]}]),
        _broken(n=3),  # identity default needs n == k
        _broken(refinement={"mode": "magic"}),
        _broken(refinement={"mode": "sample"}),
        _broken(refinement={"mode": "enclosure"}),
        _broken(refinement={"tol_re": "x"}),
        _broken(refinement={"tol_re": math.nan}),
        _broken(refinement={"tol_ze": math.inf}),
        _broken(refinement={"base_subdivisions": True}),
        _broken(expected={"re": 1.0}),
        _broken(expected={"re": math.nan, "ze": 0.0}),
        _broken(expected={"re": 1.0, "ze": -math.inf}),
        _broken(tol_floor=-0.5),
        _broken(tol_floor=math.nan),
        _broken(tol_floor=math.inf),
        _broken(r=math.nan),
        _broken(r=math.inf),
        _broken(r=10 ** 400),
        _broken(description=4),
    ]
    for data in cases:
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)


@pytest.mark.parametrize("expr", ["exp(1000)", "1e200^2", "sin(1e308*10)"])
def test_fold_that_overflows_is_a_scenario_error(expr, tmp_path):
    data = _broken(form={"degree": 1, "coeffs": [{"index": [2],
                                                  "expr": expr}]})
    with pytest.raises(ScenarioError, match="bad form"):
        scenario_from_dict(data)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="overflows the float range"):
        load_scenarios(path)


@pytest.mark.parametrize("component", ["x3", "x2+"])
def test_cube_map_that_does_not_parse_is_a_scenario_error(component):
    # x3 reads past the k = 2 variables of the domain, and x2+ ends early
    data = _broken(cubes=[{"map": ["x1", component]}])
    with pytest.raises(ScenarioError, match="bad cube map"):
        scenario_from_dict(data)


def test_loaded_scenario_is_not_parsed_again(monkeypatch):
    verification = builtin_scenario("type1-saddle-surface")
    top = scenario_from_dict({**_BASE, "form": {
        "degree": 2, "coeffs": [{"index": [1, 2], "expr": "1"}]}})

    def refuse(*args):
        raise AssertionError("parse_expr called after load")

    monkeypatch.setattr(stokes, "parse_expr", refuse)
    assert run_scenario(verification).passed
    assert run_integral(top).value == Dual(1.0, 1.0)


def test_verify_normalizes_each_side_once(monkeypatch):
    normalized = []
    original = stokes.chain_normalize

    def counting(chain, *args):
        normalized.append(chain.k)
        return original(chain, *args)

    monkeypatch.setattr(stokes, "chain_normalize", counting)
    report = run_scenario(builtin_scenario("type1-saddle-surface"))
    assert report.passed
    assert normalized == [2, 1]  # the chain, then its boundary


def test_load_scenarios(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(_BASE))
    assert [s.name for s in load_scenarios(path)] == ["demo"]
    multi = tmp_path / "many.json"
    multi.write_text(json.dumps([_BASE, {**_BASE, "name": "other"}]))
    assert [s.name for s in load_scenarios(multi)] == ["demo", "other"]
    with pytest.raises(ScenarioError):
        load_scenarios(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenarios(bad)


def test_builtin_catalog():
    scenarios = builtin_scenarios()
    names = [s.name for s in scenarios]
    assert len(names) == len(set(names)) == 8
    assert builtin_scenario("classical-green-anchor").r == 0.0
    with pytest.raises(ScenarioError):
        builtin_scenario("no-such-thing")


def test_run_degree_gating():
    verification = builtin_scenario("type1-unit-square")
    with pytest.raises(ScenarioError):
        run_integral(verification)  # wants a top-degree form
    top = scenario_from_dict({
        "name": "area", "theta": 1, "r": 1.0, "n": 2, "k": 2,
        "form": {"degree": 2, "coeffs": [{"index": [1, 2], "expr": "1"}]},
        "refinement": {"tol_re": 1e-9, "tol_ze": 1e-9,
                       "base_subdivisions": 2, "max_doublings": 1},
    })
    est = run_integral(top)
    assert est.value == Dual(1.0, 2.0)
    with pytest.raises(ScenarioError):
        run_scenario(top)  # verification wants degree k - 1


def test_run_suite_reports():
    picks = [builtin_scenario("type1-unit-square"),
             builtin_scenario("classical-green-anchor")]
    reports = run_suite(picks)
    assert [r.scenario for r in reports] == [p.name for p in picks]
    assert exit_code(reports) == 0
    for report, pick in zip(reports, picks):
        assert report.converged and report.passed
        assert report.lhs.value == Dual(*pick.expected)


# ---------------------------------------------------------------------------
# which integrals are exact, and which refine


_NONPOLYNOMIAL = Path(__file__).with_name("nonpolynomial_scenarios.json")
_POLYNOMIAL_CHAIN = Path(__file__).with_name("polynomial_chain_scenarios.json")
_FOLDED_PRIMITIVE = Path(__file__).with_name("folded_primitive_scenarios.json")
_TILED_CHAIN = Path(__file__).with_name("tiled_chain_scenarios.json")
_SCENARIO_FILES = {
    "polynomial-chain": _POLYNOMIAL_CHAIN, "tiled-chain": _TILED_CHAIN,
    "dimension": Path(__file__).with_name("dimension_scenarios.json"),
    "cancelling-derivative": Path(__file__).with_name(
        "cancelling_derivative_scenarios.json")}

_FIXED = ([("bundled", d["name"]) for d in stokes.BUILTIN_SCENARIO_DICTS]
          + [("saddle-fine", 0)]
          + [("tiled-chain-3d", seed) for seed in range(1, 21)])


# the (k, n) of the random chains: k = 1-3 and n = k..min(k+1, 4)
_RANDOM_SHAPES = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))


def _random_chain_scenario(case: int):
    """Seeded random polynomial chain `case` of ROADMAP item 4's family:
    its (k, n) from ``_RANDOM_SHAPES``, both orders for each, r = 0, 0.5
    and 1 in turn; two cubes of integer weights of both signs, each
    component x(i mod k + 1) plus a random polynomial, and a (k-1)-form
    each of whose coefficients is a random polynomial plus the cube of
    the first variable its index leaves out, so that d of it is no
    constant's zero.  A register bracket takes no subdivision, and its
    certified rounding bound is far from tight at these degrees: one
    cube of case 10 is off the exact value by 5e-13 but its bracket is
    1.1e-4 wide, past the default cube tolerance of 1e-6.  So the chains
    ask for tol_floor's 1e-3."""
    k, n = _RANDOM_SHAPES[case // 2]
    rng = random.Random(3600 + case)

    def text(arity):
        return render_expr(random_poly(rng, arity, depth=2))

    weights = [rng.choice((1, 2)), -rng.choice((1, 2))]
    rng.shuffle(weights)
    indices = ascending_tuples(n, k - 1)
    kept = [index for index in indices if rng.random() < 0.7] or indices[:1]
    return scenario_from_dict({
        "name": f"random-chain-{case}", "theta": 1 + case % 2,
        "r": (0.0, 0.5, 1.0)[case % 3], "n": n, "k": k,
        "form": {"degree": k - 1, "coeffs": [
            {"index": [i + 1 for i in index],
             "expr": f"x{min(set(range(n)) - set(index)) + 1}^3+({text(n)})"}
            for index in kept]},
        "cubes": [{"weight": weight, "map": [
            f"x{i % k + 1}+({text(k)})" for i in range(n)]}
            for weight in weights],
        "refinement": {"tol_re": 1e-3, "tol_ze": 1e-3}})


def _fixed_scenario(kind, arg):
    if kind == "bundled":
        return builtin_scenario(arg)
    if kind == "random-chain":
        return _random_chain_scenario(arg)
    if kind in _SCENARIO_FILES or kind == "folded-primitive":
        path = _SCENARIO_FILES.get(kind, _FOLDED_PRIMITIVE)
        return next(s for s in load_scenarios(path) if s.name == arg)
    workloads = load_bench_module("workloads")
    return getattr(workloads, kind.replace("-", "_"))(stokes, arg)[0]


_FILED = [(kind, s.name) for kind, path in _SCENARIO_FILES.items()
          for s in load_scenarios(path)]
_FOLDED = [("folded-primitive", s.name)
           for s in load_scenarios(_FOLDED_PRIMITIVE)]


def _exact_forms(w, formal: bool = False) -> tuple:
    """The coefficients of w and of dw as exact polynomials, dw from the
    exact partials of w's, and ``reference_exact_pullback``'s `extra`.
    With `formal`, exp, sin and cos of a coordinate are formal variables
    (``reference_formal_expansion``)."""
    expand, partial, extra = ((
        reference_formal_expansion,
        lambda poly, i: reference_formal_partial(poly, i, w.n),
        reference_formal_values) if formal else (
        reference_exact_expansion, reference_exact_partial, None))
    exact_w, dw = {}, {}
    for index, coeff in w.coeffs.items():
        exact_w[index] = poly = expand(coeff)
        for i in range(w.n):
            if i in index:
                continue
            # dx(i+1) moves past each dx(j+1) with j < i into place
            sign = (-1) ** sum(j < i for j in index)
            key = tuple(sorted(index + (i,)))
            dw[key] = _exact_add(dw.get(key, {}), partial(poly, i), sign)
    return exact_w, dw, extra


def _exact_cube_integral(coeffs, cube, roots: dict, extra=None) -> tuple:
    """The exact integral of the form with exact coefficients `coeffs`
    over the cube; a 0-cube's is the form's exact value at its point.
    `roots` and `extra` are ``reference_exact_pullback``'s."""
    poly = reference_exact_pullback(cube.mapping, coeffs, roots, extra)
    if cube.k == 0:
        return poly.get((), (0, 0))
    return reference_exact_integral(poly, cube.domain.rectangle())


@pytest.mark.parametrize("kind, arg", _FIXED + _FILED)
def test_fixed_scenarios_integrate_exactly(kind, arg, monkeypatch):
    scenario = _fixed_scenario(kind, arg)
    monkeypatch.setattr(stokes, "integral_estimate",
                        lambda f, rect, **_: pytest.fail(f"{f} refines"))
    brackets = []
    integrate = stokes.integrate_over_cube

    def spy(w, cube, refinement, **private):
        est = integrate(w, cube, refinement, **private)
        brackets.append((cube, est))
        return est

    monkeypatch.setattr(stokes, "integrate_over_cube", spy)
    report = run_scenario(scenario)
    assert report.converged and report.passed
    # every bracket that the verdict sums, 0-cubes included, holds the
    # exact integral of the literal form's d over a cube of the chain,
    # and of the form over a face, its cube's map composed exactly with
    # the pinned endpoint
    exact_w, dw, _ = _exact_forms(scenario.form)
    faces, roots = 0, {}  # each root map's pullbacks taken once
    for cube, est in brackets:
        faces += cube.mapping._pin is not None
        coeffs = dw if cube.k == scenario.k else exact_w
        assert bracket_contains(
            est, _exact_cube_integral(coeffs, cube, roots)), cube
    assert faces == len(chain_normalize(boundary(scenario.chain)).terms)
    if kind == "tiled-chain-3d":
        for side in (report.lhs, report.rhs):
            assert side.gap_re < 1e-9 and side.gap_ze < 1e-9
        for part in ("re", "ze"):
            (lo1, hi1), (lo2, hi2) = (
                sorted((getattr(s.lower, part), getattr(s.upper, part)))
                for s in (report.lhs, report.rhs))
            assert max(lo1, lo2) <= min(hi1, hi2), part


def _exact_chain_integral(coeffs, chain, roots: dict, extra=None) -> tuple:
    """The weighted sum of :func:`_exact_cube_integral` over each term of
    the chain, unnormalized."""
    total_re = total_ze = Fraction(0)
    for weight, cube in chain.terms:
        re, ze = _exact_cube_integral(coeffs, cube, roots, extra)
        total_re, total_ze = total_re + weight * re, total_ze + weight * ze
    return total_re, total_ze


@pytest.mark.parametrize("kind, arg", _FILED + _FOLDED + [
    ("bundled", d["name"]) for d in stokes.BUILTIN_SCENARIO_DICTS] + [
    ("tiled-chain-3d", seed) for seed in range(1, 21)] + [
    ("random-chain", case) for case in range(2 * len(_RANDOM_SHAPES))])
def test_stokes_holds_exactly_on_tiled_chains(kind, arg):
    # the integral of dw over the chain and of w over its boundary, both
    # exact in dual rationals: d from the coefficients' exact partials,
    # each face its root map composed exactly with its pinned endpoints,
    # a 0-cube its exact point value, and every face summed, the
    # cancelling ones included.  The two are equal, and each float chain
    # bracket holds that value: the verdict's own two, and the chain
    # integrals of dw and w outside a verdict.  Every bundled scenario
    # and every scenario file but the folded-primitive and nonpolynomial
    # ones is polynomial; the folded-primitive ones take sin(x3) on the
    # face x3 = 0.5, so their exact values are formal sums in sin(1/2)
    # and cos(1/2), and must be the same rational multiple of sin(1/2)
    scenario = _fixed_scenario(kind, arg)
    w, chain = scenario.form, scenario.chain
    formal = kind == "folded-primitive"
    exact_w, dw, extra = _exact_forms(w, formal)
    faces = boundary(chain)
    assert len(faces.terms) == 2 * chain.k * len(chain.terms)
    roots = {}  # each root map's pullbacks taken once, for all its faces
    exact = _exact_chain_integral(dw, chain, roots, extra)
    assert exact == _exact_chain_integral(exact_w, faces, roots, extra)
    assert exact != (0, 0)
    values = [exact]
    if formal:
        # q sin(1/2), q a dual rational: held at both ends of the oracle's
        # enclosure of sin(1/2), it is held at every value between
        sine = (("sin", Fraction(1, 2)),)
        parts = [FormalSum.of(part).terms for part in exact]
        assert all(terms.keys() <= {sine} for terms in parts), exact
        q_re, q_ze = (terms.get(sine, 0) for terms in parts)
        values = [(q_re * s, q_ze * s)
                  for s in reference_primitive("sin", Fraction(1, 2))]
    report = run_scenario(scenario)
    assert report.converged and report.passed
    for est in (report.lhs, report.rhs,
                integrate_over_chain(w, faces, scenario.refinement)):
        assert all(bracket_contains(est, v) for v in values), (est, exact)
    # ROADMAP item 3(b): exterior_derivative folds the constants of the
    # partials in floats, and the chain integral of that d, outside a
    # verdict, misses the exact value where a fold rounds, as the
    # cancelling-derivative scenarios' does; a verdict builds no d
    est = integrate_over_chain(exterior_derivative(w), chain,
                               scenario.refinement)
    assert all(bracket_contains(est, v) for v in values) == (
        kind != "cancelling-derivative"), (est, exact)


def _no_d_nor_refinement(monkeypatch) -> list:
    """The (cube, bracket) of every term that :func:`integrate_over_cube`
    integrates from here on, where building d or refining fails."""
    monkeypatch.setattr(stokes, "exterior_derivative",
                        lambda w: pytest.fail("d is built"))
    monkeypatch.setattr(stokes, "integral_estimate",
                        lambda f, rect, **_: pytest.fail(f"{f} refines"))
    brackets = []
    integrate = stokes.integrate_over_cube

    def spy(w, cube, refinement, **private):
        est = integrate(w, cube, refinement, **private)
        brackets.append((cube, est))
        return est

    monkeypatch.setattr(stokes, "integrate_over_cube", spy)
    return brackets


def test_verdict_on_a_chain_of_faces_reads_its_root_registers(monkeypatch):
    # the 0-form 0.1*x1 + 0.2*x1 - 0.3*x1 is 2^-55 x1 in the exact values
    # of its floats, and the symbolic d folds its partial to 2^-54: on the
    # face x2 = b of the square, the lhs is the divergence of the square's
    # registers pinned at b, and holds 2^-55 (1 + 0.5 eps) as the rhs
    # does, from one run of the square's program; the folded d misses it
    square = standard_cube(Theta.TYPE1, 0.5, 2)
    w = DiffForm(2, 0, {(): parse_expr("0.1*x1+0.2*x1-0.3*x1", 2)})
    chain = chain_of(face(square, 2, 1))
    exact = (Fraction(1, 2 ** 55), Fraction(1, 2 ** 56))
    assert Fraction(0.1) + Fraction(0.2) - Fraction(0.3) == exact[0]
    folded = integrate_over_chain(exterior_derivative(w), chain, Refinement())
    assert not bracket_contains(folded, exact)
    runs = Counter()
    run = ExprMap.run

    def counting(mapping, arith, args):
        if arith is _POLYS:
            runs[id(mapping)] += 1
        return run(mapping, arith, args)

    monkeypatch.setattr(ExprMap, "run", counting)
    brackets = _no_d_nor_refinement(monkeypatch)
    report = verify_stokes(w, chain)
    assert report.converged and report.passed
    assert bracket_contains(report.lhs, exact)
    assert bracket_contains(report.rhs, exact)
    assert runs == Counter([id(square.mapping)])
    assert len(brackets) == 3  # the face and its two ends


_PINNED = [("tiled-chain-3d", seed) for seed in range(1, 6)] + [
    ("bundled", d["name"]) for d in stokes.BUILTIN_SCENARIO_DICTS
    if d["k"] == 2]


@pytest.mark.parametrize("pinned", ["boundary", "face"])
@pytest.mark.parametrize("kind, arg", _PINNED)
def test_verdicts_on_pinned_chains_hold_the_exact_values(kind, arg, pinned,
                                                         monkeypatch):
    # a verdict on the boundary of a chain, or on the face x1 = b of its
    # first cube, with a seeded form of degree k - 2: each term reads its
    # root map's registers through one pin or two, the chain's terms the
    # divergence, and no d is built.  Every bracket holds the exact
    # integral of its term, and both sides hold the exact value, which
    # on a boundary is 0: the boundary of a boundary cancels to nothing
    scenario = _fixed_scenario(kind, arg)
    cube = scenario.chain.terms[0][1]
    chain = (boundary(scenario.chain) if pinned == "boundary"
             else chain_of(face(cube, 1, 1)))
    rng = random.Random(f"{kind} {arg}")
    # the product of the coordinates, so that d of the form is not zero on
    # the face
    product = parse_expr("*".join(f"x{i + 1}" for i in range(chain.n)),
                         chain.n)
    w = DiffForm(chain.n, chain.k - 1, {
        index: random_poly(rng, chain.n, 2) + product
        for index in ascending_tuples(chain.n, chain.k - 1)})
    brackets = _no_d_nor_refinement(monkeypatch)
    report = verify_stokes(w, chain, scenario.refinement)
    assert report.converged and report.passed
    exact_w, dw, _ = _exact_forms(w)
    roots = {}
    for term, est in brackets:
        coeffs = dw if term.k == chain.k else exact_w
        assert bracket_contains(
            est, _exact_cube_integral(coeffs, term, roots)), term
    exact = _exact_chain_integral(dw, chain, roots)
    if pinned == "boundary":
        assert exact == (0, 0)
        assert report.rhs == IntegralEstimate.exact(Dual(0.0, 0.0))
    else:
        assert exact == _exact_chain_integral(exact_w, boundary(chain), roots)
    for side in (report.lhs, report.rhs):
        assert bracket_contains(side, exact), (side, exact)


@pytest.mark.parametrize("delta", [1e-5, 1e-7, 1e-9])
def test_verdict_fails_where_every_side_1_face_is_shifted(delta,
                                                          monkeypatch):
    # a defect planted in the faces: each side-1 face of tiled seed 1 is
    # pinned at b + delta.  The midpoints differ by about 16 delta, within
    # the 1e-3 floor of the tolerance, but the brackets, about 1e-9 wide,
    # are disjoint, so the verdict fails
    scenario = _fixed_scenario("tiled-chain-3d", 1)
    ends = CubeDomain._face_domain

    def shifted(domain):
        faces, (a, b) = ends(domain)
        return faces, (a, b + delta)

    monkeypatch.setattr(CubeDomain, "_face_domain", shifted)
    report = run_scenario(scenario)
    assert report.converged and not report.passed
    assert report.diff_re <= report.tol_re and report.diff_ze <= report.tol_ze
    assert report.diff_re > report.lhs.gap_re + report.rhs.gap_re


@pytest.mark.parametrize("mutant, fails", [
    ("drop", True), ("flip", True), ("duplicate", True),
    ("drop a zero face", False), ("duplicate a zero face", False)])
def test_verdict_fails_where_an_outer_face_is_dropped_or_flipped(
        mutant, fails, monkeypatch):
    # defects planted in the boundary of tiled seed 1, whose 54 outer
    # faces the exact oracle integrates: the face dropped, duplicated or
    # with its sign flipped is the one of least exact integral above the
    # correct verdict's summed gaps, so the verdict must fail; a face
    # whose exact integral is 0, dropped or duplicated, changes nothing
    # the verdict can see
    scenario = _fixed_scenario("tiled-chain-3d", 1)
    report = run_scenario(scenario)
    gap_re = report.lhs.gap_re + report.rhs.gap_re
    gap_ze = report.lhs.gap_ze + report.rhs.gap_ze
    exact_w, dw, _ = _exact_forms(scenario.form)
    outer = chain_normalize(boundary(scenario.chain))
    roots = {}
    exact = [_exact_cube_integral(exact_w, cube, roots)
             for _, cube in outer.terms]
    if fails:
        _, i = min((abs(re) + abs(ze), i) for i, (re, ze) in enumerate(exact)
                   if abs(re) > gap_re or abs(ze) > gap_ze)
    else:
        i = exact.index((0, 0))
    terms = list(outer.terms)
    weight, cube = terms[i]
    # the face's place in the planted boundary, and how often the planted
    # boundary misses the exact lhs by its integral: a duplicate, which
    # normalization merges into one term of twice the weight, counts it
    # once too often
    terms[i:i + 1], times = {"drop": ([], 1), "flip": ([(-weight, cube)], 2),
                             "duplicate": ([(weight, cube)] * 2, -1),
                             }[mutant.split()[0]]
    planted = Chain(outer.theta, outer.r, outer.k, outer.n, tuple(terms))
    lhs = _exact_chain_integral(dw, scenario.chain, roots)
    rhs = _exact_chain_integral(exact_w, planted, roots)
    assert tuple(a - b for a, b in zip(lhs, rhs)) == tuple(
        times * weight * part for part in exact[i])
    monkeypatch.setattr(stokes, "boundary", lambda chain: planted)
    report = run_scenario(scenario)
    assert report.converged and report.passed is not fails


def test_verdict_fails_where_d_is_scaled(monkeypatch):
    # a defect planted on the pullback side of tiled seed 1: every
    # coefficient of each partial that d of the root registers takes is
    # scaled by 1 + 1e-6, so the lhs moves by about 1.6e-5, within the
    # tolerance, but the brackets are disjoint and the verdict fails
    scenario = _fixed_scenario("tiled-chain-3d", 1)
    diff = stokes.poly_diff

    def scaled(register, index):
        terms, shadow, order, degree = diff(register, index)
        s = 1.0 + 1e-6
        return ({key: (re * s, ze * s) for key, (re, ze) in terms.items()},
                shadow * s, order, degree)

    monkeypatch.setattr(stokes, "poly_diff", scaled)
    report = run_scenario(scenario)
    assert report.converged and not report.passed
    assert report.diff_re <= report.tol_re and report.diff_ze <= report.tol_ze
    assert report.diff_re > report.lhs.gap_re + report.rhs.gap_re


def _counting(arith: tuple, counts: Counter) -> tuple:
    """`arith` with its products and its sums (add and sub) counted."""
    const, neg, add, sub, mul, power, prim = arith

    def counted(name, op):
        return lambda x, y: counts.update((name,)) or op(x, y)
    return (const, neg, counted("combine", add), counted("combine", sub),
            counted("mul", mul), power, prim)


def test_tiled_root_pullbacks_do_their_fixed_work(monkeypatch):
    # the 27 root pullbacks of a tiled verdict, seed 1, against the
    # reference pipeline on the same component registers: as many
    # products, so no rounding is dropped; as many sums but one for each
    # target that receives a term, which starts its sum; one jacobian pass
    # per component row the form reads, where the reference takes a
    # partial per row and variable
    scenario = _fixed_scenario("tiled-chain-3d", 1)
    counts, want, gradients, rows_read = Counter(), Counter(), [], []
    pull, gradient = stokes.pullback_polynomial, forms.poly_gradient

    def spy(f, w, comps):
        zero = ({}, 0.0, 0, 0)
        ref = reference_pullback_polynomial(
            f, w, comps, _counting(REFERENCE_POLYS, want), zero)
        want["roots"] += 1
        want["targets"] += sum(r is not zero for r in ref.values())
        rows = {i for index in w.coeffs for i in index}
        want["partials"] += len(rows) * f.arity
        rows_read.extend(id(comps[i]) for i in sorted(rows))
        got = pull(f, w, comps)
        assert repr(got) == repr(ref)
        return got

    def counting_gradient(register, arity):
        gradients.append(id(register))
        return gradient(register, arity)

    monkeypatch.setattr(stokes, "pullback_polynomial", spy)
    monkeypatch.setattr(forms, "poly_gradient", counting_gradient)
    monkeypatch.setattr(forms, "_POLYS", _counting(_POLYS, counts))
    assert run_scenario(scenario).passed
    assert want == {"roots": 27, "mul": 513, "combine": 189, "targets": 81,
                    "partials": 243}
    assert counts == {"mul": 513, "combine": 189 - 81}
    assert sorted(gradients) == sorted(rows_read) and len(gradients) == 81


def _transposed_jacobian_report(monkeypatch):
    """Tiled seed 1 verified with a pullback that swaps the jacobian's
    entries (0, 1) and (1, 0), and the exact integral of dw over the
    chain by the oracle, which pulls back correctly."""
    scenario = _fixed_scenario("tiled-chain-3d", 1)
    _, dw, _ = _exact_forms(scenario.form)
    exact = _exact_chain_integral(dw, scenario.chain, {})

    pull = forms._pullback

    def transposed(f, w, comps, jac, arith, zero):
        if arith is _POLYS:  # the register pullback's jacobian only
            jac = [list(row) for row in jac]
            jac[0][1], jac[1][0] = jac[1][0], jac[0][1]
        return pull(f, w, comps, jac, arith, zero)

    monkeypatch.setattr(forms, "_pullback", transposed)
    return run_scenario(scenario), exact


def test_transposed_jacobian_moves_the_lhs_off_the_exact_value(monkeypatch):
    # the mutant's lhs, 16.2321 + 32.4644 eps, is a tight bracket that
    # misses the true 15.9575 + 31.7770 eps by far more than its width
    report, exact = _transposed_jacobian_report(monkeypatch)
    assert report.converged
    assert not bracket_contains(report.lhs, exact)


@pytest.mark.xfail(strict=True, reason=(
    "both sides read the same root registers, so a register verdict "
    "checks the fundamental theorem on those registers, not the pullback "
    "that made them: a wrong jacobian moves lhs and rhs alike"))
def test_verdict_fails_where_the_jacobian_is_transposed(monkeypatch):
    report, _ = _transposed_jacobian_report(monkeypatch)
    assert report.converged and not report.passed


def test_disjoint_darboux_brackets_are_left_to_the_tolerance():
    # c*x1*exp(eps*x2) dx2 with c = 0.1 + 0.2 - 0.3, which is 2^-55 in the
    # exact values of its floats, on the square shifted to x1 in [2, 3]:
    # exp is no polynomial, so both sides refine, and the Darboux brackets,
    # not rounded outward, are 0 wide in re at two roundings of c, the
    # folded d's 2^-54 on the lhs and c*3 - c*2 in floats on the rhs.  Both
    # miss the exact 2^-55 (1 + 1.5 eps) and are disjoint, yet the theorem
    # holds, so the pair passes on the tolerance
    scenario = scenario_from_dict({
        "name": "shifted-exp", "theta": 1, "r": 0.5, "n": 2, "k": 2,
        "form": {"degree": 1, "coeffs": [
            {"index": [2], "expr": "(0.1*x1+0.2*x1-0.3*x1)*exp(eps*x2)"}]},
        "cubes": [{"map": ["x1+2", "x2"]}]})
    report = run_scenario(scenario)
    assert report.converged and report.passed
    lhs, rhs = report.lhs, report.rhs
    assert lhs.subdivisions and rhs.subdivisions
    assert lhs.upper.re < rhs.lower.re
    exact = (Fraction(1, 2 ** 55), Fraction(3, 2 ** 56))
    assert not bracket_contains(lhs, exact)
    assert not bracket_contains(rhs, exact)


def _square(text: str, theta=Theta.TYPE1):
    """The integrand and rectangle of text*dx1^dx2 over the inflated
    square, and the form and cube that give them."""
    w = DiffForm(2, 2, {(0, 1): parse_expr(text, 2)})
    cube = standard_cube(theta, 0.5, 2)
    f = pullback(cube.mapping, w).coefficient((0, 1))
    return f, cube.domain.rectangle(), w, cube


@pytest.mark.parametrize("text, refinement", [
    # ids given in full, so that each case keeps its name in reports
    pytest.param("exp(x1)*sin(x2*3)", Refinement(0.5, 0.5, 4, 4),
                 id="exp(x1)*sin(x2*3)-refinement1"),  # a primitive
    # 276 monomials, above the cap
    pytest.param("(x1+x2+1)^22*1e-9", Refinement(math.inf, math.inf, 2, 0),
                 id="(x1+x2+1)^22*1e-9-refinement2"),
])
@pytest.mark.parametrize("theta", THETAS)
def test_fallback_is_the_darboux_refinement(text, refinement, theta):
    f, rect, w, cube = _square(text, theta)
    with pytest.raises(NotPolynomial):
        pullback_polynomial(cube.mapping, w)
    est = integrate_over_cube(w, cube, refinement)
    assert est.subdivisions > 0
    assert est == integral_estimate(
        f, rect, tol_re=refinement.tol_re, tol_ze=refinement.tol_ze,
        base_subdivisions=refinement.base_subdivisions,
        max_doublings=refinement.max_doublings)


@pytest.mark.parametrize("theta", THETAS)
def test_constant_bracket_holds_the_exact_value(theta):
    # 0.1 over [0, 1 +- 0.3 eps] at 7 cells: the Darboux sums of a
    # constant round to nearest, to 0.1 +- 0.03 eps at both ends, which
    # misses 0.1 * (1 +- 0.3 eps) in the exact values of the floats
    w = DiffForm(1, 1, {(0,): parse_expr("0.1", 1)})
    est = integrate_over_cube(w, standard_cube(theta, 0.3, 1),
                              Refinement(base_subdivisions=7,
                                         max_doublings=0))
    exact = (Fraction(0.1), theta.sign * Fraction(0.1) * Fraction(0.3))
    assert est.subdivisions == 0
    assert bracket_contains(est, exact)


def test_bracket_wider_than_the_tolerance_falls_back(monkeypatch):
    # the exact bracket always has a gap, so tolerance 0 is missed: the
    # cube does not converge, and the NotConverged carries the register
    # bracket, not a refinement of the float-folded integrand
    f, rect, w, cube = _square("x1*x2")
    register = pullback_polynomial(cube.mapping, w)[(0, 1)]
    est = stokes.polynomial_estimate(register, rect.theta, rect.intervals)
    assert est.gap_re > 0.0
    monkeypatch.setattr(stokes, "integral_estimate",
                        lambda f, rect, **_: pytest.fail(f"{f} refines"))
    with pytest.raises(NotConverged) as got:
        integrate_over_cube(w, cube, Refinement(0.0, 0.0, 2, 1))
    assert got.value.estimate == est


def test_near_singular_cube_does_not_converge_on_its_register_bracket():
    # a*d - b*c rounds to 0.0 in floats but is 2^-38 exactly: the register
    # bracket holds 2^-38 and is too wide for the default tolerance, so
    # the cube does not converge, and the bracket it carries holds the
    # exact value, where the Darboux refinement of the folded integrand
    # gave 0 with gap 0
    a = d = 2.0 ** 33 * (1 + 2.0 ** -52)
    b, c = 2.0 ** 33 * (1 + 2.0 ** -51), 2.0 ** 33
    mapping = ExprMap((parse_expr(f"{a!r}*x1+{b!r}*x2", 2),
                       parse_expr(f"{c!r}*x1+{d!r}*x2", 2)))
    cube = SingularCube(CubeDomain(Theta.TYPE1, 0.0, 2), mapping)
    w = DiffForm(2, 2, {(0, 1): parse_expr("1", 2)})
    with pytest.raises(NotConverged) as got:
        integrate_over_cube(w, cube, Refinement())
    assert 2.0 ** -38 == 3.637978807091713e-12
    assert bracket_contains(got.value.estimate, (Fraction(1, 2 ** 38), 0))
    assert got.value.estimate.subdivisions == 0
    chain = Chain(Theta.TYPE1, 0.0, 2, 2, ((1, cube),))
    report = verify_stokes(DiffForm(2, 1, {(1,): parse_expr("x1", 2)}),
                           chain)
    assert not report.converged and "gap" in report.note


def test_verdict_bracket_wider_than_the_tolerance_does_not_converge(
        monkeypatch):
    # cancelling-partial-type1 at a tolerance that the bracket of the
    # symbolic dw (gap about 2e-30, around its folded 2^-54) meets and
    # the register divergence's (about 2e-14) does not: the chain cube
    # does not converge, its NotConverged carries the verdict's bracket,
    # which holds the exact 2^-55 (1 + eps), and no d is built
    scenario = _fixed_scenario("cancelling-derivative",
                               "cancelling-partial-type1")
    w, chain = scenario.form, scenario.chain
    folded = integrate_over_chain(exterior_derivative(w), chain,
                                  Refinement())
    tight = Refinement(1e-20, 1e-20)
    assert folded.gap_re <= tight.tol_re and folded.gap_ze <= tight.tol_ze
    monkeypatch.setattr(stokes, "exterior_derivative",
                        lambda w: pytest.fail("d is built"))
    monkeypatch.setattr(stokes, "integral_estimate",
                        lambda f, rect, **_: pytest.fail(f"{f} refines"))
    with pytest.raises(NotConverged) as got:
        integrate_over_chain(w, chain, tight, _verdict={})
    exact = (Fraction(1, 2 ** 55), Fraction(1, 2 ** 55))
    assert not bracket_contains(folded, exact)
    assert bracket_contains(got.value.estimate, exact)
    assert got.value.estimate.gap_re > tight.tol_re
    report = verify_stokes(w, chain, tight)
    assert not report.converged and "gap" in report.note


def test_non_finite_exact_bracket_falls_back_to_the_overflow():
    f, rect, w, cube = _square("1e200*x1*1e200")
    register = pullback_polynomial(cube.mapping, w)[(0, 1)]
    assert stokes.polynomial_estimate(register, rect.theta,
                                      rect.intervals) is None
    with pytest.raises(OverflowError, match="not finite"):
        integrate_over_cube(w, cube, Refinement())


def _pullbacks(scenario, monkeypatch) -> int:
    """How often a verdict pulls a form back symbolically."""
    calls = []
    symbolic = stokes.pullback

    def spy(f, w):
        calls.append(f)
        return symbolic(f, w)

    monkeypatch.setattr(stokes, "pullback", spy)
    report = run_scenario(scenario)
    assert report.converged and report.passed
    return len(calls)


@pytest.mark.parametrize("kind, arg", _FIXED + [
    (kind, arg) for kind, arg in _FILED if kind == "dimension"])
def test_polynomial_verdicts_pull_back_on_registers(kind, arg, monkeypatch):
    # the dimension scenarios add curves in the plane and in space, whose
    # boundaries are 0-cubes, a surface in 4-space, r = 1 and negative
    # weights
    assert _pullbacks(_fixed_scenario(kind, arg), monkeypatch) == 0


@pytest.mark.parametrize("kind, arg", _FIXED + _FILED + _FOLDED)
def test_polynomial_verdict_runs_each_root_map_once(kind, arg, monkeypatch):
    # no symbolic d, no symbolic pullback, and one run of each root map's
    # program on polynomial registers, which its cube and faces share
    scenario = _fixed_scenario(kind, arg)
    runs = Counter()
    run = ExprMap.run

    def counting(mapping, arith, args):
        if arith is _POLYS and mapping._pin is None:
            runs[id(mapping)] += 1
        return run(mapping, arith, args)

    monkeypatch.setattr(ExprMap, "run", counting)
    monkeypatch.setattr(stokes, "exterior_derivative",
                        lambda w: pytest.fail("d is built"))
    assert _pullbacks(scenario, monkeypatch) == 0
    assert runs == Counter(id(cube.mapping)
                           for _, cube in scenario.chain.terms)


@pytest.mark.parametrize("scenario", load_scenarios(_NONPOLYNOMIAL),
                         ids=lambda s: s.name)
def test_nonpolynomial_verdicts_pull_back_symbolically(scenario, monkeypatch):
    assert _pullbacks(scenario, monkeypatch) >= 1


def test_register_bracket_that_is_not_finite_falls_back(monkeypatch):
    f, rect, w, cube = _square("x1*1e200*1e200")
    register = pullback_polynomial(cube.mapping, w)[(0, 1)]
    assert any(register[0])  # no constant
    assert stokes.polynomial_estimate(register, rect.theta,
                                      rect.intervals) is None
    calls = []
    symbolic = stokes.pullback
    monkeypatch.setattr(stokes, "pullback",
                        lambda f, w: calls.append(f) or symbolic(f, w))
    with pytest.raises(OverflowError, match="not finite"):
        integrate_over_cube(w, cube, Refinement())
    assert calls == [cube.mapping]


def test_cube_integral_whose_midpoint_overflows_raises():
    # finite Darboux sums, 1.7e308 each, whose midpoint is past the range
    w = DiffForm(2, 2, {(0, 1): parse_expr("1.7e308", 2)})
    cube = standard_cube(Theta.TYPE1, 0.5, 2)
    with pytest.raises(NotFinite, match="midpoint"):
        integrate_over_cube(w, cube, Refinement())


@pytest.mark.parametrize("scenario", load_scenarios(_POLYNOMIAL_CHAIN),
                         ids=lambda s: s.name)
def test_warped_polynomial_chain(scenario, monkeypatch):
    # the shared face of the two cubes cancels, and every integral is an
    # exact bracket on registers, with no symbolic pullback
    assert len(chain_normalize(boundary(scenario.chain)).terms) == 10
    assert _pullbacks(scenario, monkeypatch) == 0


@pytest.mark.parametrize("scenario", load_scenarios(_TILED_CHAIN),
                         ids=lambda s: s.name)
def test_warped_tiling(scenario, monkeypatch):
    # a 2x2x2 tiling: its 12 pairs of inner faces come from different
    # cubes, and cancel on sample values, leaving the 24 outer faces; the
    # verdict passes at the default tolerance on registers alone
    assert len(chain_normalize(boundary(scenario.chain)).terms) == 24
    assert scenario.refinement == Refinement()
    assert _pullbacks(scenario, monkeypatch) == 0


@pytest.mark.parametrize("scenario", load_scenarios(_FOLDED_PRIMITIVE),
                         ids=lambda s: s.name)
def test_folded_primitive_is_exact_on_registers(scenario, monkeypatch):
    # on the face x3 = 0.5, x3 is a constant register, and sin of it folds
    # to the constant register of sin(0.5): every integrand is a
    # polynomial register, every bracket exact, and nothing is pulled
    # back symbolically
    monkeypatch.setattr(stokes, "integral_estimate",
                        lambda f, rect, **_: pytest.fail(f"{f} refines"))
    assert _pullbacks(scenario, monkeypatch) == 0
    report = run_scenario(scenario)
    assert report.lhs.subdivisions == report.rhs.subdivisions == 0
