import csv
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import dualstokes.stokes as stokes
from dualstokes import (Chain, CubeDomain, DEFAULT_STOKES_TOL, DiffForm, Dual,
                        ExprMap, IntegralEstimate, NotConverged, Ordering,
                        REPORT_SCHEMA, Refinement, ScenarioError, SingularCube,
                        StokesReport, Theta, boundary, builtin_scenario,
                        builtin_scenarios, chain_normalize, chain_of,
                        exit_code, exterior_derivative, integral_estimate,
                        integrate_over_chain, integrate_over_cube,
                        load_scenarios, parse_expr,
                        pullback, run_integral, run_scenario, run_suite,
                        scenario_from_dict, standard_cube, theta_cmp,
                        verify_stokes, write_report_csv, write_report_json)
from dualstokes.darboux import NotFinite
from dualstokes.expr import NotPolynomial
from dualstokes.forms import pullback_polynomial
from helpers import (THETAS, FormalSum, _exact_add, bracket_contains,
                     load_bench_module, random_chain, random_form,
                     reference_exact_expansion, reference_exact_integral,
                     reference_exact_partial, reference_exact_pullback,
                     reference_formal_expansion, reference_formal_partial,
                     reference_formal_values, reference_primitive)


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
    dom = CubeDomain(Theta.TYPE1, 0.5, 0)
    cube = SingularCube(dom, ExprMap((parse_expr("2", 0),)))
    w = DiffForm(1, 0, {(): parse_expr("x1^2+1", 1)})
    est = integrate_over_cube(w, cube, Refinement())
    assert est.value == Dual(5.0, 0.0)
    assert est.gap_re == 0.0 and est.gap_ze == 0.0
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
    w = DiffForm(2, 2, {(0, 1): parse_expr(text, 2)})
    cube = standard_cube(Theta.TYPE1, 0.5, 2)
    with pytest.raises(OverflowError, match="chain sum is not finite"):
        integrate_over_chain(w, chain_of(cube, weight), Refinement())


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
    assert StokesReport.from_dict(data[0]).to_dict() == data[0]


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
    "dimension": Path(__file__).with_name("dimension_scenarios.json")}

_FIXED = ([("bundled", d["name"]) for d in stokes.BUILTIN_SCENARIO_DICTS]
          + [("saddle-fine", 0)]
          + [("tiled-chain-3d", seed) for seed in range(1, 21)])


def _fixed_scenario(kind, arg):
    if kind == "bundled":
        return builtin_scenario(arg)
    if kind in _SCENARIO_FILES or kind == "folded-primitive":
        path = _SCENARIO_FILES.get(kind, _FOLDED_PRIMITIVE)
        return next(s for s in load_scenarios(path) if s.name == arg)
    workloads = load_bench_module("workloads")
    return getattr(workloads, kind.replace("-", "_"))(stokes, arg)[0]


_FILED = [(kind, s.name) for kind, path in _SCENARIO_FILES.items()
          for s in load_scenarios(path)]
_FOLDED = [("folded-primitive", s.name)
           for s in load_scenarios(_FOLDED_PRIMITIVE)]


@pytest.mark.parametrize("kind, arg", _FIXED + _FILED)
def test_fixed_scenarios_integrate_exactly(kind, arg, monkeypatch):
    scenario = _fixed_scenario(kind, arg)
    monkeypatch.setattr(stokes, "integral_estimate",
                        lambda f, rect, **_: pytest.fail(f"{f} refines"))
    brackets = []
    integrate = stokes.integrate_over_cube

    def spy(w, cube, refinement):
        est = integrate(w, cube, refinement)
        brackets.append((w, cube, est))
        return est

    monkeypatch.setattr(stokes, "integrate_over_cube", spy)
    report = run_scenario(scenario)
    assert report.converged and report.passed
    # every cube integral, constants included, is an exact bracket that
    # holds the exact integral of the literal form over the literal map,
    # and a face's over its cube's map composed exactly with the pinned
    # endpoint; a 0-cube is a point value, not an integral
    faces, roots = 0, {}  # each root map expanded once
    for w, cube, est in brackets:
        faces += cube.mapping._pin is not None
        if cube.k:
            assert bracket_contains(est, reference_exact_integral(
                reference_exact_pullback(cube.mapping, w, roots),
                cube.domain.rectangle())), cube
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
    """The weighted sum of the exact integrals of the form with exact
    coefficients `coeffs` over each term of the chain, unnormalized; a
    0-cube's is the form's exact value at its point.  `roots` and
    `extra` are ``reference_exact_pullback``'s."""
    total_re = total_ze = Fraction(0)
    for weight, cube in chain.terms:
        poly = reference_exact_pullback(cube.mapping, coeffs, roots, extra)
        re, ze = (poly.get((), (0, 0)) if cube.k == 0 else
                  reference_exact_integral(poly, cube.domain.rectangle()))
        total_re, total_ze = total_re + weight * re, total_ze + weight * ze
    return total_re, total_ze


_ROUNDED_ENDS = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: a curve's boundary is 0-cubes, whose point values "
        "IntegralEstimate.exact rounds to nearest with gap 0, so the rhs "
        "bracket misses the exact value of the float data"))


@pytest.mark.parametrize("kind, arg", [
    pytest.param(kind, arg, marks=_ROUNDED_ENDS)
    if arg == "rounded-ends-curve-type1" else (kind, arg)
    for kind, arg in _FILED + _FOLDED] + [
    ("bundled", d["name"]) for d in stokes.BUILTIN_SCENARIO_DICTS] + [
    ("tiled-chain-3d", seed) for seed in range(1, 21)])
def test_stokes_holds_exactly_on_tiled_chains(kind, arg):
    # the integral of dw over the chain and of w over its boundary, both
    # exact in dual rationals: d from the coefficients' exact partials,
    # each face its root map composed exactly with its pinned endpoints,
    # a 0-cube its exact point value, and every face summed, the
    # cancelling ones included.  The two are equal, and each float chain
    # bracket holds that value.  Every bundled scenario and every scenario
    # file but the folded-primitive and nonpolynomial ones is polynomial;
    # the folded-primitive ones take sin(x3) on the face x3 = 0.5, so
    # their exact values are formal sums in sin(1/2) and cos(1/2), and
    # must be the same rational multiple of sin(1/2)
    scenario = _fixed_scenario(kind, arg)
    w, chain = scenario.form, scenario.chain
    formal = kind == "folded-primitive"
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
    faces = boundary(chain)
    assert len(faces.terms) == 2 * chain.k * len(chain.terms)
    roots = {}  # each root map expanded once, for its cube and its faces
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
    for form, side in ((exterior_derivative(w), chain), (w, faces)):
        est = integrate_over_chain(form, side, scenario.refinement)
        assert all(bracket_contains(est, v) for v in values), (est, exact)


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


def test_bracket_wider_than_the_tolerance_falls_back():
    # the exact bracket always has a gap, so tolerance 0 refines, and
    # runs out of budget as it did before exact brackets
    f, rect, w, cube = _square("x1*x2")
    register = pullback_polynomial(cube.mapping, w)
    assert stokes.polynomial_estimate(register, rect).gap_re > 0.0
    refinement = Refinement(0.0, 0.0, 2, 1)
    with pytest.raises(NotConverged) as got:
        integrate_over_cube(w, cube, refinement)
    with pytest.raises(NotConverged) as want:
        integral_estimate(f, rect, tol_re=0.0, tol_ze=0.0,
                          base_subdivisions=2, max_doublings=1)
    assert got.value.estimate == want.value.estimate


def test_non_finite_exact_bracket_falls_back_to_the_overflow():
    f, rect, w, cube = _square("1e200*x1*1e200")
    register = pullback_polynomial(cube.mapping, w)
    assert stokes.polynomial_estimate(register, rect) is None
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


@pytest.mark.parametrize("scenario", load_scenarios(_NONPOLYNOMIAL),
                         ids=lambda s: s.name)
def test_nonpolynomial_verdicts_pull_back_symbolically(scenario, monkeypatch):
    assert _pullbacks(scenario, monkeypatch) >= 1


def test_register_bracket_that_is_not_finite_falls_back(monkeypatch):
    f, rect, w, cube = _square("x1*1e200*1e200")
    register = pullback_polynomial(cube.mapping, w)
    assert any(register[0])  # no constant
    assert stokes.polynomial_estimate(register, rect) is None
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
