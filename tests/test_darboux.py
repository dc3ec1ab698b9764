import itertools
import math
import random
from fractions import Fraction

import pytest

from dualstokes import (CubeDomain, Dual, Expr, IncomparableEndpoints,
                        NotConverged, Ordering, Theta, ThetaRectangle, ZERO,
                        darboux_sums, integral_estimate, make_interval,
                        make_rectangle, parse_expr, theta_cmp,
                        uniform_partition)
import dualstokes.cubes as cubes
import dualstokes.darboux as darboux
import dualstokes.stokes as stokes
from dualstokes.darboux import NotFinite, ThetaInterval, polynomial_estimate
from dualstokes.expr import (MAX_MONOMIALS, NotPolynomial, expand_polynomial,
                             lower_expr)
from helpers import (THETAS, bracket_contains, exact_darboux_sums,
                     load_bench_module, random_expr, random_poly,
                     random_rectangle, reference_darboux_sums,
                     reference_exact_integral, reference_uniform_partition)


def _leq(x, y, theta):
    return theta_cmp(x, y, theta) in (Ordering.LESS, Ordering.EQUAL)


# ---------------------------------------------------------------------------
# intervals and rectangles


def test_interval_construction():
    iv = make_interval(Theta.TYPE1, 0, Dual(1, 1))
    assert iv.width == Dual(1, 1)
    assert iv.contains(Dual(0.5, 0.5))
    assert iv.contains(Dual(0.5, 1.0))  # anywhere in the planar box
    assert not iv.contains(Dual(0.5, 1.1))
    assert not iv.contains(Dual(-0.1, 0.5))
    # degenerate interval is allowed
    make_interval(Theta.TYPE1, Dual(1, 1), Dual(1, 1))


def test_interval_rejects_incomparable_endpoints():
    with pytest.raises(IncomparableEndpoints):
        make_interval(Theta.TYPE1, Dual(0, 1), Dual(1, 0))
    with pytest.raises(IncomparableEndpoints):
        make_interval(Theta.TYPE1, Dual(1, 0), Dual(0, 0))
    # type 2 wants the ze part to shrink
    with pytest.raises(IncomparableEndpoints):
        make_interval(Theta.TYPE2, ZERO, Dual(1, 1))
    make_interval(Theta.TYPE2, ZERO, Dual(1, -1))


def test_interval_box_orientation():
    iv2 = make_interval(Theta.TYPE2, ZERO, Dual(1, -1))
    box = iv2.box()
    assert (box.re_lo, box.re_hi) == (0.0, 1.0)
    assert (box.ze_lo, box.ze_hi) == (-1.0, 0.0)


def test_rectangle_volume():
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1)), (0, Dual(1, 1))])
    assert rect.volume() == Dual(1, 2)
    rect2 = make_rectangle(Theta.TYPE2, [(0, Dual(1, -1)), (0, Dual(2, 0))])
    assert rect2.volume() == Dual(2, -2)
    with pytest.raises(ValueError):
        make_rectangle(Theta.TYPE1, [])


def test_rectangle_theta_consistency():
    from dualstokes import ThetaRectangle
    iv1 = make_interval(Theta.TYPE1, 0, 1)
    with pytest.raises(ValueError):
        ThetaRectangle(Theta.TYPE2, (iv1,))


# ---------------------------------------------------------------------------
# partitions


def test_uniform_partition_layout():
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1)), (0, 2)])
    part = uniform_partition(rect, 2)
    assert part.subdivisions == 2
    assert len(part.cells) == 4
    # lexicographic: last axis varies fastest
    first = part.cells[0]
    assert first.intervals[0].a == ZERO
    assert first.intervals[1].a == ZERO
    second = part.cells[1]
    assert second.intervals[0].a == ZERO
    assert second.intervals[1].a == Dual(1.0)
    last = part.cells[-1]
    assert last.intervals[0].b == Dual(1, 1)
    assert last.intervals[1].b == Dual(2.0)
    with pytest.raises(ValueError):
        uniform_partition(rect, 0)


def test_partition_collapses_degenerate_axis():
    rect = make_rectangle(Theta.TYPE1, [(1, 1), (0, 1)])
    part = uniform_partition(rect, 4)
    # the zero-width axis contributes a single degenerate strip
    assert len(part.cells) == 4
    assert all(c.intervals[0].width == ZERO for c in part.cells)


def test_cells_are_built_on_demand():
    rect = make_rectangle(Theta.TYPE2, [(0, Dual(1, -1))] * 3)
    huge = uniform_partition(rect, 1000)
    assert len(huge.cells) == 10 ** 9
    last = huge.cells[-1]
    assert [iv.b for iv in last.intervals] == [Dual(1, -1)] * 3
    with pytest.raises(IndexError):
        huge.cells[10 ** 9]
    # a slice builds only the cells it selects
    tail = huge.cells[-3:]
    assert repr(tail) == repr([huge.cells[i] for i in (-3, -2, -1)])
    assert repr(huge.cells[5:10 ** 10:10 ** 8]) == repr(
        [huge.cells[i] for i in range(5, 10 ** 9, 10 ** 8)])
    part = uniform_partition(rect, 3)
    cells = list(part.cells)
    assert len(cells) == len(part.cells) == 27
    assert cells == [part.cells[i] for i in range(27)]
    assert cells[-4] == part.cells[-4]


@pytest.mark.parametrize("s", [
    slice(0, 2), slice(None), slice(3, None), slice(None, -2),
    slice(-5, -1), slice(None, None, -1), slice(10, 2, -3),
    slice(1, None, 4), slice(-100, 100), slice(50, 60), slice(2, 2),
    slice(5, 1), slice(None, None, -7), slice(100, -100, -2)])
def test_cells_slice_like_indexing_one_by_one(s):
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1)), (Dual(-1, 0), 2)])
    cells = uniform_partition(rect, 4).cells
    want = [cells[i] for i in range(len(cells))[s]]
    assert repr(cells[s]) == repr(want)
    assert repr(cells[s]) == repr(list(cells)[s])


def _axis_bounds(theta):
    """Axes whose breakpoints test signed zeros and degenerate widths."""
    s = float(theta.sign)
    return [(0, Dual(1, s)),
            (Dual(-0.0, -0.0), Dual(1, -0.0)),
            (Dual(-0.0, -0.0), Dual(-0.0, -0.0)),  # zero width
            (Dual(1, 1), Dual(1, 1)),  # zero width
            (1, Dual(1, s)),  # no real width, nonzero ze width
            (Dual(-0.3, 0.7), Dual(0.9, 0.7 + 0.45 * s)),
            (Dual(-2.5, -0.0), Dual(-0.0, -0.0))]


def _partition_cases():
    rng = random.Random(2024)
    for theta in THETAS:
        axes = _axis_bounds(theta)
        for dim in (1, 2, 3):
            combos = list(itertools.product(axes, repeat=dim))
            if dim == 3:
                combos = rng.sample(combos, 12)
            for bounds in combos:
                for n in (1, 2, 3, 7):
                    yield make_rectangle(theta, bounds), n


def test_partition_cells_match_reference_pieces():
    for rect, n in _partition_cases():
        part = uniform_partition(rect, n)
        expected = itertools.product(*reference_uniform_partition(rect, n))
        cells = list(part.cells)
        assert len(cells) == len(part.cells)
        for cell, pieces in zip(cells, expected, strict=True):
            for iv, ref in zip(cell.intervals, pieces, strict=True):
                assert repr((iv.a, iv.b, iv.width)) == repr(
                    (ref.a, ref.b, ref.width))
            assert repr(cell.volume()) == repr(
                ThetaRectangle(rect.theta, pieces).volume())


def test_sums_match_reference_on_partition_cases():
    exprs = {1: parse_expr("-x1*x1 + eps*x1 - 0.5", 1),
             2: parse_expr("x1*x2 - exp(x2)*eps + x1^3", 2),
             3: parse_expr("sin(x1+x3)*x2 - x3*eps", 3)}
    for rect, n in _partition_cases():
        f = exprs[rect.dim]
        part = uniform_partition(rect, n)
        assert (repr(darboux_sums(f, part))
                == repr(reference_darboux_sums(f, part)))


@pytest.mark.parametrize("theta, bounds", [
    (Theta.TYPE1, (0, math.inf)),
    (Theta.TYPE1, (-math.inf, 0)),
    (Theta.TYPE1, (0, Dual(1, math.inf))),
    (Theta.TYPE2, (0, math.inf)),
    (Theta.TYPE2, (-math.inf, 0)),
    (Theta.TYPE2, (0, Dual(1, -math.inf))),
])
@pytest.mark.parametrize("n", [1, 4])
def test_partition_rejects_infinite_endpoints(theta, bounds, n):
    # the endpoints would rank, but no partition into n pieces could
    # split the axis, so the rectangle is refused first, naming the
    # endpoint; the error no longer depends on n
    with pytest.raises(IncomparableEndpoints, match="endpoint [ab] = .*inf"):
        make_rectangle(theta, [(0, 1), bounds])


def test_partition_order_check_matches_reference_on_special_values():
    specials = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, math.inf,
                -math.inf, math.nan)
    duals = [Dual(re, ze) for re in specials for ze in specials]
    for theta in THETAS:
        for a, b in itertools.product(duals, repeat=2):
            try:
                rect = make_rectangle(theta, [(a, b)])
            except IncomparableEndpoints:
                continue
            for n in (1, 3):
                try:
                    expected = reference_uniform_partition(rect, n)
                except IncomparableEndpoints:
                    with pytest.raises(IncomparableEndpoints):
                        uniform_partition(rect, n)
                    continue
                cells = uniform_partition(rect, n).cells
                assert repr([c.intervals for c in cells]) == repr(
                    [(iv,) for iv in expected[0]])


def test_volume_additivity_random():
    rng = random.Random(314)
    for _ in range(120):
        theta = rng.choice(THETAS)
        rect = random_rectangle(rng, theta, rng.randint(1, 2))
        part = uniform_partition(rect, rng.randint(1, 6))
        total = ZERO
        for cell in part.cells:
            total = total + cell.volume()
        vol = rect.volume()
        assert abs(total.re - vol.re) < 1e-12
        assert abs(total.ze - vol.ze) < 1e-12


# ---------------------------------------------------------------------------
# sums


def test_sums_linear_hand_example():
    # f = x1 on [0,1], four cells: exact dyadic endpoints
    rect = make_rectangle(Theta.TYPE1, [(0, 1)])
    part = uniform_partition(rect, 4)
    f = parse_expr("x1", 1)
    lo, up = darboux_sums(f, part)
    assert lo == Dual(0.375)
    assert up == Dual(0.625)


def test_sums_dual_interval_hand_example():
    # f = x1 on [0, 1+eps]: cell sup includes the ze corner
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1))])
    part = uniform_partition(rect, 2)
    f = parse_expr("x1", 1)
    lo, up = darboux_sums(f, part)
    # upper: (1/2)(1+eps)^2*(1/2 + 1) = 3/4*(1+2eps), lower: 1/4*(1+2eps)
    assert up == Dual(0.75, 1.5)
    assert lo == Dual(0.25, 0.5)


def test_sums_type2_orientation():
    # same integrand mirrored into the type-2 order
    rect = make_rectangle(Theta.TYPE2, [(0, Dual(1, -1))])
    part = uniform_partition(rect, 2)
    f = parse_expr("x1", 1)
    lo, up = darboux_sums(f, part)
    assert up == Dual(0.75, -1.5)
    assert lo == Dual(0.25, -0.5)
    assert _leq(lo, up, Theta.TYPE2)


def test_sandwich_random():
    rng = random.Random(2718)
    for _ in range(150):
        theta = rng.choice(THETAS)
        dim = rng.randint(1, 2)
        rect = random_rectangle(rng, theta, dim)
        part = uniform_partition(rect, rng.randint(1, 5))
        f = random_poly(rng, dim, depth=2)
        lo, up = darboux_sums(f, part)
        assert _leq(lo, up, theta)


def _assert_sums_match_reference(f, part):
    """Bit for bit when f reads the last axis; else both the sums and the
    reference loop's lie within the rounding bound of the exact sums."""
    got = darboux_sums(f, part)
    ref = reference_darboux_sums(f, part)
    dim = part.rect.dim
    if lower_expr(f)[-1][-1] == dim - 1:  # the level of the last step
        assert repr(got) == repr(ref)
        return
    slack = (len(part.cells) + 2 * dim + 4) * Fraction(2) ** -52
    exact = exact_darboux_sums(f, part)
    for sums in (got, ref):
        for value, (re, ze, abs_re, abs_ze) in zip(sums, exact):
            assert abs(Fraction(value.re) - re) <= slack * abs_re
            assert abs(Fraction(value.ze) - ze) <= slack * abs_ze


def test_sums_match_reference_loop():
    rng = random.Random(1618)
    for theta in THETAS:
        for dim in (1, 2, 3):
            for n in (1, 2, 5):
                for _ in range(3):
                    rect = random_rectangle(rng, theta, dim, span=1.0)
                    f = random_expr(rng, dim, depth=rng.randint(1, 4))
                    _assert_sums_match_reference(f, uniform_partition(rect, n))
        # a zero-width axis between two wide ones
        rect = make_rectangle(theta, [(0, Dual(1, theta.sign)), (1, 1),
                                      (0, Dual(2, 0))])
        for text in ("exp(x1)*x2 - sin(x3*x1)^2 + eps*x2",
                     "exp(x1)*x2 + eps*x2", "sin(x1) - eps", "0.1"):
            f = parse_expr(text, 3)
            for n in (1, 2, 5):
                _assert_sums_match_reference(f, uniform_partition(rect, n))


@pytest.mark.parametrize("theta", THETAS)
def test_sums_over_unread_axes_match_reference_exactly(theta):
    # a zero-width trailing axis makes every sum exactly zero, and
    # constants over dyadic breakpoints round nowhere
    s = float(theta.sign)
    wide = make_rectangle(theta, [(0, Dual(1, 0.3 * s)), (Dual(-0.7, 0.1),
                                  Dual(0.4, 0.1 + 1.9 * s)), (1, 1)])
    dyadic = make_rectangle(theta, [(Dual(-1, 0.5), Dual(1, 0.5 + 2 * s)),
                                    (0, Dual(0.75, 0)), (2, Dual(2, s))])
    flat = make_rectangle(theta, [(Dual(-0.0, -0.0), Dual(-0.0, -0.0)),
                                  (0, Dual(1, s))])
    cases = [(wide, "exp(x1)*x2 - eps*x1"), (wide, "sin(x1) + 3"),
             (wide, "-1 + 2*eps"), (flat, "-1 + 2*eps"), (flat, "x1 - 2")]
    cases += [(dyadic, text) for text in ("2", "-0.5 + 3*eps", "0", "-0.0",
                                          "x1 - x2*eps", "x1*eps")]
    for rect, text in cases:
        f = parse_expr(text, rect.dim)
        assert lower_expr(f)[-1][-1] < rect.dim - 1  # the last step's level
        for n in (1, 2, 4, 8):
            part = uniform_partition(rect, n)
            assert (repr(darboux_sums(f, part))
                    == repr(reference_darboux_sums(f, part)))


@pytest.mark.parametrize("theta", THETAS)
def test_sums_match_reference_on_column_cases(theta):
    # the innermost walked axis runs as columns: with trailing axes after
    # it, lower registers read by several of its instructions (or by one
    # of them twice over), primitives on it, and one piece per axis
    s = float(theta.sign)
    bounds = [(0, Dual(1, 0.3 * s)),
              (Dual(-0.7, 0.1), Dual(0.4, 0.1 + 1.9 * s)),
              (Dual(0.5, -1), Dual(2, -1 + 0.5 * s))]
    texts = {1: ["x1*x1 - eps", "sin(x1)*exp(x1) + cos(x1)*eps"],
             2: ["x1*x1*x2", "x1*x1", "x1*x2 - eps*x2 + x1^2*x2 - x1",
                 "sin(x2)*exp(x1*x2) + cos(x2 - x1)*eps", "x2"],
             3: ["x1*x1*x2", "x1*x1*x2*x3", "(x1 + x2)*x3 - (x1 + x2)^2*x3",
                 "sin(x3) - x3*eps + x1", "cos(x1)*x1 - eps", "exp(x2)*x1"]}
    for dim, cases in texts.items():
        rect = make_rectangle(theta, bounds[:dim])
        for text in cases:
            f = parse_expr(text, dim)
            for n in (1, 2, 3, 5):
                _assert_sums_match_reference(f, uniform_partition(rect, n))


@pytest.mark.parametrize("text", ["exp(x2*1000)*x1", "(x2*1e200)^2 + x1",
                                  "x1*exp(800*x2*x2)", "exp(x1*1000)*x2"])
def test_sums_raise_overflow_inside_a_column(text):
    # only the last pieces overflow, so the error comes mid-column
    rect = make_rectangle(Theta.TYPE1, [(0, 1), (0, Dual(1, 1))])
    with pytest.raises(OverflowError):
        darboux_sums(parse_expr(text, 2), uniform_partition(rect, 3))


def test_sums_walk_only_the_axes_the_integrand_reads():
    # about 1.07e9 cells, one enclosure per piece of the first axis
    rect = make_rectangle(Theta.TYPE1, [(0, 1)] * 3)
    part = uniform_partition(rect, 1024)
    assert len(part.cells) == 1024 ** 3
    lo, up = darboux_sums(parse_expr("x1", 3), part)
    assert repr((lo, up)) == repr((Dual(0.5 - 2 ** -11), Dual(0.5 + 2 ** -11)))


def test_sums_arity_mismatch():
    rect = make_rectangle(Theta.TYPE1, [(0, 1)])
    part = uniform_partition(rect, 2)
    with pytest.raises(ValueError):
        darboux_sums(parse_expr("x1+x2", 2), part)


# ---------------------------------------------------------------------------
# the refinement loop


def test_integral_linear_oracle():
    # integral of x1 over [0, 1+eps] in the type-1 order is (1+eps)^2/2
    exact = Dual(0.5, 1.0)
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1))])
    est = integral_estimate(parse_expr("x1", 1), rect,
                            tol_re=1e-3, tol_ze=1e-3, max_doublings=10)
    assert abs(est.value.re - exact.re) <= 1e-3
    assert abs(est.value.ze - exact.ze) <= 1e-3
    # the exact value sits inside the bracket, in the order sense
    assert _leq(est.lower, exact, Theta.TYPE1)
    assert _leq(exact, est.upper, Theta.TYPE1)


def test_integral_constant_converges_immediately():
    rect = make_rectangle(Theta.TYPE2, [(0, Dual(1, -2)), (0, Dual(1, 0))])
    est = integral_estimate(parse_expr("2", 2), rect,
                            tol_re=1e-12, tol_ze=1e-12)
    assert est.subdivisions == 4
    assert est.gap_re == 0.0 and est.gap_ze == 0.0
    assert est.value == Dual(2.0) * rect.volume()


def test_integral_zero_width_axis():
    rect = make_rectangle(Theta.TYPE1, [(1, 1)])
    est = integral_estimate(parse_expr("x1^2", 1), rect)
    assert est.value == ZERO
    assert est.gap_re == 0.0


def test_not_converged_carries_estimate():
    rect = make_rectangle(Theta.TYPE1, [(0, 1)])
    with pytest.raises(NotConverged) as err:
        integral_estimate(parse_expr("x1^2", 1), rect,
                          tol_re=0.0, tol_ze=0.0, max_doublings=2)
    est = err.value.estimate
    assert est.subdivisions == 16
    assert est.gap_re > 0.0
    assert abs(est.value.re - 1 / 3) < 0.1
    # a Darboux bracket says how far refinement went
    assert str(err.value) == (f"gap ({est.gap_re:.3g}, {est.gap_ze:.3g}) "
                              "above tolerance (0, 0) after 16 subdivisions "
                              "per axis")


@pytest.mark.parametrize("text", ["1e308*10*x1", "1e200*x1*1e200",
                                  "x1*1e300*1e300*eps", "x1 - 1e308*10"])
@pytest.mark.parametrize("tol", [1e-6, math.inf])
def test_integral_estimate_rejects_non_finite_sums(text, tol):
    # an inf or NaN bracket is an overflow at the first level, not a
    # failure to converge, and no tolerance makes it converge
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1))])
    f = parse_expr(text, 1)
    with pytest.raises(OverflowError, match="not finite"):
        integral_estimate(f, rect, tol_re=tol, tol_ze=tol, max_doublings=3)


def test_refinement_tightens_bracket():
    rng = random.Random(808)
    for _ in range(30):
        theta = rng.choice(THETAS)
        rect = random_rectangle(rng, theta, 1, span=1.5)
        f = random_poly(rng, 1, depth=2)
        coarse_lo, coarse_up = darboux_sums(f, uniform_partition(rect, 8))
        fine_lo, fine_up = darboux_sums(f, uniform_partition(rect, 16))
        coarse_gap = abs(coarse_up.re - coarse_lo.re)
        fine_gap = abs(fine_up.re - fine_lo.re)
        assert fine_gap <= 0.75 * coarse_gap + 1e-12


def test_parameter_validation():
    rect = make_rectangle(Theta.TYPE1, [(0, 1)])
    f = parse_expr("x1", 1)
    with pytest.raises(ValueError):
        integral_estimate(f, rect, tol_re=-1.0)
    with pytest.raises(ValueError):
        integral_estimate(f, rect, base_subdivisions=0)
    with pytest.raises(ValueError):
        integral_estimate(f, rect, max_doublings=-1)


@pytest.mark.parametrize("kwargs", [
    {"tol_re": math.nan},
    {"tol_ze": math.nan},
    {"base_subdivisions": True},
    {"base_subdivisions": 4.0},
    {"max_doublings": True},
    {"max_doublings": 1.5},
    {"max_doublings": "2"},
])
def test_integral_estimate_rejects_bad_parameters(kwargs):
    rect = make_rectangle(Theta.TYPE1, [(0, 1)])
    with pytest.raises(ValueError):
        integral_estimate(parse_expr("x1", 1), rect, **kwargs)


@pytest.mark.parametrize("n", [True, 2.0, math.nan, "2", None])
def test_uniform_partition_rejects_non_integer_counts(n):
    rect = make_rectangle(Theta.TYPE1, [(0, 1)])
    with pytest.raises(ValueError):
        uniform_partition(rect, n)


# ---------------------------------------------------------------------------
# exact brackets for polynomial integrands


def _dual_poly(rng: random.Random, dim: int) -> Expr:
    """A seeded polynomial with float dual coefficients: a sum of products
    of affine factors, so that its expansion cancels and rounds."""
    total = Expr.constant(0.0, dim)
    for _ in range(rng.randint(1, 3)):
        term = Expr.constant(Dual(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                             dim)
        for _ in range(rng.randint(1, 4)):
            factor = Expr.constant(
                Dual(rng.uniform(-2, 2), rng.uniform(-2, 2)), dim)
            factor = factor + Expr.variable(rng.randrange(dim), dim) * \
                Dual(rng.uniform(-2, 2), rng.uniform(-1, 1))
            term = term * (factor ** rng.randint(1, 3))
        total = total - term if rng.random() < 0.5 else total + term
    return total


def _exact_cases(seed: int, count: int):
    """(integrand, rectangle) over dims 1-3, both orders and r in
    {0, 0.5, 1}, with dual-coefficient and small random polynomials,
    constants among them."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        dim = rng.randint(1, 3)
        theta = rng.choice(THETAS)
        rect = CubeDomain(theta, rng.choice((0.0, 0.5, 1.0)), dim).rectangle()
        if rng.random() < 0.5:
            f = _dual_poly(rng, dim)
        else:
            f = random_poly(rng, dim, depth=3)
        cases.append((f, rect))
    return cases


def test_exact_bracket_holds_the_exact_integral():
    for f, rect in _exact_cases(1414, 240):
        est = polynomial_estimate(expand_polynomial(f), rect.theta,
                                  rect.intervals)
        assert est is not None, f
        assert est.subdivisions == 0
        assert _leq(est.lower, est.upper, rect.theta)
        assert bracket_contains(est, reference_exact_integral(f, rect)), f


def test_exact_bracket_holds_the_exact_integral_on_wide_rectangles():
    rng = random.Random(1415)
    for _ in range(120):
        dim = rng.randint(1, 3)
        theta = rng.choice(THETAS)
        rect = random_rectangle(rng, theta, dim, span=rng.choice((0.5, 40.0)))
        f = _dual_poly(rng, dim)
        est = polynomial_estimate(expand_polynomial(f), rect.theta,
                                  rect.intervals)
        assert est is not None and _leq(est.lower, est.upper, theta)
        assert bracket_contains(est, reference_exact_integral(f, rect)), f


def _overlap(est, lower, upper) -> bool:
    return all(max(min(a, b), min(c, d)) <= min(max(a, b), max(c, d))
               for a, b, c, d in ((est.lower.re, est.upper.re,
                                   lower.re, upper.re),
                                  (est.lower.ze, est.upper.ze,
                                   lower.ze, upper.ze)))


def test_exact_bracket_overlaps_the_darboux_brackets():
    # at the default base level and at one doubling
    for f, rect in _exact_cases(1416, 60):
        est = polynomial_estimate(expand_polynomial(f), rect.theta,
                                  rect.intervals)
        for n in (4, 8):
            lower, upper = darboux_sums(f, uniform_partition(rect, n))
            assert _overlap(est, lower, upper), (f, n)


@pytest.mark.parametrize("text", ["1e-200*x1*1e-200", "(x1*1e-170)^2*x2",
                                  "x1*1e-320 - x2*1e-310*eps"])
def test_exact_bracket_bounds_underflow(text):
    # the products underflow, to zero or to subnormals; the exact
    # integral is still inside, and the gap is no wider than a tolerance
    # could ask of it
    rect = CubeDomain(Theta.TYPE2, 0.5, 2).rectangle()
    f = parse_expr(text, 2)
    est = polynomial_estimate(expand_polynomial(f), rect.theta,
                              rect.intervals)
    assert bracket_contains(est, reference_exact_integral(f, rect))
    assert est.gap_re < 1e-290 and est.gap_ze < 1e-290


def test_exact_bracket_of_a_hand_example():
    # x1 over [0, 1+eps]: (1+eps)^2/2 = 0.5+eps, rounding nowhere
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 1))])
    x1 = expand_polynomial(parse_expr("x1", 1))
    est = polynomial_estimate(x1, rect.theta, rect.intervals)
    assert est.value == Dual(0.5, 1.0)
    assert 0.0 < est.gap_re < 1e-14 and 0.0 < est.gap_ze < 1e-14
    mirrored = make_rectangle(Theta.TYPE2, [(0, Dual(1, -1))])
    est = polynomial_estimate(x1, mirrored.theta, mirrored.intervals)
    assert est.value == Dual(0.5, -1.0)
    assert est.lower.ze > est.upper.ze


@pytest.mark.parametrize("text, expands", [
    # ids given in full, so that each case keeps its name in reports
    pytest.param("exp(x1)*x2", False, id="exp(x1)*x2"),  # a primitive
    # more than MAX_MONOMIALS monomials
    pytest.param("(x1+x2+x3+1)^12", False, id="(x1+x2+x3+1)^12"),
    pytest.param("x1^65", False, id="x1^65"),  # degree above MAX_DEGREE
    # an infinite coefficient
    pytest.param("1e200*x1*1e200", True, id="1e200*x1*1e200"),
    # a finite value, an infinite shadow
    pytest.param("(x1+1e308)-(x1+1e308)", True, id="(x1+1e308)-(x1+1e308)"),
])
def test_exact_bracket_declines(text, expands):
    # no register within the caps, or one whose bracket is not finite
    rect = CubeDomain(Theta.TYPE1, 0.5, 3).rectangle()
    if not expands:
        with pytest.raises(NotPolynomial):
            expand_polynomial(parse_expr(text, 3))
        return
    assert polynomial_estimate(expand_polynomial(parse_expr(text, 3)),
                               rect.theta, rect.intervals) is None


def test_exact_bracket_of_a_constant():
    # a polynomial of degree 0: the bracket bounds the rounding of the
    # volume as it does for any other polynomial
    rect = CubeDomain(Theta.TYPE1, 0.5, 3).rectangle()
    f = parse_expr("2.5+eps", 3)
    est = polynomial_estimate(expand_polynomial(f), rect.theta,
                              rect.intervals)
    assert est.subdivisions == 0 and 0.0 < est.gap_re < 1e-12
    assert bracket_contains(est, reference_exact_integral(f, rect))


def test_monomial_cap_is_what_declines():
    rect = CubeDomain(Theta.TYPE1, 0.5, 3).rectangle()
    # C(10 + 3, 3) = 286 monomials of degree at most 10 in three variables
    assert polynomial_estimate(
        expand_polynomial(parse_expr("(x1+x2+x3+1)^9", 3)), rect.theta,
        rect.intervals)
    assert MAX_MONOMIALS < 286
    with pytest.raises(NotPolynomial, match="monomials"):
        expand_polynomial(parse_expr("(x1+x2+x3+1)^10", 3))


def test_weight_tables_are_built_once_per_interval_and_degree(monkeypatch):
    # all 81 integrals of the tiled chain share one interval per axis, and
    # its faces one point per endpoint; an axis object keeps one table,
    # the longest asked of it, so it looks a table up only for a degree
    # above the one it holds, each (ends, degree) once, and every entry an
    # integral or a proof of normalization (which pins registers at the
    # endpoints) reads is bit for bit that of a table built for its degree
    scenario = load_bench_module("workloads").tiled_chain_3d(stokes, 1)[0]
    asked, lookups = [], []
    build, store = darboux._axis_weights, darboux._weight_table

    def spy(axis, degree):
        table = build(axis, degree)
        ends = ((axis.re, axis.ze) if isinstance(axis, Dual)
                else (axis.a.re, axis.a.ze, axis.b.re, axis.b.ze))
        fresh = store.__wrapped__(repr(ends), ends, degree)
        assert repr(table[:degree + 1]) == repr(fresh)
        asked.append((repr(ends), degree))
        return table

    def counting(key, ends, degree):
        lookups.append((key, degree))
        return store(key, ends, degree)

    monkeypatch.setattr(darboux, "_axis_weights", spy)
    monkeypatch.setattr(cubes, "_axis_weights", spy)
    monkeypatch.setattr(darboux, "_weight_table", counting)
    store.cache_clear()
    assert stokes.run_scenario(scenario).passed
    builds = store.cache_info().misses
    assert len(set(lookups)) == len(lookups) == builds  # none built twice
    assert 0 < builds <= len(set(asked)) < len(asked)


def test_weight_tables_tell_apart_what_the_float_operations_do():
    # 0.0 and -0.0, and 1 and 1.0, are equal endpoints and points whose
    # powers and differences may differ in bits, so each has a table of
    # its own; a lower degree reads the prefix of the table an axis
    # holds, and a higher one replaces it by a longer table, whose
    # prefix is the shorter one
    darboux._weight_table.cache_clear()
    fresh = darboux._weight_table.__wrapped__
    ends = [(0.0, 1.0), (-0.0, 1.0), (0, 1), (0.0, 3.0), (0, 3)]
    points = [Dual(0.0, 0.5), Dual(-0.0, 0.5), Dual(1, 0), Dual(1.0, 0.0)]
    tables = []
    for axis in [ThetaInterval(Theta.TYPE1, Dual(a, 0.0), Dual(b, 0.5))
                 for a, b in ends] + points:
        parts = ((axis.re, axis.ze) if isinstance(axis, Dual)
                 else (axis.a.re, axis.a.ze, axis.b.re, axis.b.ze))
        short = darboux._axis_weights(axis, 3)
        table = darboux._axis_weights(axis, 40)
        assert repr(table) == repr(fresh(repr(parts), parts, 40))
        assert repr(table[:4]) == repr(short)
        assert darboux._axis_weights(axis, 40) is table
        assert darboux._axis_weights(axis, 7) is table
        tables.append(table)
    assert darboux._weight_table.cache_info().misses == 2 * len(tables)
    assert repr(tables[3]) != repr(tables[4])  # 3**41 rounds as a float


def test_bracket_midpoint_and_gaps_are_those_of_dual_arithmetic():
    # from_bounds works in floats, in the operations of (lower + upper) *
    # 0.5 and of the gaps' differences in Dual arithmetic, so signed
    # zeros, inf, NaN, an overflowing sum and a subnormal come out as there
    parts = (0.0, -0.0, 1.5, math.inf, -math.inf, math.nan, 1.7e308,
             -1.7e308, 5e-324)
    for l_re, l_ze, u_re, u_ze in itertools.product(parts, repeat=4):
        lower, upper = Dual(l_re, l_ze), Dual(u_re, u_ze)
        est = darboux.IntegralEstimate.from_bounds(lower, upper, 3)
        want = ((lower + upper) * 0.5, lower, upper,
                abs(upper.re - lower.re), abs(upper.ze - lower.ze), 3)
        assert repr(est._values()) == repr(want)


def test_exact_bracket_whose_midpoint_overflows_is_none():
    # the value is about 1.7e308 and finite; the midpoint of its ends is not
    rect = make_rectangle(Theta.TYPE1, [(0, math.sqrt(2.0))])
    f = parse_expr("1.7e308*x1", 1)
    assert polynomial_estimate(expand_polynomial(f), rect.theta,
                               rect.intervals) is None


def test_integral_estimate_rejects_an_overflowing_midpoint():
    rect = make_rectangle(Theta.TYPE1, [(0, Dual(1, 0.5))] * 2)
    lower, upper = darboux_sums(parse_expr("1.7e308", 2),
                                uniform_partition(rect, 4))
    assert math.isfinite(lower.re) and math.isfinite(upper.ze)
    with pytest.raises(NotFinite, match="midpoint"):
        integral_estimate(parse_expr("1.7e308", 2), rect)


def test_bracket_is_finite_exactly_when_its_midpoint_and_gaps_are():
    # finite() sums x - x over the midpoint's parts and the gaps, which is
    # 0.0 for a finite x and NaN for any other, so no sum can overflow
    parts = (0.0, -0.0, 1.5, 1.7e308, -1.7e308, 5e-324, math.inf,
             -math.inf, math.nan)
    for v_re, v_ze, g_re, g_ze in itertools.product(parts, repeat=4):
        est = darboux.IntegralEstimate(Dual(v_re, v_ze), ZERO, ZERO, g_re,
                                       g_ze, 0)
        assert est.finite() == all(map(math.isfinite,
                                       (v_re, v_ze, g_re, g_ze)))


def _reference_weight_table(ends: tuple, degree: int) -> tuple:
    """The weight table as it was built by powers that ran one product
    past the last power a table needs: for float ends that product is
    finite or inf and never read, so every entry must be this one's."""
    def powers(re, ze, top):
        s = abs(re) + abs(ze)
        p_re, p_ze, p_s = re, ze, s
        for _ in range(top):
            yield p_re, p_ze, p_s
            p_re, p_ze = p_re * re, p_re * ze + p_ze * re
            p_s = p_s * s + 3.0 * darboux.TINY

    if len(ends) == 2:
        re, ze = ends
        exact = not (re or ze)
        return ((1.0, 0.0, 1.0, 0),) + tuple(
            (p_re, p_ze, 0.0, 0) if exact else (p_re, p_ze, p_s, 2 * j - 1)
            for j, (p_re, p_ze, p_s) in enumerate(powers(re, ze, degree), 1))
    a_re, a_ze, b_re, b_ze = ends
    return tuple(((pb_re - pa_re) / j, (pb_ze - pa_ze) / j,
                  (pb_s + pa_s) / j + 2.0 * darboux.TINY, 2 * j + 2)
                 for j, ((pa_re, pa_ze, pa_s), (pb_re, pb_ze, pb_s))
                 in enumerate(zip(powers(a_re, a_ze, degree + 1),
                                  powers(b_re, b_ze, degree + 1)), 1))


def test_float_end_weight_tables_are_unchanged():
    # points and intervals at float ends, signed zeros, subnormals, ends
    # near the float range whose next power overflows, and inf and NaN:
    # every table, bit for bit, as the powers that ran one product past
    # the last built it
    fresh = darboux._weight_table.__wrapped__
    parts = (0.0, -0.0, 5e-324, 0.5, -1.5, 1.0 + 2.0 ** -52, 1e154, 1e200,
             -1.7e308, math.inf, math.nan)
    for degree in (0, 1, 2, 5):
        for ends in itertools.product(parts, repeat=2):
            assert repr(fresh(repr(ends), ends, degree)) == \
                repr(_reference_weight_table(ends, degree))
        rng = random.Random(f"weight tables/{degree}")
        for _ in range(200):
            ends = tuple(rng.choice(parts) for _ in range(4))
            assert repr(fresh(repr(ends), ends, degree)) == \
                repr(_reference_weight_table(ends, degree))


def test_int_end_past_the_floats_squared_has_its_bracket():
    # 10**200 squared is past the float range: a table of degree 1 needs
    # no square, so the bracket of x1 at the point 10**200 is built, and
    # holds the exact value, as it does at the float 1e200
    for end, exact in ((Dual(10 ** 200, 0), Fraction(10 ** 200)),
                       (Dual(1e200, 0.0), Fraction(1e200))):
        est = polynomial_estimate(({1: (1.0, 0.0)}, 1.0, 0, 1),
                                  Theta.TYPE1, [end])
        assert est is not None and est.finite()
        assert Fraction(est.lower.re) <= exact <= Fraction(est.upper.re)
        assert Fraction(est.lower.ze) <= 0 <= Fraction(est.upper.ze)
    # a square of it is past the floats, as it was
    with pytest.raises(OverflowError):
        polynomial_estimate(({2: (1.0, 0.0)}, 1.0, 0, 2), Theta.TYPE1,
                            [Dual(10 ** 200, 0)])
