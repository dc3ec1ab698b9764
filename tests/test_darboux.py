import itertools
import math
import random

import pytest

from dualstokes import (Dual, IncomparableEndpoints, NotConverged, Ordering,
                        Theta, ThetaRectangle, ZERO, darboux_sums,
                        integral_estimate, make_interval, make_rectangle,
                        parse_expr, theta_cmp, uniform_partition)
from helpers import (THETAS, random_expr, random_poly, random_rectangle,
                     reference_darboux_sums, reference_uniform_partition)


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


def test_sums_match_reference_loop():
    rng = random.Random(1618)
    for theta in THETAS:
        for dim in (1, 2, 3):
            for n in (1, 2, 5):
                for _ in range(3):
                    rect = random_rectangle(rng, theta, dim, span=1.0)
                    f = random_expr(rng, dim, depth=rng.randint(1, 4))
                    part = uniform_partition(rect, n)
                    assert (repr(darboux_sums(f, part))
                            == repr(reference_darboux_sums(f, part)))
        # a zero-width axis between two wide ones
        rect = make_rectangle(theta, [(0, Dual(1, theta.sign)), (1, 1),
                                      (0, Dual(2, 0))])
        f = parse_expr("exp(x1)*x2 - sin(x3*x1)^2 + eps*x2", 3)
        for n in (1, 2, 5):
            part = uniform_partition(rect, n)
            assert (repr(darboux_sums(f, part))
                    == repr(reference_darboux_sums(f, part)))


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
