"""Darboux integration against the type-1 and type-2 orders.

An order interval ``[a, b]`` for either order is a planar box: the real
parts range over ``[re(a), re(b)]`` and the zero-divisor parts over the
interval between ``ze(a)`` and ``ze(b)`` (which way it leans depends on
the order type).  Products of such intervals are rectangles; uniform
partitions, upper/lower sums, and a doubling refinement loop give
two-sided integral estimates with an explicit gap.

Upper and lower sums take the componentwise sup/inf of an interval
enclosure of the integrand over each cell — this is exactly the least
upper/greatest lower bound for the chosen order — weighted by the dual
volume of the cell.  The two sums bracket the true integral, and the
bracket is monotone even in floating point: every cell term of the
lower sum is ``<=`` the matching upper term componentwise, and IEEE
rounding preserves that through the final accumulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dual import Dual, Ordering, Theta, ZERO, as_dual, theta_cmp
from .expr import DualBox, Expr, eval_enclosure

DEFAULT_TOL_RE = 1e-6
DEFAULT_TOL_ZE = 1e-6
DEFAULT_BASE_SUBDIVISIONS = 4
DEFAULT_MAX_DOUBLINGS = 8


class IncomparableEndpoints(ValueError):
    """Interval endpoints that the chosen order cannot rank."""


class NotConverged(RuntimeError):
    """Refinement hit its doubling budget; `estimate` is the last bracket."""

    def __init__(self, estimate: "IntegralEstimate", tol_re: float, tol_ze: float):
        super().__init__(
            f"gap ({estimate.gap_re:.3g}, {estimate.gap_ze:.3g}) above "
            f"tolerance ({tol_re:.3g}, {tol_ze:.3g}) after "
            f"{estimate.subdivisions} subdivisions per axis")
        self.estimate = estimate


@dataclass(frozen=True)
class ThetaInterval:
    """All points between `a` and `b` in the order of the given type."""

    theta: Theta
    a: Dual
    b: Dual

    def __post_init__(self):
        order = theta_cmp(self.a, self.b, self.theta)
        if order not in (Ordering.LESS, Ordering.EQUAL):
            raise IncomparableEndpoints(
                f"{self.a} does not precede {self.b} in the type-"
                f"{int(self.theta)} order")

    @property
    def width(self) -> Dual:
        return self.b - self.a

    def box(self) -> DualBox:
        lo, hi = sorted((self.a.ze, self.b.ze))
        return DualBox(self.a.re, self.b.re, lo, hi)

    def contains(self, x: Dual, tol: float = 0.0) -> bool:
        return self.box().contains(as_dual(x), tol)


def make_interval(theta: Theta, a, b) -> ThetaInterval:
    return ThetaInterval(Theta(theta), as_dual(a), as_dual(b))


@dataclass(frozen=True)
class ThetaRectangle:
    """Product of order intervals, all of one type."""

    theta: Theta
    intervals: tuple[ThetaInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.intervals:
            raise ValueError("a rectangle needs at least one axis")
        if any(iv.theta != self.theta for iv in self.intervals):
            raise ValueError("all axes must use the rectangle's order type")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def volume(self) -> Dual:
        vol = self.intervals[0].width
        for iv in self.intervals[1:]:
            vol = vol * iv.width
        return vol


def make_rectangle(theta: Theta, bounds) -> ThetaRectangle:
    """Build a rectangle from (a, b) endpoint pairs."""
    theta = Theta(theta)
    return ThetaRectangle(
        theta, tuple(make_interval(theta, a, b) for a, b in bounds))


@dataclass(frozen=True)
class Partition:
    """Uniform grid over a rectangle; cells in lexicographic order."""

    rect: ThetaRectangle
    subdivisions: int
    cells: tuple[ThetaRectangle, ...]


def _axis_points(iv: ThetaInterval, n: int) -> list[Dual]:
    w = iv.width
    if w.is_zero():
        return [iv.a, iv.a]
    points = [iv.a + w * (j / n) for j in range(n)]
    points.append(iv.a + w)
    return points


def uniform_partition(rect: ThetaRectangle, n: int) -> Partition:
    """Split every axis into `n` equal pieces (zero-width axes collapse)."""
    if n < 1:
        raise ValueError("subdivision count must be at least 1")
    per_axis = []
    for iv in rect.intervals:
        points = _axis_points(iv, n)
        per_axis.append([ThetaInterval(rect.theta, lo, hi)
                         for lo, hi in zip(points, points[1:])])
    cells = tuple(ThetaRectangle(rect.theta, combo)
                  for combo in itertools.product(*per_axis))
    return Partition(rect, n, cells)


def darboux_sums(f: Expr, partition: Partition) -> tuple[Dual, Dual]:
    """(lower, upper) sums over the partition, one enclosure pass per cell."""
    if f.arity != partition.rect.dim:
        raise ValueError(
            f"integrand arity {f.arity} does not match rectangle "
            f"dimension {partition.rect.dim}")
    sign = partition.rect.theta.sign
    lower = ZERO
    upper = ZERO
    for cell in partition.cells:
        bounds = eval_enclosure(f, [iv.box() for iv in cell.intervals])
        vol = cell.volume()
        if sign > 0:
            sup = Dual(bounds.re_hi, bounds.ze_hi)
            inf = Dual(bounds.re_lo, bounds.ze_lo)
        else:
            sup = Dual(bounds.re_hi, bounds.ze_lo)
            inf = Dual(bounds.re_lo, bounds.ze_hi)
        upper = upper + sup * vol
        lower = lower + inf * vol
    return lower, upper


@dataclass(frozen=True)
class IntegralEstimate:
    """Two-sided bracket: lower <= integral <= upper in the rectangle's order."""

    value: Dual
    lower: Dual
    upper: Dual
    gap_re: float
    gap_ze: float
    subdivisions: int

    @staticmethod
    def from_bounds(lower: Dual, upper: Dual,
                    subdivisions: int) -> "IntegralEstimate":
        mid = (lower + upper) * 0.5
        return IntegralEstimate(
            value=mid, lower=lower, upper=upper,
            gap_re=abs(upper.re - lower.re), gap_ze=abs(upper.ze - lower.ze),
            subdivisions=subdivisions)

    @staticmethod
    def exact(value: Dual) -> "IntegralEstimate":
        return IntegralEstimate(value=value, lower=value, upper=value,
                                gap_re=0.0, gap_ze=0.0, subdivisions=0)


def integral_estimate(f: Expr, rect: ThetaRectangle, *,
                      tol_re: float = DEFAULT_TOL_RE,
                      tol_ze: float = DEFAULT_TOL_ZE,
                      base_subdivisions: int = DEFAULT_BASE_SUBDIVISIONS,
                      max_doublings: int = DEFAULT_MAX_DOUBLINGS
                      ) -> IntegralEstimate:
    """Refine uniform partitions until the bracket gap is within tolerance.

    Subdivision counts run `base_subdivisions * 2**t` for
    `t = 0 .. max_doublings`; the reported value is the bracket
    midpoint.  Raises :class:`NotConverged` (carrying the final
    estimate) if the budget runs out.
    """
    if tol_re < 0 or tol_ze < 0:
        raise ValueError("tolerances must be nonnegative")
    if base_subdivisions < 1:
        raise ValueError("base subdivision count must be at least 1")
    if max_doublings < 0:
        raise ValueError("doubling budget must be nonnegative")
    estimate = None
    for t in range(max_doublings + 1):
        n = base_subdivisions * (1 << t)
        lower, upper = darboux_sums(f, uniform_partition(rect, n))
        estimate = IntegralEstimate.from_bounds(lower, upper, n)
        if estimate.gap_re <= tol_re and estimate.gap_ze <= tol_ze:
            return estimate
    raise NotConverged(estimate, tol_re, tol_ze)
