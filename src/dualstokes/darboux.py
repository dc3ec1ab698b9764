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

A partition stores the breakpoints of each axis as ``(re, ze)`` float
pairs, not its pieces or cells.  The sums lower the integrand once to a
straight-line program (see :func:`.expr.lower_expr`) and walk the grid
as nested loops, one per axis; each instruction runs in the loop of the
highest variable it reads, and each loop carries the volume of the
cells' common prefix.  So an integrand in x1 alone is enclosed once per
piece of the first axis, and no object is built per piece or cell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .dual import Dual, Ordering, Theta, as_dual, theta_cmp
# eval_enclosure is unused here but stays a module attribute: the
# benchmark's tracer (bench/spans.py) rebinds darboux.eval_enclosure.
from .expr import Expr, eval_enclosure, lower_expr
from .intervals import DualBox, enclose_step

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
        for name, end in (("a", self.a), ("b", self.b)):
            if not (math.isfinite(end.re) and math.isfinite(end.ze)):
                raise IncomparableEndpoints(
                    f"endpoint {name} = {end} is not finite")
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
    """Uniform grid over a rectangle, stored as the breakpoints of each axis.

    Breakpoints are ``(re, ze)`` float pairs, and consecutive ones bound
    a piece.  `cells` lists the products of one piece per axis, in
    lexicographic order (the last axis varies fastest).
    """

    rect: ThetaRectangle
    subdivisions: int
    axes: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def cells(self) -> "Cells":
        return Cells(self.rect.theta, self.axes)


class Cells(Sequence):
    """The cells of a partition; each is built when it is asked for."""

    def __init__(self, theta: Theta, axes):
        self._theta = theta
        self._axes = axes

    def __len__(self) -> int:
        return math.prod(len(points) - 1 for points in self._axes)

    def __getitem__(self, i):
        """The cell at index `i`, or a list of the cells of a slice."""
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("cell index out of range")
        combo = []
        for points in reversed(self._axes):
            i, j = divmod(i, len(points) - 1)
            combo.append(ThetaInterval(self._theta, Dual(*points[j]),
                                       Dual(*points[j + 1])))
        return ThetaRectangle(self._theta, tuple(reversed(combo)))


def _count(value, least: int, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}")


def uniform_partition(rect: ThetaRectangle, n: int) -> Partition:
    """Split every axis into `n` equal pieces (zero-width axes collapse).

    Breakpoint j < n is ``a + (b - a)*(j/n)`` in ``Dual`` arithmetic and
    the last is ``a + (b - a)``.  A piece that runs against the order (as
    a NaN one does) raises :class:`IncomparableEndpoints`.
    """
    _count(n, 1, "subdivision count")
    sign = rect.theta.sign
    axes = []
    for iv in rect.intervals:
        a_re, a_ze = iv.a.re, iv.a.ze
        w_re, w_ze = iv.b.re - a_re, iv.b.ze - a_ze
        if w_re == 0.0 and w_ze == 0.0:
            axes.append(((a_re, a_ze),) * 2)
            continue
        points = [(a_re + w_re * t, a_ze + (w_re * 0.0 + w_ze * t))
                  for t in [j / n for j in range(n)]]
        points.append((a_re + w_re, a_ze + w_ze))
        for lo, hi in zip(points, points[1:]):
            # implies lo <= hi in the order; else ThetaInterval decides, and
            # raises IncomparableEndpoints unless lo == hi
            if not (hi[0] >= lo[0] and sign * (hi[1] - lo[1]) >= 0):
                ThetaInterval(rect.theta, Dual(*lo), Dual(*hi))
        axes.append(tuple(points))
    return Partition(rect, n, tuple(axes))


def darboux_sums(f: Expr, partition: Partition) -> tuple[Dual, Dual]:
    """(lower, upper) sums over the partition.

    `f` is lowered once, and the grid is walked as one loop per axis,
    nested in axis order, so cells come in the order of
    `partition.cells`.  Each instruction of `f` runs in the loop of the
    axis of its level (the highest variable it reads): a term in x1
    alone is enclosed once per piece of the first axis, not once per
    cell.  Each piece's box and width come from its two breakpoints by
    the float operations of ``ThetaInterval.box()`` and ``.width``, and
    the volume of the cells' common prefix is carried down the loops.
    Volumes, the sup/inf choice and the two accumulations are the float
    operations of ``Dual`` multiplication and addition, in the order of
    summing ``sup * cell.volume()`` cell by cell, so the sums equal that
    loop's bit for bit.
    """
    dim = partition.rect.dim
    if f.arity != dim:
        raise ValueError(
            f"integrand arity {f.arity} does not match rectangle "
            f"dimension {dim}")
    code = lower_expr(f)
    regs = [None] * len(code)
    args = [None] * dim
    runs = [[] for _ in range(dim)]  # (register, instruction) by axis loop
    for r, ins in enumerate(code):
        if ins.level < 0:
            regs[r] = enclose_step(ins, regs, args)
        else:
            runs[ins.level].append((r, ins))
    pieces = [[(((a_re, b_re), (b_ze, a_ze) if b_ze < a_ze else (a_ze, b_ze)),
                b_re - a_re, b_ze - a_ze)
               for (a_re, a_ze), (b_re, b_ze) in zip(points, points[1:])]
              for points in partition.axes]
    sign = partition.rect.theta.sign
    top = code[-1].level  # the integrand's enclosure is final in this loop
    last = dim - 1

    def bounds():
        # (inf re, inf ze, sup re, sup ze) in the rectangle's order
        (re_lo, re_hi), (ze_lo, ze_hi) = regs[-1]
        if sign > 0:
            return re_lo, ze_lo, re_hi, ze_hi
        return re_lo, ze_hi, re_hi, ze_lo

    def walk(axis, p_re, p_ze, ends, sums):
        lo_re, lo_ze, up_re, up_ze = sums
        run = runs[axis]
        for arg, w_re, w_ze in pieces[axis]:
            if run:
                args[axis] = arg
                for r, ins in run:
                    regs[r] = enclose_step(ins, regs, args)
                if axis == top:
                    ends = bounds()
            if axis:
                v_re = p_re * w_re
                v_ze = p_re * w_ze + p_ze * w_re
            else:
                v_re, v_ze = w_re, w_ze
            if axis < last:
                lo_re, lo_ze, up_re, up_ze = walk(
                    axis + 1, v_re, v_ze, ends, (lo_re, lo_ze, up_re, up_ze))
                continue
            i_re, i_ze, s_re, s_ze = ends
            up_re = up_re + s_re * v_re
            up_ze = up_ze + (s_re * v_ze + s_ze * v_re)
            lo_re = lo_re + i_re * v_re
            lo_ze = lo_ze + (i_re * v_ze + i_ze * v_re)
        return lo_re, lo_ze, up_re, up_ze

    ends = bounds() if top < 0 else None
    lo_re, lo_ze, up_re, up_ze = walk(0, None, None, ends, (0.0,) * 4)
    return Dual(lo_re, lo_ze), Dual(up_re, up_ze)


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
    if not (tol_re >= 0 and tol_ze >= 0):
        raise ValueError("tolerances must be nonnegative numbers")
    _count(base_subdivisions, 1, "base subdivision count")
    _count(max_doublings, 0, "doubling budget")
    estimate = None
    for t in range(max_doublings + 1):
        n = base_subdivisions * (1 << t)
        lower, upper = darboux_sums(f, uniform_partition(rect, n))
        estimate = IntegralEstimate.from_bounds(lower, upper, n)
        if estimate.gap_re <= tol_re and estimate.gap_ze <= tol_ze:
            return estimate
    raise NotConverged(estimate, tol_re, tol_ze)
