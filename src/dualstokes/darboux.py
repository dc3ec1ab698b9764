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

A partition stores the pieces of each axis, not its cells.  The sums
lower the integrand once to a straight-line program (see
:func:`.expr.lower_expr`) and walk the grid as nested loops, one per
axis; each instruction runs in the loop of the highest variable it
reads, and each loop carries the volume of the cells' common prefix.
So an integrand in x1 alone is enclosed once per piece of the first
axis, and no object is built per cell.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .dual import Dual, Ordering, Theta, as_dual, theta_cmp
# eval_enclosure is unused here but stays a module attribute: the
# benchmark's tracer (bench/spans.py) rebinds darboux.eval_enclosure.
from .expr import DualBox, Expr, enclose_step, eval_enclosure, lower_expr

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
    """Uniform grid over a rectangle, stored as the pieces of each axis.

    The cells are the products of one piece per axis; `cells` lists them
    in lexicographic order (the last axis varies fastest).
    """

    rect: ThetaRectangle
    subdivisions: int
    axes: tuple[tuple[ThetaInterval, ...], ...]

    @property
    def cells(self) -> "Cells":
        return Cells(self.rect.theta, self.axes)


class Cells(Sequence):
    """The cells of a partition; each is built when it is asked for."""

    def __init__(self, theta: Theta, axes):
        self._theta = theta
        self._axes = axes

    def __len__(self) -> int:
        return math.prod(len(pieces) for pieces in self._axes)

    def __getitem__(self, i: int) -> ThetaRectangle:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("cell index out of range")
        combo = []
        for pieces in reversed(self._axes):
            i, j = divmod(i, len(pieces))
            combo.append(pieces[j])
        return ThetaRectangle(self._theta, tuple(reversed(combo)))

    def __iter__(self):
        for combo in itertools.product(*self._axes):
            yield ThetaRectangle(self._theta, combo)


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
    axes = []
    for iv in rect.intervals:
        points = _axis_points(iv, n)
        axes.append(tuple(ThetaInterval(rect.theta, lo, hi)
                          for lo, hi in zip(points, points[1:])))
    return Partition(rect, n, tuple(axes))


def darboux_sums(f: Expr, partition: Partition) -> tuple[Dual, Dual]:
    """(lower, upper) sums over the partition.

    `f` is lowered once, and the grid is walked as one loop per axis,
    nested in axis order, so cells come in the order of
    `partition.cells`.  Each instruction of `f` runs in the loop of the
    axis of its level (the highest variable it reads): a term in x1
    alone is enclosed once per piece of the first axis, not once per
    cell.  The volume of the cells' common prefix is carried down the
    loops.  Volumes, the sup/inf choice and the two accumulations are
    the float operations of ``Dual`` multiplication and addition, in the
    order of summing ``sup * cell.volume()`` cell by cell, so the sums
    equal that loop's bit for bit.
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
    pieces = [[(iv.box().intervals(), iv.width.re, iv.width.ze)
               for iv in axis] for axis in partition.axes]
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
