"""Darboux integration against the type-1 and type-2 orders.

An order interval ``[a, b]`` for either order is a planar box: the real
parts range over ``[re(a), re(b)]`` and the zero-divisor parts over the
interval between ``ze(a)`` and ``ze(b)`` (which way it leans depends on
the order type).  Products of such intervals are rectangles; uniform
partitions, upper/lower sums, and a doubling refinement loop give
two-sided integral estimates with an explicit gap.  A polynomial
integrand, a constant included, has an exact bracket too: that of its
polynomial register, :func:`polynomial_estimate`, whose gap bounds the
rounding alone; the Darboux sums stay the definition, and the path for
every other integrand.

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
as nested loops, one per axis, under the box arithmetic; an instruction
runs in the loop of the highest variable it reads, each loop carries the
volume of the cells' common prefix, and no object is built per piece or
cell.  So an integrand in x1 alone is enclosed once per piece of axis 1.
The innermost walked loop runs as columns: its instructions run once
per entry into it, over all its pieces, by the box ops mapped over the
column, so an integrand that fails on several pieces raises the error
of its first failing instruction, not of its first failing piece.
Axes after the integrand's level are not walked at all: their widths
are summed once per level into one trailing volume, so a level costs
``n**(level + 1)`` steps, not ``n**dim``.  The sums equal summing cell
by cell bit for bit when the integrand reads the last axis, and
otherwise in exact arithmetic, with fewer roundings.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import repeat
from operator import itemgetter

from .dual import Dual, Ordering, Record, Theta, as_dual, theta_cmp
# eval_enclosure is unused here but stays a module attribute: the
# benchmark's tracer (bench/spans.py) rebinds darboux.eval_enclosure.
from .expr import (_U, KEY_BITS, TINY, Expr, eval_enclosure, listwise,
                   lower_expr, run_steps)
from .intervals import BOXES, DualBox

DEFAULT_TOL_RE = 1e-6
DEFAULT_TOL_ZE = 1e-6
DEFAULT_BASE_SUBDIVISIONS = 4
DEFAULT_MAX_DOUBLINGS = 8


class NotFinite(OverflowError):
    """A bracket whose sums, midpoint or gap are past the float range."""


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


class ThetaInterval(Record):
    """All points between `a` and `b` in the type-theta order; immutable."""

    _fields = ("theta", "a", "b")
    __slots__ = _fields + ("_weights",)  # not a field: see _axis_weights

    def __init__(self, theta: Theta, a: Dual, b: Dual):
        for name, end in (("a", a), ("b", b)):
            if not (math.isfinite(end.re) and math.isfinite(end.ze)):
                raise IncomparableEndpoints(
                    f"endpoint {name} = {end} is not finite")
        if theta_cmp(a, b, theta) not in (Ordering.LESS, Ordering.EQUAL):
            raise IncomparableEndpoints(
                f"{a} does not precede {b} in the type-{int(theta)} order")
        self.theta, self.a, self.b = theta, a, b

    @property
    def width(self) -> Dual:
        return self.b - self.a

    def box(self) -> DualBox:
        lo, hi = sorted((self.a.ze, self.b.ze))
        return DualBox(self.a.re, self.b.re, lo, hi)

    def contains(self, x: Dual, tol: float = 0.0) -> bool:
        return self.box().contains(as_dual(x), tol)


def make_interval(theta: Theta, a, b) -> ThetaInterval:
    if theta.__class__ is not Theta:
        theta = Theta(theta)
    return ThetaInterval(theta, as_dual(a), as_dual(b))


class ThetaRectangle(Record):
    """Product of order intervals, all of one type; immutable."""

    __slots__ = _fields = ("theta", "intervals")

    def __init__(self, theta: Theta, intervals: tuple[ThetaInterval, ...]):
        self.theta, self.intervals = theta, tuple(intervals)
        if not self.intervals:
            raise ValueError("a rectangle needs at least one axis")
        if any(iv.theta != theta for iv in self.intervals):
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


class Partition(Record):
    """Uniform grid over a rectangle, stored as the breakpoints of each axis.

    Breakpoints are ``(re, ze)`` float pairs, and consecutive ones bound
    a piece.  `cells` lists the products of one piece per axis, in
    lexicographic order (the last axis varies fastest).  Immutable.
    """

    __slots__ = _fields = ("rect", "subdivisions", "axes")

    def __init__(self, rect: ThetaRectangle, subdivisions: int, axes: tuple):
        self.rect, self.subdivisions, self.axes = rect, subdivisions, axes

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


# The pieces between consecutive breakpoints: each one's box, as a
# register of BOXES, and its width, by the float operations of
# ``ThetaInterval.box()`` and ``.width``.


def _boxes(points) -> list:
    return [(a_re, b_re, b_ze, a_ze) if b_ze < a_ze
            else (a_re, b_re, a_ze, b_ze)
            for (a_re, a_ze), (b_re, b_ze) in zip(points, points[1:])]


def _widths(points) -> list:
    return [(b_re - a_re, b_ze - a_ze)
            for (a_re, a_ze), (b_re, b_ze) in zip(points, points[1:])]


_SWAP_ZE = itemgetter(0, 1, 3, 2)  # (re_lo, re_hi, ze_hi, ze_lo)


def darboux_sums(f: Expr, partition: Partition) -> tuple[Dual, Dual]:
    """(lower, upper) sums over the partition.

    `f` is lowered once, and the grid is walked as one loop per axis,
    nested in axis order, so cells come in the order of
    `partition.cells`.  Each instruction of `f` runs in the loop of the
    axis of its level (the highest variable it reads), by
    :func:`.expr.run_steps` under :data:`.intervals.BOXES`: a term in x1
    alone is enclosed once per piece of the first axis.  The innermost
    walked axis, the integrand's level `top`, runs as columns: each time
    its loop is entered, each of its instructions runs once over the
    boxes of all its pieces (``BOXES`` under :func:`.expr.listwise`),
    and one loop adds up the cells.  So a failing enclosure
    raises the error of its first failing instruction, in program
    order, not of its first failing piece.  Each piece's box and width
    come from its two breakpoints by the float operations of
    ``ThetaInterval.box()`` and ``.width``, and the volume of the cells'
    common prefix is carried down the loops.

    Only the axes up to `top` are walked.  The piece widths of each
    later axis are summed once, in piece order, and the sums multiplied
    into one trailing volume ``T`` (all in ``Dual`` arithmetic), which
    scales the widths of axis `top`.  A constant integrand
    (``top == -1``) is one column of one cell, of volume ``T``, so the
    column's loop is the one place where cells enter the sums.  In
    exact arithmetic this is the cell-by-cell sum, since multiplication
    distributes over it, and it takes fewer roundings.  When `f` reads
    the last axis there is no ``T``: volumes, the sup/inf choice and the
    two accumulations are then the float operations of ``Dual``
    multiplication and addition, in the order of summing
    ``sup * cell.volume()`` cell by cell, so the sums equal that loop's
    bit for bit.
    """
    dim = partition.rect.dim
    if f.arity != dim:
        raise ValueError(
            f"integrand arity {f.arity} does not match rectangle "
            f"dimension {dim}")
    code = lower_expr(f)
    regs = [None] * len(code)
    args = [None] * dim
    # the steps by level, a step's last field; the constants' level -1 is
    # last
    runs = [[] for _ in range(dim + 1)]
    for step in code:
        runs[step[-1]].append(step)
    run_steps(runs.pop(), BOXES, regs, args)
    top = code[-1][-1]  # the integrand's enclosure is final in this loop
    axes = partition.axes
    pieces = [list(zip(_boxes(points), _widths(points)))
              for points in axes[:max(top, 0)]]
    trailing = None  # the volume T of the axes after top
    for points in axes[top + 1:]:
        s_re = s_ze = 0.0
        for w_re, w_ze in _widths(points):
            s_re = s_re + w_re
            s_ze = s_ze + w_ze
        if trailing is None:
            trailing = s_re, s_ze
        else:
            t_re, t_ze = trailing
            trailing = t_re * s_re, t_re * s_ze + t_ze * s_re
    # an enclosure (re_lo, re_hi, ze_lo, ze_hi) read as (inf re, sup re,
    # inf ze, sup ze) in the rectangle's order
    flip = partition.rect.theta.sign < 0

    if top < 0:  # a constant: one column of one cell, of volume T
        widths, column_args = [trailing], None
    else:
        widths = _widths(axes[top])
        if trailing is not None:
            t_re, t_ze = trailing
            widths = [(w_re * t_re, w_re * t_ze + w_ze * t_re)
                      for w_re, w_ze in widths]
        column_args = [None] * top + [_boxes(axes[top])]
    # column registers hold one box per piece of axis top, as a list,
    # since several instructions may read one, and an outer register
    # enters as repeat(its box); a constant's registers have all run: its
    # column run, runs[-1], is empty, and its column repeats its enclosure
    column_run, columns = runs[top], listwise(BOXES, len(widths))
    outer = [r for r, _, _, _, level in code if level < max(top, 0)]
    cols = [None] * len(code)

    def sum_column(vols, sums):
        # the cells of each piece of axis top, whose volumes are `vols`
        for r in outer:
            cols[r] = repeat(regs[r])
        run_steps(column_run, columns, cols, column_args)
        lo_re, lo_ze, up_re, up_ze = sums
        for (v_re, v_ze), (i_re, s_re, i_ze, s_ze) in zip(
                vols, map(_SWAP_ZE, cols[-1]) if flip else cols[-1]):
            up_re = up_re + s_re * v_re
            up_ze = up_ze + (s_re * v_ze + s_ze * v_re)
            lo_re = lo_re + i_re * v_re
            lo_ze = lo_ze + (i_re * v_ze + i_ze * v_re)
        return lo_re, lo_ze, up_re, up_ze

    def walk(axis, p_re, p_ze, sums):
        run = runs[axis]
        for arg, (w_re, w_ze) in pieces[axis]:
            if run:
                args[axis] = arg
                run_steps(run, BOXES, regs, args)
            if axis:
                v_re = p_re * w_re
                v_ze = p_re * w_ze + p_ze * w_re
            else:
                v_re, v_ze = w_re, w_ze
            if axis + 1 < top:
                sums = walk(axis + 1, v_re, v_ze, sums)
            else:
                sums = sum_column([(v_re * u_re, v_re * u_ze + v_ze * u_re)
                                   for u_re, u_ze in widths], sums)
        return sums

    if top > 0:
        sums = walk(0, None, None, (0.0,) * 4)
    else:
        sums = sum_column(widths, (0.0,) * 4)
    del walk  # its closure holds it; unbound, it is freed at once
    lo_re, lo_ze, up_re, up_ze = sums
    return Dual(lo_re, lo_ze), Dual(up_re, up_ze)


class IntegralEstimate(Record):
    """Immutable bracket: lower <= integral <= upper in the rectangle's order."""

    __slots__ = _fields = ("value", "lower", "upper", "gap_re", "gap_ze",
                           "subdivisions")

    def __init__(self, value: Dual, lower: Dual, upper: Dual, gap_re: float,
                 gap_ze: float, subdivisions: int):
        self.value, self.lower, self.upper = value, lower, upper
        self.gap_re, self.gap_ze = gap_re, gap_ze
        self.subdivisions = subdivisions

    @staticmethod
    def from_bounds(lower: Dual, upper: Dual,
                    subdivisions: int) -> "IntegralEstimate":
        # the float operations of ``(lower + upper) * 0.5`` in Dual
        # arithmetic, so signed zeros, inf and NaN come out as there
        l_re, l_ze, u_re, u_ze = lower.re, lower.ze, upper.re, upper.ze
        s_re, s_ze = l_re + u_re, l_ze + u_ze
        return IntegralEstimate(Dual(s_re * 0.5, s_re * 0.0 + s_ze * 0.5),
                                lower, upper, abs(u_re - l_re),
                                abs(u_ze - l_ze), subdivisions)

    @staticmethod
    def exact(value: Dual) -> "IntegralEstimate":
        return IntegralEstimate(value, value, value, 0.0, 0.0, 0)

    def finite(self) -> bool:
        """Whether the midpoint and the gaps are finite (so the ends are):
        x - x is 0.0 for a finite x and NaN for any other, so their sum
        is 0.0 exactly when all four are finite."""
        value, gap_re, gap_ze = self.value, self.gap_re, self.gap_ze
        return (value.re - value.re + (value.ze - value.ze)
                + (gap_re - gap_re) + (gap_ze - gap_ze)) == 0.0


_MAX_ORDER = 1 << 24  # so that (2N + 1) * u >= gamma(2N), see below


def _axis_weights(axis: ThetaInterval | Dual, degree: int) -> tuple:
    """``(re, ze, shadow, order)`` of the weight of x^p on `axis`, for
    p = 0 .. degree: ``(b^(p+1) - a^(p+1)) / (p+1)`` over an interval
    ``[a, b]``, ``v^p`` at a point v.  Entry p does not depend on the
    degree a table is built for, so the axis object keeps one table, the
    longest asked of it, and reads any lower degree off its prefix; a
    miss reads the one built once per ends and degree, keyed by the repr
    of the ends, which tells 0.0 from -0.0 and 1 from 1.0 as the float
    operations do."""
    table = getattr(axis, "_weights", ())
    if len(table) <= degree:
        ends = ((axis.re, axis.ze) if isinstance(axis, Dual)
                else (axis.a.re, axis.a.ze, axis.b.re, axis.b.ze))
        table = axis._weights = _weight_table(repr(ends), ends, degree)
    return table


def _powers(re: float, ze: float, top: int):
    # v^j, j = 1 .. top, by repeated Dual multiplication, with its
    # shadow ||v||^j (+ 3 TINY a product)
    s = abs(re) + abs(ze)
    p_re, p_ze, p_s = re, ze, s
    for _ in range(top):
        yield p_re, p_ze, p_s
        p_re, p_ze = p_re * re, p_re * ze + p_ze * re
        p_s = p_s * s + 3.0 * TINY


@functools.lru_cache(maxsize=256)
def _weight_table(key: str, ends: tuple, degree: int) -> tuple:
    # the orders and shadows :func:`polynomial_estimate` derives: a
    # power v^j has order 2j - 1; a point's weight v^p is its power,
    # v^0 the exact 1 and every power of the exact zero the exact zero
    # with shadow 0 and order 0; an interval's (b^j - a^j) / j, j = p + 1,
    # has order 2j + 2
    if len(ends) == 2:
        re, ze = ends
        exact = not (re or ze)
        return ((1.0, 0.0, 1.0, 0),) + tuple(
            (p_re, p_ze, 0.0, 0) if exact else (p_re, p_ze, p_s, 2 * j - 1)
            for j, (p_re, p_ze, p_s) in enumerate(_powers(re, ze, degree), 1))
    a_re, a_ze, b_re, b_ze = ends
    return tuple(((pb_re - pa_re) / j, (pb_ze - pa_ze) / j,
                  (pb_s + pa_s) / j + 2.0 * TINY, 2 * j + 2)
                 for j, ((pa_re, pa_ze, pa_s), (pb_re, pb_ze, pb_s))
                 in enumerate(zip(_powers(a_re, a_ze, degree + 1),
                                  _powers(b_re, b_ze, degree + 1)), 1))


def polynomial_estimate(f: tuple, theta: Theta, axes: Sequence
                        ) -> IntegralEstimate | None:
    """The exact integral of a polynomial integrand, a constant included,
    in a bracket that bounds every rounding; None when that bracket is
    not finite, or its order is past the bound below.

    `f` is a polynomial register of :mod:`.expr`, monomials ``c x^P``
    with dual float coefficients, as :func:`.forms.pullback_polynomial`
    and :func:`.expr.expand_polynomial` make.  `axes` holds one entry per
    variable, in order: a :class:`ThetaInterval` of order type `theta`,
    which the variable is integrated over, or a :class:`.dual.Dual`
    point, where it is pinned, as a cube's face pins its root map's
    variable at an endpoint; no axes at all is a point, where a constant
    integrates to itself.  Variables beyond the axes are not checked.  By
    the fundamental theorem of calculus, which the dual reals keep
    (eps^2 = 0), each monomial integrates to ``c`` times the product over
    the axes of its weights: ``w(p) = (b^(p+1) - a^(p+1)) / (p+1)`` on an
    interval, ``v^p`` at a point v, and the value is the sum of those
    products, all in the float operations of ``Dual``.

    The bound is the a-priori one of Higham, *Accuracy and Stability of
    Numerical Algorithms* (2nd ed., SIAM 2002), section 3.1.  Read the
    whole computation, from the program's float constants and the axes'
    float endpoints to the value, as one straight-line
    program of real sums, differences, products and quotients by an
    integer.  A float operation returns ``(x op y)(1 + d) + e`` with
    ``|d| <= u = 2^-53``, and ``e = 0`` except for a product or quotient
    that underflows, where ``|e| <= u * TINY`` (sums are exact there).
    Expanded, the computed value is the sum of the exact value's terms
    ``t``, each times a product ``1 + theta`` of at most N factors
    ``1 + d``, ``|theta| <= gamma(N) = N u / (1 - N u)``, plus the terms
    that carry an ``e``, each at most ``u * TINY`` times the cofactors
    it is multiplied into.  So the error is at most ``gamma(N)`` times
    the shadow: the same program run exactly on absolute values, with
    TINY added at each float product or quotient.  Each register
    carries N (its `order`) and the shadow's 1-norm over its
    coefficients, summed in floats; on nonnegative values that rounding
    is itself a ``1 + theta`` of order at most N, so the float shadow
    ``S`` gives the bound ``gamma(N) S / (1 - gamma(N)) <= gamma(2N) S``.
    A primitive folded on a constant register (``expr._poly_prim``)
    expands into no such terms; its register carries a shadow and an
    order for which the same bound holds, and every later operation
    keeps it, as the comment above ``expr._POLYS`` says.
    The weights are such registers too.  A power ``v^j`` by ``j - 1``
    dual products has order ``2j - 2`` in its parts, and its shadow
    ``||v||^j`` order ``2j - 1``: one rounding for ``|re| + |ze|`` and
    two for each of the ``j - 1`` products, each plus 3 TINY for its
    underflow.  At the exact zero every such product is an exact zero,
    so a point's weights ``v^p``, p > 0, have shadow 0 and order 0
    there, and its ``v^0`` is the exact 1 at any point.  An interval's
    weight takes one more rounding for the difference and one for the
    quotient, and its shadow ``(||b||^j + ||a||^j) / j + 2 TINY`` three,
    for the sum, the quotient and the TINY: order ``2j + 2``.
    For the integral, N adds the order of the weights, the two
    roundings of a dual product and one per accumulated monomial, and
    ``S = S(coefficients) * max S(weight) + 3 TINY`` per monomial, as
    the 1-norm of a product is at most the product of the 1-norms.

    With ``N <= 2^24``, ``(2N + 1) u`` is at least ``gamma(2N)``; the
    radius is that times ``S``, rounded up by one float, and the
    bracket's ends are the value's parts minus and plus the radius,
    each rounded outward by one float with ``math.nextafter``.  Both
    parts get the same radius.  A value, shadow or radius that
    overflowed is not finite, and neither is the bracket then, so no
    overflow goes unseen.  Lower and upper follow `theta`'s order, as a
    Darboux bracket's do, and ``subdivisions`` is 0.
    """
    terms, shadow, order, degree = f
    first, *rest = ([_axis_weights(axis, degree) for axis in axes]
                    or [((1.0, 0.0, 1.0, 0),)])  # a point's weight, exactly 1
    mask = (1 << KEY_BITS) - 1
    v_re = v_ze = 0.0
    w_top, n_top = 0.0, 0
    for key, (c_re, c_ze) in terms.items():
        w_re, w_ze, w_s, w_n = first[key & mask]
        for table in rest:
            key >>= KEY_BITS
            o_re, o_ze, o_s, o_n = table[key & mask]
            w_re, w_ze = w_re * o_re, w_re * o_ze + w_ze * o_re
            w_s = w_s * o_s + 3.0 * TINY
            w_n += o_n + 2
        v_re = v_re + c_re * w_re
        v_ze = v_ze + (c_re * w_ze + c_ze * w_re)
        if w_s > w_top:
            w_top = w_s
        if w_n > n_top:
            n_top = w_n
    n = order + n_top + len(terms) + 1
    if n > _MAX_ORDER:
        return None
    total = shadow * w_top + (3 * len(terms)) * TINY
    radius = math.nextafter((2 * n + 1) * _U * total, math.inf)
    lo_re = math.nextafter(v_re - radius, -math.inf)
    hi_re = math.nextafter(v_re + radius, math.inf)
    lo_ze = math.nextafter(v_ze - radius, -math.inf)
    hi_ze = math.nextafter(v_ze + radius, math.inf)
    if theta.sign < 0:
        lo_ze, hi_ze = hi_ze, lo_ze
    est = IntegralEstimate.from_bounds(Dual(lo_re, lo_ze), Dual(hi_re, hi_ze),
                                       0)
    return est if est.finite() else None


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
    estimate) if the budget runs out, and :class:`NotFinite` as soon as
    a level's sums, midpoint or gap have an infinite or NaN part.
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
        if not estimate.finite():
            raise NotFinite(f"lower and upper sums at {n} subdivisions per "
                            f"axis, or their midpoint or gap, are not "
                            f"finite: {lower}, {upper}")
        if estimate.gap_re <= tol_re and estimate.gap_ze <= tol_ze:
            return estimate
    raise NotConverged(estimate, tol_re, tol_ze)
