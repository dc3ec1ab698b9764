"""Interval enclosures: dual boxes, and the box arithmetic.

:data:`BOXES` is the arithmetic under which the expression interpreter
(:func:`.expr.run_steps`) runs a straight-line program (see
:func:`.expr.lower_expr`) over boxes, for :func:`.expr.eval_enclosure`
and the Darboux sums alike.  Plain real intervals are ``(lo, hi)``
tuples; a :class:`DualBox` holds one for each part, and a register of
:data:`BOXES` holds the box flat, as ``(re_lo, re_hi, ze_lo, ze_hi)``.

Every interval product takes its bounds from one helper, :func:`_span`;
the box ops add, subtract or negate endpoints, and powers, scaling and
the primitives round in :func:`_ipow`, :func:`_iscale` and libm.
Rounding is to nearest (no outward rounding), so enclosures are sound
up to roundoff, which is all the integration layer relies on.  Outward
rounding of products and sums is an edit to :func:`_span` and to the
endpoint sums of :data:`BOXES`.

A sine or cosine of a box with an infinite or NaN endpoint raises
``OverflowError``, as the point arithmetic does at such a value: sine
and cosine have no value there.
"""

from __future__ import annotations

import math

from .dual import Dual, Record

_TWO_PI = 2.0 * math.pi


def _span(p0: float, p1: float, p2: float, p3: float) -> tuple[float, float]:
    """(min, max) of four products, as builtin min and max give them.

    A value replaces the current bound only if it is below (above) it,
    as in min (max), so signed zeros and NaN come out the same.  A value
    below `lo` is never above `hi`: either both are NaN, and no value
    compares, or ``lo <= hi``.
    """
    lo = hi = p0
    if p1 < lo:
        lo = p1
    elif p1 > hi:
        hi = p1
    if p2 < lo:
        lo = p2
    elif p2 > hi:
        hi = p2
    if p3 < lo:
        lo = p3
    elif p3 > hi:
        hi = p3
    return lo, hi


def _ineg(a):
    return (-a[1], -a[0])


def _imul(a, b):
    a_lo, a_hi = a
    b_lo, b_hi = b
    return _span(a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)


def _iscale(a, c: float):
    if c >= 0:
        return (c * a[0], c * a[1])
    return (c * a[1], c * a[0])


def _ipow(a, k: int):
    if k == 0:
        return (1.0, 1.0)
    lo = a[0] ** k
    hi = a[1] ** k
    if k % 2 == 1:
        return (lo, hi)
    if a[0] <= 0.0 <= a[1]:
        return (0.0, max(lo, hi))
    return (min(lo, hi), max(lo, hi))


def _iexp(a):
    return (math.exp(a[0]), math.exp(a[1]))


def _crosses(lo: float, hi: float, phase: float) -> bool:
    # does [lo, hi] contain a point congruent to phase mod 2*pi?
    k = math.ceil((lo - phase) / _TWO_PI)
    return phase + _TWO_PI * k <= hi


def _iwave(a, wave, peak: float, trough: float):
    # sin or cos over [lo, hi]; it is 1 at phase `peak`, -1 at `trough`
    lo, hi = a
    if not (-math.inf < lo and hi < math.inf):
        raise OverflowError(f"sine or cosine of the non-finite interval "
                            f"[{lo}, {hi}]")
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    w_lo, w_hi = wave(lo), wave(hi)
    top = 1.0 if _crosses(lo, hi, peak) else max(w_lo, w_hi)
    bot = -1.0 if _crosses(lo, hi, trough) else min(w_lo, w_hi)
    return (bot, top)


def _isin(a):
    return _iwave(a, math.sin, 0.5 * math.pi, -0.5 * math.pi)


def _icos(a):
    return _iwave(a, math.cos, 0.0, math.pi)


class DualBox(Record):
    """Immutable set of duals: re in [re_lo, re_hi], ze in [ze_lo, ze_hi]."""

    __slots__ = _fields = ("re_lo", "re_hi", "ze_lo", "ze_hi")

    def __init__(self, re_lo: float, re_hi: float, ze_lo: float, ze_hi: float):
        if re_lo > re_hi or ze_lo > ze_hi:
            raise ValueError("box bounds out of order")
        self.re_lo, self.re_hi = re_lo, re_hi
        self.ze_lo, self.ze_hi = ze_lo, ze_hi

    @staticmethod
    def point(value: Dual) -> "DualBox":
        return DualBox(value.re, value.re, value.ze, value.ze)

    def intervals(self):
        """The box as the flat register that programs run on."""
        return (self.re_lo, self.re_hi, self.ze_lo, self.ze_hi)

    @property
    def width_re(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def width_ze(self) -> float:
        return self.ze_hi - self.ze_lo

    def contains(self, value: Dual, tol: float = 0.0) -> bool:
        return (self.re_lo - tol <= value.re <= self.re_hi + tol
                and self.ze_lo - tol <= value.ze <= self.ze_hi + tol)


# A register is (re_lo, re_hi, ze_lo, ze_hi); the ze part of a product is
# re1*ze2 + ze1*re2, each product an interval product.


def _box_mul(x, y):
    a_lo, a_hi, z_lo, z_hi = x
    b_lo, b_hi, w_lo, w_hi = y
    re_lo, re_hi = _span(a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    q_lo, q_hi = _span(a_lo * w_lo, a_lo * w_hi, a_hi * w_lo, a_hi * w_hi)
    s_lo, s_hi = _span(z_lo * b_lo, z_lo * b_hi, z_hi * b_lo, z_hi * b_hi)
    return (re_lo, re_hi, q_lo + s_lo, q_hi + s_hi)


def _box_pow(x, k: int):
    if k == 0:  # a raw x^0 is the constant 1
        return (1.0, 1.0, 0.0, 0.0)
    r, z = x[:2], x[2:]
    return _ipow(r, k) + _iscale(_imul(_ipow(r, k - 1), z), float(k))


def _box_prim(name: str, x):
    r, z = x[:2], x[2:]
    if name == "exp":
        er = _iexp(r)
        return er + _imul(z, er)
    if name == "sin":
        return _isin(r) + _imul(z, _icos(r))
    return _icos(r) + _ineg(_imul(z, _isin(r)))


BOXES = (
    lambda value: (value.re, value.re, value.ze, value.ze),
    lambda x: (-x[1], -x[0], -x[3], -x[2]),
    lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]),
    lambda x, y: (x[0] - y[1], x[1] - y[0], x[2] - y[3], x[3] - y[2]),
    _box_mul, _box_pow, _box_prim)
