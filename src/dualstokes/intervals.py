"""Interval enclosures: dual boxes, and the box arithmetic.

:data:`BOXES` is the arithmetic under which the expression interpreter
(:func:`.expr.run_steps`) runs a straight-line program (see
:func:`.expr.lower_expr`) over boxes, for :func:`.expr.eval_enclosure`
and the Darboux sums alike.  Plain real intervals are ``(lo, hi)``
tuples; a :class:`DualBox` pairs one for each part, and a register of
:data:`BOXES` holds the pair as ``(re interval, ze interval)``.  Rounding
is to nearest (no outward rounding), so enclosures are sound up to
roundoff, which is all the integration layer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dual import Dual

_TWO_PI = 2.0 * math.pi


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _isub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _ineg(a):
    return (-a[1], -a[0])


def _imul(a, b):
    p0 = a[0] * b[0]
    p1 = a[0] * b[1]
    p2 = a[1] * b[0]
    p3 = a[1] * b[1]
    return (min(p0, p1, p2, p3), max(p0, p1, p2, p3))


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


@dataclass(frozen=True)
class DualBox:
    """Axis-aligned set of duals: re in [re_lo, re_hi], ze in [ze_lo, ze_hi]."""

    re_lo: float
    re_hi: float
    ze_lo: float
    ze_hi: float

    def __post_init__(self):
        if self.re_lo > self.re_hi or self.ze_lo > self.ze_hi:
            raise ValueError("box bounds out of order")

    @staticmethod
    def point(value: Dual) -> "DualBox":
        return DualBox(value.re, value.re, value.ze, value.ze)

    def intervals(self):
        """The box as the (re interval, ze interval) pair that programs run on."""
        return ((self.re_lo, self.re_hi), (self.ze_lo, self.ze_hi))

    @property
    def width_re(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def width_ze(self) -> float:
        return self.ze_hi - self.ze_lo

    def contains(self, value: Dual, tol: float = 0.0) -> bool:
        return (self.re_lo - tol <= value.re <= self.re_hi + tol
                and self.ze_lo - tol <= value.ze <= self.ze_hi + tol)


def _box_mul(x, y):
    (r1, z1), (r2, z2) = x, y
    return (_imul(r1, r2), _iadd(_imul(r1, z2), _imul(z1, r2)))


def _box_pow(x, k: int):
    r, z = x
    ze_part = _iscale(_imul(_ipow(r, k - 1), z), float(k))
    return (_ipow(r, k), ze_part)


def _box_prim(name: str, x):
    r, z = x
    if name == "exp":
        er = _iexp(r)
        return (er, _imul(z, er))
    if name == "sin":
        return (_isin(r), _imul(z, _icos(r)))
    return (_icos(r), _ineg(_imul(z, _isin(r))))


BOXES = (
    lambda value: ((value.re, value.re), (value.ze, value.ze)),
    lambda x: (_ineg(x[0]), _ineg(x[1])),
    lambda x, y: (_iadd(x[0], y[0]), _iadd(x[1], y[1])),
    lambda x, y: (_isub(x[0], y[0]), _isub(x[1], y[1])),
    _box_mul, _box_pow, _box_prim)
