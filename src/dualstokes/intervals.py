"""Interval enclosures: dual boxes, and one interval step per instruction.

:func:`.expr.eval_enclosure` and the Darboux sums run an expression's
straight-line program (see :func:`.expr.lower_expr`) over boxes, one
:func:`enclose_step` per instruction.  Plain real intervals are
``(lo, hi)`` tuples; a :class:`DualBox` pairs one for each part.
Rounding is to nearest (no outward rounding), so enclosures are sound
up to roundoff, which is all the integration layer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _isin(a):
    lo, hi = a
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    s_lo, s_hi = math.sin(lo), math.sin(hi)
    top = 1.0 if _crosses(lo, hi, 0.5 * math.pi) else max(s_lo, s_hi)
    bot = -1.0 if _crosses(lo, hi, -0.5 * math.pi) else min(s_lo, s_hi)
    return (bot, top)


def _icos(a):
    lo, hi = a
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    c_lo, c_hi = math.cos(lo), math.cos(hi)
    top = 1.0 if _crosses(lo, hi, 0.0) else max(c_lo, c_hi)
    bot = -1.0 if _crosses(lo, hi, math.pi) else min(c_lo, c_hi)
    return (bot, top)


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


def enclose_step(ins: tuple, regs: list, args: Sequence):
    """Run one instruction over intervals: (re interval, ze interval).

    `regs` holds the results of earlier instructions, and `args[i]` the
    (re interval, ze interval) pair of variable ``x(i+1)``.
    """
    op, a, b, _ = ins
    match op:
        case "const":
            return ((a.re, a.re), (a.ze, a.ze))
        case "var":
            return args[a]
        case "neg":
            r, z = regs[a]
            return (_ineg(r), _ineg(z))
        case "add":
            (r1, z1), (r2, z2) = regs[a], regs[b]
            return (_iadd(r1, r2), _iadd(z1, z2))
        case "sub":
            (r1, z1), (r2, z2) = regs[a], regs[b]
            return (_isub(r1, r2), _isub(z1, z2))
        case "mul":
            (r1, z1), (r2, z2) = regs[a], regs[b]
            return (_imul(r1, r2), _iadd(_imul(r1, z2), _imul(z1, r2)))
        case "pow":
            r, z = regs[a]
            ze_part = _iscale(_imul(_ipow(r, b - 1), z), float(b))
            return (_ipow(r, b), ze_part)
        case "exp":
            r, z = regs[a]
            er = _iexp(r)
            return (er, _imul(z, er))
        case "sin":
            r, z = regs[a]
            return (_isin(r), _imul(z, _icos(r)))
        case "cos":
            r, z = regs[a]
            return (_icos(r), _ineg(_imul(z, _isin(r))))
    raise TypeError(f"not an instruction: {ins!r}")
