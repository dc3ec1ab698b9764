"""Dual real scalars, their two partial orders, and dual vectors.

The scalar ring is the plane ``R + R*eps`` with ``eps**2 == 0``; ``re``
is the real part, ``ze`` the zero-divisor part.  The ring carries two
partial orders selected by :class:`Theta`: under type 1 the ze axis runs
alongside the real axis, under type 2 it runs against it.  Everything
downstream (interval endpoints, volumes, Darboux sums, tensor
coefficients) is built out of these scalars.
"""

from __future__ import annotations

import math
from enum import Enum, IntEnum
from numbers import Real


class Theta(IntEnum):
    """Selects one of the two partial orders on the dual reals."""

    TYPE1 = 1
    TYPE2 = 2

    def __init__(self, value: int):
        # the orientation of the ze axis under this order (+1 or -1), an
        # attribute of each member, as it is read once or more per term
        self.sign = 1 if value == 1 else -1


class Ordering(Enum):
    """Four-valued outcome of comparing under a partial order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class Record:
    """Base of the value classes: plain slotted classes with hand-written
    ``__init__``s, whose `_fields` name their fields in order.  As a
    frozen dataclass would, a record compares, hashes and pickles as the
    tuple of its fields, and prints as ``Name(field=value, ...)``.
    Records are immutable by convention, unguarded: a ``__setattr__``
    guard would cost every construction.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join([f"{name}={getattr(self, name)!r}"
                           for name in self._fields])
        return f"{type(self).__name__}({inner})"

    def __reduce__(self):
        return type(self), self._values()


class Dual(Record):
    """Dual real number ``re + ze*eps`` with ``eps**2 == 0``; immutable.

    Supports ``+``, ``-``, ``*`` and nonnegative integer powers.
    Division is deliberately absent: the ring has zero divisors and
    nothing in this package needs it.
    """

    _fields = ("re", "ze")
    # not a field: a pinned point's weight table, see darboux._axis_weights
    __slots__ = _fields + ("_weights",)

    def __init__(self, re: float, ze: float = 0.0):
        self.re, self.ze = re, ze

    def __add__(self, other: "Dual | Real") -> "Dual":
        other = _as_dual_or_none(other)
        if other is None:
            return NotImplemented
        return Dual(self.re + other.re, self.ze + other.ze)

    __radd__ = __add__

    def __sub__(self, other: "Dual | Real") -> "Dual":
        other = _as_dual_or_none(other)
        if other is None:
            return NotImplemented
        return Dual(self.re - other.re, self.ze - other.ze)

    def __rsub__(self, other: "Dual | Real") -> "Dual":
        other = _as_dual_or_none(other)
        if other is None:
            return NotImplemented
        return Dual(other.re - self.re, other.ze - self.ze)

    def __mul__(self, other: "Dual | Real") -> "Dual":
        other = _as_dual_or_none(other)
        if other is None:
            return NotImplemented
        return Dual(self.re * other.re, self.re * other.ze + self.ze * other.re)

    __rmul__ = __mul__

    def __neg__(self) -> "Dual":
        return Dual(-self.re, -self.ze)

    def __pow__(self, exponent: int) -> "Dual":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers of dual numbers are not defined")
        if exponent == 0:
            return ONE
        # (a + b*eps)**k == a**k + k*a**(k-1)*b*eps
        return Dual(self.re ** exponent,
                    exponent * self.re ** (exponent - 1) * self.ze)

    def is_zero(self) -> bool:
        return self.re == 0.0 and self.ze == 0.0

    def __str__(self) -> str:
        if self.ze == 0:
            return repr(float(self.re))
        sign = "+" if self.ze > 0 else "-"
        return f"{float(self.re)!r}{sign}{abs(float(self.ze))!r}*eps"


ZERO = Dual(0.0)
ONE = Dual(1.0)
EPS = Dual(0.0, 1.0)


def _as_dual_or_none(value) -> Dual | None:
    if isinstance(value, Dual):
        return value
    # an exact float or int needs no ABC check; float() of a float is it
    if value.__class__ is float or value.__class__ is int:
        return Dual(float(value))
    if isinstance(value, Real):
        return Dual(float(value))
    return None


def as_dual(value) -> Dual:
    """Coerce a real number to a dual scalar; pass duals through."""
    dual = _as_dual_or_none(value)
    if dual is None:
        raise TypeError(f"cannot interpret {value!r} as a dual number")
    return dual


def theta_cmp(x: Dual, y: Dual, theta: Theta) -> Ordering:
    """Compare two dual numbers under the type-theta partial order.

    Type 1: x > y iff (re x > re y and ze x >= ze y)
                   or (re x = re y and ze x > ze y).
    Type 2 is the same with the ze inequalities flipped.
    """
    if x.re == y.re and x.ze == y.ze:
        return Ordering.EQUAL
    if _strictly_greater(x, y, theta):
        return Ordering.GREATER
    if _strictly_greater(y, x, theta):
        return Ordering.LESS
    return Ordering.INCOMPARABLE


def _strictly_greater(x: Dual, y: Dual, theta: Theta) -> bool:
    dz = theta.sign * (x.ze - y.ze)
    if x.re > y.re:
        return dz >= 0
    return x.re == y.re and dz > 0


class DualVec:
    """Point of the dual n-space; immutable, componentwise module ops."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Dual | Real]):
        comps = tuple(as_dual(c) for c in components)
        if not comps:
            raise ValueError("a dual vector needs at least one component")
        self.components: tuple[Dual, ...] = comps

    @staticmethod
    def unit(n: int, index: int) -> "DualVec":
        """Standard basis vector e_index (0-based) in dual n-space."""
        if not 0 <= index < n:
            raise ValueError("basis index out of range")
        return DualVec(ONE if i == index else ZERO for i in range(n))

    @staticmethod
    def zero(n: int) -> "DualVec":
        return DualVec(ZERO for _ in range(n))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Dual]:
        return iter(self.components)

    def __getitem__(self, index: int) -> Dual:
        return self.components[index]

    def __add__(self, other: "DualVec") -> "DualVec":
        if not isinstance(other, DualVec):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError("vector length mismatch")
        return DualVec(a + b for a, b in zip(self, other))

    def __sub__(self, other: "DualVec") -> "DualVec":
        if not isinstance(other, DualVec):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError("vector length mismatch")
        return DualVec(a - b for a, b in zip(self, other))

    def __mul__(self, scalar: Dual | Real) -> "DualVec":
        s = _as_dual_or_none(scalar)
        if s is None:
            return NotImplemented
        return DualVec(s * c for c in self)

    __rmul__ = __mul__

    def __neg__(self) -> "DualVec":
        return DualVec(-c for c in self)

    def __eq__(self, other) -> bool:
        return isinstance(other, DualVec) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"DualVec({self.components!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self) + ")"


def vec_norm(v: DualVec) -> float:
    """Norm of a dual vector: sqrt(2*sum(re_i^2) + sum(ze_i^2))."""
    return math.sqrt(2.0 * sum(c.re * c.re for c in v)
                     + sum(c.ze * c.ze for c in v))


def nbhd_contains(center: DualVec, radius: float, point: DualVec,
                  deleted: bool = False) -> bool:
    """Whether `point` lies in the (optionally deleted) radius-ball at `center`."""
    if not radius > 0:  # NaN included
        raise ValueError("neighborhood radius must be positive")
    if len(center) != len(point):
        raise ValueError("vector length mismatch")
    if deleted and point == center:
        return False
    return vec_norm(point - center) < radius
