"""Singular cubes over inflated unit domains, and integer chains of them.

The model k-cube of type theta with inflation r is the rectangle
``[0, b]^k`` where ``b = 1 + r*eps`` for the type-1 order and
``b = 1 - r*eps`` for type-2; ``r = 0`` recovers the classical unit
cube.  A singular cube is a symbolic map from that domain into dual
n-space; faces substitute an endpoint for one coordinate, and the
boundary is the usual signed sum of faces, built in one pass over a
chain's terms (a cube counts as its one-term chain).

Chains are finite integer combinations of cubes sharing one
``(theta, r, k, n)`` signature; ``Chain(...)`` is their one constructor
and checks every term.  Normalization merges terms whose maps agree on a
fixed pseudo-random sample of the domain — that is what lets the
geometric cancellations in a double boundary actually cancel, since
composed substitutions need not be syntactically identical.  Each
domain's sample is built once per ``(k, b.ze)``, for the 256 most
recently used, and within one normalization each term's map is
evaluated at most once per sample point, on float pairs, only when a
comparison reaches that point.  A
sorted index of each group's first value lets a term skip every group
too far from it to agree, and a term whose map is identical to an
earlier term's (the same interned nodes) skips the comparisons (see
:func:`chain_normalize`); both are exact.
"""

from __future__ import annotations

import bisect
import functools
import math
import random

from .darboux import ThetaRectangle, make_interval
from .dual import Dual, Record, Theta, ZERO
# compose is unused here but stays a module attribute: the benchmark's
# tracer (bench/spans.py) rebinds cubes.compose.
from .expr import Expr, ExprMap, compose

_FINGERPRINT_SEED = 0xC0BE
_FINGERPRINT_POINTS = 16
MERGE_TOL = 1e-9


class CubeDomain(Record):
    """The immutable model domain: k axes of [0, 1 + (sign of theta)*r*eps]."""

    __slots__ = _fields = ("theta", "r", "k")

    def __init__(self, theta: Theta, r: float, k: int):
        self.theta, self.r, self.k = Theta(theta), float(r), k
        if not 0 <= self.r < math.inf:
            raise ValueError("inflation must be finite and nonnegative")
        if k < 0:
            raise ValueError("dimension must be nonnegative")

    @property
    def b(self) -> Dual:
        return Dual(1.0, self.theta.sign * self.r)

    def rectangle(self) -> ThetaRectangle:
        if self.k == 0:
            raise ValueError("a 0-dimensional domain has no rectangle")
        side = make_interval(self.theta, ZERO, self.b)
        return ThetaRectangle(self.theta, (side,) * self.k)

    def sample_points(self) -> tuple[tuple[Dual, ...], ...]:
        """Fixed pseudo-random points of the domain, for map comparison."""
        return _domain_points(*self._sample_key())

    def _sample_key(self) -> tuple:
        # the sign is only a cache key: 0.0 == -0.0, but their points differ
        ze_span = self.b.ze
        return (self.k, ze_span, math.copysign(1.0, ze_span))


# one entry per (k, b.ze), so a sweep over r would grow an unbounded cache
@functools.lru_cache(maxsize=256)
def _domain_points(k: int, ze_span: float, ze_sign: float):
    if k == 0:
        return ((),)
    rng = random.Random(_FINGERPRINT_SEED ^ (k * 1009))
    return tuple(
        tuple(Dual(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * ze_span)
              for _ in range(k))
        for _ in range(_FINGERPRINT_POINTS))


@functools.lru_cache(maxsize=256)
def _domain_pairs(k: int, ze_span: float, ze_sign: float):
    # the same points, each coordinate as its (re, ze) float pair
    return tuple(tuple((c.re, c.ze) for c in point)
                 for point in _domain_points(k, ze_span, ze_sign))


class SingularCube(Record):
    """An immutable symbolic map from the model domain into dual n-space;
    its signature is taken once, and kept outside the fields."""

    _fields = ("domain", "mapping")
    __slots__ = _fields + ("_signature",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity

    def __init__(self, domain: CubeDomain, mapping: ExprMap):
        if mapping.arity != domain.k:
            raise ValueError(
                f"map takes {mapping.arity} variables but the domain "
                f"has dimension {domain.k}")
        self.domain, self.mapping = domain, mapping
        self._signature = (domain.theta, domain.r, domain.k, mapping.dim_out)

    theta = property(lambda self: self.domain.theta)
    r = property(lambda self: self.domain.r)
    k = property(lambda self: self.domain.k)
    n = property(lambda self: self.mapping.dim_out)

    def signature(self) -> tuple:
        return self._signature


def standard_cube(theta: Theta, r: float, k: int) -> SingularCube:
    """The identity cube (for k = 0: the origin of the dual line)."""
    domain = CubeDomain(Theta(theta), r, k)
    if k == 0:
        mapping = ExprMap((Expr.constant(0.0, 0),))
    else:
        mapping = ExprMap.identity(k)
    return SingularCube(domain, mapping)


def face(cube: SingularCube, axis: int, side: int) -> SingularCube:
    """Restrict to one face: `axis` is 1-based, `side` is 0 or 1.

    Coordinate `axis` is pinned to 0 or to the inflated endpoint b, and
    the remaining coordinates close ranks, so the face is a cube of one
    dimension less over the same (theta, r).  Its map is one run of the
    cube's map program on nodes (:meth:`.expr.ExprMap.compose`).
    """
    k = cube.k
    if k == 0:
        raise ValueError("a 0-dimensional cube has no faces")
    if not 1 <= axis <= k:
        raise ValueError(f"axis must be in 1..{k}")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    pinned = ZERO if side == 0 else cube.domain.b
    repl = [Expr.variable(i, k - 1) for i in range(k - 1)]
    repl.insert(axis - 1, Expr.constant(pinned, k - 1))
    mapping = cube.mapping.compose(ExprMap(repl))
    return SingularCube(CubeDomain(cube.theta, cube.r, k - 1), mapping)


class Chain(Record):
    """Immutable integer combination of cubes sharing one (theta, r, k, n)
    signature."""

    __slots__ = _fields = ("theta", "r", "k", "n", "terms")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity

    def __init__(self, theta: Theta, r: float, k: int, n: int, terms: tuple):
        signature = (Theta(theta), float(r), k, n)
        self.theta, self.r, self.k, self.n = signature
        kept = []
        for weight, cube in tuple(terms):
            if not isinstance(weight, int) or isinstance(weight, bool):
                raise TypeError("chain weights must be integers")
            if cube._signature != signature:
                raise ValueError(
                    f"cube signature {cube.signature()} does not match "
                    f"chain signature {signature}")
            if weight != 0:
                kept.append((weight, cube))
        self.terms = tuple(kept)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, factor: int) -> "Chain":
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("chain weights must be integers")
        return Chain(self.theta, self.r, self.k, self.n,
                     tuple((factor * w, c) for w, c in self.terms))

    def __add__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        if (self.theta, self.r, self.k, self.n) != \
                (other.theta, other.r, other.k, other.n):
            raise ValueError("chains must share their signature")
        return Chain(self.theta, self.r, self.k, self.n,
                     self.terms + other.terms)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def __sub__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        return self + (-other)


def chain_of(cube: SingularCube, weight: int = 1) -> Chain:
    return Chain(cube.theta, cube.r, cube.k, cube.n, ((weight, cube),))


def boundary(obj) -> Chain:
    """Signed sum of faces, with weight (-1)^(axis + side); a cube counts
    as its one-term chain."""
    if isinstance(obj, SingularCube):
        terms = ((1, obj),)
    elif isinstance(obj, Chain):
        terms = obj.terms
    else:
        raise TypeError("expected a cube or a chain")
    if obj.k == 0:
        raise ValueError("a 0-dimensional cube or chain has no boundary")
    faces = tuple((-weight if (axis + side) % 2 else weight,
                   face(cube, axis, side))
                  for weight, cube in terms
                  for axis in range(1, obj.k + 1) for side in (0, 1))
    return Chain(obj.theta, obj.r, obj.k - 1, obj.n, faces)


class _Fingerprint:
    """A cube's map values at its domain's sample points, evaluated on demand.

    ``values[i]`` holds the components at point i flattened to
    ``(re, ze, re, ze, ...)``; comparisons walk the points in order, so
    the values evaluated so far are always a prefix.
    """

    __slots__ = ("cube", "points", "values")

    def __init__(self, cube: SingularCube):
        self.cube = cube
        self.points = _domain_pairs(*cube.domain._sample_key())
        self.values: list[tuple[float, ...]] = []

    def at(self, i: int) -> tuple[float, ...]:
        if i == len(self.values):
            self.values.append(self.cube.mapping.flat_values(self.points[i]))
        return self.values[i]

    def key(self) -> float:
        """The first float at the first point: the candidate index's key."""
        return self.at(0)[0]


def _agree(left: _Fingerprint, right: _Fingerprint, tol: float) -> bool:
    """Maps of one signature within `tol` at every point, in point order."""
    for i in range(len(left.points)):
        for x, y in zip(left.at(i), right.at(i)):
            if not abs(x - y) <= tol:  # so NaN and inf never agree
                return False
    return True


def cubes_equal(left: SingularCube, right: SingularCube,
                tol: float = MERGE_TOL) -> bool:
    """Same signature and maps agreeing on the domain's sample points."""
    if left.signature() != right.signature():
        return False
    return _agree(_Fingerprint(left), _Fingerprint(right), tol)


def chain_normalize(chain: Chain, tol: float = MERGE_TOL) -> Chain:
    """Merge terms with pointwise-equal cubes and drop zero weights.

    Each term joins the first earlier group, in creation order, whose
    cube agrees with it (see `cubes_equal`), or else starts a group; a
    group keeps its first cube and sums its weights.

    A term whose map is identical to an earlier term's (the same
    interned component nodes) has that term's values, so it joins the
    group that term joined, or the group it started when
    ``_agree(first, first, tol)`` holds for that group's first
    fingerprint, and otherwise goes on as below.

    Only groups near the term are compared.  A sorted index holds each
    group's key, the first float of its map at the first sample point,
    and a term with key ``x`` is compared only with the groups whose key
    lies in ``[x - 2*tol, x + 2*tol]``.  That loses no merge: agreeing
    needs ``abs(x - y) <= tol`` in floats, which puts the exact
    difference below ``2*tol``, and the window's bounds, each rounded
    once, still hold every such ``y``.  A NaN key agrees with nothing
    and is left out of the index; a NaN bound (infinite ``x`` and
    ``tol``) falls back to comparing every group.

    A map is evaluated at a sample point only when a comparison reaches
    it, and at most once per point, so a one-term chain evaluates
    nothing: the first group's key is read when a second term arrives.
    """
    groups: list[list] = []  # [weight, fingerprint], in creation order
    keys: list[float] = []   # the index: sorted keys of the groups ...
    ids: list[int] = []      # ... and those groups' places in `groups`
    keyed = 0                # groups whose key has been read
    # a map's component nodes -> (its group, whether it started the group)
    seen: dict[tuple, tuple[int, bool]] = {}
    for weight, cube in chain.terms:
        nodes = tuple(c.node for c in cube.mapping.components)
        if nodes in seen:
            g, started = seen[nodes]
            first = groups[g][1]
            if not started or _agree(first, first, tol):
                groups[g][0] += weight
                continue
        mine = _Fingerprint(cube)
        near = ()
        if groups:
            if keyed < len(groups):  # the group the last term started
                key = groups[keyed][1].key()
                if key == key:  # a NaN key agrees with nothing
                    at = bisect.bisect_right(keys, key)
                    keys.insert(at, key)
                    ids.insert(at, keyed)
                keyed += 1
            near = _near(keys, ids, mine.key(), tol, len(groups))
        for g in near:
            if _agree(groups[g][1], mine, tol):
                groups[g][0] += weight
                seen.setdefault(nodes, (g, False))
                break
        else:
            seen.setdefault(nodes, (len(groups), True))
            groups.append([weight, mine])
    return Chain(chain.theta, chain.r, chain.k, chain.n,
                 tuple((w, f.cube) for w, f in groups))


def _near(keys: list[float], ids: list[int], x: float, tol: float,
          count: int):
    """The groups, in creation order, that a term with key `x` may agree
    with; `count` groups exist."""
    if x != x:  # NaN agrees with nothing
        return ()
    lo, hi = x - 2 * tol, x + 2 * tol
    if lo != lo or hi != hi:
        return range(count)
    return sorted(ids[bisect.bisect_left(keys, lo):
                      bisect.bisect_right(keys, hi)])
