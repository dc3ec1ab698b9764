"""Singular cubes over inflated unit domains, and integer chains of them.

The model k-cube of type theta with inflation r is the rectangle
``[0, b]^k`` where ``b = 1 + r*eps`` for the type-1 order and
``b = 1 - r*eps`` for type-2; ``r = 0`` recovers the classical unit
cube.  A singular cube is a symbolic map from that domain into dual
n-space; a face is the cube's map with one coordinate pinned to an
endpoint (:meth:`.expr.ExprMap.pin`), which at any depth, faces of faces
included, runs its root cube's one program and builds no nodes of its
own, and the boundary is the usual signed sum of faces, built in one
pass over a chain's terms (a cube counts as its one-term chain).

Chains are finite integer combinations of cubes sharing one
``(theta, r, k, n)`` signature; ``Chain(...)`` is their one constructor
and checks every term.  Normalization merges terms whose maps agree on a
fixed pseudo-random sample of the domain — that is what lets the
geometric cancellations in a double boundary actually cancel, since
twin faces of neighbouring cubes are different maps with equal values.
Each domain's sample is one table built once per ``(k, b.ze)``, for the
256 most recently used, and within one normalization each term's map is
evaluated at most once per sample point, on float pairs, only when a
comparison reaches that point: point 0 in one run, and points 1..15 in
one more run on lane registers.  A sorted index of each group's key, a
weighted sum of all the floats of its map at point 0, lets a term skip
every group too far from it to agree; the window is wide enough for the
key's own roundings, so that is exact (see :func:`chain_normalize`).

A domain object keeps its rectangle, its sample table and the domain of
its faces once built, so the cubes of a scenario, which share one
domain, share one rectangle, and all their faces one face domain.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random

from .darboux import ThetaRectangle, make_interval
from .dual import Dual, Record, Theta, ZERO
# compose is unused here but stays a module attribute: the benchmark's
# tracer (bench/spans.py) rebinds cubes.compose.
from .expr import (TINY, _PAIRS, Expr, ExprMap, _check_natural, compose,
                   listwise)

_FINGERPRINT_SEED = 0xC0BE
_FINGERPRINT_POINTS = 16
MERGE_TOL = 1e-9


class CubeDomain(Record):
    """The immutable model domain: k axes of [0, 1 + (sign of theta)*r*eps].

    Its far end `b` is built with it, and its side interval, rectangle,
    sample table and face domain on first use, all kept outside the
    fields, so they neither compare nor pickle: every cube and face over
    one domain object shares them.  They hang on the object, not on a
    table keyed by ``(theta, r, k)``, because ``0.0 == -0.0`` while their
    endpoints and samples differ.
    """

    _fields = ("theta", "r", "k")
    __slots__ = _fields + ("b", "_side", "_rectangle", "_sample", "_faces")

    def __init__(self, theta: Theta, r: float, k: int):
        if theta.__class__ is not Theta:
            theta = Theta(theta)
        self.theta, self.r, self.k = theta, float(r), k
        if not 0 <= self.r < math.inf:
            raise ValueError("inflation must be finite and nonnegative")
        _check_natural(k, "dimensions")
        self.b = Dual(1.0, theta.sign * self.r)
        self._side = self._rectangle = self._sample = self._faces = None

    def rectangle(self) -> ThetaRectangle:
        if self.k == 0:
            raise ValueError("a 0-dimensional domain has no rectangle")
        if self._rectangle is None:
            self._rectangle = ThetaRectangle(self.theta, self.axes(()))
        return self._rectangle

    def axes(self, pins: tuple) -> list:
        """The axes of :func:`.darboux.polynomial_estimate` for a cube over
        this domain whose map pins its root map's variables at `pins`,
        ``(index, value)`` pairs (:meth:`.expr.ExprMap.pin`): one per
        variable of the root, the side [0, b] where it is free and the
        pinned value where it is pinned."""
        if self._side is None:
            self._side = make_interval(self.theta, ZERO, self.b)
        axes = [self._side] * (self.k + len(pins))
        for index, value in pins:
            axes[index] = value
        return axes

    def sample_points(self) -> tuple[tuple[Dual, ...], ...]:
        """Fixed pseudo-random points of the domain, for map comparison."""
        return self._table()[0]

    def _table(self) -> tuple:
        if self._sample is None:
            # the sign is only a cache key: 0.0 == -0.0, but their points
            # differ
            ze_span = self.b.ze
            self._sample = _domain_sample(self.k, ze_span,
                                          math.copysign(1.0, ze_span))
        return self._sample

    def _face_domain(self) -> tuple:
        """The domain of this domain's faces, and the endpoints 0 and b
        that its sides 0 and 1 pin."""
        if self._faces is None:
            self._faces = (CubeDomain(self.theta, self.r, self.k - 1),
                           (ZERO, self.b))
        return self._faces


# one entry per (k, b.ze), so a sweep over r would grow an unbounded cache
@functools.lru_cache(maxsize=256)
def _domain_sample(k: int, ze_span: float, ze_sign: float):
    """The sample points as duals, the same points with each coordinate as
    its (re, ze) float pair, and points 1.. as one lane register per
    variable (see :data:`_LANE_ARITH`)."""
    rng = random.Random(_FINGERPRINT_SEED ^ (k * 1009))
    points = tuple(  # a 0-dimensional domain is one point
        tuple(Dual(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * ze_span)
              for _ in range(k))
        for _ in range(_FINGERPRINT_POINTS if k else 1))
    pairs = tuple(tuple((c.re, c.ze) for c in point) for point in points)
    return points, pairs, tuple(zip(*pairs[1:]))


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
    dimension less over the same (theta, r), on the one face domain of
    the cube's domain object (:class:`CubeDomain`).  Its map is the
    cube's map with that argument pinned (:meth:`.expr.ExprMap.pin`): it
    runs the program of the cube's root map (its own, unless the cube is
    a face) with each endpoint as a constant of each arithmetic, and it
    builds the nodes composing with the endpoints would only when its
    components are asked for.  Its integral reads the root's register,
    with each endpoint as a point axis (:meth:`CubeDomain.axes`).
    """
    k = cube.k
    _check_natural(axis, "axes")
    _check_natural(side, "sides")
    if k == 0:
        raise ValueError("a 0-dimensional cube has no faces")
    if not 1 <= axis <= k:
        raise ValueError(f"axis must be in 1..{k}")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    return _face(cube, axis - 1, side)


def _face(cube: SingularCube, index: int, side: int) -> SingularCube:
    domain, ends = cube.domain._face_domain()
    return SingularCube(domain, cube.mapping.pin(index, ends[side]))


class Chain(Record):
    """Immutable integer combination of cubes sharing one (theta, r, k, n)
    signature."""

    __slots__ = _fields = ("theta", "r", "k", "n", "terms")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity

    def __init__(self, theta: Theta, r: float, k: int, n: int, terms: tuple):
        if theta.__class__ is not Theta:
            theta = Theta(theta)
        signature = (theta, float(r), k, n)
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
                   _face(cube, axis - 1, side))
                  for weight, cube in terms
                  for axis in range(1, obj.k + 1) for side in (0, 1))
    return Chain(obj.theta, obj.r, obj.k - 1, obj.n, faces)


# Lane registers: a dual value at each of the sample points 1..15 as the
# list of its (re, ze) pairs, so one run of a map's program evaluates all
# fifteen points, each by the point arithmetic of .expr, with its bits and
# its OverflowError.
_LANES = _FINGERPRINT_POINTS - 1


_LANE_ARITH = listwise(_PAIRS, _LANES)


class _Fingerprint:
    """A cube's map values at its domain's sample points, evaluated on demand.

    ``values[i]`` holds the components at point i flattened to
    ``(re, ze, re, ze, ...)``; comparisons walk the points in order, so
    the values evaluated so far are always a prefix.  Point 0 is one run
    of the map's program; the first comparison that passes it evaluates
    all the others in one run on lane registers, or, if that run raises
    ``OverflowError``, point by point, so an error surfaces at the point
    where it arises.
    """

    __slots__ = ("cube", "points", "lanes", "values", "_key")

    def __init__(self, cube: SingularCube):
        self.cube = cube
        _, self.points, self.lanes = cube.domain._table()
        self.values: list[tuple[float, ...]] = []
        self._key = None

    def at(self, i: int) -> tuple[float, ...]:
        values, mapping = self.values, self.cube.mapping
        if i == 1 == len(values):
            try:
                comps = mapping.run(_LANE_ARITH, self.lanes)
                values += [sum(point, ()) for point in zip(*comps)]
            except OverflowError:
                pass  # point by point, as below
        if i == len(values):
            values.append(sum(mapping.run(_PAIRS, self.points[i]), ()))
        return values[i]

    def key(self) -> float:
        """The candidate index's key: ``fsum`` of the floats at point 0,
        each times its weight (see :func:`_key_weights`); NaN when one of
        them is NaN, and inf when one is infinite and none is NaN."""
        if self._key is None:
            values = self.at(0)
            try:
                key = math.fsum(map(operator.mul,
                                    _key_weights(len(values))[0], values))
            except ValueError:  # inf + -inf
                key = math.inf
            if key - key != 0.0 and any(x != x for x in values):
                key = math.nan
            self._key = key
        return self._key


@functools.lru_cache(maxsize=None)
def _key_weights(count: int) -> tuple:
    """Weights for `count` floats, and their sum: the integers 1..count
    (a fixed, generic choice) times the power of two that brings their
    sum to at most 1/4, so each product and every partial sum of them
    stays finite for finite floats."""
    total = count * (count + 1) // 2
    scale = 0.25 / 2.0 ** max(total - 1, 0).bit_length()
    return tuple((i + 1) * scale for i in range(count)), total * scale


def _agree(left: _Fingerprint, right: _Fingerprint, tol: float) -> bool:
    """Maps of one signature within `tol` at every point, in point order;
    equal finite floats (their sum is finite) agree for `tol` >= 0."""
    equal_agrees = tol >= 0  # False for NaN
    for i in range(len(left.points)):
        xs, ys = left.at(i), right.at(i)
        if equal_agrees and xs == ys and (total := sum(xs)) - total == 0.0:
            continue
        for x, y in zip(xs, ys):
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

    Only groups near the term are compared.  A sorted index holds each
    group's key, a weighted sum of all the floats of its map at the first
    sample point (:meth:`_Fingerprint.key`), and a term is compared only
    with the groups whose key lies in its window (:func:`_near`).  That
    is exact: floats that agree differ by at most ``2*tol``, so the keys
    of agreeing maps differ by at most ``2*tol`` times the weights' sum
    plus the keys' own roundings, and the window's half-width bounds
    both, its own roundings included (the derivation is above
    :func:`_near`).  So no merge is lost, and the first agreeing group
    is the one found.  A group whose key is not
    finite is left out of the index: the weights keep the key of finite
    floats finite, so it has a NaN or an infinite value at point 0 and
    agrees with nothing unless ``tol`` is infinite, and then every term
    is compared with every group.

    A map is evaluated at a sample point only when a comparison reaches
    it, and at most once per point, in two runs unless the second
    overflows (see :class:`_Fingerprint`), so a one-term chain evaluates
    nothing: the first group's key is read when a second term arrives.
    """
    groups: list[list] = []  # [weight, fingerprint], in creation order
    keys: list[float] = []   # the index: sorted keys of the groups ...
    ids: list[int] = []      # ... and those groups' places in `groups`
    keyed = 0                # groups whose key has been read
    for weight, cube in chain.terms:
        mine = _Fingerprint(cube)
        near = ()
        if groups:
            if keyed < len(groups):  # the group the last term started
                key = groups[keyed][1].key()
                if key - key == 0.0:  # finite
                    at = bisect.bisect_right(keys, key)
                    keys.insert(at, key)
                    ids.insert(at, keyed)
                keyed += 1
            near = _near(keys, ids, mine, tol, len(groups))
        for g in near:
            if _agree(groups[g][1], mine, tol):
                groups[g][0] += weight
                break
        else:
            groups.append([weight, mine])
    return Chain(chain.theta, chain.r, chain.k, chain.n,
                 tuple((w, f.cube) for w, f in groups))


# The window of `_near` holds every agreeing key.  Let u = 2^-53, x and
# y the floats of two maps at point 0, w the weights, W their sum and X
# and Y the keys.  Agreeing needs abs(x_i - y_i) <= tol in floats at
# each i, which puts the exact difference at most 2*tol, so the exact
# weighted sums differ by at most 2*tol*W.  Each product w_i*x_i rounds
# once, by at most u*|w_i*x_i| or, if it underflows, 2^-1075, and fsum
# rounds their sum once more, by at most u times it.  With
# A = sum(w_i*|x_i|) <= W*max|x_i| and A(y) <= A(x) + 2*tol*W, that puts
# |X - Y| at most 2*tol*W*(1 + 3u) + 5u*A(x) + 3*len(x)*2^-1075.
# Rounding X -+ h moves the window's ends by at most u*(|X| + h), and
# |X| <= 1.01*W*max|x_i| + 1.01*len(x)*2^-1075.  So the half-width
#     h = (2*tol + max|x_i|*2^-48) * W * (1 + 2^-48) + len(x)*TINY,
# computed in floats with four roundings of at most u each (or 2^-1075
# where they underflow) on nonnegative values, is wide enough.
_SLACK = 1.0 + 2.0 ** -48


def _near(keys: list[float], ids: list[int], mine: _Fingerprint,
          tol: float, count: int):
    """The groups, in creation order, that the term `mine` may agree
    with; `count` groups exist.  None for a NaN key, which agrees with
    nothing; all of them when an end of the window is not finite (an
    infinite key, an infinite or NaN `tol`, or a half-width past the
    float range)."""
    x, values = mine.key(), mine.at(0)
    if x != x:  # NaN agrees with nothing
        return ()
    top = max(map(abs, values), default=0.0)
    h = ((2.0 * tol + top * 2.0 ** -48) * _key_weights(len(values))[1]
         * _SLACK + len(values) * TINY)
    lo, hi = x - h, x + h
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return range(count)
    return sorted(ids[bisect.bisect_left(keys, lo):
                      bisect.bisect_right(keys, hi)])
