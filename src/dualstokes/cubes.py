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
one more run on lane registers, made only where the polynomial
registers of the two maps' roots cannot prove that they agree at every
point (:func:`_proved`; its rounding bound is derived above it).  A
sorted index of each group's key, a weighted sum of all the floats of
its map at point 0, lets a term skip every group too far from it to
agree; the window is wide enough for the key's own roundings, so that
is exact (see :func:`chain_normalize`).

A domain object keeps its rectangle, its sample table and the domain of
its faces once built, so the cubes of a scenario, which share one
domain, share one rectangle, and all their faces one face domain.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random

from .darboux import ThetaInterval, ThetaRectangle, _axis_weights
from .dual import Dual, Record, Theta, ZERO
# compose is unused here but stays a module attribute: the benchmark's
# tracer (bench/spans.py) rebinds cubes.compose.
from .expr import (KEY_BITS, TINY, _BOUND_ORDER, _BOUNDS, _PAIRS, _POLYS, _U,
                   Expr, ExprMap, NotPolynomial, _check_natural, _poly_vars,
                   _up, compose, pair_columns)

_FINGERPRINT_SEED = 0xC0BE
_FINGERPRINT_POINTS = 16
MERGE_TOL = 1e-9


class CubeDomain(Record):
    """The immutable model domain: k axes of [0, 1 + (sign of theta)*r*eps].

    Its far end `b` is built with it, and its side interval, rectangle,
    sample table, face domain and reach on first use, all kept outside the
    fields, so they neither compare nor pickle: every cube and face over
    one domain object shares them.  They hang on the object, not on a
    table keyed by ``(theta, r, k)``, because ``0.0 == -0.0`` while their
    endpoints and samples differ.
    """

    _fields = ("theta", "r", "k")
    __slots__ = _fields + ("b", "_side", "_rectangle", "_sample", "_faces",
                           "_reach")

    def __init__(self, theta: Theta, r: float, k: int):
        if theta.__class__ is not Theta:
            theta = Theta(theta)
        self.theta, self.r, self.k = theta, float(r), k
        if not 0 <= self.r < math.inf:
            raise ValueError("inflation must be finite and nonnegative")
        _check_natural(k, "dimensions")
        self.b = Dual(1.0, theta.sign * self.r)
        self._side = self._rectangle = self._sample = self._faces = None
        self._reach = None

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
        if self._side is None:  # in order, as __init__ checks r
            side = self._side = object.__new__(ThetaInterval)
            side.theta, side.a, side.b = self.theta, ZERO, self.b
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
        that its sides 0 and 1 pin.  The face domain's side and its end b
        are this domain's objects, whose bits are the same, so the weight
        tables they keep serve the faces too.  It is built without the
        checks of ``__init__``, which this domain passed with the same
        theta and r (a domain with faces has k >= 1)."""
        if self._faces is None:
            faces = object.__new__(CubeDomain)
            faces.theta, faces.r, faces.k, faces.b, faces._side = (
                self.theta, self.r, self.k - 1, self.b, self.axes(())[0])
            faces._rectangle = faces._sample = faces._faces = faces._reach = None
            self._faces = faces, (ZERO, self.b)
        return self._faces

    def _sample_reach(self) -> float:
        """At least 1, and an upper bound on the norm ``|re| + |ze|`` of
        the end b and of every coordinate of the sample points."""
        if self._reach is None:
            b = self.b
            self._reach = max(1.0, _up(abs(b.re) + abs(b.ze)),
                              *[_up(abs(re) + abs(ze))
                                for point in self._table()[1]
                                for re, ze in point])
        return self._reach


# one entry per (k, b.ze), so a sweep over r would grow an unbounded cache
@functools.lru_cache(maxsize=256)
def _domain_sample(k: int, ze_span: float, ze_sign: float):
    """The sample points as duals, the same points with each coordinate as
    its (re, ze) float pair, and points 1.. as one lane register per
    variable, the (re list, ze list) of its columns (see
    :data:`_LANE_ARITH`)."""
    rng = random.Random(_FINGERPRINT_SEED ^ (k * 1009))
    points = tuple(  # a 0-dimensional domain is one point
        tuple(Dual(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * ze_span)
              for _ in range(k))
        for _ in range(_FINGERPRINT_POINTS if k else 1))
    pairs = tuple(tuple((c.re, c.ze) for c in point) for point in points)
    lanes = tuple(tuple(map(list, zip(*column)))
                  for column in zip(*pairs[1:]))
    return points, pairs, lanes


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
    domain, ends = cube.domain._face_domain()
    return SingularCube(domain, cube.mapping.pin(axis - 1, ends[side]))


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
    faces = []
    for weight, cube in terms:
        domain, ends = cube.domain._face_domain()
        pin = cube.mapping.pin
        faces += [(weight if (index + side) % 2 else -weight,
                   SingularCube(domain, pin(index, ends[side])))
                  for index in range(obj.k) for side in (0, 1)]
    return Chain(obj.theta, obj.r, obj.k - 1, obj.n, faces)


# Lane registers: a dual value at each of the sample points 1..15 as its
# columns (re list, ze list), so one run of a map's program evaluates all
# fifteen points, each by the point arithmetic of .expr, with its bits and
# its OverflowError.
_LANES = _FINGERPRINT_POINTS - 1


_LANE_ARITH = pair_columns(_LANES)


def _lane_points(comps: list) -> list[tuple[float, ...]]:
    """A lane run's component registers as points 1..15, each flattened
    to ``(re, ze, re, ze, ...)``."""
    return list(zip(*[column for comp in comps for column in comp]))


class _Fingerprint:
    """A cube's map values at its domain's sample points, evaluated on demand.

    ``values[i]`` holds the components at point i flattened to
    ``(re, ze, re, ze, ...)``; comparisons walk the points in order, so
    the values evaluated so far are always a prefix.  Point 0 is one run
    of the map's program; the first comparison that passes it and that
    the root registers cannot settle (:func:`_proved`) evaluates all the
    others in one run on lane registers, or, if that run raises
    ``OverflowError``, point by point, so an error surfaces at the point
    where it arises.
    """

    __slots__ = ("cube", "values", "_key", "_window", "_face")

    def __init__(self, cube: SingularCube):
        self.cube = cube
        self.values: list[tuple[float, ...]] = []
        self._key = self._face = None

    def at(self, i: int) -> tuple[float, ...]:
        values = self.values
        if i == len(values):
            mapping = self.cube.mapping
            _, points, lanes = self.cube.domain._table()
            if i == 1:
                try:
                    values += _lane_points(mapping.run(_LANE_ARITH, lanes))
                except OverflowError:
                    pass  # point by point, as below
            if i == len(values):
                values.append(sum(mapping.run(_PAIRS, points[i]), ()))
        return values[i]

    def key(self) -> float:
        """The candidate index's key: ``fsum`` of the floats at point 0,
        each times its weight (see :func:`_key_weights`); NaN when one of
        them is NaN, and inf when one is infinite and none is NaN.  The
        parts of the window's half-width that do not depend on the
        tolerance are kept with it, for :func:`_near`."""
        if self._key is None:
            values = self.at(0)
            weights, total, tiny = (_KEY_WEIGHTS[len(values)] if len(
                values) < len(_KEY_WEIGHTS) else _key_weights(len(values)))
            try:
                key = math.fsum(map(operator.mul, weights, values))
            except ValueError:  # inf + -inf
                key = math.inf
            if key - key == 0.0:  # finite, so is every value: no NaN scan
                top = abs(max(max(values), -min(values))) if values else 0.0
            else:
                if any(x != x for x in values):
                    key = math.nan
                top = max(map(abs, values))
            self._window = top * 2.0 ** -48, total, tiny
            self._key = key
        return self._key

    def face(self, proofs: dict):
        """``(registers, zero, root, reach, error, degree)`` for
        :func:`_proved`, or None where the root's program is no
        polynomial within the limits: the polynomial register of each
        component with every pin substituted, in the map's own variables,
        except for a map whose one pin is at 0, whose registers are its
        root's and whose `zero` is that pin's variable (:func:`_proved`
        drops its terms as it reads them; else `zero` is None); the root's
        proof record (:class:`_Root`); a bound, at least 1, on the 1-norm
        of every sample coordinate of the domain, of its end b and of
        every pinned value; the registers' certified error; and their
        degree."""
        if self._face is None:
            mapping = self.cube.mapping
            root, pins = mapping._pin or (mapping, ())
            self._face = False
            _component_registers(root, proofs)  # its proof record
            if not (certified := (record := proofs[id(root)]).certified):
                return None
            (error, degree), zero = certified, None
            regs, reach = record.regs, self.cube.domain._sample_reach()
            if len(pins) == 1 and not (pins[0][1].re or pins[0][1].ze):
                zero = pins[0][0]
            elif pins:
                try:
                    for index, value in pins[::-1]:
                        if value.re or value.ze:  # a pin at 0 has norm 0
                            norm = _up(abs(value.re) + abs(value.ze))
                            if not norm <= reach:  # NaN: the bounds fail
                                reach = norm
                            error = None  # products change orders, shadows
                        regs = _pin_registers(regs, index, value, degree)
                    if error is None and (error := _certified(regs)) is None:
                        return None
                except OverflowError:  # an int pin past the floats
                    return None
            self._face = regs, zero, record, reach, error, degree
        return self._face or None


def _key_weights(count: int) -> tuple:
    """Weights for `count` floats, their sum and ``count * TINY``: the
    integers 1..count (a fixed, generic choice) times the power of two
    that brings their sum to at most 1/4, so each product and every
    partial sum of them stays finite for finite floats.  Entry `count`
    of the table `_KEY_WEIGHTS`, which grows to hold it."""
    for n in range(len(_KEY_WEIGHTS), count + 1):
        scale = 0.25 / 2.0 ** max(n * (n + 1) // 2 - 1, 0).bit_length()
        _KEY_WEIGHTS.append((tuple((i + 1) * scale for i in range(n)),
                             n * (n + 1) // 2 * scale, n * TINY))
    return _KEY_WEIGHTS[count]


_KEY_WEIGHTS: list[tuple] = []


def _agree(left: _Fingerprint, right: _Fingerprint, tol: float,
           proofs: dict) -> bool:
    """Maps of one signature within `tol` at every point, in point order;
    equal finite floats (their sum is finite) agree for `tol` >= 0.  Each
    step evaluates both maps at the first point not yet compared and then
    compares, at once, every point from there that both maps hold.  Past
    point 0, points that a map has not evaluated yet are evaluated only
    where the root registers cannot prove that the two agree at all of
    them (:func:`_proved`, with its cache `proofs`)."""
    equal_agrees = tol >= 0  # False for NaN
    i, count = 0, len(left.cube.domain._table()[0])
    while i < count:
        if i == 1 and min(len(left.values), len(right.values)) == 1 and \
                _proved(left, right, tol, proofs):
            return True
        left.at(i)
        right.at(i)
        end = min(len(left.values), len(right.values))
        xs, ys = left.values[i:end], right.values[i:end]
        i = end
        if equal_agrees and xs == ys and (
                (total := sum(itertools.chain.from_iterable(xs)))
                - total == 0.0):
            continue
        for x_row, y_row in zip(xs, ys):
            for x, y in zip(x_row, y_row):
                if not abs(x - y) <= tol:  # so NaN and inf never agree
                    return False
    return True


def cubes_equal(left: SingularCube, right: SingularCube,
                tol: float = MERGE_TOL) -> bool:
    """Same signature and maps agreeing on the domain's sample points."""
    if left.signature() != right.signature():
        return False
    return _agree(_Fingerprint(left), _Fingerprint(right), tol, {})


def chain_normalize(chain: Chain, tol: float = MERGE_TOL,
                    _proofs: dict | None = None) -> Chain:
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
    Past point 0 a comparison first tries to prove agreement at every
    point from the polynomial registers of the two maps' roots
    (:func:`_proved`), and evaluates points 1..15 only where that proof
    fails; a proof never decides that maps disagree, so every merge is
    the one the sampled rule makes.  Each root map's program runs at
    most once per call on polynomial registers: `_proofs` holds them,
    with the proofs' other work, and a verdict passes one cache to both
    its normalizations and its pullbacks (:mod:`.stokes`).
    """
    groups: list[list] = []  # [weight, fingerprint], in creation order
    keys: list[float] = []   # the index: sorted keys of the groups ...
    ids: list[int] = []      # ... and those groups' places in `groups`
    keyed = 0                # groups whose key has been read
    # root registers, bound runs and sample bounds for the proofs
    proofs = {} if _proofs is None else _proofs
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
            if _agree(groups[g][1], mine, tol, proofs):
                groups[g][0] += weight
                break
        else:
            groups.append([weight, mine])
    if len(groups) == len(chain.terms):  # no merge: the terms as they are
        return chain
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
    x = mine.key()
    if x != x:  # NaN agrees with nothing
        return ()
    top, total, tiny = mine._window
    h = (2.0 * tol + top) * total * _SLACK + tiny
    lo, hi = x - h, x + h
    if lo - lo + (hi - hi) != 0.0:  # an end that is not finite
        return range(count)
    found = ids[bisect.bisect_left(keys, lo):bisect.bisect_right(keys, hi)]
    return sorted(found) if len(found) > 1 else found


# Proving that two maps agree at every sample point, from their roots'
# registers.  Each map runs its root's program, with its pins in place,
# at each point z.  For a component, let P be the exact polynomial that
# program computes on its float constants, with the pins substituted, so
# that P(z) is the exact value at z.  The dual 1-norm
# ||a + b eps|| = |a| + |b| is submultiplicative, so a polynomial Q of
# degree at most D has ||Q(z)|| <= ||Q|| max(1, M)^D, ||Q|| the sum of
# its coefficients' norms and M a bound on every ||z_i||.  Three facts
# bound the distance between the two maps' floats at z:
#   - the map's register F (`_pin_registers`: its root's register with
#     each pin substituted as a point weight of
#     `darboux.polynomial_estimate`, a pin at 0 dropping every term it
#     reads exactly, and one rounding counted per term that meets another
#     on a key) has ||P - F|| at most gamma(2N) S, N its order and S its
#     shadow, by the argument of `polynomial_estimate`;
#   - the pair run's value is within gamma(2n) s of P(z) in the 1-norm,
#     (s, n) the map's bound register (`expr._BOUNDS`), run on inputs of
#     norm M, and it is finite, with no step that raises;
#   - F_L(z) - F_R(z) is the value of a polynomial of norm ||F_L - F_R||.
# So every float the lanes would compare differs from its twin by at most
#     (||F_L - F_R|| + gamma(2N_L) S_L + gamma(2N_R) S_R) max(1, M)^D
#         + gamma(2n_L) s_L + gamma(2n_R) s_R,
# and a difference at most `tol`, a float, rounds to at most `tol`.  For
# N <= 2^24, (2N + 1) u >= gamma(2N).  The bound is computed upward:
# each product, sum and pow by `_up` (pow within one ulp, so twice), and
# ||F_L - F_R||, a sum over at most 2 MAX_MONOMIALS keys, by at most
# 2 MAX_MONOMIALS + 2 roundings to nearest on each term (a difference
# or sum that is subnormal is exact), so times 1 + 2^-40 it is at least
# the exact norm.  One bound serves every component: the largest
# ||F_L - F_R|| over them, and the errors summed over them.  An infinite
# bound proves agreement only at an infinite `tol`, which needs no more
# than finite values at every point.  A NaN or negative `tol` proves
# nothing; nor does a program with a primitive, or one past the limits
# of `_POLYS` or `_BOUNDS`.
_SLACK_40 = 1.0 + 2.0 ** -40
_FIELD = (1 << KEY_BITS) - 1


def _proved(left: _Fingerprint, right: _Fingerprint, tol: float,
            proofs: dict) -> bool:
    """True when the comment above proves that the two maps agree within
    `tol` at every sample point; False says nothing.  ||F_L - F_R|| is
    taken in one pass over the registers of one map, dropping the terms
    that read its pin at 0 as it goes (:meth:`_Fingerprint.face`), with
    those of the other at hand."""
    mine, theirs = left.face(proofs), right.face(proofs)
    if mine is None or theirs is None:
        return False
    if mine[1] is not None and theirs[1] is None:  # read mine in the pass
        mine, theirs = theirs, mine
    elif mine[1] is not None:  # both pin at 0: substitute one of them
        left._face = mine = (_pin_registers(mine[0], mine[1], ZERO, 0), None,
                             *mine[2:])
    regs, _, record, reach, error, degree = mine
    other_regs, zero, other_record, other_reach, other_error, other_degree = \
        theirs
    if not other_reach <= reach:
        reach = other_reach
    runs = _root_bounds(record, reach)
    other_runs = _root_bounds(other_record, reach)
    if runs is None or other_runs is None:
        return False
    up, inf = math.nextafter, math.inf
    try:
        scale = up(up(reach ** max(degree, other_degree), inf), inf)
    except OverflowError:
        return False
    mask, low = 0, -1  # the pin at 0 to drop, and the bits below its field
    if zero is not None:
        mask, low = _FIELD << KEY_BITS * zero, (1 << KEY_BITS * zero) - 1
    high = ~low
    diff = 0.0  # the largest ||F_L - F_R|| over the components
    for reg, other_reg in zip(regs, other_regs):
        f, g = reg[0], other_reg[0]
        norm, matched = 0.0, 0
        get = f.get
        for key, (re, ze) in g.items():
            if key & mask:  # it reads the pin at 0: the exact zero
                continue
            other = get(key & low | key >> KEY_BITS & high)
            if other is None:
                norm += abs(re) + abs(ze)
            else:
                norm += abs(re - other[0]) + abs(ze - other[1])
                matched += 1
        if matched < len(f):  # the keys of F_L that F_R has not
            for key, (re, ze) in f.items():
                if key & low | (key & high) << KEY_BITS not in g:
                    norm += abs(re) + abs(ze)
        if norm > diff or norm != norm:
            diff = norm
    bound = up(up(up(up(diff * _SLACK_40, inf)
                     + up(error + other_error, inf), inf) * scale, inf)
               + up(runs + other_runs, inf), inf)
    return bound <= tol


def _certified(regs: list) -> float | None:
    """At least the sum of gamma(2N) S over the registers, or None past
    N = 2^24.  Each (2N + 1) S rounds once, and relatively, as no product
    of an integer and a float loses to underflow, and `fsum` once more,
    so times 1 + 2^-40 and rounded up their sum bounds the exact one."""
    terms = []
    for _, shadow, order, _ in regs:
        if order > _BOUND_ORDER:
            return None
        terms.append((2 * order + 1) * shadow)
    up, inf = math.nextafter, math.inf
    return up(up(math.fsum(terms) * _SLACK_40, inf) * _U, inf)


class _Root:
    """A root map's proof record, kept in a `proofs` cache under the id of
    the map (the chain's cubes keep it alive): the polynomial register of
    each component from one run of its program, or None where it raises;
    ``(error, degree)``, their certified error (:func:`_certified`) and
    largest degree, or False where there is none; and the error of its
    bound registers per reach (:func:`_root_bounds`)."""

    __slots__ = ("map", "regs", "certified", "bounds")

    def __init__(self, mapping: ExprMap):
        self.map, self.bounds = mapping, {}
        try:
            regs = self.regs = mapping.run(_POLYS, _poly_vars(mapping.arity))
        except (NotPolynomial, OverflowError):
            regs = self.regs = None
        error = None if regs is None else _certified(regs)
        self.certified = error is not None and (
            error, max(reg[3] for reg in regs))


def _component_registers(mapping: ExprMap, proofs: dict) -> list | None:
    """The polynomial register of each component of the map, from one
    run of its program per `proofs` cache (its :class:`_Root` record),
    or None where it raises.  A verdict shares the cache with its
    pullbacks (:mod:`.stokes`), so a root map's program runs once on
    polynomial registers for both."""
    if (record := proofs.get(id(mapping))) is None:
        record = proofs[id(mapping)] = _Root(mapping)
    return record.regs


def _root_bounds(record: _Root, reach: float) -> float | None:
    """At least the sum of gamma(2n) s over the root's components' bound
    registers (`expr._BOUNDS`), every input of norm at most `reach`;
    None where that run raises, so that some sample value may not be
    finite or some step may raise.  Once per record and reach."""
    bounds = record.bounds
    if reach not in bounds:
        root = record.map
        try:
            bounds[reach] = _certified([(None, shadow, order, None) for
                                        shadow, order in root.run(
                                            _BOUNDS, [(reach, 0)] * root.arity)])
        except (NotPolynomial, OverflowError):
            bounds[reach] = None
    return bounds[reach]


def _pin_registers(regs: list, index: int, value: Dual, degree: int) -> list:
    """The registers with `value` substituted for variable `index`, as a
    point weight (:func:`.darboux._axis_weights`), and that variable's
    field dropped from the keys; orders and shadows as the comment above
    `_proved` says.  `degree` is at least each register's."""
    shift = KEY_BITS * index
    low = (1 << shift) - 1
    if not (value.re or value.ze):
        # the exact zero: drop, exactly; the keys left have 0 in the
        # field dropped, so no two of them meet
        return [({key & low | key >> KEY_BITS & ~low: c
                  for key, c in terms.items() if not key >> shift & _FIELD},
                 shadow, order, deg)
                for terms, shadow, order, deg in regs]
    table, high, pinned = _axis_weights(value, degree), ~low, []
    for terms, shadow, order, deg in regs:
        out: dict = {}
        w_top, n_top, products, merged = 1.0, 0, 0, 0
        for key, c in terms.items():
            if power := key >> shift & _FIELD:
                w_re, w_ze, w_s, w_n = table[power]
                re = c[0]
                c = re * w_re, re * w_ze + c[1] * w_re
                products += 1
                if w_s > w_top:
                    w_top = w_s
                if w_n > n_top:
                    n_top = w_n
            key = key & low | key >> KEY_BITS & high
            if (old := out.get(key)) is None:
                out[key] = c
            else:
                out[key] = old[0] + c[0], old[1] + c[1]
                merged += 1
        if products:
            shadow = shadow * w_top + (3 * products) * TINY
            order += n_top + 2
        pinned.append((out, shadow, order + merged, deg))
    return pinned
