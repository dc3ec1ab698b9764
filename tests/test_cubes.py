import math
import pickle
import random
from collections import Counter

import pytest

from dualstokes import (Chain, CubeDomain, Dual, DualVec, Expr, ExprMap,
                        SingularCube, Theta, ZERO, boundary, chain_normalize,
                        chain_of, compose, cubes_equal, eval_dual, face,
                        parse_expr, scenario_from_dict, standard_cube)
from dualstokes.cubes import MERGE_TOL, _domain_pairs, _domain_points
from helpers import (THETAS, load_bench_module, random_chain, random_cube,
                     reference_chain_normalize, reference_domain_points)


# ---------------------------------------------------------------------------
# domains


def test_domain_endpoint():
    assert CubeDomain(Theta.TYPE1, 0.5, 2).b == Dual(1, 0.5)
    assert CubeDomain(Theta.TYPE2, 0.5, 2).b == Dual(1, -0.5)
    assert CubeDomain(Theta.TYPE1, 0.0, 1).b == Dual(1, 0)
    with pytest.raises(ValueError):
        CubeDomain(Theta.TYPE1, -0.1, 1)
    with pytest.raises(ValueError):
        CubeDomain(Theta.TYPE1, 1.0, -1)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            CubeDomain(Theta.TYPE1, r, 2)


def test_domain_rectangle():
    dom = CubeDomain(Theta.TYPE2, 1.0, 2)
    rect = dom.rectangle()
    assert rect.dim == 2
    assert rect.volume() == Dual(1, -2)
    with pytest.raises(ValueError):
        CubeDomain(Theta.TYPE1, 0.5, 0).rectangle()


def test_domain_sample_points():
    dom = CubeDomain(Theta.TYPE1, 0.5, 2)
    pts = dom.sample_points()
    assert pts == dom.sample_points()  # deterministic
    assert len(pts) == 16
    box = dom.rectangle().intervals[0].box()
    for p in pts:
        assert len(p) == 2
        for c in p:
            assert box.contains(c)
    assert CubeDomain(Theta.TYPE1, 0.5, 0).sample_points() == ((),)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, -0.0, 0.5, 1.0))
@pytest.mark.parametrize("k", (0, 1, 2, 3))
def test_domain_sample_points_are_built_once(theta, r, k):
    dom = CubeDomain(theta, r, k)
    # repr tells 0.0 from -0.0, which the ze parts carry for r = 0
    assert repr(dom.sample_points()) == repr(reference_domain_points(dom))
    assert CubeDomain(theta, r, k).sample_points() is dom.sample_points()


def test_domain_sample_caches_are_bounded():
    # one entry per (k, b.ze): a sweep over r must not grow them forever
    for i in range(300):
        dom = CubeDomain(Theta.TYPE1, 1.0 + i / 64, 2)
        dom.sample_points()
        _domain_pairs(*dom._sample_key())
    for cache in (_domain_points, _domain_pairs):
        assert cache.cache_info().maxsize == 256
        assert cache.cache_info().currsize <= 256
    # a -0.0 domain still gets its own points, not those of 0.0
    plus, minus = (CubeDomain(Theta.TYPE2, r, 2) for r in (0.0, -0.0))
    assert repr(minus.sample_points()) == repr(reference_domain_points(minus))
    assert repr(plus.sample_points()) == repr(reference_domain_points(plus))
    assert repr(minus.sample_points()) != repr(plus.sample_points())
    assert repr(_domain_pairs(*minus._sample_key())) != repr(
        _domain_pairs(*plus._sample_key()))


# ---------------------------------------------------------------------------
# cubes and faces


def test_standard_cube():
    c = standard_cube(Theta.TYPE1, 0.5, 2)
    assert c.k == 2 and c.n == 2
    p = (Dual(0.3, 0.1), Dual(0.7, 0.2))
    assert c.mapping.eval(p) == DualVec(p)
    point = standard_cube(Theta.TYPE2, 1.0, 0)
    assert point.k == 0 and point.n == 1
    assert point.mapping.eval(()) == DualVec([ZERO])


def test_cube_arity_validation():
    with pytest.raises(ValueError):
        SingularCube(CubeDomain(Theta.TYPE1, 0.5, 2),
                     ExprMap((parse_expr("x1", 1),)))


def test_face_substitution():
    c = standard_cube(Theta.TYPE1, 0.5, 2)
    b = c.domain.b
    top = face(c, 1, 1)  # pin the first coordinate at b
    assert top.k == 1 and top.n == 2
    t = Dual(0.4, 0.1)
    assert top.mapping.eval((t,)) == DualVec([b, t])
    bottom = face(c, 2, 0)  # pin the second coordinate at 0
    assert bottom.mapping.eval((t,)) == DualVec([t, ZERO])
    # faces keep theta and r
    assert top.theta == c.theta and top.r == c.r


def _face_repl(cube, axis: int, side: int) -> list:
    # the substitution face() makes: the pinned end for x(axis)
    k = cube.k
    repl = [Expr.variable(i, k - 1) for i in range(k - 1)]
    repl.insert(axis - 1, Expr.constant(ZERO if side == 0 else cube.domain.b,
                                        k - 1))
    return repl


def _check_faces_keep_compose_nodes(cube):
    for axis in range(1, cube.k + 1):
        for side in (0, 1):
            got = face(cube, axis, side).mapping.components
            repl = _face_repl(cube, axis, side)
            want = [compose(c, repl) for c in cube.mapping.components]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.node is w.node and g.arity == w.arity == cube.k - 1


def test_faces_keep_the_nodes_compose_builds():
    # a face is one run of its cube's map program; each component is the
    # interned node compose() builds for that component alone
    for seed in range(1, 21):
        scenario = scenario_from_dict(
            load_bench_module("workloads").tiled_chain_dict(seed))
        for _, cube in scenario.chain.terms:
            _check_faces_keep_compose_nodes(cube)
    rng = random.Random(77)
    for _ in range(60):
        cube = random_cube(rng, rng.choice(THETAS), rng.choice((0.0, 0.5)),
                           rng.randint(1, 3), rng.randint(1, 3))
        _check_faces_keep_compose_nodes(cube)
        # components that share a node, and twice the same component
        c = cube.mapping.components[0]
        shared = SingularCube(cube.domain, ExprMap((c, c * c, c, -c)))
        _check_faces_keep_compose_nodes(shared)


def test_tiled_boundary_has_108_distinct_maps():
    faces = _tiled_boundary(1)
    nodes = {tuple(c.node for c in cube.mapping.components)
             for _, cube in faces.terms}
    assert len(faces.terms) == 162 and len(nodes) == 108


def test_face_of_segment_is_point():
    seg = standard_cube(Theta.TYPE1, 1.0, 1)
    end = face(seg, 1, 1)
    assert end.k == 0
    assert end.mapping.eval(()) == DualVec([Dual(1, 1)])


def test_face_validation():
    c = standard_cube(Theta.TYPE1, 0.5, 2)
    with pytest.raises(ValueError):
        face(c, 0, 0)
    with pytest.raises(ValueError):
        face(c, 3, 0)
    with pytest.raises(ValueError):
        face(c, 1, 2)
    with pytest.raises(ValueError):
        face(standard_cube(Theta.TYPE1, 0.5, 0), 1, 0)


# ---------------------------------------------------------------------------
# chains


def test_chain_validation():
    c = standard_cube(Theta.TYPE1, 0.5, 2)
    ch = chain_of(c, 3)
    assert ch.terms == ((3, c),)
    assert chain_of(c, 0).is_zero()
    with pytest.raises(TypeError):
        Chain(Theta.TYPE1, 0.5, 2, 2, ((1.5, c),))
    with pytest.raises(ValueError):
        Chain(Theta.TYPE2, 0.5, 2, 2, ((1, c),))  # theta mismatch
    with pytest.raises(ValueError):
        Chain(Theta.TYPE1, 0.25, 2, 2, ((1, c),))  # r mismatch


def test_chain_arithmetic():
    c = standard_cube(Theta.TYPE1, 0.5, 2)
    ch = chain_of(c)
    double = ch + ch
    assert [w for w, _ in double.terms] == [1, 1]
    assert chain_normalize(double).terms[0][0] == 2
    assert chain_normalize(ch - ch).is_zero()
    assert (-ch).terms[0][0] == -1
    assert ch.scale(4).terms[0][0] == 4
    with pytest.raises(ValueError):
        ch + chain_of(standard_cube(Theta.TYPE2, 0.5, 2))


def test_chain_normalize_merges_equal_maps():
    # two syntactically different but pointwise equal maps merge
    a = SingularCube(CubeDomain(Theta.TYPE1, 0.0, 1),
                     ExprMap((parse_expr("x1*(1+1)-x1", 1),)))
    b = SingularCube(CubeDomain(Theta.TYPE1, 0.0, 1),
                     ExprMap((parse_expr("x1", 1),)))
    ch = Chain(Theta.TYPE1, 0.0, 1, 1, ((1, a), (2, b)))
    merged = chain_normalize(ch)
    assert len(merged.terms) == 1
    assert merged.terms[0][0] == 3
    # and genuinely different maps stay apart
    c = SingularCube(CubeDomain(Theta.TYPE1, 0.0, 1),
                     ExprMap((parse_expr("x1^2", 1),)))
    keep = chain_normalize(Chain(Theta.TYPE1, 0.0, 1, 1, ((1, b), (1, c))))
    assert len(keep.terms) == 2


def test_cubes_equal_tolerance():
    a = SingularCube(CubeDomain(Theta.TYPE1, 0.0, 1),
                     ExprMap((parse_expr("x1", 1),)))
    shifted = SingularCube(CubeDomain(Theta.TYPE1, 0.0, 1),
                           ExprMap((parse_expr("x1+0.000001", 1),)))
    assert not cubes_equal(a, shifted)
    assert cubes_equal(a, shifted, tol=1e-3)
    other_theta = standard_cube(Theta.TYPE2, 0.0, 1)
    assert not cubes_equal(a, other_theta)


def test_non_finite_values_never_agree():
    dom = CubeDomain(Theta.TYPE1, 0.5, 1)
    a = SingularCube(dom, ExprMap((parse_expr("x1", 1),)))
    # inf - inf: NaN at every sample point
    b = SingularCube(dom, ExprMap((parse_expr(
        "(x1+1)*1e200*1e200 - (x1+1)*1e200*1e200 + 7", 1),)))
    assert not cubes_equal(a, b)
    assert not cubes_equal(b, b)
    assert len(chain_normalize(chain_of(a) - chain_of(b)).terms) == 2
    assert len(chain_normalize(chain_of(b) - chain_of(b)).terms) == 2


# ---------------------------------------------------------------------------
# normalization against the pairwise reference


def _shifted(cube: SingularCube, shift: Dual) -> SingularCube:
    return SingularCube(cube.domain, ExprMap(
        tuple(c + shift for c in cube.mapping.components)))


def _variant(rng: random.Random, cube: SingularCube) -> SingularCube:
    """The cube itself, an equal copy, or a copy shifted by tol/2 or more.

    A term at tol/2 from two groups 1.2*tol apart agrees with both, so
    the order of the groups decides where it goes.
    """
    roll = rng.random()
    if roll < 0.25:
        return cube
    if roll < 0.4:
        return SingularCube(cube.domain, ExprMap(cube.mapping.components))
    step = MERGE_TOL * rng.choice((0.5, 0.5, 1.2, 2.0))
    part = rng.choice(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    sign = rng.choice((-1.0, 1.0))
    return _shifted(cube, Dual(sign * step * part[0], sign * step * part[1]))


def _terms(chain: Chain) -> list:
    return [(w, id(c)) for w, c in chain.terms]


def _tiled_boundary(seed: int) -> Chain:
    """The boundary of the benchmark's 3x3x3 tiling: 162 faces."""
    scenario = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(seed))
    return boundary(scenario.chain)


def test_normalize_matches_reference_loop():
    rng = random.Random(4242)
    for _ in range(80):
        theta = rng.choice(THETAS)
        r = rng.choice((0.0, 0.5, 1.0))
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        base = [random_cube(rng, theta, r, k, n)
                for _ in range(rng.randint(1, 4))]
        terms = tuple((rng.choice((-2, -1, 1, 2)),
                       _variant(rng, rng.choice(base)))
                      for _ in range(rng.randint(1, 12)))
        chain = Chain(theta, r, k, n, terms)
        for ch in (chain, boundary(chain)):
            assert _terms(chain_normalize(ch)) == \
                _terms(reference_chain_normalize(ch))


def test_tiled_boundary_matches_reference_loop():
    faces = _tiled_boundary(1)
    merged = chain_normalize(faces)
    assert len(faces.terms) == 162 and len(merged.terms) == 54
    assert _terms(merged) == _terms(reference_chain_normalize(faces))


# The candidate index compares a term only with the groups whose key,
# the first float at the first sample point, lies within 2*tol of its
# own.  These chains put many terms at or near one key, and non-finite
# values and signed zeros in the key and in later floats and points.

_TOLS = (0.0, MERGE_TOL, 1.0, math.inf)
_MAGNITUDES = (1e-3, 1.0, 1e8, 1e12)
_SHIFTS = (0.0, 0.5, 1.0, 1.2, 2.0)  # in units of tol


def _unit(tol: float) -> float:
    return tol if 0.0 < tol < math.inf else (MERGE_TOL if tol == 0 else 1.0)


def _adversarial_cube(domain, key, later=0.0, second=0.0):
    """A map whose first float at the first sample point is `key`.

    `later` (a float, "inf" or "nan") scales a term that is zero at the
    first point, so it moves only later points; `second` shifts the
    second component.
    """
    x1 = Expr.variable(0, 1)
    first = Expr.constant(key, 1)
    bump = x1 - domain.sample_points()[0][0].re  # re part 0 at point 0
    if later in ("inf", "nan"):
        big = bump * 1e300 * 1e300  # +-inf at every later point
        first = first + (big if later == "inf" else big - big)
    elif later:
        first = first + bump * later
    return SingularCube(domain, ExprMap((first, x1 + second)))


def _adversarial_chain(rng, tol, magnitude, r):
    domain = CubeDomain(Theta.TYPE1, r, 1)
    unit = _unit(tol)
    keys = [sign * magnitude + shift * unit
            for sign in (1.0, -1.0) for shift in _SHIFTS]
    keys += [0.0, -0.0, math.nan, math.inf, -math.inf]
    laters = [0.0, "inf", "nan"] + [s * unit for s in _SHIFTS]
    seconds = [magnitude + s * unit for s in _SHIFTS]
    seconds += [-0.0, math.nan, math.inf]
    bases = [(rng.choice(keys), rng.choice(laters), rng.choice(seconds))
             for _ in range(rng.randint(1, 4))]
    terms = []
    for _ in range(rng.randint(2, 24)):
        key, later, second = rng.choice(bases)
        roll = rng.random()
        if roll < 0.3:  # the same key, differing later
            later = rng.choice(laters)
        elif roll < 0.5:
            key = key + rng.choice(_SHIFTS) * unit * rng.choice((1.0, -1.0))
        elif roll < 0.6:
            second = rng.choice(seconds)
        terms.append((rng.choice((-2, -1, 1, 1, 2)),
                      _adversarial_cube(domain, key, later, second)))
    return Chain(Theta.TYPE1, r, 1, 2, tuple(terms))


@pytest.mark.parametrize("tol", _TOLS)
@pytest.mark.parametrize("magnitude", _MAGNITUDES)
def test_normalize_index_matches_reference_on_adversarial_chains(tol,
                                                                 magnitude):
    rng = random.Random(f"{tol!r}/{magnitude!r}")
    for _ in range(12):
        chain = _adversarial_chain(rng, tol, magnitude, rng.choice((0.0, 0.5)))
        assert _terms(chain_normalize(chain, tol)) == \
            _terms(reference_chain_normalize(chain, tol))


@pytest.mark.parametrize("tol", _TOLS)
def test_normalize_index_fixed_cases(tol):
    dom = CubeDomain(Theta.TYPE1, 0.5, 1)
    unit = _unit(tol)

    def cube(key, later=0.0, second=0.0):
        return _adversarial_cube(dom, key, later, second)

    cases = [
        # one key, thirty maps differing later; then each again
        [cube(1.0, j * unit) for j in range(30)] * 2,
        # a term 0.6*tol from two groups 1.2*tol apart joins the older
        [cube(1.2 * unit), cube(0.0), cube(0.6 * unit), cube(0.6 * unit)],
        [cube(0.0), cube(1.2 * unit), cube(0.6 * unit)],
        # unit - (-unit * 2**-60) rounds to unit: they agree at tol = unit,
        # though the exact difference is above tol
        [cube(unit), cube(-unit * 2.0 ** -60)],
        [cube(-unit * 2.0 ** -60), cube(unit)],
        [cube(-0.0), cube(0.0), cube(0.0, second=-0.0), cube(-0.0)],
        [cube(math.nan), cube(math.nan), cube(1.0), cube(math.nan)],
        [cube(math.inf), cube(1.0), cube(math.inf), cube(-math.inf),
         cube(1.0), cube(-math.inf)],
        [cube(1.0, "inf"), cube(1.0, "nan"), cube(1.0), cube(1.0, "inf")],
        [cube(1.0, second=math.nan), cube(1.0), cube(1.0, second=math.nan)],
    ]
    for cubes in cases:
        chain = Chain(Theta.TYPE1, 0.5, 1, 2,
                      tuple(((-1) ** i, c) for i, c in enumerate(cubes)))
        for ch in (chain, chain + chain):
            assert _terms(chain_normalize(ch, tol)) == \
                _terms(reference_chain_normalize(ch, tol))


def test_normalize_evaluates_each_map_at_most_once_per_point(monkeypatch):
    calls = Counter()
    original = ExprMap.flat_values

    def counting(self, pairs):
        calls[id(self)] += 1
        return original(self, pairs)

    monkeypatch.setattr(ExprMap, "flat_values", counting)
    rng = random.Random(8)
    chain_normalize(chain_of(random_cube(rng, Theta.TYPE1, 0.5, 2, 2)))
    assert not calls
    # maps that differ at the first point: one evaluation each
    dom = CubeDomain(Theta.TYPE1, 0.5, 1)
    x = SingularCube(dom, ExprMap((parse_expr("x1", 1),)))
    y = SingularCube(dom, ExprMap((parse_expr("x1+1", 1),)))
    chain_normalize(Chain(Theta.TYPE1, 0.5, 1, 1, ((1, x), (1, y))))
    assert calls == {id(x.mapping): 1, id(y.mapping): 1}
    calls.clear()
    assert cubes_equal(x, _shifted(x, Dual(0.0)))
    assert sorted(calls.values()) == [16, 16]
    calls.clear()
    faces = _tiled_boundary(1)
    chain_normalize(faces)
    # each inner face's map is identical to its twin's: 54 twins are
    # settled without an evaluation, 108 maps are evaluated
    assert len(calls) == 108
    assert max(calls.values()) <= 16
    assert sum(calls.values()) <= 918


@pytest.mark.parametrize("tol", (math.nan, -1.0, 0.0, MERGE_TOL, math.inf))
def test_normalize_identical_maps_match_reference(tol):
    # separately built equal maps share their nodes, so a term identical
    # to an earlier one is settled without evaluating it
    dom = CubeDomain(Theta.TYPE1, 0.5, 1)
    unit = _unit(tol)

    def cube(key, later=0.0, second=0.0):
        return _adversarial_cube(dom, key, later, second)

    one = cube(1.0)
    assert cube(1.0).mapping.components == one.mapping.components
    cases = [
        [one, one, cube(1.0), one, cube(2.0), cube(1.0)],
        # identical maps with NaN or +-inf at later points only
        [cube(1.0, "inf"), cube(1.0, "inf"), cube(1.0), cube(1.0, "inf")],
        [cube(1.0, "nan"), cube(1.0), cube(1.0, "nan"), cube(1.0, "nan")],
        [cube(1.0, second=math.inf)] * 3,
        [cube(math.nan), cube(math.nan), cube(-math.inf), cube(-math.inf)],
        # identical to a later member of a group, not to its first cube
        [cube(0.0), cube(0.5 * unit), cube(0.5 * unit), cube(0.0)],
        [cube(1.0), cube(1.0, "inf"), cube(1.0, "inf"), cube(1.0)],
        [cube(1.2 * unit), cube(0.0), cube(0.6 * unit), cube(0.6 * unit)],
    ]
    for cubes in cases:
        chain = Chain(Theta.TYPE1, 0.5, 1, 2,
                      tuple(((-1) ** i, c) for i, c in enumerate(cubes)))
        for ch in (chain, chain + chain, chain + chain.scale(2)):
            assert _terms(chain_normalize(ch, tol)) == \
                _terms(reference_chain_normalize(ch, tol))
    rng = random.Random(f"identical/{tol!r}")
    for _ in range(12):
        chain = _adversarial_chain(rng, tol, 1.0, 0.5)
        ch = chain + chain
        assert _terms(chain_normalize(ch, tol)) == \
            _terms(reference_chain_normalize(ch, tol))


@pytest.mark.parametrize("tol", (math.nan, 0.0, math.inf))
def test_tiled_boundary_matches_reference_at_other_tolerances(tol):
    faces = _tiled_boundary(3)
    assert _terms(chain_normalize(faces, tol)) == \
        _terms(reference_chain_normalize(faces, tol))


# ---------------------------------------------------------------------------
# boundaries


def test_segment_boundary_weights():
    seg = standard_cube(Theta.TYPE1, 1.0, 1)
    bd = boundary(seg)
    assert bd.k == 0
    got = {}
    for weight, cube in bd.terms:
        value = cube.mapping.eval(())[0]
        got[(value.re, value.ze)] = weight
    # endpoint picks up +1, start picks up -1
    assert got == {(0.0, 0.0): -1, (1.0, 1.0): 1}


def test_square_boundary_weights():
    sq = standard_cube(Theta.TYPE1, 0.0, 2)
    bd = boundary(sq)
    assert bd.k == 1 and len(bd.terms) == 4
    weights = [w for w, _ in bd.terms]
    assert weights == [-1, 1, 1, -1]
    # the four edge midpoint images
    mids = [cube.mapping.eval((Dual(0.5),)) for _, cube in bd.terms]
    assert mids[0] == DualVec([ZERO, Dual(0.5)])       # x1 = 0
    assert mids[1] == DualVec([Dual(1), Dual(0.5)])    # x1 = b
    assert mids[2] == DualVec([Dual(0.5), ZERO])       # x2 = 0
    assert mids[3] == DualVec([Dual(0.5), Dual(1)])    # x2 = b


def test_boundary_of_chain_scales():
    c = random_cube(random.Random(1), Theta.TYPE1, 0.5, 2, 2)
    ch = chain_of(c, -2)
    bd = boundary(ch)
    single = boundary(c)
    assert [w for w, _ in bd.terms] == [-2 * w for w, _ in single.terms]
    with pytest.raises(ValueError):
        boundary(standard_cube(Theta.TYPE1, 0.5, 0))
    with pytest.raises(TypeError):
        boundary("not a cube")


def _reference_boundary(terms, k):
    # each face from face() itself, weighted w*(-1)^(axis+side)
    return [(w * (-1) ** (axis + side), face(cube, axis, side))
            for w, cube in terms
            for axis in range(1, k + 1) for side in (0, 1)]


def _nodes(terms):
    return [(w, tuple(c.node for c in cube.mapping.components))
            for w, cube in terms]


def test_boundary_matches_faces():
    rng = random.Random(23)
    cube = random_cube(rng, Theta.TYPE2, 0.5, 3, 4)
    assert _nodes(boundary(cube).terms) == \
        _nodes(_reference_boundary(((1, cube),), 3))
    terms = ((3, cube), (-2, random_cube(rng, Theta.TYPE2, 0.5, 3, 4)),
             (1, random_cube(rng, Theta.TYPE2, 0.5, 3, 4)))
    bd = boundary(Chain(Theta.TYPE2, 0.5, 3, 4, terms))
    assert (bd.theta, bd.r, bd.k, bd.n) == (Theta.TYPE2, 0.5, 2, 4)
    assert len(bd.terms) == 18
    assert _nodes(bd.terms) == _nodes(_reference_boundary(terms, 3))


def test_boundary_of_chain_builds_one_chain(monkeypatch):
    built = []
    original = Chain.__init__

    def counting(self, *args):
        built.append(args[2])  # k
        original(self, *args)

    chain = random_chain(random.Random(29), Theta.TYPE1, 0.5, 2, 3, terms=3)
    monkeypatch.setattr(Chain, "__init__", counting)
    bd = boundary(chain)
    assert built == [1] and len(bd.terms) == 12


def test_double_boundary_vanishes():
    rng = random.Random(91)
    for _ in range(12):
        theta = rng.choice(THETAS)
        r = rng.choice((0.0, 0.5, 1.0))
        k = rng.choice((2, 3))
        n = rng.randint(k, k + 1)
        cube = random_cube(rng, theta, r, k, n, depth=2)
        dd = boundary(boundary(cube))
        assert chain_normalize(dd).is_zero()


def test_double_boundary_vanishes_for_chains():
    rng = random.Random(97)
    for _ in range(6):
        theta = rng.choice(THETAS)
        ch = random_chain(rng, theta, 0.5, 2, 3, terms=2)
        assert chain_normalize(boundary(boundary(ch))).is_zero()


def test_boundary_keeps_signature():
    cube = random_cube(random.Random(5), Theta.TYPE2, 0.7, 3, 3)
    bd = boundary(cube)
    assert bd.theta == Theta.TYPE2
    assert bd.r == 0.7
    assert bd.k == 2
    assert bd.n == 3
    assert len(bd.terms) == 6


def test_cube_signature_is_taken_once(monkeypatch):
    cube = random_cube(random.Random(6), Theta.TYPE2, 0.7, 2, 3)
    signature = (Theta.TYPE2, 0.7, 2, 3)
    assert cube.signature() == signature
    assert SingularCube._fields == ("domain", "mapping")
    assert pickle.loads(pickle.dumps(cube)).signature() == signature
    # a chain checks each term against the signature taken at construction,
    # without reading the cube's domain or map again
    for name in ("theta", "r", "k", "n"):
        monkeypatch.setattr(SingularCube, name, property(_unread))
    assert Chain(Theta.TYPE2, 0.7, 2, 3, ((2, cube),)).terms == ((2, cube),)
    with pytest.raises(ValueError, match="does not match"):
        Chain(Theta.TYPE2, 0.7, 2, 2, ((1, cube),))


def _unread(cube):
    raise AssertionError("the signature is read again")
