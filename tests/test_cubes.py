import math
import pickle
import random
import sys
from collections import Counter, defaultdict

import pytest

from dualstokes import (Chain, CubeDomain, Dual, DualVec, Expr, ExprMap,
                        SingularCube, Theta, ZERO, boundary, chain_normalize,
                        chain_of, compose, cubes_equal, eval_dual, exp, face,
                        parse_expr, run_scenario, scenario_from_dict, sin,
                        standard_cube)
from dualstokes import cubes as cubes_module, darboux, expr, stokes
from dualstokes.cubes import (MERGE_TOL, _LANE_ARITH, _Fingerprint,
                              _domain_sample, _key_weights, _lane_points,
                              _near)
from dualstokes.expr import _PAIRS, Add, Const, Mul, PowInt, Var
from helpers import (THETAS, load_bench_module, random_chain, random_cube,
                     random_map, reference_chain_normalize,
                     reference_domain_points, reference_key)


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
    # the dimension is an integer: True is not 1, nor 2.0 two
    for k in (2.0, True, "2", None):
        with pytest.raises(TypeError, match="integers"):
            CubeDomain(Theta.TYPE1, 0.5, k)
    with pytest.raises(TypeError, match="integers"):
        standard_cube(Theta.TYPE1, 0.5, False)


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
    # one table: the same points as float pairs, and 1.. as lane registers,
    # one (re list, ze list) of columns per variable
    points, pairs, lanes = dom._table()
    assert points is dom.sample_points()
    assert repr(pairs) == repr(tuple(tuple((c.re, c.ze) for c in point)
                                     for point in points))
    assert len(lanes) == k and all(type(re) is type(ze) is list
                                   and len(re) == len(ze) == 15
                                   for re, ze in lanes)
    assert repr(tuple(zip(*(zip(re, ze) for re, ze in lanes)))) \
        == repr(pairs[1:])


def test_domain_sample_caches_are_bounded():
    # one entry per (k, b.ze): a sweep over r must not grow it forever
    for i in range(300):
        CubeDomain(Theta.TYPE1, 1.0 + i / 64, 2).sample_points()
    assert _domain_sample.cache_info().maxsize == 256
    assert _domain_sample.cache_info().currsize <= 256
    # a -0.0 domain still gets its own points, not those of 0.0
    plus, minus = (CubeDomain(Theta.TYPE2, r, 2) for r in (0.0, -0.0))
    assert repr(minus.sample_points()) == repr(reference_domain_points(minus))
    assert repr(plus.sample_points()) == repr(reference_domain_points(plus))
    assert repr(minus.sample_points()) != repr(plus.sample_points())
    assert repr(minus._table()) != repr(plus._table())


def test_domain_keeps_what_it_derives():
    # the rectangle, the sample table and the face domain are built once
    # per domain object and kept outside the fields
    dom = CubeDomain(Theta.TYPE1, 0.5, 2)
    fresh = CubeDomain(Theta.TYPE1, 0.5, 2)
    assert dom.rectangle() is dom.rectangle()
    assert dom._table() is dom._table()
    assert dom._face_domain() is dom._face_domain()
    sub, ends = dom._face_domain()
    assert sub == CubeDomain(Theta.TYPE1, 0.5, 1) and ends == (ZERO, dom.b)
    # ==, hash, repr and pickling see the fields only
    assert dom == fresh and hash(dom) == hash(fresh)
    assert hash(dom) == hash((Theta.TYPE1, 0.5, 2))
    assert repr(dom) == repr(fresh) == \
        "CubeDomain(theta=<Theta.TYPE1: 1>, r=0.5, k=2)"
    assert pickle.dumps(dom) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(dom))
    assert copy == dom and copy.rectangle() is not dom.rectangle()
    assert repr(copy.rectangle()) == repr(dom.rectangle())


def test_signed_zero_domains_keep_their_own_derived_data():
    # 0.0 == -0.0, so the domains are equal, but their endpoints, and so
    # their rectangles, samples and faces, carry the sign of the zero
    plus, minus = (CubeDomain(Theta.TYPE1, r, 2) for r in (0.0, -0.0))
    assert plus == minus
    for dom in (plus, minus):
        side = dom.rectangle().intervals[0]
        assert repr(side.b) == repr(dom.b)
        assert repr(dom.sample_points()) == repr(reference_domain_points(dom))
        sub, ends = dom._face_domain()
        assert repr(sub.r) == repr(dom.r) and repr(ends[1]) == repr(dom.b)
    assert repr(plus.rectangle()) != repr(minus.rectangle())
    assert repr(plus.sample_points()) != repr(minus.sample_points())
    for dom in (minus, plus):  # built in the other order: still their own
        again = CubeDomain(Theta.TYPE1, dom.r, 2)
        assert repr(again.rectangle()) == repr(dom.rectangle())
    # so do the weight tables of the endpoints their faces pin, and of
    # their sides, whichever is read first, and each is kept by its owner
    darboux._weight_table.cache_clear()
    fresh = darboux._weight_table.__wrapped__
    for dom in (minus, plus):
        b = dom._face_domain()[1][1]
        for axis, ends in ((b, (b.re, b.ze)), (dom.axes(())[0],
                                              (0.0, 0.0, b.re, b.ze))):
            table = darboux._axis_weights(axis, 4)
            assert repr(table) == repr(fresh(repr(ends), ends, 4))
            assert darboux._axis_weights(axis, 4) is table
    assert repr(darboux._axis_weights(plus.b, 4)) != \
        repr(darboux._axis_weights(minus.b, 4))


def test_face_domains_share_their_parent_side(monkeypatch):
    # the face domain's side is its parent's side object, so a freshly
    # loaded saddle-fine reads the side's weight tables off their owner at
    # the degrees the parent's integrals built: no table of its first
    # verdict misses its owner twice, and at most 6 of its 10 reads miss
    # (the endpoint 0 is one object for every scenario, which may already
    # hold its tables)
    scenario = load_bench_module("workloads").saddle_fine(stokes, 1)[0]
    dom = scenario.chain.terms[0][1].domain
    faces = dom._face_domain()[0]
    side = dom.axes(())[0]
    assert faces.axes(())[0] is side and faces.rectangle().intervals[0] is side
    misses = []
    build = darboux._weight_table
    monkeypatch.setattr(darboux, "_weight_table",
                        lambda *args: misses.append(args) or build(*args))
    run_scenario(scenario)
    assert len(set(misses)) == len(misses) <= 6
    misses.clear()
    run_scenario(scenario)  # a second verdict reads every table off its owner
    assert not misses


def test_selftest_suite_does_its_fixed_work_once(monkeypatch):
    # what one fresh suite of the bundled scenarios costs beyond its
    # arithmetic, counted while an earlier suite is alive, as in a
    # benchmark pass (so interned nodes and their programs are shared):
    # each scenario lowers its one map's program; a domain's side is
    # built without make_interval; only the face domains read a sample
    # table (a one-term chain compares nothing); each axis object misses
    # its weight table only where a verdict asks it for a higher degree
    # than it holds, 22 times, and the value-keyed store builds 13
    # distinct tables; the boundaries' 26 faces each run their map once
    # at sample point 0, and no map runs at any other point
    earlier = stokes.builtin_scenarios()
    stokes.run_suite(earlier)
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: counts.update(
            [name]) or original(*args))
        return original

    count(expr, "_lower")
    count(darboux, "make_interval")
    count(cubes_module, "_domain_sample")
    store = count(darboux, "_weight_table")
    store.cache_clear()
    run = ExprMap.run

    def point_runs(mapping, arith, args):
        if arith is _PAIRS or arith is _LANE_ARITH:
            counts["point runs" if arith is _PAIRS else "lane runs"] += 1
        return run(mapping, arith, args)

    monkeypatch.setattr(ExprMap, "run", point_runs)
    reports = stokes.run_suite(stokes.builtin_scenarios())
    assert all(r.passed for r in reports) and earlier
    assert counts == {"_lower": 8, "_domain_sample": 8, "_weight_table": 22,
                      "point runs": 26}
    assert store.cache_info().misses == 13


def test_faces_of_one_boundary_share_one_domain():
    # a scenario's cubes share one domain, so their faces, and the faces
    # of those, share one face domain each
    chain = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(1)).chain
    assert len({id(cube.domain) for _, cube in chain.terms}) == 1
    faces = boundary(chain)
    assert len({id(cube.domain) for _, cube in faces.terms}) == 1
    assert faces.terms[0][1].domain is \
        chain.terms[0][1].domain._face_domain()[0]
    edges = boundary(faces)
    assert len({id(cube.domain) for _, cube in edges.terms}) == 1
    assert face(chain.terms[0][1], 3, 1).domain is faces.terms[0][1].domain


def test_tiled_verdict_builds_two_intervals(monkeypatch):
    # the 27 cubes and their 54 faces integrate over one interval, the
    # side of the cubes' domain, which their face domain shares: the
    # integrals read that one interval object, and make_interval builds
    # none (at most two, one per domain, is what the name allows)
    calls, sides = [], set()
    original, weights = darboux.make_interval, darboux._axis_weights

    def counting(*args):
        calls.append(args)
        return original(*args)

    def reading(axis, degree):
        if not isinstance(axis, Dual):
            sides.add(id(axis))
        return weights(axis, degree)

    monkeypatch.setattr(darboux, "make_interval", counting)
    monkeypatch.setattr(darboux, "_axis_weights", reading)
    scenario = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(1))
    report = run_scenario(scenario)
    assert report.passed and not calls
    assert sides == {id(scenario.chain.terms[0][1].domain.axes(())[0])}


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, -0.0, 0.5, 1e308))
def test_domain_side_is_the_interval_make_interval_checks(theta, r):
    # a domain builds its side [0, b] without the checks of make_interval,
    # which its check on r implies: 0 <= r < inf puts b = 1 + (sign of
    # theta) r eps, finite, after 0 in theta's order, signed zeros and
    # the largest r included
    dom = CubeDomain(theta, r, 2)
    side = dom.axes(())[0]
    checked = darboux.make_interval(theta, ZERO, dom.b)
    assert type(side) is type(checked)
    assert repr(side._values()) == repr(checked._values())
    assert side.a is ZERO and side.b is dom.b
    for bad in (-1e-300, math.inf, math.nan):
        with pytest.raises(ValueError, match="inflation"):
            CubeDomain(theta, bad, 2)
    # the face domains, down to dimension 0, skip __init__'s checks too,
    # which their parent passed: each is the domain __init__ would build,
    # and shares its parent's side and end b
    for k in (2, 1):
        faces, ends = dom._face_domain()
        want = CubeDomain(theta, r, k - 1)
        assert faces == want and repr(faces) == repr(want)
        assert repr(faces.b) == repr(want.b) and faces.b is dom.b
        assert ends == (ZERO, dom.b) and ends[1] is dom.b
        assert faces.axes(())[:k - 1] == [side] * (k - 1)
        assert faces._rectangle is faces._sample is faces._faces is None
        dom = faces


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


def _check_faces_keep_compose_nodes(cube, depth: int = 2, root=None,
                                    repl=None):
    # `repl` gives the root cube's arguments in the variables of `cube`, a
    # face of it: a face of a face has the nodes that composing the root
    # once with both endpoints builds, which can differ from composing its
    # face again in the sign of a zero
    if root is None:
        root, repl = cube, [Expr.variable(i, cube.k) for i in range(cube.k)]
    for axis in range(1, cube.k + 1):
        for side in (0, 1):
            sub = face(cube, axis, side)
            sub_repl = [compose(e, _face_repl(cube, axis, side)) for e in repl]
            want = ExprMap([compose(c, sub_repl)
                            for c in root.mapping.components])
            got = sub.mapping.components
            assert len(got) == len(want.components)
            for g, w in zip(got, want.components):
                assert g.node is w.node and g.arity == w.arity == cube.k - 1
            # the pinned map is a map with these components to repr, ==,
            # hash and pickle, and an unpickled copy is a plain map
            assert sub.mapping == want and hash(sub.mapping) == hash(want)
            assert repr(sub.mapping) == repr(want)
            assert pickle.loads(pickle.dumps(sub.mapping)) == want
            if depth > 1 and sub.k:
                _check_faces_keep_compose_nodes(sub, depth - 1, root,
                                                sub_repl)


def test_faces_keep_the_nodes_compose_builds():
    # a face is its cube's map with one argument pinned; its components,
    # built when first asked for, are the interned nodes compose() builds
    # for each component alone
    for seed in range(1, 21):
        scenario = scenario_from_dict(
            load_bench_module("workloads").tiled_chain_dict(seed))
        for _, cube in scenario.chain.terms:
            _check_faces_keep_compose_nodes(cube, depth=1)
    rng = random.Random(77)
    for _ in range(60):
        cube = random_cube(rng, rng.choice(THETAS), rng.choice((0.0, 0.5)),
                           rng.randint(1, 3), rng.randint(1, 3))
        _check_faces_keep_compose_nodes(cube)
        # components that share a node, and twice the same component
        c = cube.mapping.components[0]
        shared = SingularCube(cube.domain, ExprMap((c, c * c, c, -c)))
        _check_faces_keep_compose_nodes(shared)


def test_face_runs_its_cube_program_with_the_endpoint_pinned():
    rng = random.Random(78)
    for _ in range(30):
        cube = random_cube(rng, rng.choice(THETAS), rng.choice((0.0, 0.5)),
                           rng.randint(1, 3), rng.randint(1, 3))
        _, points, _ = cube.domain._table()
        end = [(e.re, e.ze) for e in (ZERO, cube.domain.b)]  # by side
        for axis in range(1, cube.k + 1):
            for side in (0, 1):
                f = face(cube, axis, side)
                for point in points[:4]:
                    args = list(point[:cube.k - 1])
                    args.insert(axis - 1, end[side])
                    assert repr(f.mapping.run(_PAIRS, point[:cube.k - 1])) \
                        == repr(cube.mapping.run(_PAIRS, args))
                # a face lowers no program and builds no nodes of its own
                assert f.mapping._code is f.mapping._components is None
                # a face of a face runs the root's program with both pins
                for sub_axis in range(1, f.k + 1):
                    for sub_side in (0, 1):
                        ff = face(f, sub_axis, sub_side)
                        assert ff.mapping._pin[0] is cube.mapping
                        assert ff.mapping._code is None
                        for point in points[:4]:
                            args = list(point[:cube.k - 2])
                            args.insert(sub_axis - 1, end[sub_side])
                            args.insert(axis - 1, end[side])
                            assert repr(ff.mapping.run(
                                _PAIRS, point[:cube.k - 2])) == repr(
                                    cube.mapping.run(_PAIRS, args))
    with pytest.raises(ValueError, match="out of range"):
        ExprMap.identity(2).pin(2, ZERO)
    with pytest.raises(ValueError, match="out of range"):
        ExprMap.identity(2).pin(0, ZERO).pin(1, ZERO)
    for index in (0.5, 1.0, True, False, "0", None):
        with pytest.raises(TypeError, match="integers"):
            ExprMap.identity(2).pin(index, 0.5)


def test_faces_of_faces_lower_only_their_root_program(monkeypatch):
    # every face of a face pins its root map, so a double boundary lowers
    # one program per cube it came from, and none for its faces
    lowered = []
    lower = expr._lower

    def counting(nodes):
        lowered.append(nodes)
        return lower(nodes)

    monkeypatch.setattr(expr, "_lower", counting)
    cube = random_cube(random.Random(79), Theta.TYPE1, 0.5, 3, 3, depth=2)
    assert chain_normalize(boundary(boundary(cube))).is_zero()
    assert len(lowered) == 1
    lowered.clear()
    cubes = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(1)).chain
    assert chain_normalize(boundary(boundary(cubes))).is_zero()
    assert len(lowered) == len(cubes.terms) == 27


def test_verdict_builds_no_face_components(monkeypatch):
    # the rhs integrates every face on registers and compares faces by
    # running their cubes' programs, so no face's nodes are built
    built = []
    components = ExprMap.components

    def spy(self):
        if self._components is None:
            built.append(self)
        return components.fget(self)

    monkeypatch.setattr(ExprMap, "components", property(spy))
    workloads = load_bench_module("workloads")
    report = run_scenario(scenario_from_dict(workloads.tiled_chain_dict(1)))
    assert report.converged and report.passed and not built


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
    # axis and side are integers: True is not axis 1, nor 1.0
    for axis, side in ((True, True), (1, True), (True, 0), (1.0, 0),
                       (1, 0.0), (1, None)):
        with pytest.raises(TypeError, match="integers"):
            face(c, axis, side)


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
    # exactly 0 at point 0, and infinite without a NaN at points 1..15,
    # where equal values are compared many points at once
    x = Expr.variable(0, 1)
    start = Expr.constant(dom.sample_points()[0][0], 1)
    c = SingularCube(dom, ExprMap(((x - start) * 1e308 * 1e308,)))
    assert not cubes_equal(c, c)
    assert len(chain_normalize(chain_of(c) - chain_of(c)).terms) == 2


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

    def point(first, second):
        # a constant map: these two duals at every point, point 0 included
        return SingularCube(dom, ExprMap((Expr.constant(first, 1),
                                          Expr.constant(second, 1))))

    inf, nan, big, huge = math.inf, math.nan, 1e300, 1.5e308
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
        # NaN or +-inf in a later float of point 0 only, inf + -inf in one
        # map, and NaN beside both
        [point(Dual(1.0, inf), 2.0), point(1.0, 2.0), point(Dual(1.0, inf), 2.0),
         point(1.0, Dual(2.0, -inf)), point(1.0, Dual(2.0, nan)),
         point(1.0, Dual(inf, -inf)), point(1.0, 2.0),
         point(Dual(1.0, inf), Dual(-inf, nan)), point(1.0, Dual(inf, -inf))],
        # point-0 values 1e300 in size, one float tol from the first map's
        # (the most that still agrees), one ulp of 1e300 away, or 2*tol
        [point(Dual(big, -big), Dual(unit, 0.0)),
         point(Dual(big, -big), Dual(-unit, 0.0)),
         point(Dual(big, -big), 0.0),
         point(Dual(math.nextafter(big, inf), -big), 0.0),
         point(Dual(big, -big), Dual(0.0, unit)),
         point(Dual(big, -big), Dual(-unit, 0.0))],
        # finite values whose weighted sum at integer weights overflows
        [point(Dual(huge, huge), Dual(huge, huge)),
         point(Dual(huge, huge), Dual(huge, -huge)),
         point(Dual(huge, huge), Dual(huge, math.nextafter(huge, 0.0))),
         point(Dual(huge, huge), Dual(huge, huge)),
         point(Dual(-huge, huge), Dual(huge, huge)),
         point(Dual(huge, huge), Dual(huge, -huge))],
    ]
    for cubes in cases:
        chain = Chain(Theta.TYPE1, 0.5, 1, 2,
                      tuple(((-1) ** i, c) for i, c in enumerate(cubes)))
        for ch in (chain, chain + chain):
            assert _terms(chain_normalize(ch, tol)) == \
                _terms(reference_chain_normalize(ch, tol))


class _Point0:
    """A stand-in for a fingerprint whose floats at point 0 are given."""

    def __init__(self, values):
        self.values, self._key = tuple(values), None

    def at(self, i: int):
        assert i == 0
        return self.values

    key = _Fingerprint.key


def _edge(rng, x: float, tol: float) -> float:
    """A float y at most `tol` from x in floats, as far as it goes."""
    y = x + rng.choice((-1.0, 1.0)) * tol
    while not abs(x - y) <= tol:
        y = math.nextafter(y, x)
    return y


@pytest.mark.parametrize("size", (2, 4, 6))
def test_normalize_window_holds_every_agreeing_key(size):
    # the window of a term holds the key of every map that agrees with it,
    # at the edge of agreement, at any magnitude and tolerance, and where
    # the two exact weighted sums straddle a tie, so the keys round apart
    rng = random.Random(f"window/{size}")
    weights = _key_weights(size)[0]
    for _ in range(2000):
        scale = 10.0 ** rng.randint(-310, 308)
        x = [scale * rng.uniform(-1.0, 1.0) for _ in range(size)]
        if rng.random() < 0.3:  # w0*x0 + w1*x1 is a tie, the rest is 0
            x[1:] = [math.ulp(x[0] * weights[0]) / 2 / weights[1]]
            x += [0.0] * (size - 2)
            tol = x[1] * 2.0 ** -rng.randint(1, 20)
        else:
            tol = scale * 10.0 ** rng.randint(-20, 1) * rng.random()
        y = [_edge(rng, v, tol) if rng.random() < 0.8 else v for v in x]
        mine, group = _Point0(x), _Point0(y)
        key = group.key()
        assert math.isfinite(key) and math.isfinite(mine.key())
        assert _near([key], [0], mine, tol, 1) in ([0], range(1))


def test_normalize_key_of_non_finite_values():
    inf, nan = math.inf, math.nan
    for values in ((1.0, inf, 2.0, 3.0), (inf, -inf, 1.0, 1.0)):
        assert _Point0(values).key() == inf
    for values in ((1.0, nan, 2.0, 3.0), (inf, -inf, nan, 1.0),
                   (nan, inf, 1.0, 1.0)):
        assert math.isnan(_Point0(values).key())
        assert _near([1.0], [0], _Point0(values), 1.0, 1) == ()
    # finite floats at the top of the range still have a finite key
    assert math.isfinite(_Point0((1.7e308,) * 4).key())


@pytest.mark.parametrize("size", (0, 1, 2, 5, 6, 17, 40))
def test_normalize_key_and_window_are_their_formulas(size):
    # seeded tuples of signed zeros, subnormals, +-inf, NaN, +-1e308 and
    # ordinary floats, the empty tuple included: the key and every part of
    # the window, bit for bit, are those of the defining formulas
    specials = (0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1040, math.inf,
                -math.inf, math.nan, 1e308, -1e308)
    rng = random.Random(f"key formula/{size}")
    for _ in range(400 if size else 1):
        values = tuple(rng.choice(specials) if rng.random() < 0.5
                       else rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(
                           -320, 308) for _ in range(size))
        got = _Point0(values)
        key, window = reference_key(values)
        assert repr(got.key()) == repr(key), values
        assert repr(got._window) == repr(window), values


def test_normalize_compares_only_near_keys(monkeypatch):
    # the key reads every float at point 0, so a term is compared with
    # little more than the groups it merges with
    calls = [0]
    original = cubes_module._agree

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(cubes_module, "_agree", counting)
    chain = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(1)).chain
    assert len(chain_normalize(boundary(chain)).terms) == 54
    assert calls[0] <= 100
    calls[0] = 0
    assert len(chain_normalize(chain).terms) == 27
    assert calls[0] <= 5


def _count_runs(monkeypatch) -> dict:
    """id(map) -> the sample points each run of that map evaluated, one
    tuple of points per run; a pinned map's run of its parent is its own.
    Runs on other arithmetics evaluate no sample point, and are left out:
    a root map's runs on polynomial and bound registers, which prove that
    maps agree (see test_normalize_runs_each_root_once_on_registers)."""
    runs = defaultdict(list)
    depth = [0]
    original = ExprMap.run

    def counting(self, arith, args):
        if depth[0] == 0 and (arith is _PAIRS or arith is _LANE_ARITH):
            if arith is _LANE_ARITH:  # a (re, ze) column pair per variable
                points = tuple(zip(*(zip(re, ze) for re, ze in args)))
            else:
                points = (tuple(args),)
            runs[id(self)].append(points)
        depth[0] += 1
        try:
            return original(self, arith, args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ExprMap, "run", counting)
    return runs


def _evaluated(runs: dict) -> dict:
    """id(map) -> how many sample points were evaluated, each checked to
    be evaluated once and each map to run at most twice."""
    for key, points in runs.items():
        flat = [p for run in points for p in run]
        assert len(points) <= 2 and len(set(flat)) == len(flat), key
    return {key: sum(map(len, points)) for key, points in runs.items()}


def test_normalize_evaluates_each_map_at_most_once_per_point(monkeypatch):
    # point 0 is one run, and the first comparison past it that the root
    # registers cannot settle evaluates the other 15 points in one lane
    # run, so no point is evaluated twice and no map's program runs more
    # than twice in one normalization
    runs = _count_runs(monkeypatch)
    rng = random.Random(8)
    chain_normalize(chain_of(random_cube(rng, Theta.TYPE1, 0.5, 2, 2)))
    assert not runs
    # maps that differ at the first point: one evaluation each
    dom = CubeDomain(Theta.TYPE1, 0.5, 1)
    x = SingularCube(dom, ExprMap((parse_expr("x1", 1),)))
    y = SingularCube(dom, ExprMap((parse_expr("x1+1", 1),)))
    chain_normalize(Chain(Theta.TYPE1, 0.5, 1, 1, ((1, x), (1, y))))
    assert _evaluated(runs) == {id(x.mapping): 1, id(y.mapping): 1}
    runs.clear()
    # equal maps agree by their registers, past point 0
    shifted = _shifted(x, Dual(0.0))
    assert cubes_equal(x, shifted)
    assert _evaluated(runs) == {id(x.mapping): 1, id(shifted.mapping): 1}
    runs.clear()
    # maps 1e-12 |x1| apart agree at 1.2e-12, where the registers' bound
    # 1.5e-12 proves nothing, so the lanes decide
    parted = SingularCube(dom, ExprMap((parse_expr("x1*(1+1e-12)", 1),)))
    assert cubes_equal(x, parted, 1.2e-12)
    assert _evaluated(runs) == {id(x.mapping): 16, id(parted.mapping): 16}
    runs.clear()
    cubes = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(1)).chain
    faces = boundary(cubes)
    assert len(chain_normalize(faces).terms) == 54
    # twin inner faces come from different cubes: all 162 face maps are
    # read at point 0, and the registers of their roots prove the 54
    # merges, so no map is evaluated past it
    counts = _evaluated(runs)
    assert set(counts) == {id(cube.mapping) for _, cube in faces.terms}
    assert Counter(counts.values()) == {1: 162}


def test_normalize_runs_each_root_once_on_registers(monkeypatch):
    # within one normalization each root map's program runs at most once
    # on polynomial registers, and on bound registers once per bound on
    # its inputs, which is one for the faces at 0 and at b of one domain;
    # the faces' maps run no program of their own there
    registers = Counter()
    original = ExprMap.run

    def counting(self, arith, args):
        if arith is expr._POLYS or arith is expr._BOUNDS:
            registers[id(self), arith is expr._POLYS] += 1
        return original(self, arith, args)

    monkeypatch.setattr(ExprMap, "run", counting)
    cubes = scenario_from_dict(
        load_bench_module("workloads").tiled_chain_dict(1)).chain
    assert len(chain_normalize(boundary(cubes)).terms) == 54
    roots = {id(cube.mapping) for _, cube in cubes.terms}
    assert Counter(registers.values()) == {1: 54}
    assert {key for key, _ in registers} == roots
    registers.clear()
    assert len(chain_normalize(boundary(cubes)).terms) == 54
    assert Counter(registers.values()) == {1: 54}  # nothing kept between


def test_tiled_verdict_normalizes_with_its_fixed_work(monkeypatch):
    # the work of a tiled verdict's two normalizations, seed 1: each of
    # the 27 cubes and 162 faces runs at point 0 and nowhere else; each
    # root map keeps one proof record, its program run once on
    # polynomial registers (shared with the pullbacks) and once on bound
    # registers, at the one reach of the boundary's faces; the 108 inner
    # faces build one face record each, and the 54 twin pairs are proved
    runs, records, proofs = Counter(), Counter(), []
    run, face_of = ExprMap.run, _Fingerprint.face
    make, proved = cubes_module._Root.__init__, cubes_module._proved

    def counting_run(self, arith, args):
        names = {id(_PAIRS): "pairs", id(_LANE_ARITH): "lanes",
                 id(expr._POLYS): "polys", id(expr._BOUNDS): "bounds"}
        name = names.get(id(arith))
        if name:
            runs[name, id(self)] += 1
        if name == "bounds":
            runs["reach", args[0]] += 1
        return run(self, arith, args)

    def counting_face(self, cache):
        records["faces"] += self._face is None
        return face_of(self, cache)

    def counting_make(self, mapping):
        records[id(mapping)] += 1
        make(self, mapping)

    def counting_proved(*args):
        proofs.append(proved(*args))
        return proofs[-1]

    monkeypatch.setattr(ExprMap, "run", counting_run)
    monkeypatch.setattr(_Fingerprint, "face", counting_face)
    monkeypatch.setattr(cubes_module._Root, "__init__", counting_make)
    monkeypatch.setattr(cubes_module, "_proved", counting_proved)
    scenario = load_bench_module("workloads").tiled_chain_3d(stokes, 1)[0]
    roots = {id(cube.mapping) for _, cube in scenario.chain.terms}
    for _ in range(2):  # nothing is kept from one verdict to the next
        runs.clear(), records.clear(), proofs.clear()
        assert run_scenario(scenario).passed
        kinds = Counter()
        for (kind, key), count in runs.items():
            kinds[kind] += count
            if kind in ("polys", "bounds"):
                assert key in roots and count == 1
        assert kinds == {"pairs": 189, "polys": 27, "bounds": 27,
                         "reach": 27}
        assert len({key for kind, key in runs if kind == "reach"}) == 1
        assert records.pop("faces") == 108
        assert set(records) == roots and set(records.values()) == {1}
        assert proofs == [True] * 54


def test_tiled_boundaries_normalize_with_no_lane_run(monkeypatch):
    # every merge of a tiled boundary, seeds 1-20, is proved by the
    # registers, so no map runs on lane registers
    lanes = []
    original = ExprMap.run

    def counting(self, arith, args):
        lanes.append(arith is _LANE_ARITH)
        return original(self, arith, args)

    monkeypatch.setattr(ExprMap, "run", counting)
    for seed in range(1, 21):
        assert len(chain_normalize(_tiled_boundary(seed)).terms) == 54
    assert lanes and not any(lanes)


def _lane_maps(rng: random.Random, k: int) -> list:
    """Seeded maps with exp, sin and cos, and with a raw x^0, a -0.0
    constant and a product that is -0.0 at every point."""
    x = Var(0)
    raw = [Expr(PowInt(x, 0), k), Expr.constant(Dual(-0.0, -0.0), k),
           Expr(Mul(Const(Dual(-0.0, 0.0)), x), k),
           Expr(PowInt(Add(x, Const(Dual(-1.0, 0.5))), 3), k)]
    maps = [ExprMap(raw)]
    for _ in range(12):
        mapping = random_map(rng, k, rng.randint(1, 3), depth=3)
        maps.append(ExprMap(mapping.components + (rng.choice(raw),)))
    # exp past the float range at some points, and sin of an infinite value
    big = Expr.constant(800.0, k) * Expr.variable(0, k)
    maps += [ExprMap((exp(big),)), ExprMap((sin(big * 1e306),))]
    return maps


def _pinned_lane_maps(rng: random.Random, k: int, b: Dual) -> list:
    """Maps of arity k that pin one or two variables of a root map: at 0,
    at b, at -0.0 and at 1e200, where x^3 and exp overflow.  A pinned
    value is the same on every lane, and so is each op on only such
    values: the pow, prim and product that read the pin, and the
    component that is the pin itself, a constant component broadcast to
    the 15 lanes."""
    ends = (ZERO, b, Dual(-0.0, -0.0), Dual(1e200, 0.5))
    maps = []
    for extra in (1, 2):
        arity = k + extra
        x, last = Expr.variable(0, arity), Expr.variable(arity - 1, arity)
        roots = _lane_maps(rng, arity)[:6] + [ExprMap((
            x, x ** 3 * last, exp(x) + last, sin(x) * last, x * last,
            Expr.constant(Dual(-0.0, 0.0), arity) * x))]
        for root in roots:
            for _ in range(3):
                pinned = root
                for i in range(extra):  # x1 first, then any other
                    at = rng.randrange(pinned.arity) if i else 0
                    pinned = pinned.pin(at, rng.choice(ends))
                maps.append(pinned)
    return maps


def _lane_outcome(mapping, points, lanes) -> str:
    """The outcome of the map's lane run: "raised" where the map raises
    OverflowError at one of points 1..15, and its lane run raises too;
    else the lane run gives each point the bits one run per point gives,
    -0.0 included, each component as two columns of 15, and the outcome
    is "constant" where a component has the same bits on every lane, else
    "lanes"."""
    want = []
    try:
        for point in points[1:]:
            want.append(sum(mapping.run(_PAIRS, point), ()))
    except OverflowError:
        with pytest.raises(OverflowError):
            mapping.run(_LANE_ARITH, lanes)
        return "raised"
    comps = mapping.run(_LANE_ARITH, lanes)
    assert all(type(re) is type(ze) is list and len(re) == len(ze) == 15
               for re, ze in comps), mapping
    assert repr(_lane_points(comps)) == repr(want), mapping
    constant = any(len(set(map(repr, zip(re, ze)))) == 1 for re, ze in comps)
    return "constant" if constant else "lanes"


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, 0.5))
def test_lane_run_gives_the_point_values(theta, r):
    # one run on lane registers gives each of points 1..15 the bits one
    # run per point gives, -0.0 included, or raises where any would
    rng = random.Random(f"lanes/{theta}/{r}")
    pinned_rng = random.Random(f"pinned lanes/{theta}/{r}")
    outcomes, pinned = Counter(), Counter()
    for k in (1, 2, 3):
        domain = CubeDomain(theta, r, k)
        _, points, lanes = domain._table()
        for mapping in _lane_maps(rng, k):
            outcomes[_lane_outcome(mapping, points, lanes)] += 1
        # faces and faces of faces, with registers the same on every lane
        for mapping in _pinned_lane_maps(pinned_rng, k, domain.b):
            pinned[_lane_outcome(mapping, points, lanes)] += 1
    assert outcomes["raised"] == 6
    assert {"raised", "constant"} <= set(pinned)


def _normalize_outcome(normalize, chain):
    try:
        return _terms(normalize(chain))
    except OverflowError as exc:
        return type(exc), str(exc)


def test_overflow_at_a_later_point_surfaces_as_it_did():
    # exp(c*x1) overflows at sample point j > 1 only.  The lane run raises
    # at once; the fingerprint then evaluates point by point, so a chain
    # whose maps part before point j returns, and one whose maps agree up
    # to j raises, just as the reference does
    dom = CubeDomain(Theta.TYPE1, 0.0, 1)  # r = 0: every ze part is 0
    xs = [p[0].re for p in reference_domain_points(dom)]
    j = max(range(2, 16), key=xs.__getitem__)
    assert xs[j] > max(xs[:2])
    c = 709.9 / xs[j] * (1 + 1e-3)
    assert c * max(xs[:j]) < 709.7
    p0 = repr(xs[0])

    def cube(first, second):
        return SingularCube(dom, ExprMap((parse_expr(first, 1),
                                          parse_expr(second, 1))))

    grow, grown = f"exp({c!r}*x1)", f"exp(x1*{c!r})"  # equal values
    parting = f"x1+(x1-{p0})"  # equal to x1 at point 0 only
    cases = [[cube("x1", grow), cube("x1", grown)],
             [cube("x1", grow), cube(parting, grown)],
             [cube("x1", grow), cube("x1", "x1"), cube("x1", grown)]]
    outcomes = set()
    for cubes in cases:
        chain = Chain(Theta.TYPE1, 0.0, 1, 2, tuple((1, c) for c in cubes))
        for ch in (chain, chain + chain):
            got = _normalize_outcome(chain_normalize, ch)
            assert got == _normalize_outcome(reference_chain_normalize, ch)
            outcomes.add(type(got))
    assert outcomes == {list, tuple}  # some returned, some raised


def _count_proofs(monkeypatch) -> Counter:
    """How often `cubes._proved` proved agreement (True) and how often it
    left a comparison to the lanes (False)."""
    proofs = Counter()
    original = cubes_module._proved

    def counting(*args):
        proved = original(*args)
        proofs[proved] += 1
        return proved

    monkeypatch.setattr(cubes_module, "_proved", counting)
    return proofs


def test_polynomial_overflow_at_a_later_point_surfaces_as_it_did(
        monkeypatch):
    # (c*x1)^2 overflows at sample point j > 1 only, where pow raises, so
    # the bound registers, which cover every point, prove nothing and the
    # lanes raise or return as the reference does; (x1*1e-200)^2
    # underflows to 0 at every point, and the registers prove that
    dom = CubeDomain(Theta.TYPE1, 0.0, 1)  # r = 0: every ze part is 0
    xs = [p[0].re for p in reference_domain_points(dom)]
    j = max(range(2, 16), key=xs.__getitem__)
    assert xs[j] > max(xs[:2])
    c = math.sqrt(sys.float_info.max) / xs[j] * 1.001
    assert (c * max(xs[:j])) ** 2 < math.inf
    with pytest.raises(OverflowError):
        (c * xs[j]) ** 2
    p0 = repr(xs[0])

    def cube(first, second):
        return SingularCube(dom, ExprMap((parse_expr(first, 1),
                                          parse_expr(second, 1))))

    grow, grown = f"({c!r}*x1)^2", f"(x1*{c!r})^2"  # equal values
    tiny, tinier = "(x1*1e-200)^2", "(1e-200*x1)^2"
    parting = f"x1+(x1-{p0})"  # equal to x1 at point 0 only
    cases = [[cube("x1", grow), cube("x1", grown)],
             [cube("x1", grow), cube(parting, grown)],
             [cube("x1", grow), cube("x1", "x1"), cube("x1", grown)],
             [cube("x1", tiny), cube("x1", tinier), cube(parting, tiny)]]
    outcomes, proofs = set(), _count_proofs(monkeypatch)
    for cubes in cases:
        chain = Chain(Theta.TYPE1, 0.0, 1, 2, tuple((1, c) for c in cubes))
        for ch in (chain, chain + chain):
            for tol in (0.0, MERGE_TOL, math.inf):
                got = _normalize_outcome(
                    lambda x: chain_normalize(x, tol), ch)
                assert got == _normalize_outcome(
                    lambda x: reference_chain_normalize(x, tol), ch)
                outcomes.add(type(got))
    assert outcomes == {list, tuple}
    assert proofs[True] and proofs[False]


def test_normalize_pin_past_the_floats_matches_reference():
    # a pin at an int past the float range, which the map reads only as
    # x2^0: its runs never convert it, while its registers would, so the
    # proof leaves the comparison to the lanes
    dom = CubeDomain(Theta.TYPE1, 0.5, 2)
    faces = dom._face_domain()[0]
    x1, x2 = Expr.variable(0, 2), Expr.variable(1, 2)
    mapping = ExprMap((x1 + x2 ** 0, x1))
    twins = [SingularCube(faces, mapping.pin(1, Dual(10 ** 400)))
             for _ in range(2)]
    chain = Chain(Theta.TYPE1, 0.5, 1, 2, ((1, twins[0]), (-1, twins[1])))
    assert _terms(chain_normalize(chain)) == \
        _terms(reference_chain_normalize(chain)) == []


def _rounding_maps(c: float) -> list:
    """Pairs of root maps of arity 3 with equal exact values and floats
    apart by their roundings: x1 + c - c against x1, and products of
    x1, x2 and x3 against their re-association."""
    x1, x2, x3 = (Expr.variable(i, 3) for i in range(3))
    shift = (x1 + c) - c
    return [(ExprMap((shift, x2, x3 * x2)), ExprMap((x1, x2, x3 * x2))),
            (ExprMap(((x1 * x2) * x3, x1, shift * x3)),
             ExprMap((x1 * (x2 * x3), x1, x1 * x3)))]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, 0.5, 1.0))
def test_normalize_proofs_match_reference_at_rounding_scale(theta, r,
                                                          monkeypatch):
    # maps whose floats part by their roundings alone: a face of each
    # pinned at 0, at b or at -0.0, in both orders, at tolerances from 0
    # past the roundings to inf and NaN.  The registers prove some merges
    # and leave others to the lanes; either way the reference's merges
    proofs = _count_proofs(monkeypatch)
    domain = CubeDomain(theta, r, 3)
    faces, ends = domain._face_domain()
    values = (ZERO, ends[1], Dual(-0.0, -0.0))
    tols = (0.0, 1e-15, MERGE_TOL, 1e-6, 1.0, math.inf, math.nan)
    for c in (1.0, 1e4, 1e8, 1e12):
        for mine, theirs in _rounding_maps(c):
            terms = []
            for index in range(3):
                for value in values:
                    terms += [(1, SingularCube(faces, mine.pin(index, value))),
                              (-1, SingularCube(faces,
                                                theirs.pin(index, value)))]
            chain = Chain(theta, r, 2, 3, tuple(terms))
            for ch in (chain, Chain(theta, r, 2, 3, tuple(terms[::-1]))):
                for tol in tols:
                    assert _terms(chain_normalize(ch, tol)) == \
                        _terms(reference_chain_normalize(ch, tol))
    assert proofs[True] and proofs[False]


def test_pinned_faces_normalize_by_their_runs():
    # the components of a pinned map fold 0 * inf to 0, its run does not:
    # on the face x1 = 0 the components are the constant 0 and the sample
    # values NaN, so twin faces of two such cubes agree with nothing and
    # stay, as in the reference, while plain maps of their components
    # cancel
    dom = CubeDomain(Theta.TYPE1, 0.5, 2)
    big = "((x2+1)*1e300*1e300)"
    twins = [face(SingularCube(dom, ExprMap((parse_expr(text, 2),
                                             parse_expr("x2", 2)))), 1, 0)
             for text in (f"x1*{big}", f"{big}*x1")]
    point = reference_domain_points(twins[0].domain)[0]
    for twin in twins:
        assert twin.mapping.components[0] == Expr.constant(0.0, 1)
        assert math.isnan(twin.mapping.eval(point)[0].re)
    chain = Chain(Theta.TYPE1, 0.5, 1, 2, ((1, twins[0]), (-1, twins[1])))
    assert _terms(chain_normalize(chain)) == \
        _terms(reference_chain_normalize(chain)) == _terms(chain)
    plain = Chain(Theta.TYPE1, 0.5, 1, 2, tuple(
        (w, SingularCube(c.domain, ExprMap(c.mapping.components)))
        for w, c in chain.terms))
    assert not chain_normalize(plain).terms
    assert not reference_chain_normalize(plain).terms


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
