import copy
import gc
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from dualstokes import (Dual, DualBox, DualMap, DualVec, EPS, Expr, ExprMap,
                        ONE, ParseError, ZERO, as_dual, compose, compose_maps,
                        cos, cr_check, eval_dual, eval_enclosure, exp,
                        exprs_equal, is_zero_expr, jacobian, parse_expr,
                        partial_diff, render_expr, sample_points, sin)
from dualstokes import CubeDomain, Theta, darboux, expr
from dualstokes.darboux import polynomial_estimate
from dualstokes.expr import (KEY_BITS, MAX_DEGREE, MAX_MONOMIALS, MAX_NESTING,
                             _NODES, _PAIRS, _POLYS, Add, Const, Mul, Neg,
                             NotPolynomial, PowInt, Prim, Sub, Var, _add, _mul,
                             _poly_vars, _run, _sub, expand_polynomial,
                             lower_expr, partial_diffs, poly_diff)
from helpers import (THETAS, _exact_pin, bracket_contains, point_in_box,
                     random_box, random_expr, random_map, random_poly,
                     reference_cr_check, reference_diff, reference_enclose,
                     reference_eval, reference_exact_expansion,
                     reference_exact_integral, reference_exact_partial,
                     reference_exprs_equal, reference_primitive_pair,
                     reference_render, reference_subst, small_point,
                     trees_match)


# ---------------------------------------------------------------------------
# parsing


def test_parse_numbers_and_atoms():
    assert eval_dual(parse_expr("2", 0), ()) == Dual(2)
    assert eval_dual(parse_expr("2.5e1", 0), ()) == Dual(25)
    assert eval_dual(parse_expr(".5", 0), ()) == Dual(0.5)
    assert eval_dual(parse_expr("eps", 0), ()) == EPS
    assert eval_dual(parse_expr("x1", 1), [Dual(7, 1)]) == Dual(7, 1)


def test_parse_precedence():
    # power binds tighter than unary minus
    assert eval_dual(parse_expr("-x1^2", 1), [Dual(3)]) == Dual(-9)
    assert eval_dual(parse_expr("(-x1)^2", 1), [Dual(3)]) == Dual(9)
    # product binds tighter than sum, left association for minus
    assert eval_dual(parse_expr("1-2-3", 0), ()) == Dual(-4)
    assert eval_dual(parse_expr("2+3*4", 0), ()) == Dual(14)
    assert eval_dual(parse_expr("2*3^2", 0), ()) == Dual(18)
    assert eval_dual(parse_expr("--2", 0), ()) == Dual(2)
    assert eval_dual(parse_expr("2*-3", 0), ()) == Dual(-6)


def test_parse_functions():
    f = parse_expr("exp(x1)+sin(x2)*cos(x1)", 2)
    p = [Dual(0.3), Dual(-0.2)]
    want = math.exp(0.3) + math.sin(-0.2) * math.cos(0.3)
    assert abs(eval_dual(f, p).re - want) < 1e-15


def test_parse_whitespace():
    a = parse_expr(" x1 + 2 * exp( x2 ) ", 2)
    b = parse_expr("x1+2*exp(x2)", 2)
    assert a.node == b.node


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + $", 1)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_expr("x3", 2)  # arity too small
    with pytest.raises(ParseError):
        parse_expr("y1", 1)
    with pytest.raises(ParseError):
        parse_expr("x1^-2", 1)  # exponents must be unsigned integers
    with pytest.raises(ParseError):
        parse_expr("x1^2.5", 1)
    with pytest.raises(ParseError):
        parse_expr("(x1+1", 1)
    with pytest.raises(ParseError):
        parse_expr("x1 x2", 2)
    with pytest.raises(ParseError):
        parse_expr("", 0)
    with pytest.raises(ParseError):
        parse_expr("sin x1", 1)
    with pytest.raises(ParseError):
        parse_expr("x0", 1)  # variables are 1-based


@pytest.mark.parametrize("text, position", [
    ("1e999", 0), ("2 + 1e999*x1", 4), ("x1*(1.5e400)", 4)])
def test_parse_rejects_overflowing_literal(text, position):
    # a literal beyond the float range would read as inf and poison every
    # bracket; it is refused at its own offset
    with pytest.raises(ParseError) as err:
        parse_expr(text, 1)
    assert err.value.position == position
    assert eval_dual(parse_expr("1.7e308", 0), ()) == Dual(1.7e308)


@pytest.mark.parametrize("text, position", [
    ("exp(1000)", 0), ("1e200^2", 5), ("sin(1e308*10)", 0),
    ("x1+cos(2*exp(800))", 9)])
def test_parse_rejects_a_fold_that_overflows(text, position):
    # the parser folds constants, and a fold that raises OverflowError is
    # an error in the text, at the operator's offset; a fold that
    # overflows to inf without one, as 1e308*10 does, is left to the
    # brackets that read it
    with pytest.raises(ParseError, match="overflows") as err:
        parse_expr(text, 1)
    assert err.value.position == position
    assert parse_expr("1e308*10*x1", 1).node.lhs.value == Dual(math.inf)


_NESTINGS = {"parens": ("(", ")"), "minus": ("-", ""), "calls": ("sin(", ")")}


@pytest.mark.parametrize("opener, closer", _NESTINGS.values(), ids=_NESTINGS)
def test_parse_nesting_cap(opener, closer):
    def nested(depth):
        return opener * depth + "x1" + closer * depth

    parse_expr(nested(MAX_NESTING), 1)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError) as err:
            parse_expr(nested(depth), 1)
        # the offset of what sits inside the first level beyond the cap
        assert err.value.position == len(opener) * (MAX_NESTING + 1)


def test_parse_x_index_zero_padding():
    # UINT admits leading zeros, so "x01" is an alias for "x1"
    assert parse_expr("x01", 5).node == parse_expr("x1", 5).node
    assert eval_dual(parse_expr("x1^02", 1), [Dual(3)]) == Dual(9)


# ---------------------------------------------------------------------------
# evaluation semantics


def test_lifted_primitives():
    x = Dual(0.7, 2.5)
    f = parse_expr("exp(x1)", 1)
    got = eval_dual(f, [x])
    assert abs(got.re - math.exp(0.7)) < 1e-15
    assert abs(got.ze - 2.5 * math.exp(0.7)) < 1e-15
    g = parse_expr("sin(x1)", 1)
    got = eval_dual(g, [x])
    assert abs(got.re - math.sin(0.7)) < 1e-15
    assert abs(got.ze - 2.5 * math.cos(0.7)) < 1e-15
    h = parse_expr("cos(x1)", 1)
    got = eval_dual(h, [x])
    assert abs(got.re - math.cos(0.7)) < 1e-15
    assert abs(got.ze + 2.5 * math.sin(0.7)) < 1e-15


def test_polynomial_on_duals():
    f = parse_expr("x1^2*x2 - 3*x1 + eps", 2)
    x = Dual(2, 1)
    y = Dual(-1, 2)
    want = x * x * y - 3 * x + EPS
    assert eval_dual(f, [x, y]) == want


def test_point_arguments_are_dual_vecs_or_sequences_of_scalars():
    f = parse_expr("x1*x2 + eps*x2", 2)
    m = ExprMap((f, parse_expr("x1 - x2", 2)))
    values = DualVec([Dual(-3.0, -2.0), Dual(3.5)])
    jac = DualMap(((Dual(-2.0), Dual(1.5, 1.0)), (ONE, Dual(-1.0))))
    for point in ([1.5, -2.0], (1.5, -2), DualVec([1.5, -2.0]),
                  [Dual(1.5), Dual(-2.0)]):
        assert eval_dual(f, point) == Dual(-3.0, -2.0)
        assert m.eval(point) == values
        assert jacobian(m, point) == jac
    for point in ([1.0], [1.0, 2.0, 3.0], DualVec([1.0, 2.0, 3.0]), []):
        for call in (lambda: eval_dual(f, point), lambda: m.eval(point),
                     lambda: jacobian(m, point)):
            with pytest.raises(ValueError):
                call()


def test_eval_arity_mismatch():
    f = parse_expr("x1", 1)
    with pytest.raises(ValueError):
        eval_dual(f, [Dual(1), Dual(2)])
    with pytest.raises(ValueError):
        eval_dual(f, [])


def test_expr_operators_match_eval():
    rng = random.Random(11)
    x = Expr.variable(0, 2)
    y = Expr.variable(1, 2)
    f = (x + 2) * y - x ** 3 + sin(y) * 0.5
    for _ in range(20):
        p = small_point(rng, 2)
        a, b = p
        want = (a + 2) * b - a ** 3 + _sin_dual(b) * 0.5
        got = eval_dual(f, p)
        assert abs(got.re - want.re) < 1e-12
        assert abs(got.ze - want.ze) < 1e-12


def _sin_dual(x: Dual) -> Dual:
    return Dual(math.sin(x.re), x.ze * math.cos(x.re))


def test_constant_folding_and_identities():
    assert is_zero_expr(parse_expr("2-2", 0))
    assert is_zero_expr(parse_expr("0*x1", 1))
    assert parse_expr("1*x1", 1).node == parse_expr("x1", 1).node
    assert parse_expr("x1+0", 1).node == parse_expr("x1", 1).node
    assert parse_expr("x1^0", 1).node == parse_expr("1", 1).node
    assert render_expr(parse_expr("2*3", 0)) == "6.0"
    assert render_expr(parse_expr("exp(0)", 0)) == "1.0"
    # folding does not dig into non-constant structure
    f = parse_expr("x1-x1", 1)
    assert not is_zero_expr(f)
    assert exprs_equal(f, Expr.constant(0.0, 1))


def test_arity_validation():
    with pytest.raises(ValueError):
        Expr.variable(2, 2)
    with pytest.raises(ValueError):
        Expr(Var(2), 2)  # a raw tree is still checked
    with pytest.raises(ParseError):
        parse_expr("x3", 2)
    with pytest.raises(ValueError):
        parse_expr("x1", 1) + parse_expr("x1", 2)
    assert (parse_expr("x1", 3) + 1).arity == 3


@pytest.mark.parametrize("symbol, build", (("add", _add), ("sub", _sub),
                                           ("mul", _mul)))
def test_operators_build_the_smart_constructors_node(symbol, build):
    f = parse_expr("x1*x2 + 1", 2)
    g = parse_expr("x2 - 3", 2)
    apply = getattr(operator, symbol)
    for other in (g, 3, 0, 2.5, 1.0, Dual(0.5, -1.0)):
        node = other.node if isinstance(other, Expr) else Const(as_dual(other))
        for got, want in ((apply(f, other), build(f.node, node)),
                          (apply(other, f), build(node, f.node))):
            assert got.arity == 2 and got.node is want
    # an Expr on the left never reaches the reflected method by syntax
    reflected = getattr(Expr, f"__r{symbol}__")(f, g)
    assert reflected.node is build(g.node, f.node)
    for bad in ((f, "x1"), ("x1", f)):
        with pytest.raises(TypeError):
            apply(*bad)
    for bad in ((f, parse_expr("x1", 1)), (parse_expr("x1", 3), f)):
        with pytest.raises(ValueError):
            apply(*bad)
    with pytest.raises(ValueError):
        getattr(Expr, f"__r{symbol}__")(f, parse_expr("x1", 1))


# ---------------------------------------------------------------------------
# rendering


def test_render_fixed_cases():
    cases = [
        ("-x1^2", "-x1^2"),
        ("-(x1*x2)", "-(x1*x2)"),
        ("(x1+x2)*x3", "(x1+x2)*x3"),
        ("x1-(x2-x3)", "x1-(x2-x3)"),
        ("x1-x2-x3", "x1-x2-x3"),
        ("(x1+x2)^2", "(x1+x2)^2"),
        ("sin(x1)*cos(x2)", "sin(x1)*cos(x2)"),
    ]
    for text, want in cases:
        assert render_expr(parse_expr(text, 3)) == want


def test_render_round_trip_random():
    rng = random.Random(77)
    for _ in range(300):
        arity = rng.randint(0, 3)
        f = random_expr(rng, arity, depth=4)
        back = parse_expr(render_expr(f), arity)
        assert trees_match(back.node, f.node), render_expr(f)


def test_render_negative_constants_round_trip():
    # tricky constant placements: negative reals, eps multiples
    for text in ("x1*(0.0-2.0*eps)", "-2.0+x1", "x1^2*(-3.0)", "eps*x1",
                 "(2.0-1.0*eps)*x1", "-(2.0+1.0*eps)"):
        f = parse_expr(text, 1)
        assert trees_match(parse_expr(render_expr(f), 1).node, f.node)


# ---------------------------------------------------------------------------
# differentiation


def test_partial_diff_fixed():
    f = parse_expr("x1^3*x2", 2)
    fx = partial_diff(f, 0)
    fy = partial_diff(f, 1)
    p = [Dual(2, 1), Dual(3, -1)]
    assert eval_dual(fx, p) == Dual(3) * (p[0] ** 2) * p[1]
    assert eval_dual(fy, p) == p[0] ** 3
    assert is_zero_expr(partial_diff(parse_expr("x2", 2), 0))
    for bad in (2, -1):
        with pytest.raises(ValueError):
            partial_diff(f, bad)
    # as for Var: no bool or float stands in for an index
    for bad in (0.5, 1.0, True, False, "1", None):
        with pytest.raises(TypeError):
            partial_diff(parse_expr("x1*x2", 2), bad)
        with pytest.raises(TypeError):
            partial_diffs(f, (0, bad))


def test_partial_diff_primitives():
    f = parse_expr("exp(x1^2)", 1)
    df = partial_diff(f, 0)
    x = Dual(0.4, 0.3)
    want = Dual(2) * x * _exp_dual(x * x)
    got = eval_dual(df, [x])
    assert abs(got.re - want.re) < 1e-14
    assert abs(got.ze - want.ze) < 1e-14


def _exp_dual(x: Dual) -> Dual:
    e = math.exp(x.re)
    return Dual(e, x.ze * e)


def test_derivative_matches_finite_differences():
    rng = random.Random(42)
    h = 1e-6
    for _ in range(60):
        arity = rng.randint(1, 3)
        f = random_expr(rng, arity, depth=2)
        p = small_point(rng, arity, scale=0.6)
        for i in range(arity):
            d = eval_dual(partial_diff(f, i), p)
            hi = list(p)
            lo = list(p)
            hi[i] = Dual(p[i].re + h, p[i].ze)
            lo[i] = Dual(p[i].re - h, p[i].ze)
            fd_re = (eval_dual(f, hi).re - eval_dual(f, lo).re) / (2 * h)
            fd_ze = (eval_dual(f, hi).ze - eval_dual(f, lo).ze) / (2 * h)
            assert abs(fd_re - d.re) < 1e-5
            assert abs(fd_ze - d.ze) < 1e-5


# ---------------------------------------------------------------------------
# composition


def test_compose_fixed():
    f = parse_expr("x1^2+x2", 2)
    g1 = parse_expr("x1*x2", 2)
    g2 = parse_expr("x1-x2", 2)
    h = compose(f, [g1, g2])
    p = [Dual(2, 1), Dual(3, 0)]
    assert eval_dual(h, p) == eval_dual(g1, p) ** 2 + eval_dual(g2, p)


def test_compose_random():
    rng = random.Random(5)
    for _ in range(50):
        outer_arity = rng.randint(1, 3)
        inner_arity = rng.randint(1, 3)
        f = random_expr(rng, outer_arity, depth=2)
        gs = [random_expr(rng, inner_arity, depth=2)
              for _ in range(outer_arity)]
        p = small_point(rng, inner_arity, scale=0.5)
        direct = eval_dual(f, [eval_dual(g, p) for g in gs])
        composed = eval_dual(compose(f, gs), p)
        assert abs(direct.re - composed.re) < 1e-9
        assert abs(direct.ze - composed.ze) < 1e-9


def test_compose_validation():
    f = parse_expr("x1+x2", 2)
    with pytest.raises(ValueError):
        compose(f, [parse_expr("x1", 1)])
    with pytest.raises(ValueError):
        compose(f, [parse_expr("x1", 1), parse_expr("x1", 2)])


# ---------------------------------------------------------------------------
# enclosures


def test_enclosure_fixed():
    f = parse_expr("x1^2", 1)
    box = eval_enclosure(f, [DualBox(-1.0, 2.0, 0.0, 1.0)])
    # even power over a zero-crossing interval
    assert box.re_lo == 0.0
    assert box.re_hi == 4.0
    g = parse_expr("sin(x1)", 1)
    wide = eval_enclosure(g, [DualBox(0.0, 10.0, 0.0, 0.0)])
    assert wide.re_lo == -1.0 and wide.re_hi == 1.0
    narrow = eval_enclosure(g, [DualBox(0.1, 0.2, 0.0, 0.0)])
    assert abs(narrow.re_lo - math.sin(0.1)) < 1e-15
    assert abs(narrow.re_hi - math.sin(0.2)) < 1e-15
    # maximum of sine sits inside this window
    peak = eval_enclosure(g, [DualBox(1.0, 2.0, 0.0, 0.0)])
    assert peak.re_hi == 1.0


def test_enclosure_contains_samples():
    rng = random.Random(99)
    for _ in range(150):
        arity = rng.randint(1, 2)
        f = random_expr(rng, arity, depth=3)
        boxes = [random_box(rng) for _ in range(arity)]
        enc = eval_enclosure(f, boxes)
        for _ in range(12):
            p = [point_in_box(rng, b) for b in boxes]
            v = eval_dual(f, p)
            assert enc.contains(v, tol=1e-9 * (1 + abs(v.re) + abs(v.ze)))


def test_enclosure_point_box_is_tight_for_polynomials():
    rng = random.Random(7)
    for _ in range(40):
        f = random_expr(rng, 2, depth=2, prims=False)
        p = small_point(rng, 2)
        boxes = [DualBox.point(c) for c in p]
        enc = eval_enclosure(f, boxes)
        v = eval_dual(f, p)
        assert abs(enc.re_lo - v.re) < 1e-9 and abs(enc.re_hi - v.re) < 1e-9
        assert abs(enc.ze_lo - v.ze) < 1e-9 and abs(enc.ze_hi - v.ze) < 1e-9


def test_box_validation():
    with pytest.raises(ValueError):
        DualBox(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        DualBox(0.0, 1.0, 1.0, 0.0)
    b = DualBox(0.0, 1.0, -1.0, 1.0)
    assert b.width_re == 1.0 and b.width_ze == 2.0
    assert b.contains(Dual(0.5, 0.0))
    assert not b.contains(Dual(1.5, 0.0))


# ---------------------------------------------------------------------------
# lowering


def test_lowering_shares_equal_subtrees():
    x1, x2 = Expr.variable(0, 2), Expr.variable(1, 2)
    f = (x1 + x2) * (Expr.variable(0, 2) + Expr.variable(1, 2))
    assert f.node.lhs is f.node.rhs  # equal trees are one node
    code = lower_expr(f)
    assert [ins.op for ins in code] == ["var", "var", "add", "mul"]
    assert code[3].a == code[3].b == 2


def test_lowering_keeps_signed_zero_constants_apart():
    x1 = Expr.variable(0, 1)
    f = x1 * Expr.constant(Dual(0.0, 1.0), 1) + x1 * Expr.constant(
        Dual(-0.0, 1.0), 1)
    consts = [ins.a for ins in lower_expr(f) if ins.op == "const"]
    assert [repr(c) for c in consts] == [repr(Dual(0.0, 1.0)),
                                         repr(Dual(-0.0, 1.0))]


def test_deep_operator_chains_build_and_lower():
    f = Expr.variable(1, 2)
    for _ in range(1000):
        f = exp(f) * 2.0 + 1.0
    code = lower_expr(f)
    assert len(code) == 3 * 1000 + 3  # x2, 2.0, 1.0, then exp, mul, add
    assert code[-1].op == "add" and code[-1].level == 1
    with pytest.raises(ValueError):
        Expr(f.node, 1)  # the node's stored level says it reads x2


def test_programs_are_lowered_on_first_use_and_kept():
    # the subtree is one no other test builds: a failing test's traceback
    # that prints a tree lowers every node in it and keeps it alive
    f = parse_expr("x1*x2*7.25+exp(x1)", 2)
    g = Expr.constant(2.0, 2) * Expr.variable(0, 2)
    for h in (f, g):
        assert h.node._code is None  # building lowers nothing
        code = lower_expr(h)
        assert lower_expr(h) is code
        assert lower_expr(Expr(h.node, 3)) is code  # kept with the node
    assert parse_expr("x1*x2*7.25", 2).node._code is None  # not with subtrees


# ---------------------------------------------------------------------------
# interning


@pytest.mark.parametrize("rounds", [400, 1000])
def test_deep_equal_trees_are_one_node(rounds):
    def build():
        x1 = Expr.variable(0, 1)
        f = x1
        for _ in range(rounds):
            f = sin(f) * 0.5 + x1
        return f

    f, g = build(), build()
    assert f.node is g.node
    assert f == g and hash(f) == hash(g) and hash(f.node) == hash(g.node)
    assert f != build() + 1.0
    text = repr(f.node)
    assert text.count("Prim(name='sin'") == rounds
    assert text.startswith("Add(lhs=Mul(lhs=Prim(") and repr(f) == repr(g)


def test_constants_are_keyed_by_their_bits():
    pairs = [(Dual(0.0), Dual(-0.0)), (Dual(0.0, 0.0), Dual(0.0, -0.0)),
             (Dual(1, 0), Dual(1.0, 0.0)), (Dual(2), Dual(2.0))]
    for left, right in pairs:
        assert left == right  # equal as Duals ...
        assert Const(left) is not Const(right)  # ... but not as nodes
        assert Const(left) is Const(Dual(left.re, left.ze))
    assert Const(Dual(math.nan)) is Const(Dual(-math.nan))  # repr: 'nan'


def test_unheld_nodes_leave_the_table():
    from dualstokes.expr import _NODES_BY_KEY
    x1 = Expr.variable(0, 1)
    f = exp(x1 * 0.123456789) + x1
    key = ("add", id(f.node.lhs), id(f.node.rhs))
    assert _NODES_BY_KEY[key]() is f.node
    gc.collect()  # garbage from earlier tests must not leave during the count
    size = len(_NODES_BY_KEY)
    del f
    gc.collect()
    assert key not in _NODES_BY_KEY
    assert len(_NODES_BY_KEY) == size - 4  # add, exp, mul, the constant


def test_copied_and_pickled_nodes_are_the_same_node():
    f = parse_expr("x1*exp(x2)-(1.5+eps)*x1^3", 2)
    assert copy.copy(f.node) is f.node and copy.deepcopy(f.node) is f.node
    assert pickle.loads(pickle.dumps(f)) == f


def test_nodes_check_their_operands():
    with pytest.raises(TypeError):
        Add(Var(0), 1.0)
    with pytest.raises(TypeError):
        Const(1.0)
    with pytest.raises(ValueError):
        Prim("neg", Var(0))
    for bad, error in ((-1, ValueError), (True, TypeError), (1.0, TypeError)):
        with pytest.raises(error):
            Var(bad)
    with pytest.raises(AttributeError):
        Var(0).index = 1


def test_lowering_levels_are_highest_variable_read():
    rng = random.Random(61)
    for _ in range(100):
        arity = rng.randint(0, 3)
        code = lower_expr(random_expr(rng, arity, depth=4))
        reads = []  # variables each register reads, directly or not
        for ins in code:
            if ins.op == "const":
                read = set()
            elif ins.op == "var":
                read = {ins.a}
            else:
                read = set(reads[ins.a])
                if ins.op in ("add", "sub", "mul"):
                    read |= reads[ins.b]
            reads.append(read)
            assert ins.level == max(read, default=-1)


# ---------------------------------------------------------------------------
# equality on the sample grid


def test_sample_points_fixed():
    assert sample_points(2) == sample_points(2)
    assert len(sample_points(3)) == 16
    assert all(len(p) == 3 for p in sample_points(3))
    assert sample_points(0) == ((),) * 16


@pytest.mark.parametrize("arity", (0, 1, 3))
def test_sample_points_are_built_once(arity):
    rng = random.Random(0x51AB + 7919 * arity)
    fresh = tuple(tuple(Dual(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                        for _ in range(arity))
                  for _ in range(16))
    assert sample_points(arity) == fresh
    assert sample_points(arity) is sample_points(arity)
    assert sample_points(arity, 4) == fresh[:4]


def test_exprs_equal():
    a = parse_expr("(x1+x2)^2", 2)
    b = parse_expr("x1^2+2*x1*x2+x2^2", 2)
    assert exprs_equal(a, b)
    assert not exprs_equal(a, parse_expr("x1^2+x2^2", 2))
    assert not exprs_equal(parse_expr("x1", 1), parse_expr("x1", 2))


def test_exprs_equal_rejects_non_finite_values():
    nan = parse_expr("(x1+1)*1e200*1e200 - (x1+1)*1e200*1e200 + 7", 1)
    inf = parse_expr("(x1+1)*1e200*1e200", 1)
    assert not exprs_equal(parse_expr("x1", 1), nan)
    assert not exprs_equal(nan, nan)
    assert not exprs_equal(inf, inf)  # inf - inf is NaN


# ---------------------------------------------------------------------------
# maps, jacobians, block structure


def test_expr_map_basics():
    m = ExprMap((parse_expr("x1*x2", 2), parse_expr("x1+x2", 2)))
    assert m.arity == 2 and m.dim_out == 2
    got = m.eval([Dual(2, 1), Dual(3, 0)])
    assert got == DualVec([Dual(6, 3), Dual(5, 1)])
    ident = ExprMap.identity(3)
    p = [Dual(1, 2), Dual(3), Dual(0, 1)]
    assert ident.eval(p) == DualVec(p)
    with pytest.raises(ValueError):
        ExprMap((parse_expr("x1", 1), parse_expr("x1", 2)))
    with pytest.raises(ValueError):
        ExprMap(())


def test_expr_map_compose():
    f = ExprMap((parse_expr("x1^2", 1),))
    g = ExprMap((parse_expr("x1+x2", 2),))
    h = f.compose(g)
    assert h.arity == 2
    assert h.eval([Dual(1), Dual(2)]) == DualVec([Dual(9)])
    with pytest.raises(ValueError):
        g.compose(f)  # 1 output feeding a 2-input map


# A map's program runs all its components at once; each component's
# register must be what a run of that component's own program gives.


def _run_outcome(run):
    """(True, what `run()` returns), or (False, the type it raises)."""
    try:
        return True, run()
    except (OverflowError, NotPolynomial) as exc:
        return False, type(exc)


def _check_map_program(m, rng):
    def agree(kind, arith, args, same):
        ok_map, got = _run_outcome(lambda: m.run(arith, args))
        per = [_run_outcome(lambda c=c: _run(lower_expr(c), arith, args))
               for c in m.components]
        if not ok_map:  # the map raises where the first component raising does
            assert got == next(value for ok, value in per if not ok), kind
            return
        assert all(ok for ok, _ in per), kind
        assert len(got) == len(per) == m.dim_out, kind
        for x, (_, y) in zip(got, per):
            assert same(x, y), (kind, x, y)

    point = tuple((c.re, c.ze) for c in small_point(rng, m.arity))
    agree("pairs", _PAIRS, point, lambda x, y: repr(x) == repr(y))
    inner_arity = rng.randint(0, 3)
    inner = [random_expr(rng, inner_arity, depth=2).node
             for _ in range(m.arity)]
    agree("nodes", _NODES, inner, lambda x, y: x is y)
    # repr shows the terms in their order, each coefficient's bits (a NaN
    # one too, which == would refuse), the shadow, order and degree
    agree("polys", _POLYS, _poly_vars(m.arity),
          lambda x, y: repr(x) == repr(y) and (x == y or "nan" in repr(x)))


def _sharing_map(rng, arity: int) -> ExprMap:
    """Components built on one shared subexpression, one of them twice."""
    # f reads a variable, and g is no zero constant, so no product folds
    f = (random_expr(rng, arity, depth=3, prims=rng.random() < 0.5)
         + Expr.variable(rng.randrange(arity), arity))
    g = random_expr(rng, arity, depth=2, prims=False) + 0.75
    comps = [f * g, f + 1.5, -f, f * g]
    rng.shuffle(comps)
    return ExprMap(comps[:rng.randint(2, 4)])


def test_map_programs_match_component_programs_bit_for_bit():
    rng = random.Random(1919)
    for _ in range(150):
        arity, dim_out = rng.randint(1, 3), rng.randint(1, 3)
        _check_map_program(random_map(rng, arity, dim_out, depth=3), rng)
        _check_map_program(random_map(rng, arity, dim_out, depth=3,
                                      prims=False), rng)
        _check_map_program(_sharing_map(rng, arity), rng)
    # overflow in a later component only, and shared by two components
    huge = parse_expr("(x1+1e200)^2", 1)
    _check_map_program(ExprMap((parse_expr("x1", 1), huge)), rng)
    _check_map_program(ExprMap((huge * 2.0, huge)), rng)


def test_map_programs_lower_shared_nodes_once():
    x1, x2 = Expr.variable(0, 2), Expr.variable(1, 2)
    x = x1 + 2.5
    m = ExprMap((x, x2 + x * x2 * 0.25, x2 + x ** 2 * 0.5))
    assert m._code is None  # building lowers nothing
    m.run(_PAIRS, ((0.5, 0.25), (1.0, -1.0)))
    code, outs = m._code
    # x1, 2.5 and x once, not three times; x2 once, not twice
    assert [len(lower_expr(c)) for c in m.components] == [3, 8, 8]
    assert len(code) == 3 + 5 + 4
    assert outs == [2, 7, 11] and code[2].op == "add"
    m.run(_NODES, [Var(1), Var(0)])
    assert m._code[0] is code  # kept with the map, whatever the arithmetic
    rng = random.Random(5)
    for _ in range(40):
        m = _sharing_map(rng, rng.randint(1, 3))
        m.run(_NODES, [Var(i) for i in range(m.arity)])
        assert len(m._code[0]) < sum(len(lower_expr(c)) for c in m.components)


def test_jacobian_fixed():
    m = ExprMap((parse_expr("x1*x2", 2), parse_expr("x1^2", 2)))
    p = [Dual(2, 1), Dual(5, -1)]
    jac = jacobian(m, p)
    assert jac.rows == 2 and jac.cols == 2
    assert jac.entries[0][0] == p[1]
    assert jac.entries[0][1] == p[0]
    assert jac.entries[1][0] == Dual(2) * p[0]
    assert jac.entries[1][1] == ZERO


def test_jacobian_runs_one_program(monkeypatch):
    # every partial of every component, lowered together and run once
    m = ExprMap((parse_expr("x1*x2 + exp(x3)", 3),
                 parse_expr("x1^3 - x2*x3", 3)))
    for c in m.components:  # each component's own program, which the
        lower_expr(c)       # gradient runs read
    lowered = []
    lower = expr._lower
    monkeypatch.setattr(expr, "_lower",
                        lambda roots: lowered.append(roots) or lower(roots))
    p = [Dual(0.5, 1), Dual(-2), Dual(1.5, -0.25)]
    jac = jacobian(m, p)
    assert len(lowered) == 1
    assert jac == DualMap([[eval_dual(partial_diff(c, j), p)
                            for j in range(3)] for c in m.components])


def test_dual_map_operations():
    m = DualMap(((Dual(1, 1), Dual(2)), (ZERO, Dual(0, 1))))
    v = DualVec([Dual(1, 0), Dual(0, 1)])
    assert m.apply(v) == DualVec([Dual(1, 3), ZERO])
    ident = DualMap.identity(2)
    assert ident.apply(v) == v
    assert (m + m).entries[0][0] == Dual(2, 2)
    assert m.scale(2).entries[0][1] == Dual(4)
    with pytest.raises(ValueError):
        m.apply(DualVec([ONE]))
    with pytest.raises(ValueError):
        DualMap(((ONE,), (ONE, ZERO)))


def test_compose_maps_is_chain_rule():
    rng = random.Random(13)
    for _ in range(40):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        c = rng.randint(1, 3)
        inner = random_map(rng, a, b, depth=2)
        outer = random_map(rng, b, c, depth=2)
        p = small_point(rng, a, scale=0.5)
        whole = jacobian(outer.compose(inner), p)
        pieces = compose_maps(jacobian(outer, inner.eval(p)),
                              jacobian(inner, p))
        for i in range(c):
            for j in range(a):
                d1 = whole.entries[i][j]
                d2 = pieces.entries[i][j]
                assert abs(d1.re - d2.re) < 1e-9
                assert abs(d1.ze - d2.ze) < 1e-9


def test_compose_maps_validation():
    with pytest.raises(ValueError):
        compose_maps(DualMap.identity(2), DualMap(((ONE, ONE, ONE),)))


def test_cr_check_accepts_smooth_maps():
    rng = random.Random(21)
    for _ in range(25):
        arity = rng.randint(1, 2)
        m = random_map(rng, arity, rng.randint(1, 2), depth=2)
        p = small_point(rng, arity, scale=0.5)
        assert cr_check(m, p) < 1e-5


def test_cr_check_validation():
    m = ExprMap((parse_expr("x1", 1),))
    with pytest.raises(ValueError):
        cr_check(m, [Dual(0)], h=0.0)
    with pytest.raises(ValueError):
        cr_check(m, [Dual(0), Dual(1)])


@pytest.mark.parametrize("h", (-1e-6, math.nan, math.inf, -math.inf))
def test_cr_check_needs_a_positive_finite_step(h):
    m = ExprMap((parse_expr("x1", 1),))
    for check in (cr_check, reference_cr_check):
        with pytest.raises(ValueError):
            check(m, (Dual(0.5),), h=h)


def test_cr_check_reports_a_nan_deviation():
    # (1e200 + h)^2 overflows on both sides: inf - inf is NaN
    m = ExprMap((parse_expr("x1*x1", 1),))
    assert math.isnan(cr_check(m, [Dual(1e200)]))
    assert math.isnan(reference_cr_check(m, (Dual(1e200),)))
    # the NaN is kept wherever it falls among finite deviations
    m = ExprMap((parse_expr("x2", 2), parse_expr("x1*x1", 2)))
    assert math.isnan(cr_check(m, [Dual(1e200), Dual(1.0)]))


def test_module_functions_wrap_nodes():
    f = Expr.variable(0, 1)
    assert exprs_equal(exp(f), parse_expr("exp(x1)", 1))
    assert exprs_equal(sin(f), parse_expr("sin(x1)", 1))
    assert exprs_equal(cos(f), parse_expr("cos(x1)", 1))


# ---------------------------------------------------------------------------
# the program's walks against the tree walks they replaced


def _outcome(fn):
    # repr tells 0.0 from -0.0 in values and in the constants of trees
    try:
        return repr(fn())
    except OverflowError:  # from a folded or evaluated exp or power
        return "OverflowError"


def _walk_cases():
    rng = random.Random(2024)
    for _ in range(400):
        arity = rng.randint(0, 3)
        yield random_expr(rng, arity, depth=rng.randint(0, 5))
    for _ in range(40):  # shared subtrees
        arity = rng.randint(1, 3)
        f = random_expr(rng, arity, depth=3)
        yield f * f
        yield exp(f) + f
    # raw trees, unfolded by construction
    yield Expr(Add(Const(Dual(1.0)), Const(Dual(2.0))), 0)
    yield Expr(Mul(Const(Dual(3.0, 1.0)), Const(Dual(2.0))), 0)
    yield Expr(Mul(Add(Const(Dual(1.0)), Const(Dual(2.0))), Var(0)), 1)
    yield Expr(Mul(Mul(Const(Dual(1.0)), Var(0)), Var(0)), 1)
    # constants with int fields keep int arithmetic where Dual's does
    two = Expr.constant(Dual(2, 1), 1)
    x1 = Expr.variable(0, 1)
    yield two
    yield two * x1 - x1 ** 3 + two * two
    yield Expr(PowInt(Const(Dual(2, 1)), 3), 0)
    yield Expr(PowInt(Add(Const(Dual(2, -1)), Var(0)), 0), 1)
    yield Expr(Mul(Neg(Const(Dual(2, 1))), Sub(Var(1), Const(Dual(3)))), 2)
    # OverflowError from ** and from exp, raised where Dual's raise it
    huge = Add(Const(Dual(1e200)), Var(0))
    yield Expr(PowInt(huge, 2), 1)
    yield Expr(Mul(Var(0), PowInt(huge, 3)), 1)
    yield Expr(Prim("exp", Add(Const(Dual(1e4)), Var(0))), 1)
    yield Expr(Add(Var(1), Prim("exp", Mul(Const(Dual(800.0)), Var(1)))), 2)


def test_walks_match_reference_tree_walks():
    rng = random.Random(7)
    for f in _walk_cases():
        node, arity = f.node, f.arity
        p = small_point(rng, arity)
        assert (_outcome(lambda: eval_dual(f, p))
                == _outcome(lambda: reference_eval(node, p)))
        assert render_expr(f) == reference_render(node)
        for i in range(arity):
            assert (_outcome(lambda: partial_diff(f, i).node)
                    == _outcome(lambda: reference_diff(node, i)))
        # one gradient run builds each partial as a run for it alone
        assert [p.node for p in partial_diffs(f, range(arity))] == [
            partial_diff(f, i).node for i in range(arity)]
        assert (_outcome(lambda: ExprMap((f, -f)).eval(p))
                == _outcome(lambda: DualVec([reference_eval(node, p),
                                             reference_eval(Neg(node), p)])))
        g = random_expr(rng, arity, depth=2)
        for other in (f, g, f + 1e-10, f * 1.5):
            assert (_outcome(lambda: exprs_equal(f, other))
                    == _outcome(lambda: reference_exprs_equal(f, other)))
        if arity:
            assert _outcome(lambda: jacobian(ExprMap((f,)), p)) == _outcome(
                lambda: DualMap([[reference_eval(reference_diff(node, i), p)
                                  for i in range(arity)]]))
            m = ExprMap((f, g))
            assert (_outcome(lambda: cr_check(m, p))
                    == _outcome(lambda: reference_cr_check(m, p)))
        inner_arity = rng.randint(0, 3)
        inner = [random_expr(rng, inner_arity, depth=2) for _ in range(arity)]
        repl = tuple(g.node for g in inner)
        assert (_outcome(lambda: compose(f, inner).node)
                == _outcome(lambda: reference_subst(node, repl)))


def _enclosure_outcome(fn):
    try:
        return repr(fn())
    except OverflowError as exc:
        return type(exc).__name__


def _enclosure_cases():
    rng = random.Random(4711)
    for _ in range(400):
        arity = rng.randint(1, 3)
        yield random_expr(rng, arity, depth=rng.randint(0, 5))
    for _ in range(40):  # shared subtrees
        f = random_expr(rng, rng.randint(1, 3), depth=3)
        yield f * f
        yield sin(f) * cos(f) + exp(f)
    # raw x^0, which the parser and the operators fold to 1
    x1 = Var(0)
    yield Expr(PowInt(x1, 0), 1)
    yield Expr(PowInt(Add(Const(Dual(2, -1)), x1), 0), 1)
    yield Expr(Mul(PowInt(Var(1), 0), Prim("sin", Var(2))), 3)
    # int constants, and overflow in ** and exp
    yield Expr(Mul(Const(Dual(2, 1)), PowInt(x1, 3)), 1)
    yield Expr(PowInt(Add(Const(Dual(1e200)), x1), 2), 1)
    yield Expr(Prim("exp", Mul(Const(Dual(800.0)), Var(1))), 2)


def test_enclosure_matches_reference_tree_walk():
    # bit for bit, exp/sin/cos included: the golden reports leave them out
    rng = random.Random(99)
    fixed = [DualBox(0.0, 1.0, -0.5, 0.0), DualBox(-7.0, 0.5, 0.0, 2.0),
             DualBox(1.0, 2.0, -1.0, 1.0), DualBox(-2.0, -2.0, 0.5, 0.5),
             DualBox(0.1, 0.2, 0.0, 0.0), DualBox(-0.0, 0.0, -0.0, -0.0)]
    seen = set()
    for f in _enclosure_cases():
        cases = [[random_box(rng) for _ in range(f.arity)] for _ in range(3)]
        cases += [[fixed[(i + shift) % len(fixed)] for i in range(f.arity)]
                  for shift in range(len(fixed))]
        for boxes in cases:
            got = _enclosure_outcome(lambda: eval_enclosure(f, boxes))
            assert got == _enclosure_outcome(
                lambda: reference_enclose(f.node, boxes))
            seen.add(got if got.endswith("Error") else "box")
    assert seen == {"box", "OverflowError"}


def test_raw_zeroth_power_encloses_to_one():
    # as a point run gives (1, 0), over boxes with zero or inf endpoints too
    for base in (Var(0), Add(Const(Dual(2, -1)), Var(0))):
        f = Expr(PowInt(base, 0), 1)
        for box in (DualBox(0.0, 1.0, -0.5, 0.0), DualBox(-0.0, 0.0, 0, 0),
                    DualBox(-math.inf, 0.0, 1.0, math.inf)):
            assert eval_enclosure(f, [box]) == DualBox(1.0, 1.0, 0.0, 0.0)
        assert eval_dual(f, [Dual(0.0, 1.0)]) == Dual(1.0, 0.0)


@pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("prim", [sin, cos])
def test_wave_of_non_finite_argument_overflows(prim, end):
    # sin and cos have no value at inf or NaN, so the box and the point
    # arithmetic both raise OverflowError, not a domain or NaN error
    f = prim(Expr.variable(0, 1) * 2.0)
    finite = DualBox(-1.0, 1.0, 0.0, 0.0)
    half = DualBox(0.5, end, 0, 1) if end > 0 else DualBox(end, 0.5, 0, 1)
    for boxes in ([half], [DualBox(end, end, 0, 0)]):
        with pytest.raises(OverflowError):
            eval_enclosure(f, boxes)
        with pytest.raises(OverflowError):
            reference_enclose(f.node, boxes)
    assert eval_enclosure(f, [finite]) == reference_enclose(f.node, [finite])
    with pytest.raises(OverflowError):
        eval_dual(f, [Dual(end, 1.0)])


@pytest.mark.parametrize("exponent, error", [
    (-1, ValueError), (2.0, TypeError), (True, TypeError)])
def test_raw_powers_need_nonnegative_int_exponents(exponent, error):
    # live nodes whose keys equal the bad ones' do not let them through
    live = PowInt(Var(0), 1), PowInt(Var(0), 2)
    with pytest.raises(error):
        PowInt(Var(0), exponent)
    assert PowInt(Var(0), 2) is live[1]


def test_point_overflow_raises():
    x1 = Expr.variable(0, 1)
    for f in (exp(x1 + 1e4), (x1 + 1e200) ** 2, x1 * (x1 + 1e200) ** 3):
        for run in (lambda: eval_dual(f, [Dual(0.5)]),
                    lambda: ExprMap((x1, f)).eval([Dual(0.5)]),
                    lambda: exprs_equal(f, x1)):
            with pytest.raises(OverflowError):
                run()
    # an infinite value is not an overflow
    assert eval_dual(x1 * 1e300 * 1e300, [Dual(0.5)]).re == math.inf


def test_long_chains_walk_without_recursion():
    # 1000 rounds nest far deeper than Python's recursion limit
    x1 = Expr.variable(0, 1)
    f = x1
    for _ in range(1000):
        f = sin(f) * 0.5 + x1
    x = Dual(0.3, 1.0)
    want = x
    for _ in range(1000):
        want = Dual(math.sin(want.re), want.ze * math.cos(want.re)) \
            * Dual(0.5) + x
    assert repr(eval_dual(f, [x])) == repr(want)
    # the eps part of f(x + eps) is f'(x)
    slope = eval_dual(partial_diff(f, 0), [Dual(0.3)])
    assert slope.re == pytest.approx(want.ze, rel=1e-12)
    doubled = compose(f, [x1 * 2.0])
    assert repr(eval_dual(doubled, [Dual(0.15, 0.5)])) == repr(want)
    text = render_expr(f)
    assert text.count("sin(") == 1000 and text.endswith(")*0.5+x1")


# ---------------------------------------------------------------------------
# polynomial registers


def _exponents(key: int, arity: int) -> tuple:
    mask = (1 << KEY_BITS) - 1
    return tuple((key >> (KEY_BITS * i)) & mask for i in range(arity))


def _check_expansion(f):
    """The register's coefficients are within gamma(2N) times its float
    shadow, in 1-norm, of the exact expansion, and its degree bounds
    every monomial's."""
    terms, shadow, order, degree = expand_polynomial(f)
    got = {_exponents(key, f.arity): pair for key, pair in terms.items()}
    exact = reference_exact_expansion(f)
    error = Fraction(0)
    for exps in got.keys() | exact.keys():
        re, ze = got.get(exps, (0.0, 0.0))
        exact_re, exact_ze = exact.get(exps, (0, 0))
        error += abs(Fraction(re) - exact_re) + abs(Fraction(ze) - exact_ze)
        if exps in got:
            assert sum(exps) <= degree
    u = Fraction(1, 2 ** 53)
    assert error <= (2 * order + 1) * u * Fraction(shadow), str(f)


def test_polynomial_registers_bound_their_expansion():
    rng = random.Random(4343)
    for _ in range(200):
        _check_expansion(random_poly(rng, rng.randint(1, 3), depth=4))


@pytest.mark.parametrize("text", [
    "(0.1*x1 + 0.3*x2 - 0.7*eps)^5 - (0.1*x1 + 0.3*x2)^5",
    "x1*1e-200*1e-200*x2 + x1*0.1",
    "(x1 - 1/3*x2)^3*(x2 + 0.2)^2"])
def test_polynomial_registers_bound_rounding_and_underflow(text):
    _check_expansion(parse_expr(text.replace("1/3", "0.3333333333333333"), 2))


@pytest.mark.parametrize("text", ["exp(x1)", "x2*sin(x1)", "cos(x1+x2)^2",
                                  f"x1^{MAX_DEGREE + 1}",
                                  "*".join(["x1"] * (MAX_DEGREE + 1))])
def test_polynomial_registers_refuse_primitives_and_degree(text):
    with pytest.raises(NotPolynomial):
        expand_polynomial(parse_expr(text, 2))


def test_polynomial_registers_refuse_too_many_monomials():
    expand_polynomial(parse_expr("(x1+x2+1)^21", 2))  # 253 monomials
    assert MAX_MONOMIALS < 276
    with pytest.raises(NotPolynomial, match="monomials"):
        expand_polynomial(parse_expr("(x1+x2+1)^22", 2))  # 276 monomials


def test_polynomial_register_of_a_raw_zeroth_power_is_one():
    f = Expr(PowInt(Add(Var(0), Const(Dual(2.0, -1.0))), 0), 1)
    assert expand_polynomial(f) == ({0: (1.0, 0.0)}, 1.0, 0, 0)


# primitives folded on constant registers


def _constant_argument(rng: random.Random):
    """A node whose polynomial register is a constant, though the node is
    none: one constant under a raw node, a sum, difference or product of
    two, which rounds, or the exact zero of a product with 0.0.  Real
    parts lie in [-10, 10]; some parts are 0.0, -0.0 or large."""
    def part(scale):
        return rng.choice((0.0, -0.0, rng.uniform(-scale, scale),
                           rng.uniform(-scale, scale)))

    def const():
        return Const(Dual(part(5.0), rng.choice((part(3.0), 1e3, -0.1))))
    roll = rng.random()
    if roll < 0.15:
        return Mul(Var(0), Const(Dual(0.0, 0.0)))  # the exact zero
    if roll < 0.4:
        return Neg(const())
    return rng.choice((Add, Sub, Mul))(const(), const())


def test_folded_primitive_brackets_hold_the_exact_value():
    # the fold gives the pair the point arithmetic gives at the
    # argument register's constant; its error is
    # within gamma(2N) times its shadow of every value the Fraction
    # oracle allows; and the exact bracket of the folded register, alone
    # or times a polynomial, holds the oracle's enclosure of the integral
    rng = random.Random(2525)
    u = Fraction(1, 2 ** 53)
    for _ in range(300):
        name = rng.choice(("exp", "sin", "cos"))
        arg = _constant_argument(rng)
        (re, ze), = reference_exact_expansion(Expr(arg, 1)).values() or [
            (Fraction(0), Fraction(0))]
        if abs(re) > 10:
            continue
        terms, shadow, order, degree = register = expand_polynomial(
            Expr(Prim(name, arg), 1))
        # the exact zero, whose register holds no term, is (0.0, 0.0)
        point = expand_polynomial(Expr(arg, 1))[0].get(0, (0.0, 0.0))
        assert repr(terms) == repr({0: expr._prim_pair(name, point)})
        assert degree == 0
        (lo_re, hi_re), (lo_ze, hi_ze) = reference_primitive_pair(name, re, ze)
        got_re, got_ze = map(Fraction, terms[0])
        error = (max(abs(got_re - lo_re), abs(got_re - hi_re))
                 + max(abs(got_ze - lo_ze), abs(got_ze - hi_ze)))
        assert error <= (2 * order + 1) * u * Fraction(shadow), (name, arg)
        dim = rng.randint(1, 3)
        rect = CubeDomain(rng.choice(THETAS), rng.choice((0.0, 0.5, 1.0)),
                          dim).rectangle()
        factor = random_poly(rng, dim, depth=2)
        g_re, g_ze = reference_exact_integral(factor, rect)
        est = polynomial_estimate(_POLYS[4](
            register, expand_polynomial(factor)), rect.theta, rect.intervals)
        for p_re in (lo_re, hi_re):
            for p_ze in (lo_ze, hi_ze):
                exact = (p_re * g_re, p_re * g_ze + p_ze * g_re)
                assert bracket_contains(est, exact), (name, arg, factor)


def test_folded_primitive_bounds_its_argument_error_box():
    # an argument register of order N and shadow S stands for every exact
    # pair within gamma(2N) S of its floats in the 1-norm; at the corners
    # of that box and between them, the folded register of order K and
    # shadow S' is within gamma(K) S' of the oracle's every value, and S'
    # bounds the 1-norm of each
    rng = random.Random(2626)
    u = Fraction(1, 2 ** 53)

    def gamma(n):
        return n * u / (1 - n * u)
    for _ in range(60):
        name = rng.choice(("exp", "sin", "cos"))
        re = rng.choice((0.0, -0.0, rng.uniform(-10.0, 10.0)))
        ze = rng.choice((0.0, -0.0, rng.uniform(-50.0, 50.0)))
        shadow = abs(re) + abs(ze) + rng.choice((0.0, 1.0, 1e3))
        order = rng.randint(0 if shadow == 0 else 1, 40)
        terms, folded, k, _ = expr._poly_prim(
            name, ({0: (re, ze)}, shadow, order, 0))
        radius = gamma(2 * order) * Fraction(shadow)
        got_re, got_ze = map(Fraction, terms[0])
        for a in (Fraction(1), Fraction(-1), Fraction(1, 2),
                  Fraction(-1, 3), Fraction(0)):
            for b in {1 - abs(a), abs(a) - 1}:
                (lo_re, hi_re), (lo_ze, hi_ze) = reference_primitive_pair(
                    name, Fraction(re) + a * radius, Fraction(ze) + b * radius)
                error = (max(abs(got_re - lo_re), abs(got_re - hi_re))
                         + max(abs(got_ze - lo_ze), abs(got_ze - hi_ze)))
                assert error <= gamma(k) * Fraction(folded), (name, re, ze)
                size = max(abs(lo_re), abs(hi_re)) + max(abs(lo_ze),
                                                         abs(hi_ze))
                assert size <= Fraction(folded), (name, re, ze)


@pytest.mark.parametrize("name", ["exp", "sin", "cos"])
def test_folded_primitive_raises_where_the_point_arithmetic_does(name):
    # exp overflows past about 709.78, and sin and cos have no value at
    # an infinite or NaN argument; the fold raises there, and only there
    for re in (0.0, -0.0, 1.0, 709.7, 709.78, 709.79, 710.0, 1e308, -1e308,
               math.inf, -math.inf, math.nan):
        for ze in (0.0, -0.0, 2.5):
            register = ({0: (re, ze)}, abs(re) + abs(ze), 1, 0)
            try:
                want = expr._prim_pair(name, (re, ze))
            except OverflowError:
                with pytest.raises(OverflowError):
                    expr._poly_prim(name, register)
                continue
            assert repr(expr._poly_prim(name, register)[0]) == repr(
                {0: want})


def test_folded_primitive_refuses_a_non_constant():
    # a monomial whose coefficient is 0.0 still makes the register no
    # constant: its exact coefficient need not be 0
    x1 = _poly_vars(1)[0]
    for register in (x1, _POLYS[3](x1, x1), _POLYS[4](x1, x1)):
        with pytest.raises(NotPolynomial):
            expr._poly_prim("sin", register)


# the register derivative


def _nonzero(terms: dict) -> dict:
    return {key: pair for key, pair in terms.items() if pair != (0.0, 0.0)}


@pytest.mark.parametrize("text", [
    "x1", "x1*x2 + 3*x2^2 - eps*x1^3*x2", "(x1 + 2*eps)*(x2 - 1)^3",
    "(x1+1*(1+0.5*eps))*(x3+2*(1+0.5*eps))*0.03 + x2", "-x2 + 4"])
def test_register_derivative_has_the_symbolic_partials_keys(text):
    f = parse_expr(text, 3)
    register = expand_polynomial(f)
    for j in range(3):
        got = poly_diff(register, j)[0]
        want = expand_polynomial(partial_diff(f, j))[0]
        # a partial that folds to the constant 0 expands to {0: 0}
        assert got.keys() == (want.keys() if got else set())
        assert _nonzero(want) == _nonzero(got)


def test_register_derivative_matches_random_symbolic_partials():
    # small integer coefficients: every float operation is exact, so the
    # two agree up to the zero coefficients the partial's folding drops
    rng = random.Random(1717)
    for _ in range(300):
        f = random_poly(rng, rng.randint(1, 3), depth=4)
        try:
            register = expand_polynomial(f)
        except NotPolynomial:
            continue
        for j in range(f.arity):
            got = poly_diff(register, j)[0]
            want = expand_polynomial(partial_diff(f, j))[0]
            assert _nonzero(got) == _nonzero(want), (str(f), j)


def _check_derivative(f, j):
    """The register derivative is within gamma(2N) times its shadow, in
    1-norm, of the exact partial of the exact expansion, and its degree
    bounds every monomial's."""
    terms, shadow, order, degree = poly_diff(expand_polynomial(f), j)
    got = {_exponents(key, f.arity): pair for key, pair in terms.items()}
    exact = reference_exact_partial(reference_exact_expansion(f), j)
    error = Fraction(0)
    for exps in got.keys() | exact.keys():
        re, ze = got.get(exps, (0.0, 0.0))
        exact_re, exact_ze = exact.get(exps, (0, 0))
        error += abs(Fraction(re) - exact_re) + abs(Fraction(ze) - exact_ze)
        if exps in got:
            assert sum(exps) <= degree
    u = Fraction(1, 2 ** 53)
    assert error <= (2 * order + 1) * u * Fraction(shadow), (str(f), j)


def test_register_derivative_bounds_its_rounding():
    rng = random.Random(2929)
    for _ in range(200):
        arity = rng.randint(1, 3)
        scale = Expr.constant(Dual(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                              arity)
        f = random_poly(rng, arity, depth=4) * scale + scale * 0.1
        for j in range(arity):
            _check_derivative(f, j)


@pytest.mark.parametrize("text", [
    "(0.1*x1 + 0.3*x2 - 0.7*eps)^5 - (0.1*x1 + 0.3*x2)^5",
    "x1*1e-200*1e-200*x2 + x1^3*0.1", "(x1 - 1/3*x2)^3*(x2 + 0.2)^2"])
def test_register_derivative_bounds_rounding_and_underflow(text):
    f = parse_expr(text.replace("1/3", "0.3333333333333333"), 2)
    for j in range(2):
        _check_derivative(f, j)


def test_register_derivative_of_a_variable_it_does_not_read_is_zero():
    register = expand_polynomial(parse_expr("x1^2*3.5 + 2", 2))
    assert poly_diff(register, 1) == ({}, 0.0, register[2] + 1, 1)
    # the shadow scales by the largest exponent of the variable, 2 here
    assert poly_diff(register, 0)[1] == register[1] * 2


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, 0.5, 1.0))
def test_register_pin_bounds_the_exact_pin(theta, r):
    # a seeded register with each of its variables in turn pinned at 0
    # or at b = 1 +- r*eps, a point axis, and the others over the face's
    # sides [0, b]: its bracket holds the exact integral of the exact
    # expansion pinned exactly, over the face's domain, a point for
    # arity 1
    rng = random.Random(3300 + 10 * int(theta) + int(2 * r))
    checked = 0
    while checked < 40:
        arity = rng.randint(1, 3)
        scale = Expr.constant(Dual(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                              arity)
        f = random_poly(rng, arity, depth=4) * scale + scale * 0.1
        try:
            register = expand_polynomial(f)
        except NotPolynomial:
            continue
        checked += 1
        exact = reference_exact_expansion(f)
        face = CubeDomain(theta, r, arity - 1)
        for index in range(arity):
            for value in (Dual(0.0), Dual(1.0, theta.sign * r)):
                est = polynomial_estimate(register, theta,
                                          face.axes(((index, value),)))
                want = _exact_pin(exact, index,
                                  (Fraction(value.re), Fraction(value.ze)))
                if arity == 1:
                    integral = want.get((), (0, 0))
                else:
                    integral = reference_exact_integral(want,
                                                        face.rectangle())
                assert bracket_contains(est, integral), (str(f), index, value)


def test_register_pin_at_zero_or_of_an_absent_variable_is_exact():
    # a point at the exact zero weighs x^p, p > 0, by the exact zero with
    # shadow 0 and order 0, and x^0 by the exact 1: it adds no rounding,
    # so the value is that of the register without its monomials in the
    # variable, over the other axes; so is a point on a variable that no
    # monomial holds; and the exact zero integrates to the exact zero
    for zero in (Dual(0.0), Dual(0.0, -0.0), Dual(-0.0, 0.0)):
        assert darboux._axis_weights(zero, 3) == (
            (1.0, 0.0, 1.0, 0),) + ((0.0, 0.0, 0.0, 0),) * 3
    side = CubeDomain(Theta.TYPE2, 0.5, 1).axes(())[0]
    register = expand_polynomial(parse_expr("0.1*x1^2*x3 + 0.3*x2*x3 + 7", 3))
    x2x3, x1x2 = (1 << KEY_BITS) + (1 << 2 * KEY_BITS), 1 + (1 << KEY_BITS)
    dropped = ({x1x2: register[0][x2x3], 0: register[0][0]},) + register[1:]
    within = polynomial_estimate(dropped, Theta.TYPE2, [side, side])
    for zero in (Dual(0.0), Dual(0.0, -0.0)):
        est = polynomial_estimate(register, Theta.TYPE2, [zero, side, side])
        assert est.value == within.value
        assert bracket_contains(est, (within.value.re, within.value.ze))
    absent = expand_polynomial(parse_expr("0.1*x1 + 2", 2))
    est = polynomial_estimate(absent, Theta.TYPE2, [side, Dual(1.0, -0.5)])
    assert est.value == polynomial_estimate(absent, Theta.TYPE2,
                                            [side]).value
    zero = ({}, 0.0, 3, 2)
    for value in (Dual(0.0), Dual(1.0, 0.5), Dual(1.0, -1.0)):
        est = polynomial_estimate(zero, Theta.TYPE2, [value, side])
        assert est.value == ZERO and bracket_contains(est, (0, 0))
        assert est.gap_re == est.gap_ze < darboux.TINY


def test_register_pin_bounds_the_worst_error_its_shadow_admits():
    # a register of order N and shadow S admits any exact polynomial
    # within gamma(N) A of its floats in the 1-norm, A = S / (1 -
    # gamma(N)); with x1 pinned at b = 1 + r*eps, the worst one, off by
    # that on its monomial in x1^p, moves by |b^p| = 1 + p*r times as
    # much, and the bracket over x2 in [0, b] still holds its integral
    u = Fraction(1, 2 ** 53)

    def gamma(n):
        return n * u / (1 - n * u)

    for p in (1, 5, 10):
        for r in (0.5, 1.0):
            key = p + (1 << KEY_BITS)  # x1^p x2
            register = ({key: (0.3, 0.7), 0: (0.1, 0.0)}, 1.1, 20, p + 1)
            face = CubeDomain(Theta.TYPE1, r, 1)
            est = polynomial_estimate(register, Theta.TYPE1,
                                      face.axes(((0, Dual(1.0, r)),)))
            reach = gamma(20) * Fraction(1.1) / (1 - gamma(20))
            for d_re, d_ze in ((reach, 0), (-reach, 0), (0, reach),
                               (0, -reach)):
                exact = {(p, 1): (Fraction(0.3) + d_re, Fraction(0.7) + d_ze),
                         (0, 0): (Fraction(0.1), Fraction(0))}
                want = _exact_pin(exact, 0, (Fraction(1), Fraction(r)))
                integral = reference_exact_integral(want, face.rectangle())
                assert bracket_contains(est, integral), (p, r, d_re, d_ze)
