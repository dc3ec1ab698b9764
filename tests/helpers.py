"""Seeded random generators shared by the test modules."""

import functools
import importlib.util
import random
import sys
from pathlib import Path

from dualstokes import (Chain, CubeDomain, DiffForm, Dual, DualBox, DualVec,
                        Expr, ExprMap, SingularCube, Theta, ThetaInterval,
                        ThetaRectangle, ZERO, ascending_tuples, cos,
                        eval_enclosure, exp, make_interval, sample_points,
                        sin)
from dualstokes.cubes import MERGE_TOL
from dualstokes.expr import (_ONE_NODE, _PREC_ADD, _PREC_ATOM, _PREC_MUL,
                             _PREC_NEG, _PREC_POW, _ZERO_NODE, Add, Const,
                             Mul, Neg, Node, PowInt, Prim, Sub, Var, _add,
                             _const_text, _mul, _neg, _pow, _prim,
                             _prim_value, _sub)

THETAS = (Theta.TYPE1, Theta.TYPE2)
BENCH = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def load_bench_module(name: str):
    """bench/<name>.py, imported by path as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def small_int_dual(rng: random.Random, span: int = 4) -> Dual:
    return Dual(float(rng.randint(-span, span)), float(rng.randint(-span, span)))


def small_point(rng: random.Random, arity: int, scale: float = 0.8):
    return tuple(Dual(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                 for _ in range(arity))


def random_expr(rng: random.Random, arity: int, depth: int = 3,
                prims: bool = True) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        if arity > 0 and rng.random() < 0.75:
            return Expr.variable(rng.randrange(arity), arity)
        return Expr.constant(
            Dual(float(rng.randint(-2, 2)), float(rng.randint(-2, 2))), arity)
    first = random_expr(rng, arity, depth - 1, prims)
    roll = rng.random()
    if roll < 0.22:
        return first + random_expr(rng, arity, depth - 1, prims)
    if roll < 0.40:
        return first - random_expr(rng, arity, depth - 1, prims)
    if roll < 0.62:
        return first * random_expr(rng, arity, depth - 1, prims)
    if roll < 0.72:
        return -first
    if roll < 0.85:
        return first ** rng.randint(0, 3)
    if prims:
        return rng.choice((exp, sin, cos))(first)
    return first * random_expr(rng, arity, depth - 1, prims)


def random_poly(rng: random.Random, arity: int, depth: int = 3) -> Expr:
    return random_expr(rng, arity, depth, prims=False)


def random_map(rng: random.Random, arity: int, dim_out: int, depth: int = 2,
               prims: bool = True) -> ExprMap:
    return ExprMap(tuple(random_expr(rng, arity, depth, prims)
                         for _ in range(dim_out)))


def random_interval(rng: random.Random, theta: Theta,
                    span: float = 2.0) -> ThetaInterval:
    a = Dual(rng.uniform(-span, span), rng.uniform(-span, span))
    roll = rng.random()
    re_w = 0.0 if roll < 0.1 else rng.uniform(0.0, span)
    ze_w = 0.0 if 0.1 <= roll < 0.2 else rng.uniform(0.0, span)
    width = Dual(re_w, theta.sign * ze_w)
    return make_interval(theta, a, a + width)


def random_rectangle(rng: random.Random, theta: Theta, dim: int,
                     span: float = 2.0) -> ThetaRectangle:
    return ThetaRectangle(theta, tuple(random_interval(rng, theta, span)
                                       for _ in range(dim)))


def random_box(rng: random.Random, span: float = 1.5) -> DualBox:
    re = sorted((rng.uniform(-span, span), rng.uniform(-span, span)))
    ze = sorted((rng.uniform(-span, span), rng.uniform(-span, span)))
    return DualBox(re[0], re[1], ze[0], ze[1])


def point_in_box(rng: random.Random, box: DualBox) -> Dual:
    return Dual(rng.uniform(box.re_lo, box.re_hi),
                rng.uniform(box.ze_lo, box.ze_hi))


def random_int_vector(rng: random.Random, n: int, span: int = 3) -> DualVec:
    return DualVec(small_int_dual(rng, span) for _ in range(n))


def random_alt_coeffs(rng: random.Random, n: int, k: int, span: int = 3):
    return {index: small_int_dual(rng, span)
            for index in ascending_tuples(n, k) if rng.random() < 0.7}


def random_form(rng: random.Random, n: int, k: int, depth: int = 2,
                prims: bool = False) -> DiffForm:
    coeffs = {}
    for index in ascending_tuples(n, k):
        if rng.random() < 0.7:
            coeffs[index] = random_expr(rng, n, depth, prims)
    return DiffForm(n, k, coeffs)


def random_cube(rng: random.Random, theta: Theta, r: float, k: int, n: int,
                depth: int = 2) -> SingularCube:
    mapping = ExprMap(tuple(random_poly(rng, k, depth) for _ in range(n)))
    return SingularCube(CubeDomain(theta, r, k), mapping)


def random_chain(rng: random.Random, theta: Theta, r: float, k: int, n: int,
                 terms: int = 2, depth: int = 2) -> Chain:
    cubes = tuple((rng.choice((-2, -1, 1, 2)),
                   random_cube(rng, theta, r, k, n, depth))
                  for _ in range(terms))
    return Chain(theta, r, k, n, cubes)


def reference_uniform_partition(rect: ThetaRectangle, n: int):
    """Each axis's pieces as validated ThetaIntervals, from Dual breakpoints.

    This is the rule `uniform_partition` stores as float breakpoints;
    the pieces of its `cells` must match these by `repr`.
    """
    axes = []
    for iv in rect.intervals:
        w = iv.width
        if w.is_zero():
            points = [iv.a, iv.a]
        else:
            points = [iv.a + w * (j / n) for j in range(n)]
            points.append(iv.a + w)
        axes.append(tuple(ThetaInterval(rect.theta, lo, hi)
                          for lo, hi in zip(points, points[1:])))
    return tuple(axes)


def reference_darboux_sums(f: Expr, partition) -> tuple[Dual, Dual]:
    """(lower, upper) from one enclosure per cell, summed with Dual arithmetic.

    This is the definition `darboux_sums` computes; it must match bit
    for bit.
    """
    sign = partition.rect.theta.sign
    lower = upper = ZERO
    for cell in partition.cells:
        box = eval_enclosure(f, [iv.box() for iv in cell.intervals])
        vol = cell.volume()
        if sign > 0:
            sup = Dual(box.re_hi, box.ze_hi)
            inf = Dual(box.re_lo, box.ze_lo)
        else:
            sup = Dual(box.re_hi, box.ze_lo)
            inf = Dual(box.re_lo, box.ze_hi)
        upper = upper + sup * vol
        lower = lower + inf * vol
    return lower, upper


def reference_domain_points(domain: CubeDomain):
    """A domain's 16 sample points, drawn from a fresh generator each call."""
    if domain.k == 0:
        return ((),)
    rng = random.Random(0xC0BE ^ (domain.k * 1009))
    ze_span = domain.b.ze
    return tuple(
        tuple(Dual(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0) * ze_span)
              for _ in range(domain.k))
        for _ in range(16))


def reference_chain_normalize(chain: Chain, tol: float = MERGE_TOL) -> Chain:
    """Pairwise merge: each term against each group, both maps evaluated anew.

    This is the rule `chain_normalize` implements; it must give the same
    weights, in the same order, keeping the same cube objects.
    """
    def agree(left, right):
        for point in reference_domain_points(left.domain):
            a = left.mapping.eval(point)
            b = right.mapping.eval(point)
            for x, y in zip(a, b):
                if not abs(x.re - y.re) <= tol or not abs(x.ze - y.ze) <= tol:
                    return False
        return True

    groups = []
    for weight, cube in chain.terms:
        for entry in groups:
            if agree(entry[1], cube):
                entry[0] += weight
                break
        else:
            groups.append([weight, cube])
    return Chain(chain.theta, chain.r, chain.k, chain.n,
                 tuple((w, c) for w, c in groups if w != 0))


# The tree walks that expressions ran on before they ran on the lowered
# program.  Each recurses once per level, so keep their inputs shallow.
# The program's runs must match them: equal values, trees and text.


def reference_eval(node, args):
    """The value at a point (a tuple of Duals), walking the tree."""
    match node:
        case Const(value):
            return value
        case Var(index):
            return args[index]
        case Neg(arg):
            return -reference_eval(arg, args)
        case Add(lhs, rhs):
            return reference_eval(lhs, args) + reference_eval(rhs, args)
        case Sub(lhs, rhs):
            return reference_eval(lhs, args) - reference_eval(rhs, args)
        case Mul(lhs, rhs):
            return reference_eval(lhs, args) * reference_eval(rhs, args)
        case PowInt(base, exponent):
            return reference_eval(base, args) ** exponent
        case Prim(name, arg):
            return _prim_value(name, reference_eval(arg, args))
    raise TypeError(f"not an expression node: {node!r}")


def reference_exprs_equal(f, g, tol: float = 1e-9) -> bool:
    """`exprs_equal` with every value from `reference_eval`."""
    if f.arity != g.arity:
        return False
    for point in sample_points(f.arity):
        a = reference_eval(f.node, point)
        b = reference_eval(g.node, point)
        if not (abs(a.re - b.re) <= tol and abs(a.ze - b.ze) <= tol):
            return False
    return True


def reference_cr_check(f, args, h: float = 1e-6) -> float:
    """`cr_check` of a map at a tuple of Duals, with every value from the
    tree walks on Dual arithmetic."""
    worst = 0.0
    for i in range(f.arity):
        base = args[i]
        for part in (0, 1):  # 0: re direction, 1: ze direction
            if part == 0:
                hi = Dual(base.re + h, base.ze)
                lo = Dual(base.re - h, base.ze)
            else:
                hi = Dual(base.re, base.ze + h)
                lo = Dual(base.re, base.ze - h)
            args_hi = args[:i] + (hi,) + args[i + 1:]
            args_lo = args[:i] + (lo,) + args[i + 1:]
            for comp in f.components:
                entry = reference_eval(reference_diff(comp.node, i), args)
                f_hi = reference_eval(comp.node, args_hi)
                f_lo = reference_eval(comp.node, args_lo)
                d_re = (f_hi.re - f_lo.re) / (2.0 * h)
                d_ze = (f_hi.ze - f_lo.ze) / (2.0 * h)
                if part == 0:
                    worst = max(worst, abs(d_re - entry.re),
                                abs(d_ze - entry.ze))
                else:
                    worst = max(worst, abs(d_re), abs(d_ze - entry.re))
    return worst


def reference_diff(node, i):
    """The derivative node in variable i, walking the tree."""
    match node:
        case Const(_):
            return _ZERO_NODE
        case Var(index):
            return _ONE_NODE if index == i else _ZERO_NODE
        case Neg(arg):
            return _neg(reference_diff(arg, i))
        case Add(lhs, rhs):
            return _add(reference_diff(lhs, i), reference_diff(rhs, i))
        case Sub(lhs, rhs):
            return _sub(reference_diff(lhs, i), reference_diff(rhs, i))
        case Mul(lhs, rhs):
            return _add(_mul(reference_diff(lhs, i), rhs),
                        _mul(lhs, reference_diff(rhs, i)))
        case PowInt(base, 0):  # a raw x^0 is the constant 1
            return _ZERO_NODE
        case PowInt(base, exponent):
            scaled = _mul(Const(Dual(float(exponent))), _pow(base, exponent - 1))
            return _mul(scaled, reference_diff(base, i))
        case Prim(name, arg):
            if name == "exp":
                outer = Prim("exp", arg)
            elif name == "sin":
                outer = _prim("cos", arg)
            else:
                outer = _neg(_prim("sin", arg))
            return _mul(outer, reference_diff(arg, i))
    raise TypeError(f"not an expression node: {node!r}")


def trees_match(left, right) -> bool:
    """Equal trees with constants compared as Duals, so 0.0 matches -0.0
    (the nodes themselves are one object only when the bits agree too)."""
    if type(left) is not type(right):
        return False
    for name in left.__match_args__:
        x, y = getattr(left, name), getattr(right, name)
        if not (trees_match(x, y) if isinstance(x, Node) else x == y):
            return False
    return True


def reference_subst(node, repl):
    """`repl[i]` substituted for each variable i, walking the tree."""
    match node:
        case Const(_):
            return node
        case Var(index):
            return repl[index]
        case Neg(arg):
            return _neg(reference_subst(arg, repl))
        case Add(lhs, rhs):
            return _add(reference_subst(lhs, repl), reference_subst(rhs, repl))
        case Sub(lhs, rhs):
            return _sub(reference_subst(lhs, repl), reference_subst(rhs, repl))
        case Mul(lhs, rhs):
            return _mul(reference_subst(lhs, repl), reference_subst(rhs, repl))
        case PowInt(base, exponent):
            return _pow(reference_subst(base, repl), exponent)
        case Prim(name, arg):
            return _prim(name, reference_subst(arg, repl))
    raise TypeError(f"not an expression node: {node!r}")


def reference_render(node, context=0):
    """Grammar text, parenthesized where `context` needs it, walking the tree."""
    match node:
        case Const(value):
            text, prec = _const_text(value)
        case Var(index):
            text, prec = f"x{index + 1}", _PREC_ATOM
        case Neg(arg):
            text, prec = "-" + reference_render(arg, _PREC_NEG), _PREC_NEG
        case Add(lhs, rhs):
            text = (reference_render(lhs, _PREC_ADD) + "+"
                    + reference_render(rhs, _PREC_ADD + 1))
            prec = _PREC_ADD
        case Sub(lhs, rhs):
            text = (reference_render(lhs, _PREC_ADD) + "-"
                    + reference_render(rhs, _PREC_ADD + 1))
            prec = _PREC_ADD
        case Mul(lhs, rhs):
            text = (reference_render(lhs, _PREC_MUL) + "*"
                    + reference_render(rhs, _PREC_MUL + 1))
            prec = _PREC_MUL
        case PowInt(base, exponent):
            text = reference_render(base, _PREC_ATOM) + "^" + str(exponent)
            prec = _PREC_POW
        case Prim(name, arg):
            text, prec = f"{name}({reference_render(arg, 0)})", _PREC_ATOM
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    if prec < context:
        return "(" + text + ")"
    return text
