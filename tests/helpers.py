"""Seeded random generators shared by the test modules."""

import random

from dualstokes import (Chain, CubeDomain, DiffForm, Dual, DualBox, DualVec,
                        Expr, ExprMap, SingularCube, Theta, ThetaInterval,
                        ThetaRectangle, ZERO, ascending_tuples, cos,
                        eval_enclosure, exp, make_interval, sin)

THETAS = (Theta.TYPE1, Theta.TYPE2)


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
