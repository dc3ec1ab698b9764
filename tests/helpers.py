"""Seeded random generators shared by the test modules."""

import functools
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from dualstokes import (Chain, CubeDomain, DiffForm, Dual, DualBox, DualVec,
                        Expr, ExprMap, ONE, SingularCube, Theta,
                        ThetaInterval, ThetaRectangle, ZERO, ascending_tuples,
                        cos, exp, make_interval, perm_sign, sample_points,
                        sin)
from dualstokes.cubes import MERGE_TOL
from dualstokes.expr import (_ONE_NODE, _POLYS, _PREC_ADD, _PREC_ATOM,
                             _PREC_MUL, _PREC_NEG, _PREC_POW, _ZERO_NODE,
                             KEY_BITS, MAX_DEGREE, MAX_MONOMIALS, PRIMITIVES,
                             TINY, Add, Const, Mul, Neg, Node, NotPolynomial,
                             PowInt, Prim, Sub, Var, _add, _const_text, _mul,
                             _neg, _poly_vars, _pow, _prim, _prim_value, _run,
                             _sub, lower_expr)
from dualstokes.forms import _exact_zero
from dualstokes.intervals import _TWO_PI, _crosses, _iexp, _ipow, _iscale
from dualstokes.tensors import signed_permutations

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


def _cell_bounds(f: Expr, cell, sign: int) -> tuple[Dual, Dual]:
    """(inf, sup) of f's enclosure over the cell, in the order of `sign`.

    The enclosure is `reference_enclose`'s, so the sums are checked
    against a walk that shares nothing with the program interpreter.
    """
    box = reference_enclose(f.node, [iv.box() for iv in cell.intervals])
    if sign > 0:
        return Dual(box.re_lo, box.ze_lo), Dual(box.re_hi, box.ze_hi)
    return Dual(box.re_lo, box.ze_hi), Dual(box.re_hi, box.ze_lo)


def reference_darboux_sums(f: Expr, partition) -> tuple[Dual, Dual]:
    """(lower, upper) from one enclosure per cell, summed with Dual arithmetic.

    This is the definition `darboux_sums` computes.  When f reads the
    last axis, `darboux_sums` must match it bit for bit; otherwise both
    are equal in exact arithmetic, and each must lie within the bound
    that `exact_darboux_sums` gives.
    """
    sign = partition.rect.theta.sign
    lower = upper = ZERO
    for cell in partition.cells:
        inf, sup = _cell_bounds(f, cell, sign)
        vol = cell.volume()
        upper = upper + sup * vol
        lower = lower + inf * vol
    return lower, upper


def exact_darboux_sums(f: Expr, partition):
    """The (lower, upper) Darboux sums in exact rational arithmetic.

    Cells have the exact widths of the partition's float breakpoints and
    the float enclosures `reference_darboux_sums` uses.  Each sum is
    ``(re, ze, abs_re, abs_ze)`` in Fractions: its two parts, and for
    each part the sum of the absolute values of its terms, with every
    cell's ``bound * volume`` expanded into products of one part of the
    bound and one part of each axis's width.  A float sum over `cells`
    cells of a `dim`-axis partition lies within
    ``(cells + 2*dim + 4) * 2**-52 * abs_part`` of each part.
    """
    sign = partition.rect.theta.sign
    sums = ([Fraction(0)] * 4, [Fraction(0)] * 4)
    for cell in partition.cells:
        vol, mag = (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))
        for iv in cell.intervals:
            w_re = Fraction(iv.b.re) - Fraction(iv.a.re)
            w_ze = Fraction(iv.b.ze) - Fraction(iv.a.ze)
            vol = vol[0] * w_re, vol[0] * w_ze + vol[1] * w_re
            mag = mag[0] * abs(w_re), mag[0] * abs(w_ze) + mag[1] * abs(w_re)
        for acc, bound in zip(sums, _cell_bounds(f, cell, sign)):
            b_re, b_ze = Fraction(bound.re), Fraction(bound.ze)
            acc[0] += b_re * vol[0]
            acc[1] += b_re * vol[1] + b_ze * vol[0]
            acc[2] += abs(b_re) * mag[0]
            acc[3] += abs(b_re) * mag[1] + abs(b_ze) * mag[0]
    return tuple(tuple(acc) for acc in sums)


def _exact_mul(x, y):
    # dual-coefficient polynomials as {exponent tuple: (re, ze)} Fractions
    out = {}
    for ka, (ar, az) in x.items():
        for kb, (br, bz) in y.items():
            key = tuple(p + q for p, q in zip(ka, kb))
            re, ze = out.get(key, (0, 0))
            out[key] = (re + ar * br, ze + ar * bz + az * br)
    return out


def _exact_add(x, y, sign=1):
    out = dict(x)
    for key, (re, ze) in y.items():
        old_re, old_ze = out.get(key, (0, 0))
        out[key] = (old_re + sign * re, old_ze + sign * ze)
    return out


def _exact_dual_power(x, n: int):
    # (re + ze*eps)^n = re^n + n*re^(n-1)*ze*eps
    re, ze = x
    return re ** n, n * re ** (n - 1) * ze


def reference_exact_expansion(f: Expr, args=None, dim: int = None,
                              prim=None) -> dict:
    """f's lowered program run on polynomials with ``Fraction`` dual
    coefficients (eps^2 = 0), from the exact values of its float
    constants: ``{exponent tuple: (re, ze)}``.  ``args[i]``, an exact
    polynomial in `dim` variables, stands for x(i+1); by default x(i+1)
    is itself.  At exp, sin or cos the value is ``prim(name, argument)``,
    or without `prim` a ``ValueError``."""
    if args is None:
        dim = f.arity
        args = [{tuple(int(i == j) for i in range(dim)): (Fraction(1), 0)}
                for j in range(dim)]
    zero = (0,) * dim
    regs = []
    for _, op, a, b, _ in lower_expr(f):
        if op == "const":
            value = {zero: (Fraction(a.re), Fraction(a.ze))}
        elif op == "var":
            value = args[a]
        elif op == "neg":
            value = _exact_add({}, regs[a], -1)
        elif op in ("add", "sub"):
            value = _exact_add(regs[a], regs[b], 1 if op == "add" else -1)
        elif op == "mul":
            value = _exact_mul(regs[a], regs[b])
        elif op == "pow":
            value = {zero: (Fraction(1), 0)}
            for _ in range(b):
                value = _exact_mul(value, regs[a])
        elif prim is None:
            raise ValueError(f"{op} is not a polynomial")
        else:
            value = prim(op, regs[a])
        regs.append(value)
    return regs[-1]


def reference_primitive(name: str, x: Fraction) -> tuple:
    """(lo, hi) Fractions around exp, sin or cos of the rational x: the
    Taylor sum about 0 up to the first term below 2^-160, widened by the
    Lagrange remainder bound ``M |x|^n / n!`` of the n terms taken, with
    M = 1 for sin and cos and 3^ceil(x) (e < 3) for exp above 0."""
    signs = {"exp": (1, 1, 1, 1), "sin": (0, 1, 0, -1),
             "cos": (1, 0, -1, 0)}[name]
    total, term, n = Fraction(0), Fraction(1), 0  # term = x^n / n!
    while n < 4 or abs(term) >= Fraction(1, 2 ** 160):
        total += signs[n % 4] * term
        n += 1
        term = term * x / n
    bound = abs(term) * (3 ** max(0, math.ceil(x)) if name == "exp" else 1)
    return total - bound, total + bound


def reference_primitive_pair(name: str, re: Fraction, ze: Fraction) -> tuple:
    """The (re, ze) intervals around the lifted primitive at re + ze*eps,
    ``prim(re) + ze*prim'(re)*eps``, from :func:`reference_primitive`."""
    slope = {"exp": ("exp", 1), "sin": ("cos", 1), "cos": ("sin", -1)}[name]
    lo, hi = reference_primitive(slope[0], re)
    ends = sorted((slope[1] * ze * lo, slope[1] * ze * hi))
    return reference_primitive(name, re), tuple(ends)


def reference_exact_partial(poly: dict, index: int) -> dict:
    """The partial derivative in variable `index` of an exact polynomial."""
    out = {}
    for key, (re, ze) in poly.items():
        p = key[index]
        if p:
            out[key[:index] + (p - 1,) + key[index + 1:]] = (p * re, p * ze)
    return out


def reference_exact_map(mapping: ExprMap, roots: dict = None) -> list:
    """Each component of the map as an exact polynomial.  A pinned map's
    (a face's, or a face of a face's) are its root map's components
    composed exactly with the pinned constants, so no rounding of the
    substitution is folded in.  `roots`, when given, keeps each root
    map's exact components, so the faces of one root expand it once."""
    root, pins = mapping._pin or (mapping, ())
    exact = _exact_root(root, {} if roots is None else roots)[0]
    return _exact_pins(exact, pins)


def _exact_root(root: ExprMap, roots: dict) -> tuple:
    # the root map's exact components and their jacobian, kept in roots
    if root not in roots:
        comps = [reference_exact_expansion(c) for c in root.components]
        roots[root] = comps, [[reference_exact_partial(c, j)
                               for j in range(root.arity)] for c in comps]
    return roots[root]


def _exact_pins(polys: list, pins) -> list:
    # each polynomial with the pinned constants in, at descending indices
    for index, value in reversed(pins):
        value = Fraction(value.re), Fraction(value.ze)
        polys = [_exact_pin(poly, index, value) for poly in polys]
    return polys


def _exact_pin(poly: dict, index: int, value) -> dict:
    # the exact polynomial with x(index+1) = value, a dual (re, ze)
    out = {}
    for key, (re, ze) in poly.items():
        p = key[index]
        f_re, f_ze = _exact_dual_power(value, p) if p else (1, 0)
        key = key[:index] + key[index + 1:]
        old_re, old_ze = out.get(key, (0, 0))
        out[key] = (old_re + re * f_re, old_ze + re * f_ze + ze * f_re)
    return out


def reference_exact_compose(poly: dict, args: list, dim: int) -> dict:
    """An exact polynomial with ``args[i]``, an exact polynomial in `dim`
    variables, for x(i+1)."""
    total = {}
    for key, value in poly.items():
        term = {(0,) * dim: value}
        for arg, p in zip(args, key):
            for _ in range(p):
                term = _exact_mul(term, arg)
        total = _exact_add(total, term)
    return total


def reference_exact_pullback(mapping: ExprMap, w, roots: dict = None,
                             extra=None) -> dict:
    """The coefficient on dx1^...^dxm of the pullback of the m-form `w`
    through the map of arity m, as an exact polynomial: the components
    expanded, their partials, each minor by permutation expansion with
    the sign counted from inversions, and each coefficient expanded and
    composed with the components, all in ``Fraction`` arithmetic.  `w`
    is a :class:`DiffForm`, or its coefficients as ``{index: exact
    polynomial}``.  A coefficient with variables past the components'
    takes ``extra(components, m)`` for them, as
    :func:`reference_formal_values` gives.

    A pinned map's is its root map's coefficient on the root's unpinned
    axes, with the pinned constants in (:func:`_exact_pin`): each root
    map's components, jacobian, coefficients composed with them, and
    minors are taken once and kept in `roots`, when given, per root and
    coefficient dict (kept there too, so its id stays its own)."""
    if not isinstance(w, dict):
        w = {index: reference_exact_expansion(coeff)
             for index, coeff in w.coeffs.items()}
    roots = {} if roots is None else roots
    root, pins = mapping._pin or (mapping, ())
    pinned = {index for index, _ in pins}
    target = tuple(j for j in range(root.arity) if j not in pinned)
    key = (root, id(w), target)
    if key not in roots:
        comps, jac = _exact_root(root, roots)
        if (root, id(w)) not in roots:
            args = comps + extra(comps, root.arity) if extra else comps
            roots[root, id(w)] = w, {
                index: reference_exact_compose(coeff, args, root.arity)
                for index, coeff in w.items()}
        total = {}
        for index, composed in roots[root, id(w)][1].items():
            det = roots.get((root, index, target))
            if det is None:
                det = roots[root, index, target] = reference_exact_det(
                    [[jac[i][j] for j in target] for i in index], root.arity)
            total = _exact_add(total, _exact_mul(composed, det))
        roots[key] = total
    return _exact_pins([roots[key]], pins)[0]


# Forms whose coefficients take exp, sin and cos of coordinates: in
# n-space, exp, sin and cos of x(j+1) are the formal variables n + 3j,
# n + 3j + 1 and n + 3j + 2 of polynomials in 4n variables, which the
# chain rule differentiates; through a map whose component j is a
# constant c, each is the formal constant prim(c), a FormalSum.


class FormalSum:
    """A polynomial with Fraction coefficients in formal constants, each
    named by a pair such as ``("sin", Fraction(1, 2))`` for sin(1/2):
    ``{sorted tuple of names: coefficient}``.  It adds, subtracts and
    multiplies with itself, ints and Fractions, and compares equal to a
    number when it is that constant."""

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items() if v}

    @staticmethod
    def of(x) -> "FormalSum":
        return x if isinstance(x, FormalSum) else FormalSum({(): Fraction(x)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, value in FormalSum.of(other).terms.items():
            out[key] = out.get(key, 0) + value
        return FormalSum(out)

    def __mul__(self, other):
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in FormalSum.of(other).terms.items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0) + va * vb
        return FormalSum(out)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -FormalSum.of(other)

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        return self.terms == FormalSum.of(other).terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"FormalSum({self.terms!r})"


def _formal_variable(slot: int, dim: int) -> dict:
    return {tuple(int(i == slot) for i in range(dim)): (Fraction(1), 0)}


def reference_formal_expansion(f: Expr) -> dict:
    """f's exact expansion in 4n variables, n = f.arity, whose primitives
    each take a coordinate x(j+1) and are the formal variable of their
    name and j."""
    n = f.arity

    def prim(name, arg):
        (key, value), = arg.items()
        assert value == (1, 0) and sorted(key) == [0] * (4 * n - 1) + [1]
        return _formal_variable(n + 3 * key.index(1)
                                + PRIMITIVES.index(name), 4 * n)

    args = [_formal_variable(j, 4 * n) for j in range(n)]
    return reference_exact_expansion(f, args, 4 * n, prim)


def reference_formal_partial(poly: dict, index: int, n: int) -> dict:
    """The partial derivative in x(index+1) of a polynomial of
    :func:`reference_formal_expansion`, by the chain rule: exp' = exp,
    sin' = cos and cos' = -sin."""
    out = reference_exact_partial(poly, index)
    e, s, c = (n + 3 * index + k for k in range(3))
    for slot, derivative, sign in ((e, e, 1), (s, c, 1), (c, s, -1)):
        out = _exact_add(out, _exact_mul(reference_exact_partial(poly, slot),
                                         _formal_variable(derivative, 4 * n)),
                         sign)
    return out


def reference_formal_values(comps: list, dim: int) -> list:
    """exp, sin and cos of each component, an exact polynomial in `dim`
    variables, in the order of the formal variables, as constant
    polynomials with FormalSum coefficients: ``prim(c + d eps) = prim(c)
    + d prim'(c) eps``.  A component that is no constant has none, and
    using it fails."""
    zero, values = (0,) * dim, []
    for comp in comps:
        if any(map(any, comp)):
            values += [None] * 3
            continue
        c, d = comp.get(zero, (Fraction(0), 0))
        sym = {name: FormalSum({((name, c),): Fraction(1)})
               for name in PRIMITIVES}
        values += [{zero: (sym["exp"], d * sym["exp"])},
                   {zero: (sym["sin"], d * sym["cos"])},
                   {zero: (sym["cos"], -d * sym["sin"])}]
    return values


def reference_exact_det(matrix, dim: int) -> dict:
    """The determinant of a square matrix of exact polynomials in `dim`
    variables, by permutation expansion with the sign counted from
    inversions, in ``Fraction`` arithmetic."""
    one = {(0,) * dim: (Fraction(1), Fraction(0))}
    det = {}
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = _exact_add({}, one, (-1) ** inversions)
        for row, col in enumerate(perm):
            term = _exact_mul(term, matrix[row][col])
        det = _exact_add(det, term)
    return det


def reference_dense_minor(matrix, arith: tuple):
    """A determinant by dense permutation expansion under an arithmetic of
    ``dualstokes.expr``: every term is the product of the constant +-1
    with all its entries, zeros included, added to a running total that
    starts at the constant 0."""
    const, _, add, _, mul, _, _ = arith
    total = const(ZERO)
    for perm in itertools.permutations(range(len(matrix))):
        term = const(Dual(float(perm_sign(perm))))
        for row, col in enumerate(perm):
            term = mul(term, matrix[row][col])
        total = add(total, term)
    return total


# The register pullback as it was before its size-1 and size-2 minors were
# unrolled, its sums started from the first term, its sign products
# dropped and its jacobian rows taken in one pass: the reference that the
# new paths must match bit for bit.


def _reference_checked(terms: dict, shadow: float, order: int, degree: int):
    if len(terms) > MAX_MONOMIALS:
        raise NotPolynomial(f"more than {MAX_MONOMIALS} monomials")
    return terms, shadow, order, degree


def _reference_poly_sum(sign: float):
    def combine(x, y):
        terms = dict(x[0])
        get = terms.get
        for k, (re, ze) in y[0].items():
            old = get(k)
            terms[k] = ((sign * re, sign * ze) if old is None
                        else (old[0] + sign * re, old[1] + sign * ze))
        return _reference_checked(terms, x[1] + y[1],
                                  (x[2] if x[2] > y[2] else y[2]) + 1,
                                  x[3] if x[3] > y[3] else y[3])
    return combine


def _reference_poly_mul(x, y):
    (xt, xs, xo, xd), (yt, ys, yo, yd) = x, y
    if not (xs and ys):
        return {}, 0.0, 0, 0
    if xd + yd > MAX_DEGREE:
        raise NotPolynomial(f"degree above {MAX_DEGREE}")
    terms = {}
    get = terms.get
    pairs = yt.items()
    for ka, (ar, az) in xt.items():
        for kb, (br, bz) in pairs:
            k = ka + kb
            old = get(k)
            if old is None:
                terms[k] = (ar * br, ar * bz + az * br)
            else:
                terms[k] = (old[0] + ar * br, old[1] + (ar * bz + az * br))
    shadow = xs * ys + (3 * len(xt) * len(yt)) * TINY
    return _reference_checked(terms, shadow,
                              xo + yo + min(len(xt), len(yt)) + 1, xd + yd)


def _reference_poly_pow(x, exponent: int):
    if exponent == 0:
        return {0: (1.0, 0.0)}, 1.0, 0, 0
    if exponent > MAX_DEGREE:
        raise NotPolynomial(f"degree above {MAX_DEGREE}")
    power = x
    for _ in range(exponent - 1):
        power = _reference_poly_mul(power, x)
    return power


# the polynomial arithmetic with the old sums, products and powers
REFERENCE_POLYS = (_POLYS[0], _POLYS[1], _reference_poly_sum(1.0),
                   _reference_poly_sum(-1.0), _reference_poly_mul,
                   _reference_poly_pow, _POLYS[6])


def reference_poly_diff(x, index: int):
    terms, shadow, order, degree = x
    shift, mask = KEY_BITS * index, (1 << KEY_BITS) - 1
    unit = 1 << shift
    out, top = {}, 0
    for k, (re, ze) in terms.items():
        p = (k >> shift) & mask
        if p:
            out[k - unit] = (re * p, ze * p)
            if p > top:
                top = p
    return out, shadow * top if top else 0.0, order + 1, max(degree - 1, 0)


def reference_minor(matrix, arith: tuple):
    """The permutation expansion of ``forms._minor`` at every size."""
    const, neg, add, sub, mul, _, _ = arith
    total = None
    for perm, sign in signed_permutations(len(matrix)):
        for row, col in enumerate(perm):
            if _exact_zero(matrix[row][col]):
                break
        else:
            term = matrix[0][perm[0]] if perm else const(ONE)
            for row in range(1, len(perm)):
                term = mul(term, matrix[row][perm[row]])
            if total is None:
                total = term if sign > 0 else neg(term)
            else:
                total = (add if sign > 0 else sub)(total, term)
    return const(ZERO) if total is None else total


def reference_pullback(f: ExprMap, w: DiffForm, comps, jac, arith: tuple,
                       zero) -> dict:
    """``forms._pullback`` with every sum started by adding its first term
    to `zero`, and a matrix list and :func:`reference_minor` per minor."""
    if f.dim_out != w.n:
        raise ValueError("the map and the form differ in dimension")
    _, _, add, _, mul, _, _ = arith
    targets = ascending_tuples(f.arity, w.k)
    out = dict.fromkeys(targets, zero)
    for index, coeff in w.coeffs.items():
        value = None
        for target in targets:
            det = reference_minor([[jac[i][j] for j in target]
                                   for i in index], arith)
            if not _exact_zero(det):
                if value is None:
                    value = _run(lower_expr(coeff), arith, comps)
                out[target] = add(out[target], mul(value, det))
    return out


def reference_pullback_polynomial(f: ExprMap, w: DiffForm,
                                  comps: list | None = None,
                                  arith: tuple = REFERENCE_POLYS,
                                  zero: tuple = None) -> dict:
    """``forms.pullback_polynomial`` on the reference arithmetic, with a
    :func:`reference_poly_diff` per jacobian entry of the rows read."""
    if comps is None:
        comps = f.run(arith, _poly_vars(f.arity))
    rows = {i for index in w.coeffs for i in index}
    jac = [[reference_poly_diff(c, j) for j in range(f.arity)]
           if i in rows else None for i, c in enumerate(comps)]
    return reference_pullback(f, w, comps, jac, arith,
                              ({}, 0.0, 0, 0) if zero is None else zero)


def reference_exact_integral(f, rect: ThetaRectangle):
    """The integral of a polynomial integrand, an Expr or an exact
    polynomial, over the rectangle, exactly.

    Each monomial ``c x^P`` of :func:`reference_exact_expansion` integrates
    to ``c`` times the product over the axes of
    ``(b^(p+1) - a^(p+1)) / (p+1)``, in exact dual arithmetic from the
    rectangle's float endpoints, one table of them per interval.  Returns
    ``(re, ze)`` as Fractions.
    """
    poly = f if isinstance(f, dict) else reference_exact_expansion(f)
    total_re = total_ze = Fraction(0)
    for key, (c_re, c_ze) in poly.items():
        w = (Fraction(1), Fraction(0))
        for iv, p in zip(rect.intervals, key, strict=True):
            w_re, w_ze = _exact_weight(iv, p)
            w = (w[0] * w_re, w[0] * w_ze + w[1] * w_re)
        total_re += c_re * w[0]
        total_ze += c_re * w[1] + c_ze * w[0]
    return total_re, total_ze


@functools.lru_cache(maxsize=None)
def _exact_weight(iv: ThetaInterval, p: int) -> tuple:
    # (b^(p+1) - a^(p+1)) / (p+1) of the interval, exactly
    ends = [(Fraction(x.re), Fraction(x.ze)) for x in (iv.a, iv.b)]
    lo, hi = (_exact_dual_power(x, p + 1) for x in ends)
    return (hi[0] - lo[0]) / (p + 1), (hi[1] - lo[1]) / (p + 1)


def bracket_contains(est, value) -> bool:
    """Whether an estimate's bracket holds the (re, ze) value in both
    components, whichever way its ze part is oriented."""
    return all(min(lo, hi) <= x <= max(lo, hi)
               for lo, hi, x in ((est.lower.re, est.upper.re, value[0]),
                                 (est.lower.ze, est.upper.ze, value[1])))


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


def reference_key(values: tuple) -> tuple:
    """The candidate key of the floats of a map at point 0, and the parts
    of its window's half-width, by their defining formulas: ``fsum`` of
    each float times its weight, the integers 1..n times the power of
    two that brings their sum to at most 1/4; inf where that sum raises
    (inf + -inf), NaN where the key is not finite and a float is NaN;
    then ``max|x| * 2^-48``, the weights' sum and ``n * TINY``."""
    count = len(values)
    total = count * (count + 1) // 2
    scale = 0.25 / 2.0 ** max(total - 1, 0).bit_length()
    weights = [(i + 1) * scale for i in range(count)]
    try:
        key = math.fsum(w * x for w, x in zip(weights, values))
    except ValueError:
        key = math.inf
    if not math.isfinite(key) and any(math.isnan(x) for x in values):
        key = math.nan
    top = max(map(abs, values), default=0.0)
    return key, (top * 2.0 ** -48, total * scale, count * 2.0 ** -1022)


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


def reference_enclose(node, boxes) -> DualBox:
    """The enclosure over a sequence of DualBoxes, walking the tree."""
    (re_lo, re_hi), (ze_lo, ze_hi) = _reference_intervals(
        node, [((b.re_lo, b.re_hi), (b.ze_lo, b.ze_hi)) for b in boxes])
    return DualBox(re_lo, re_hi, ze_lo, ze_hi)


# interval sums and products on (lo, hi) pairs, bounds by builtin min/max


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _isub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _ineg(a):
    return (-a[1], -a[0])


def _imul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _reference_intervals(node, args):
    # (re interval, ze interval) of the node; args[i] is x(i+1)'s
    match node:
        case Const(value):
            return ((value.re, value.re), (value.ze, value.ze))
        case Var(index):
            return args[index]
        case Neg(arg):
            r, z = _reference_intervals(arg, args)
            return (_ineg(r), _ineg(z))
        case Add(lhs, rhs):
            (r1, z1), (r2, z2) = (_reference_intervals(lhs, args),
                                  _reference_intervals(rhs, args))
            return (_iadd(r1, r2), _iadd(z1, z2))
        case Sub(lhs, rhs):
            (r1, z1), (r2, z2) = (_reference_intervals(lhs, args),
                                  _reference_intervals(rhs, args))
            return (_isub(r1, r2), _isub(z1, z2))
        case Mul(lhs, rhs):
            (r1, z1), (r2, z2) = (_reference_intervals(lhs, args),
                                  _reference_intervals(rhs, args))
            return (_imul(r1, r2), _iadd(_imul(r1, z2), _imul(z1, r2)))
        case PowInt(_, 0):
            return ((1.0, 1.0), (0.0, 0.0))
        case PowInt(base, exponent):
            r, z = _reference_intervals(base, args)
            ze_part = _iscale(_imul(_ipow(r, exponent - 1), z),
                              float(exponent))
            return (_ipow(r, exponent), ze_part)
        case Prim("exp", arg):
            r, z = _reference_intervals(arg, args)
            er = _iexp(r)
            return (er, _imul(z, er))
        case Prim("sin", arg):
            r, z = _reference_intervals(arg, args)
            return (_reference_isin(r), _imul(z, _reference_icos(r)))
        case Prim("cos", arg):
            r, z = _reference_intervals(arg, args)
            return (_reference_icos(r), _ineg(_imul(z, _reference_isin(r))))
    raise TypeError(f"not an expression node: {node!r}")


# sine and cosine over an interval, each written out on its own


def _reference_isin(a):
    lo, hi = a
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OverflowError("non-finite argument")
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    s_lo, s_hi = math.sin(lo), math.sin(hi)
    top = 1.0 if _crosses(lo, hi, 0.5 * math.pi) else max(s_lo, s_hi)
    bot = -1.0 if _crosses(lo, hi, -0.5 * math.pi) else min(s_lo, s_hi)
    return (bot, top)


def _reference_icos(a):
    lo, hi = a
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OverflowError("non-finite argument")
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    c_lo, c_hi = math.cos(lo), math.cos(hi)
    top = 1.0 if _crosses(lo, hi, 0.0) else max(c_lo, c_hi)
    bot = -1.0 if _crosses(lo, hi, math.pi) else min(c_lo, c_hi)
    return (bot, top)


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
    tree walks on Dual arithmetic: NaN if any deviation is NaN."""
    if not 0 < h < math.inf:
        raise ValueError("step must be a positive finite number")
    deviations = []
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
                    deviations += abs(d_re - entry.re), abs(d_ze - entry.ze)
                else:
                    deviations += abs(d_re), abs(d_ze - entry.re)
    if any(math.isnan(d) for d in deviations):
        return math.nan
    return max(deviations)


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
