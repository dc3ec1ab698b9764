"""Expression trees for dual-analytic functions.

Functions are the closure of constants and coordinates under ``+``,
``-``, ``*``, nonnegative integer powers, and the lifted primitives
``exp``/``sin``/``cos`` (``prim(a + b*eps) == prim(a) + b*prim'(a)*eps``).
On this class symbolic differentiation is exact, and every expression
evaluates both at dual points and over boxes (interval enclosures).

Grammar accepted by :func:`parse_expr` (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := "-" factor | atom ("^" UINT)?
    atom   := NUMBER | "eps" | VAR | FUNC "(" expr ")" | "(" expr ")"
    VAR    := "x" UINT                      -- 1-based
    FUNC   := "exp" | "sin" | "cos"
    NUMBER := decimal literal, optional fraction and exponent

``eps`` is the zero-divisor unit; ``^`` binds tighter than unary minus,
which binds tighter than ``*``, which binds tighter than ``+``/``-``.
Construction applies constant folding and the 0/1 identities but no
other simplification, so trees stay predictable.  Parentheses, function
calls and unary minus may nest at most ``MAX_NESTING`` levels deep.

Nodes are hash-consed: building a node equal to a live one returns that
one, so equal trees are one object and ``==`` and ``hash`` on nodes are
identity.  Each node stores the highest variable it reads, so an
:class:`Expr` checks its arity without a walk.

After parsing, the only walk over a tree is the iterative one of
:func:`lower_expr`, which visits each distinct node once, by identity.
A node's program is built when first asked for and kept with the node,
so every expression holding that node shares it; an :class:`ExprMap`
lowers all its components into one program, so what they share runs
once.  Every other walk runs on the program: point evaluation,
substitution, differentiation, rendering, interval enclosure and
expansion into monomials are one interpreter, :func:`run_steps`, under
several arithmetics (for boxes, :data:`.intervals.BOXES`; for
polynomials, ``_POLYS``; for the rounding bounds of point runs,
``_BOUNDS``), and :func:`listwise` runs any of them over lists of
values, one per lane.
:func:`partial_diffs` takes every partial a caller needs from one
gradient run, whose registers hold each instruction's node and its
partials; each partial is the tree :func:`partial_diff` builds for its
variable alone.  The parser is the only recursion, capped by
``MAX_NESTING``.

Point programs run on ``(re, ze)`` float pairs with the float operations
of :class:`Dual`, so they give Dual arithmetic's bits, and its
``OverflowError``, without building a Dual per step; ``Dual`` objects
are made only where a function returns one.
"""

from __future__ import annotations

import functools
import math
import random
import re as _regex
import struct
import weakref

from .dual import (Dual, DualVec, EPS, ONE, Record, ZERO, as_dual,
                   _as_dual_or_none)
from .intervals import BOXES, DualBox

# ---------------------------------------------------------------------------
# tree nodes

# Nodes are hash-consed: each class's constructor looks the node up in
# one table keyed by (op, child ids, field) and returns the live node
# with that key if there is one, so equal trees are one object and
# `==` and `hash` are identity.  The table holds its nodes weakly, and
# a node leaves it when nobody else holds it.  A live node keeps its
# children alive, so the child ids in its key stay theirs.  Two
# constants are one node when ``repr((re, ze))`` agrees, which keeps
# 0.0 and -0.0, and int and float parts, apart.  Each node stores its
# `level`, the highest variable index it reads or -1, and, once asked
# for, its program.


class _Ref(weakref.ref):
    __slots__ = ("key",)


_NODES_BY_KEY: dict[object, _Ref] = {}
_FLOAT_PAIR = struct.Struct("<dd").pack


def _forget(ref: _Ref) -> None:
    # by the time a dead node's callback runs, its key may name a new node
    if _NODES_BY_KEY.get(ref.key) is ref:
        del _NODES_BY_KEY[ref.key]


def _node(cls, key, op: str, a, b):
    """The live node with `key`, or a new node of class `cls` with these
    slots, entered under `key`."""
    ref = _NODES_BY_KEY.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    if op == "const":
        level = -1
    elif op == "var":
        level = a
    elif not isinstance(a, Node):
        raise TypeError(f"not an expression node: {a!r}")
    elif op not in _BINARY:
        level = a._level
    elif not isinstance(b, Node):
        raise TypeError(f"not an expression node: {b!r}")
    else:
        level = a._level if a._level >= b._level else b._level
    node = object.__new__(cls)
    node._op, node._a, node._b, node._level, node._code = op, a, b, level, None
    ref = _Ref(node, _forget)
    ref.key = key
    _NODES_BY_KEY[key] = ref
    return node


class Node:
    """Base of the expression tree; nodes are interned and immutable.

    `_op` is the op of the node's instruction, `_a` and `_b` its
    operands: the child nodes, then the constant, variable index,
    exponent or None.
    """

    __slots__ = ("_op", "_a", "_b", "_level", "_code", "__weakref__")

    def __reduce__(self):  # copies and unpickled nodes intern again
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        names = tuple(f"Var(index={i})" for i in range(self._level + 1))
        return _run(_program(self), _REPR, names)


class Const(Node):
    __slots__ = ()
    __match_args__ = ("value",)
    value = property(lambda self: self._a)

    def __new__(cls, value: Dual):
        if not isinstance(value, Dual):
            raise TypeError(f"constants must be Duals, not {value!r}")
        re, ze = value.re, value.ze
        if type(re) is float and type(ze) is float and re == re and ze == ze:
            key = _FLOAT_PAIR(re, ze)  # the bits, which repr tells apart
        else:  # an int part, or NaN, whose repr ignores sign and payload
            key = ("const", repr((re, ze)))
        return _node(cls, key, "const", value, None)


class Var(Node):
    __slots__ = ()
    __match_args__ = ("index",)
    index = property(lambda self: self._a)

    def __new__(cls, index: int):  # 0-based
        if index.__class__ is not int or index < 0:
            _check_natural(index, "variable indices")
        return _node(cls, ("var", index), "var", index, None)


class Neg(Node):
    __slots__ = ()
    __match_args__ = ("arg",)
    arg = property(lambda self: self._a)

    def __new__(cls, arg: Node):
        return _node(cls, ("neg", id(arg)), "neg", arg, None)


class _Binary(Node):
    __slots__ = ()
    __match_args__ = ("lhs", "rhs")
    lhs = property(lambda self: self._a)
    rhs = property(lambda self: self._b)
    _OP = ""

    def __new__(cls, lhs: Node, rhs: Node):
        op = cls._OP
        return _node(cls, (op, id(lhs), id(rhs)), op, lhs, rhs)


class Add(_Binary):
    __slots__ = ()
    _OP = "add"


class Sub(_Binary):
    __slots__ = ()
    _OP = "sub"


class Mul(_Binary):
    __slots__ = ()
    _OP = "mul"


_BINARY = ("add", "sub", "mul")


class PowInt(Node):
    __slots__ = ()
    __match_args__ = ("base", "exponent")
    base = property(lambda self: self._a)
    exponent = property(lambda self: self._b)

    def __new__(cls, base: Node, exponent: int):
        _check_natural(exponent, "exponents")
        return _node(cls, ("pow", id(base), exponent), "pow", base, exponent)


class Prim(Node):
    __slots__ = ()
    __match_args__ = ("name", "arg")
    name = property(lambda self: self._op)
    arg = property(lambda self: self._a)

    def __new__(cls, name: str, arg: Node):  # name: "exp" | "sin" | "cos"
        if name not in PRIMITIVES:
            raise ValueError(f"unknown primitive {name!r}")
        return _node(cls, (name, id(arg)), name, arg, None)


def _check_natural(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be integers")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")


PRIMITIVES = ("exp", "sin", "cos")
_ZERO_NODE = Const(ZERO)
_ONE_NODE = Const(ONE)


def _is_zero_node(node: Node) -> bool:
    return type(node) is Const and node._a.is_zero()


# Two constants fold to one; past that test at most one operand is a
# constant, and only its 0/1 identities apply.


def _add(a: Node, b: Node) -> Node:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a._a + b._a)
        return b if a._a.is_zero() else Add(a, b)
    return a if _is_zero_node(b) else Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if type(b) is Const:
        if type(a) is Const:
            return Const(a._a - b._a)
        return a if b._a.is_zero() else Sub(a, b)
    return _neg(b) if _is_zero_node(a) else Sub(a, b)


def _neg(a: Node) -> Node:
    if type(a) is Const:
        return Const(-a._a)
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a._a * b._a)
        if a._a.is_zero():
            return _ZERO_NODE
        return b if a._a == ONE else Mul(a, b)
    if type(b) is Const:
        if b._a.is_zero():
            return _ZERO_NODE
        if b._a == ONE:
            return a
    return Mul(a, b)


def _pow(a: Node, exponent: int) -> Node:
    _check_natural(exponent, "exponents")
    if exponent == 0:
        return _ONE_NODE
    if exponent == 1:
        return a
    if type(a) is Const:
        return Const(a._a ** exponent)
    return PowInt(a, exponent)


def _prim_pair(name: str, x: tuple) -> tuple:
    """A lifted primitive at the dual point given as its (re, ze) pair."""
    re, ze = x
    if name == "exp":
        e = math.exp(re)
        return (e, ze * e)
    if name not in ("sin", "cos"):
        raise ValueError(f"unknown primitive {name!r}")
    if not math.isfinite(re):
        raise OverflowError(f"{name} of the non-finite value {re}")
    s, c = math.sin(re), math.cos(re)
    if name == "sin":
        return (s, ze * c)
    return (c, -ze * s)


def _prim_value(name: str, x: Dual) -> Dual:
    return Dual(*_prim_pair(name, (x.re, x.ze)))


def _prim(name: str, a: Node) -> Node:
    if type(a) is Const:
        return Const(_prim_value(name, a._a))
    return Prim(name, a)


# ---------------------------------------------------------------------------
# lowering to a straight-line program

# Step i writes register i and reads only earlier registers, so one pass
# in order runs the program; the last step holds the value of the whole
# expression.  A map's program, lowered from all its components at once,
# holds each component's value in the register `_lower` gives for it.
# Equal subexpressions are one node, so each lowers to one step, once per
# program.  `level` is the node's: the highest variable index a step
# reads, directly or through its operands, or -1 for none.  Over a product
# of boxes its result depends only on the boxes of axes 0..level, so a
# loop nest over the axes can run it in the loop of axis `level`.  A step
# is the plain tuple (register, op, a, b, level), which unpacks faster
# than a named tuple:
#   register  i, the register it writes
#   op        "const", "var", "neg", "add", "sub", "mul", "pow", a primitive
#   a         the constant (Dual), the variable index, or an operand register
#   b         the second operand register, the exponent, or None
#   level     that highest variable index


def lower_expr(f: Expr) -> tuple[tuple, ...]:
    """The expression as a straight-line program of steps, common
    subexpressions once; it is built on first use and kept with `f`'s
    node."""
    return _program(f.node)


def _program(node: Node) -> tuple[tuple, ...]:
    code = node._code
    if code is None:
        code = node._code = _lower((node,))[0]
    return code


_LEAVES = ("const", "var")


def _lower(roots) -> tuple:
    """One program for all of `roots`, in order, and the list of each
    root's register."""
    code: list[tuple] = []
    regs: dict[int, int] = {}  # id(node) -> register; roots keep nodes alive
    stack = list(roots)[::-1]
    while stack:
        node = stack[-1]
        if id(node) in regs:
            stack.pop()
            continue
        op, a, b = node._op, node._a, node._b
        if op in _BINARY:  # operands first, left to right
            ra, rb = regs.get(id(a)), regs.get(id(b))
            if ra is None or rb is None:
                if rb is None:
                    stack.append(b)
                if ra is None:
                    stack.append(a)
                continue
            a, b = ra, rb
        elif op not in _LEAVES:
            ra = regs.get(id(a))
            if ra is None:
                stack.append(a)
                continue
            a = ra
        stack.pop()
        regs[id(node)] = len(code)
        code.append((len(code), op, a, b, node._level))
    return tuple(code), [regs[id(root)] for root in roots]


# ---------------------------------------------------------------------------
# running a program

# An arithmetic says what the ops compute on one kind of register value.
# It is the tuple (const, neg, add, sub, mul, pow, prim) of functions of
# (Dual), (x), (x, y), (x, y), (x, y), (x, exponent) and (name, x).


def run_steps(steps: Iterable[tuple], arith: tuple, regs: list,
              args: Sequence) -> None:
    """Run steps (see :func:`lower_expr`), in order, into `regs`, which
    holds the registers they read; `args[i]` is the value of x(i+1)."""
    const, neg, add, sub, mul, power, prim = arith
    for r, op, a, b, _ in steps:
        match op:
            case "mul":
                regs[r] = mul(regs[a], regs[b])
            case "add":
                regs[r] = add(regs[a], regs[b])
            case "var":
                regs[r] = args[a]
            case "const":
                regs[r] = const(a)
            case "pow":
                regs[r] = power(regs[a], b)
            case "sub":
                regs[r] = sub(regs[a], regs[b])
            case "neg":
                regs[r] = neg(regs[a])
            case _:
                regs[r] = prim(op, regs[a])


def listwise(arith: tuple, n: int) -> tuple:
    """`arith` mapped over registers that hold a list of `n` values, one
    per lane: a constant is its value `n` times, and each op runs lane by
    lane, in lane order.  An operand may be any iterable of the values,
    such as ``repeat(value)`` for a value that every lane shares."""
    const, neg, add, sub, mul, power, prim = arith
    return (lambda value: [const(value)] * n,
            lambda x: list(map(neg, x)),
            lambda x, y: list(map(add, x, y)),
            lambda x, y: list(map(sub, x, y)),
            lambda x, y: list(map(mul, x, y)),
            lambda x, exponent: [power(p, exponent) for p in x],
            lambda name, x: [prim(name, p) for p in x])


def _run(code: tuple[tuple, ...], arith: tuple, args: Sequence):
    """The value of the last register; `args[i]` is the value of x(i+1)."""
    regs = [None] * len(code)
    run_steps(code, arith, regs, args)
    return regs[-1]


# Registers hold a dual value as its (re, ze) pair, computed with the
# float operations of `Dual`, so a run builds no Dual objects and gives
# the same bits, and the same OverflowError, as Dual arithmetic would.


def _pair_pow(x, exponent: int):
    if exponent == 0:
        return (1.0, 0.0)
    re, ze = x
    return (re ** exponent, exponent * re ** (exponent - 1) * ze)


_PAIRS = (
    lambda value: (value.re, value.ze),
    lambda x: (-x[0], -x[1]),
    lambda x, y: (x[0] + y[0], x[1] + y[1]),
    lambda x, y: (x[0] - y[0], x[1] - y[1]),
    lambda x, y: (x[0] * y[0], x[0] * y[1] + x[1] * y[0]),
    _pair_pow, _prim_pair)


# Polynomial registers, for exact integration (see
# :func:`.darboux.polynomial_estimate`, which derives the bound).  A
# register is (terms, shadow, order, degree):
#   terms   a dict from a packed exponent key to the (re, ze) float
#           coefficient of that monomial; the exponent of x(i+1) is the
#           i-th KEY_BITS-bit field of the key, so the key of a product
#           of monomials is the sum of their keys;
#   shadow  a float that, divided by 1 - gamma(order), bounds an A
#           such that the 1-norm (the sum of |re| + |ze| over the
#           coefficients) of the exact register is at most A, and that
#           of the terms' error at most gamma(order) A.  The program run
#           exactly on the absolute values of its inputs, with sub as
#           add, plus TINY for every float product, which stands for the
#           absolute error that product may have if it underflows, is
#           such an A, with
#   order   the most roundings, counted with repetition, on any term of
#           any coefficient, of the terms and of the shadow alike;
#   degree  at least the total degree of every monomial.
# Coefficients are floats, so no int of a constant rounds unseen.  Each
# op keeps the two bounds however its operands got theirs, so exp, sin
# and cos of a constant register fold to a constant whose shadow and
# order `_poly_prim` sets by its own bound; of any other register they
# raise NotPolynomial.
# The ops cost their float work and little else.  add and sub take y's
# coefficients as they are, or negated, which is what a product with 1.0
# or -1.0 gives, bit for bit; a product checks the monomial cap only past
# MAX_MONOMIALS pairs, since fewer pairs make fewer monomials;
# `poly_gradient` gives `poly_diff` in every variable from one pass over
# the terms.  A sum from the zero register ({}, 0.0, 0, 0) is its addend
# with the order one up (0.0 plus a shadow, never -0.0, is that shadow),
# which `forms._pullback` takes in place of the sum.

KEY_BITS = 8
MAX_DEGREE = 64       # below 2**KEY_BITS, so no exponent spills over
MAX_MONOMIALS = 256
TINY = 2.0 ** -1022   # the least normal float
_U = 2.0 ** -53       # the unit roundoff of round to nearest


class NotPolynomial(ValueError):
    """A program that is no polynomial within the caps."""


def _poly_const(value: Dual):
    re, ze = float(value.re), float(value.ze)
    if re != value.re or ze != value.ze:  # an int that rounds, or NaN
        raise NotPolynomial(f"the constant {value} is not a pair of floats")
    return {0: (re, ze)}, abs(re) + abs(ze), 1, 0


def _poly_sum(negate: bool):
    """add, or sub when `negate`: y's coefficients are added in as they
    are, or negated, which is exact, as the product with 1.0 or -1.0
    that they once went through was."""
    def combine(x, y):
        (xt, xs, xo, xd), (yt, ys, yo, yd) = x, y
        terms = dict(xt)
        get = terms.get
        if negate:
            for k, (re, ze) in yt.items():
                old = get(k)
                terms[k] = ((-re, -ze) if old is None
                            else (old[0] - re, old[1] - ze))
        else:
            for k, c in yt.items():
                old = get(k)
                terms[k] = (c if old is None
                            else (old[0] + c[0], old[1] + c[1]))
        if len(terms) > MAX_MONOMIALS:
            raise NotPolynomial(f"more than {MAX_MONOMIALS} monomials")
        return (terms, xs + ys, (xo if xo > yo else yo) + 1,
                xd if xd > yd else yd)
    return combine


def _poly_mul(x, y):
    # a coefficient sums at most min(len) pair products, whose ze parts
    # round twice: order x + y + min(len) + 1
    (xt, xs, xo, xd), (yt, ys, yo, yd) = x, y
    if not (xs and ys):  # a shadow of 0 is exactly 0, as is the product
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
    lx, ly = len(xt), len(yt)
    if lx * ly > MAX_MONOMIALS and len(terms) > MAX_MONOMIALS:
        raise NotPolynomial(f"more than {MAX_MONOMIALS} monomials")
    return (terms, xs * ys + (3 * lx * ly) * TINY,
            xo + yo + (lx if lx < ly else ly) + 1, xd + yd)


def _poly_pow(x, exponent: int):
    if exponent == 0:  # a raw x^0 is the constant 1
        return {0: (1.0, 0.0)}, 1.0, 0, 0
    if exponent > MAX_DEGREE:
        raise NotPolynomial(f"degree above {MAX_DEGREE}")
    power = x
    for _ in range(exponent - 1):
        power = _poly_mul(power, x)
    return power


# exp, sin and cos fold on a constant register.  The argument's exact
# value is within E = gamma(2N) S of its float pair in the 1-norm (N
# its order, S its shadow), and libm's values are taken within one ulp
# of the true ones.  On that error box the primitive and its derivative
# change by at most L per unit (1 for sin and cos; for exp, e^(re + E),
# or no bound where that nears the float range), so the pair is off by
# at most L (1 + |ze|) E plus one ulp of the value, |ze| ulps of the
# derivative and one ulp of the rounded ze product.  With order
# K = 2N + 1 and the shadow |value| + |ze part| + L (1 + |ze|) S +
# ulps / (K u), each operation rounded up, gamma(K) times the shadow
# bounds that error and the shadow bounds the exact pair: the two
# bounds the other ops carry on (see the comment above `_POLYS`).


def _up(x: float) -> float:
    # the next float up, which bounds a nonnegative sum, product or
    # quotient that rounded to nearest to x
    return math.nextafter(x, math.inf)


def _poly_prim(name: str, x):
    """exp, sin or cos of a register with no non-constant monomial, the
    exact zero included: the pair :func:`_prim_pair` gives, raising where
    it raises, with the shadow and order the comment above derives.  Any
    other register raises :class:`NotPolynomial`."""
    terms, shadow, order, _ = x
    if terms.keys() - {0}:
        raise NotPolynomial(f"{name} of a non-constant is not a polynomial")
    re, ze = terms.get(0, (0.0, 0.0))
    value, slope = pair = _prim_pair(name, (re, ze))
    k = 2 * order + 1
    hi = _up(re + _up(k * _U * shadow))  # re + E
    # math.exp overflows past about 709.78
    lip = 1.0 if name != "exp" else _up(math.exp(hi)) if hi < 709 else math.inf
    ulps = _up(_up(math.ulp(value) + math.ulp(slope))
               + _up(abs(ze) * math.ulp(max(lip, abs(value)))))
    carried = _up(_up(lip * _up(1.0 + abs(ze))) * shadow)
    shadow = _up(_up(abs(value) + abs(slope))
                 + _up(carried + _up(ulps / (k * _U))))
    return {0: pair}, shadow, k, 0


def poly_diff(x, index: int):
    """The partial derivative of a polynomial register in variable `index`.

    Each coefficient is multiplied by its exponent, one more rounding,
    and the shadow by the largest exponent of the variable, which bounds
    that factor on every coefficient; no term in it gives no terms."""
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
    return (out, shadow * top if top else 0.0, order + 1,
            degree - 1 if degree else 0)


def poly_gradient(x, arity: int) -> list:
    """:func:`poly_diff` of a register in every variable below `arity`,
    which must hold all of its variables, bit for bit, from one pass over
    its terms: each term's exponents are read off its key from the
    lowest field up."""
    terms, shadow, order, degree = x
    mask = (1 << KEY_BITS) - 1
    outs = [{} for _ in range(arity)]
    tops = [0] * arity
    for k, (re, ze) in terms.items():
        rest, j, unit = k, 0, 1
        while rest:
            p = rest & mask
            if p:
                outs[j][k - unit] = (re * p, ze * p)
                if p > tops[j]:
                    tops[j] = p
            rest >>= KEY_BITS
            j += 1
            unit <<= KEY_BITS
    order += 1
    degree = degree - 1 if degree else 0
    return [(out, shadow * top if top else 0.0, order, degree)
            for out, top in zip(outs, tops)]


_POLYS = (
    _poly_const,
    lambda x: ({k: (-re, -ze) for k, (re, ze) in x[0].items()},) + x[1:],
    _poly_sum(False), _poly_sum(True), _poly_mul, _poly_pow, _poly_prim)


# Bound registers: what a point run (`_PAIRS`) of the same program may
# compute at any point whose every coordinate has 1-norm |re| + |ze| at
# most its variable's register's shadow.  A register is (shadow, order),
# as a polynomial register's two bounds on the pair run's one value: the
# shadow is the program run exactly on the absolute values (an upper
# bound for each input), with sub as add, plus TINY for each u TINY of
# absolute error an underflow may leave, and the order the most
# roundings on any term of the value and of the shadow alike.  So the
# pair run's value is within gamma(2 order) shadow of the exact value in
# the 1-norm, by the argument of :func:`.darboux.polynomial_estimate`.
# The ops round as `_PAIRS` does: a sum once, a dual product's parts
# once and twice, each of its three float products adding TINY; the
# pair power ``(re^e, e re^(e-1) ze)`` takes libm's pow within one ulp,
# that is 2 roundings, or an absolute 2 u TINY, so its parts have orders
# e N + 2 and e N + 4, and its underflows add at most
# ((2e + 1) ||x|| + 3) TINY, while ``(|re| + |ze|)^e`` bounds the exact
# parts' 1-norm; x^0 is the exact 1.  A constant's shadow rounds once.
# Each step's shadow must be at most 2^1020 and its order at most 2^24,
# else it raises OverflowError: then every float the pair run computes
# is below 2^1021, e re^(e-1) included (at most |re|^e where |re| >= e,
# and below 64^64 where not), so no step overflows, raises or makes a
# NaN.  A primitive, or a power past MAX_DEGREE, raises NotPolynomial.

_BOUND_LIMIT = 2.0 ** 1020
_BOUND_ORDER = 1 << 24


def _bounded(shadow: float, order: int):
    if shadow <= _BOUND_LIMIT and order <= _BOUND_ORDER:  # False for NaN
        return shadow, order
    raise OverflowError("a bound register past its limits")


def _bound_sum(x, y):
    return _bounded(x[0] + y[0], (x[1] if x[1] > y[1] else y[1]) + 1)


def _bound_pow(x, exponent: int):
    if exponent == 0:
        return 1.0, 0
    if exponent > MAX_DEGREE:
        raise NotPolynomial(f"degree above {MAX_DEGREE}")
    shadow, order = x
    return _bounded(shadow ** exponent
                    + ((2 * exponent + 1) * shadow + 3.0) * TINY,
                    exponent * order + 4)


def _bound_prim(name: str, x):
    raise NotPolynomial(f"{name} has no bound register")


_BOUNDS = (
    lambda value: _bounded(abs(value.re) + abs(value.ze), 1),
    lambda x: x, _bound_sum, _bound_sum,
    lambda x, y: _bounded(x[0] * y[0] + 3.0 * TINY, x[1] + y[1] + 2),
    _bound_pow, _bound_prim)

# registers hold nodes, built (and folded) by the smart constructors
_NODES = (Const, _neg, _add, _sub, _mul, _pow, _prim)


# The gradient run: registers hold (node, partials).  The node is the
# instruction's own, which its raw constructor returns, interned, from
# the operands' nodes; the partials, one per variable asked for, are
# built by the smart constructors, each as a run for that variable alone
# would build it.


def _gradient_arithmetic(count: int) -> tuple:
    zeros = (_ZERO_NODE,) * count
    return (lambda value: (Const(value), zeros),) + _GRADIENT


def _g_mul(x, y):
    (u, du), (v, dv) = x, y
    return Mul(u, v), tuple([_add(_mul(p, v), _mul(u, q))
                             for p, q in zip(du, dv)])


def _g_pow(x, exponent: int):
    u, du = x
    if exponent == 0:  # a raw x^0 is the constant 1
        return PowInt(u, 0), (_ZERO_NODE,) * len(du)
    scaled = _mul(Const(Dual(float(exponent))), _pow(u, exponent - 1))
    return PowInt(u, exponent), tuple([_mul(scaled, p) for p in du])


def _g_prim(name: str, x):
    u, du = x
    if name == "exp":
        outer = Prim("exp", u)
    elif name == "sin":
        outer = _prim("cos", u)
    else:
        outer = _neg(_prim("sin", u))
    return Prim(name, u), tuple([_mul(outer, p) for p in du])


_GRADIENT = (
    lambda x: (Neg(x[0]), tuple(map(_neg, x[1]))),
    lambda x, y: (Add(x[0], y[0]), tuple(map(_add, x[1], y[1]))),
    lambda x, y: (Sub(x[0], y[0]), tuple(map(_sub, x[1], y[1]))),
    _g_mul, _g_pow, _g_prim)


# Registers hold a node's repr, in the Name(field=value, ...) form of a Record.


def _repr_binary(cls: str):
    return lambda x, y: f"{cls}(lhs={x}, rhs={y})"


_REPR = (
    lambda value: f"Const(value={value!r})",
    lambda x: f"Neg(arg={x})",
    _repr_binary("Add"), _repr_binary("Sub"), _repr_binary("Mul"),
    lambda x, exponent: f"PowInt(base={x}, exponent={exponent!r})",
    lambda name, x: f"Prim(name={name!r}, arg={x})")


# ---------------------------------------------------------------------------
# rendering

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _float_text(x: float) -> str:
    return repr(float(x))


def _const_text(value: Dual) -> tuple[str, int]:
    if value.ze == 0:
        return _float_text(value.re), (_PREC_ATOM if value.re >= 0 else _PREC_NEG)
    if value.re == 0 and value.ze == 1:
        return "eps", _PREC_ATOM
    if value.re == 0:
        return f"{_float_text(value.ze)}*eps", _PREC_ADD
    sign = "+" if value.ze > 0 else "-"
    return (f"{_float_text(value.re)}{sign}{_float_text(abs(value.ze))}*eps",
            _PREC_ADD)


# Registers hold (text, precedence); an operand is parenthesized when its
# precedence is below what its place in the parent needs.


def _wrap(x, context: int) -> str:
    text, prec = x
    return "(" + text + ")" if prec < context else text


def _infix(symbol: str, prec: int):
    return lambda x, y: (_wrap(x, prec) + symbol + _wrap(y, prec + 1), prec)


_TEXT = (
    _const_text,
    lambda x: ("-" + _wrap(x, _PREC_NEG), _PREC_NEG),
    _infix("+", _PREC_ADD), _infix("-", _PREC_ADD), _infix("*", _PREC_MUL),
    lambda x, exponent: (_wrap(x, _PREC_ATOM) + "^" + str(exponent),
                         _PREC_POW),
    lambda name, x: (f"{name}({x[0]})", _PREC_ATOM))


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    """Malformed expression text; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN = _regex.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", end))
    return tokens


# Parentheses, function calls and unary minus each nest one level; the
# parser recurses per level, so the cap keeps it inside Python's stack.
MAX_NESTING = 200


def _folded(build, op: str, pos: int, *operands) -> Node:
    # a smart constructor folds constants, and raises where the fold
    # overflows: an error in the text, at the operator's offset
    try:
        return build(*operands)
    except OverflowError as exc:
        raise ParseError(f"{op!r} overflows the float range", pos) from exc


class _Parser:
    # Only an op token's text is an operator or a parenthesis, so a token
    # is that op exactly when its text is.

    def __init__(self, text: str, arity: int):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.arity = arity
        self.depth = 0  # levels open around the current factor

    def expect_op(self, op: str):
        _, value, pos = self.tokens[self.idx]
        if value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.idx += 1

    def parse(self) -> Node:
        node = self.expr()
        kind, value, pos = self.tokens[self.idx]
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def expr(self) -> Node:
        # terms joined by + and -, each factors joined by *, left to right
        tokens, op = self.tokens, None
        while True:
            term = self.factor()
            while tokens[self.idx][1] == "*":
                self.idx += 1
                term = _mul(term, self.factor())
            node = (term if op is None else _add(node, term) if op == "+"
                    else _sub(node, term))
            op = tokens[self.idx][1]
            if op != "+" and op != "-":
                return node
            self.idx += 1

    def factor(self) -> Node:
        kind, value, pos = self.tokens[self.idx]
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", pos)
        self.depth += 1
        self.idx += 1
        if value == "-":
            node = _neg(self.factor())
        else:
            node = self.atom(kind, value, pos)
            _, value, pos = self.tokens[self.idx]
            if value == "^":
                self.idx += 1
                node = _folded(_pow, "^", pos, node, self.uint())
        self.depth -= 1
        return node

    def uint(self) -> int:
        kind, value, pos = self.tokens[self.idx]
        if kind != "num" or not value.isdigit():
            raise ParseError("expected a nonnegative integer exponent", pos)
        self.idx += 1
        return int(value)

    def atom(self, kind: str, value: str, pos: int) -> Node:
        # the factor's first token, which it has consumed
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ParseError(f"number {value} overflows the float range",
                                 pos)
            return Const(Dual(number))
        if kind == "name":
            if value == "eps":
                return Const(EPS)
            if value in PRIMITIVES:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _folded(_prim, value, pos, value, inner)
            if value[0] == "x" and value[1:].isdigit():
                index = int(value[1:])
                if index < 1 or index > self.arity:
                    raise ParseError(
                        f"variable {value} out of range for arity {self.arity}",
                        pos)
                return Var(index - 1)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"expected a value, found {value!r}", pos)


# ---------------------------------------------------------------------------
# public wrapper


def _operator(build, reflected: bool = False):
    """The Expr method `self <op> other`, or `other <op> self` when
    `reflected`, whose node the smart constructor `build` makes; `other`
    is an Expr of the same arity, a real or a Dual."""
    def method(self, other):
        if isinstance(other, Expr):
            if other.arity != self.arity:
                raise ValueError("cannot combine expressions of different arity")
            node = other.node
        else:
            dual = _as_dual_or_none(other)
            if dual is None:
                return NotImplemented
            node = Const(dual)
        lhs, rhs = (node, self.node) if reflected else (self.node, node)
        return Expr(build(lhs, rhs), self.arity)
    return method


class Expr(Record):
    """A dual-analytic function of `arity` dual variables; immutable."""

    __slots__ = _fields = ("node", "arity")

    def __init__(self, node: Node, arity: int):
        if not isinstance(node, Node):
            raise TypeError(f"not an expression node: {node!r}")
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        if node._level >= arity:  # the highest variable read
            raise ValueError(
                f"expression uses x{node._level + 1} but arity is {arity}")
        self.node, self.arity = node, arity

    @staticmethod
    def constant(value, arity: int = 0) -> "Expr":
        return Expr(Const(as_dual(value)), arity)

    @staticmethod
    def variable(index: int, arity: int) -> "Expr":
        # Var checks the index, and __init__ that it is below the arity
        return Expr(Var(index), arity)

    __add__, __radd__ = _operator(_add), _operator(_add, reflected=True)
    __sub__, __rsub__ = _operator(_sub), _operator(_sub, reflected=True)
    __mul__, __rmul__ = _operator(_mul), _operator(_mul, reflected=True)

    def __neg__(self) -> "Expr":
        return Expr(_neg(self.node), self.arity)

    def __pow__(self, exponent: int) -> "Expr":
        return Expr(_pow(self.node, exponent), self.arity)

    def __str__(self) -> str:
        return render_expr(self)


def exp(f: Expr) -> Expr:
    return Expr(_prim("exp", f.node), f.arity)


def sin(f: Expr) -> Expr:
    return Expr(_prim("sin", f.node), f.arity)


def cos(f: Expr) -> Expr:
    return Expr(_prim("cos", f.node), f.arity)


def is_zero_expr(f: Expr) -> bool:
    """True when the expression is the folded constant zero."""
    return _is_zero_node(f.node)


def parse_expr(text: str, arity: int) -> Expr:
    """Parse grammar text into an expression of the given arity."""
    return Expr(_Parser(text, arity).parse(), arity)


def render_expr(f: Expr) -> str:
    """Grammar-conformant text for an expression; parses back to the same
    tree up to constants equal as Duals (0.0 and -0.0, 2 and 2.0)."""
    names = tuple((f"x{i + 1}", _PREC_ATOM) for i in range(f.arity))
    return _run(lower_expr(f), _TEXT, names)[0]


def _point_pairs(point, arity: int) -> tuple[tuple, ...]:
    """A dual point (a DualVec or any sequence of scalars) with `arity`
    components, as their (re, ze) pairs."""
    if not isinstance(point, DualVec):
        point = [as_dual(c) for c in point]
    if len(point) != arity:
        raise ValueError(f"expected {arity} components, got {len(point)}")
    return tuple([(c.re, c.ze) for c in point])


def eval_dual(f: Expr, point) -> Dual:
    """Evaluate at a dual point (a DualVec or any sequence of scalars)."""
    return Dual(*_run(lower_expr(f), _PAIRS, _point_pairs(point, f.arity)))


def eval_enclosure(f: Expr, boxes: Sequence[DualBox]) -> DualBox:
    """A box guaranteed (up to roundoff) to contain f over the input boxes."""
    boxes = tuple(boxes)
    if len(boxes) != f.arity:
        raise ValueError(f"expected {f.arity} boxes, got {len(boxes)}")
    return DualBox(*_run(lower_expr(f), BOXES,
                         [box.intervals() for box in boxes]))


def expand_polynomial(f: Expr) -> tuple:
    """f's program run on polynomial registers: the register
    ``(terms, shadow, order, degree)`` that the comment above ``_POLYS``
    describes.  Raises :class:`NotPolynomial` at a primitive of a
    non-constant, or past ``MAX_DEGREE`` or ``MAX_MONOMIALS``."""
    return _run(lower_expr(f), _POLYS, _poly_vars(f.arity))


def _poly_vars(arity: int) -> list:
    """The polynomial registers of x1 .. x(arity)."""
    return [({1 << (KEY_BITS * i): (1.0, 0.0)}, 1.0, 0, 1)
            for i in range(arity)]


def partial_diff(f: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative with respect to variable `index`."""
    return partial_diffs(f, (index,))[0]


def partial_diffs(f: Expr, indices: Sequence[int]) -> tuple[Expr, ...]:
    """The partials with respect to each variable of `indices`, from one
    run of f's program; each is the tree `partial_diff` gives."""
    indices = tuple(indices)
    if not indices:
        return ()
    for i in indices:
        _check_natural(i, "variable indices")
    if max(indices) >= f.arity:
        raise ValueError("variable index out of range")
    args = [(Var(i), tuple([_ONE_NODE if i == j else _ZERO_NODE
                            for j in indices]))
            for i in range(f.arity)]
    _, partials = _run(lower_expr(f), _gradient_arithmetic(len(indices)),
                       args)
    return tuple([Expr(p, f.arity) for p in partials])


def compose(outer: Expr, inner: Sequence[Expr]) -> Expr:
    """Substitute inner expressions for the variables of `outer`."""
    inner = tuple(inner)
    if len(inner) != outer.arity:
        raise ValueError(
            f"need {outer.arity} inner expressions, got {len(inner)}")
    if inner:
        arity = inner[0].arity
        if any(g.arity != arity for g in inner):
            raise ValueError("inner expressions must share one arity")
    else:
        arity = 0
    return Expr(
        _run(lower_expr(outer), _NODES, tuple(g.node for g in inner)), arity)


_GRID_SEED = 0x51AB


@functools.cache
def sample_points(arity: int, count: int = 16) -> tuple[tuple[Dual, ...], ...]:
    """Fixed pseudo-random dual points in [-1,1]^(2*arity), for equality tests."""
    rng = random.Random(_GRID_SEED + 7919 * arity)
    return tuple(
        tuple(Dual(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
              for _ in range(arity))
        for _ in range(count))


def exprs_equal(f: Expr, g: Expr, tol: float = 1e-9) -> bool:
    """Sample-grid equality: agreement at the fixed 16-point grid.

    A NaN or infinite value agrees with nothing.
    """
    if f.arity != g.arity:
        return False
    both = ExprMap((f, g))  # one program, so what f and g share runs once
    for point in sample_points(f.arity):
        (a_re, a_ze), (b_re, b_ze) = both.run(
            _PAIRS, _point_pairs(point, f.arity))
        if not (abs(a_re - b_re) <= tol and abs(a_ze - b_ze) <= tol):
            return False
    return True


# ---------------------------------------------------------------------------
# maps and derivatives


class ExprMap(Record):
    """Immutable function into dual m-space: one expression per component.

    The components share one program, lowered by :meth:`run` on first
    use and kept outside the fields, so copies, pickles, ``==`` and
    ``hash`` see only the components; a node that several components
    share runs once per run.

    A pinned map (:meth:`pin`) is a root map with some variables fixed:
    it runs the root's program and has none of its own, and builds its
    components, the nodes :func:`compose` builds, only when asked."""

    _fields = ("components",)
    __slots__ = ("_components", "_code", "_pin", "arity", "dim_out")

    def __init__(self, components: tuple[Expr, ...]):
        self._components = components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        self.arity, self.dim_out = components[0].arity, len(components)
        if any(c.arity != self.arity for c in components):
            raise ValueError("components must share one arity")
        self._code = self._pin = None

    @property
    def components(self) -> tuple[Expr, ...]:
        if self._components is None:  # pinned: one run on nodes
            nodes = self.run(_NODES, [Var(i) for i in range(self.arity)])
            self._components = tuple([Expr(n, self.arity) for n in nodes])
        return self._components

    def pin(self, index: int, value: Dual) -> "ExprMap":
        """This map with x(index+1) fixed at `value`: it runs, under any
        arithmetic, its root map's program with the arithmetic's constant
        of each pinned value in its argument's place, and its components
        are the nodes composing the root once with those constants builds.

        The components fold constants as they are built and the run does
        not, so the two can differ where a constant 0 or 1 multiplies a
        non-finite value, or in the sign of a zero sum: on the face
        x1 = 0 of ``x1*((x2+1)*1e300*1e300)`` the components give 0 and the
        run NaN, and the sample values chains normalize by come from the
        run."""
        if index.__class__ is not int or index < 0:
            _check_natural(index, "variable indices")
        if index >= self.arity:
            raise ValueError("variable index out of range")
        root, pins = self._pin or (self, ())
        for at, _ in pins:  # ascending, so `index` becomes the root's
            index += at <= index
        pin = index, value if value.__class__ is Dual else as_dual(value)
        pinned = object.__new__(ExprMap)
        pinned._components = pinned._code = None
        pinned._pin = root, tuple(sorted((*pins, pin))) if pins else (pin,)
        pinned.arity, pinned.dim_out = self.arity - 1, self.dim_out
        return pinned

    def run(self, arith: tuple, args: Sequence) -> list:
        """Each component's register, from one run of the map's program
        under `arith`; `args[i]` is the value of x(i+1)."""
        mapping = self
        if self._pin is not None:
            mapping, pins = self._pin
            args = list(args)
            for index, value in pins:
                args.insert(index, arith[0](value))
        if mapping._code is None:
            mapping._code = _lower([c.node for c in mapping._components])
        code, outs = mapping._code
        regs = [None] * len(code)
        run_steps(code, arith, regs, args)
        return [regs[r] for r in outs]

    @staticmethod
    def identity(n: int) -> "ExprMap":
        return ExprMap(tuple(Expr.variable(i, n) for i in range(n)))

    def eval(self, point) -> DualVec:
        return DualVec(Dual(*x) for x in self.run(
            _PAIRS, _point_pairs(point, self.arity)))

    def compose(self, inner: "ExprMap") -> "ExprMap":
        """This map after `inner` (symbolic substitution)."""
        if inner.dim_out != self.arity:
            raise ValueError("dimension mismatch in composition")
        nodes = self.run(_NODES, [g.node for g in inner.components])
        return ExprMap([Expr(node, inner.arity) for node in nodes])


class DualMap(Record):
    """Immutable matrix of duals acting on dual vectors: the derivative."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Dual, ...], ...]):
        rows = tuple(tuple(as_dual(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must have equal length")
        self.entries = rows

    rows = property(lambda self: len(self.entries))
    cols = property(lambda self: len(self.entries[0]))

    @staticmethod
    def identity(n: int) -> "DualMap":
        return DualMap(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                             for i in range(n)))

    def apply(self, v: DualVec) -> DualVec:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            acc = ZERO
            for entry, comp in zip(row, v):
                acc = acc + entry * comp
            out.append(acc)
        return DualVec(out)

    def scale(self, scalar) -> "DualMap":
        s = as_dual(scalar)
        return DualMap(tuple(tuple(s * e for e in row) for row in self.entries))

    def __add__(self, other: "DualMap") -> "DualMap":
        if not isinstance(other, DualMap):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return DualMap(tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))


def jacobian(f: ExprMap, point) -> DualMap:
    """Matrix of symbolic partials evaluated at the point, all of them by
    one run of one program."""
    if f.arity < 1:
        raise ValueError("jacobian needs at least one input variable")
    m = f.arity
    partials = ExprMap([p for c in f.components
                        for p in partial_diffs(c, range(m))])
    values = partials.run(_PAIRS, _point_pairs(point, m))
    return DualMap(tuple(tuple(Dual(*x) for x in values[i:i + m])
                         for i in range(0, len(values), m)))


def compose_maps(outer: DualMap, inner: DualMap) -> DualMap:
    """Matrix product: derivative of a composition from the two pieces."""
    if outer.cols != inner.rows:
        raise ValueError(
            f"dimension mismatch: {outer.rows}x{outer.cols} after "
            f"{inner.rows}x{inner.cols}")
    columns = [outer.apply(DualVec(column)) for column in zip(*inner.entries)]
    return DualMap(tuple(zip(*columns)))


def cr_check(f: ExprMap, point, h: float = 1e-6) -> float:
    """Finite-difference check of the 2x2 real block structure of derivatives.

    Each dual entry d = d1 + d2*eps of the jacobian must act on real
    coordinate pairs (re, ze) as the block [[d1, 0], [d2, d1]].  Central
    differences with step `h`, positive and finite, probe all 2n real
    directions; the return value is the worst absolute deviation from
    that block structure, or NaN if any deviation is NaN.
    """
    if not 0 < h < math.inf:
        raise ValueError("step must be a positive finite number")
    jac = jacobian(f, point)
    pairs = _point_pairs(point, f.arity)
    deviations = []
    for i, (re, ze) in enumerate(pairs):
        # part 0 steps in the re direction, part 1 in the ze direction
        for part, hi, lo in ((0, (re + h, ze), (re - h, ze)),
                             (1, (re, ze + h), (re, ze - h))):
            his = f.run(_PAIRS, pairs[:i] + (hi,) + pairs[i + 1:])
            los = f.run(_PAIRS, pairs[:i] + (lo,) + pairs[i + 1:])
            for row, (hi_re, hi_ze), (lo_re, lo_ze) in zip(jac.entries, his,
                                                           los):
                d_re = (hi_re - lo_re) / (2.0 * h)
                d_ze = (hi_ze - lo_ze) / (2.0 * h)
                if part:
                    deviations += abs(d_re), abs(d_ze - row[i].re)
                else:
                    deviations += abs(d_re - row[i].re), abs(d_ze - row[i].ze)
    if any(map(math.isnan, deviations)):
        return math.nan
    return max(deviations)
