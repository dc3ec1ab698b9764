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

After parsing, the only walk over a tree is the iterative one of
:func:`lower_expr`, and every other walk runs on its straight-line
program: point evaluation, substitution, differentiation and rendering
are one interpreter under four arithmetics, and interval enclosures run
one :func:`enclose_step` per instruction.  The parser is the only
recursion, capped by ``MAX_NESTING``.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import re as _regex
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dual import Dual, DualVec, EPS, ONE, ZERO, as_dual, _as_dual_or_none

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# tree nodes


class Node:
    """Base of the expression tree; concrete nodes are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    value: Dual


@dataclass(frozen=True)
class Var(Node):
    index: int  # 0-based


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Add(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class Sub(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class Mul(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class PowInt(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Prim(Node):
    name: str  # "exp" | "sin" | "cos"
    arg: Node


_ZERO_NODE = Const(ZERO)
_ONE_NODE = Const(ONE)
PRIMITIVES = ("exp", "sin", "cos")


def _is_zero_node(node: Node) -> bool:
    return isinstance(node, Const) and node.value.is_zero()


def _is_one_node(node: Node) -> bool:
    return isinstance(node, Const) and node.value == ONE


def _add(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_zero_node(a):
        return b
    if _is_zero_node(b):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_zero_node(b):
        return a
    if _is_zero_node(a):
        return _neg(b)
    return Sub(a, b)


def _neg(a: Node) -> Node:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_zero_node(a) or _is_zero_node(b):
        return _ZERO_NODE
    if _is_one_node(a):
        return b
    if _is_one_node(b):
        return a
    return Mul(a, b)


def _pow(a: Node, exponent: int) -> Node:
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise TypeError("exponents must be integers")
    if exponent < 0:
        raise ValueError("exponents must be nonnegative")
    if exponent == 0:
        return _ONE_NODE
    if exponent == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** exponent)
    return PowInt(a, exponent)


def _prim_value(name: str, x: Dual) -> Dual:
    if name == "exp":
        e = math.exp(x.re)
        return Dual(e, x.ze * e)
    if name == "sin":
        return Dual(math.sin(x.re), x.ze * math.cos(x.re))
    if name == "cos":
        return Dual(math.cos(x.re), -x.ze * math.sin(x.re))
    raise ValueError(f"unknown primitive {name!r}")


def _prim(name: str, a: Node) -> Node:
    if name not in PRIMITIVES:
        raise ValueError(f"unknown primitive {name!r}")
    if isinstance(a, Const):
        return Const(_prim_value(name, a.value))
    return Prim(name, a)


# ---------------------------------------------------------------------------
# lowering to a straight-line program

# Instruction i writes register i and reads only earlier registers, so
# one pass in order runs the program; the last instruction holds the
# value of the whole expression.  Equal subexpressions, whether shared
# objects or separately built equal trees, lower to one instruction.
# `level` is the highest variable index an instruction reads, directly
# or through its operands, or -1 for none: over a product of boxes its
# result depends only on the boxes of axes 0..level, so a loop nest over
# the axes can run it in the loop of axis `level`.


class Instr(NamedTuple):
    """One step of a lowered expression."""

    op: str     # "const", "var", "neg", "add", "sub", "mul", "pow", a primitive
    a: object   # the constant (Dual), the variable index, or an operand register
    b: object   # the second operand register, the exponent, or None
    level: int


# node type -> (op, child nodes, the field that is not a child or None)
_SHAPES = {
    Const: lambda node: ("const", (), node.value),
    Var: lambda node: ("var", (), node.index),
    Neg: lambda node: ("neg", (node.arg,), None),
    Add: lambda node: ("add", (node.lhs, node.rhs), None),
    Sub: lambda node: ("sub", (node.lhs, node.rhs), None),
    Mul: lambda node: ("mul", (node.lhs, node.rhs), None),
    PowInt: lambda node: ("pow", (node.base,), node.exponent),
    Prim: lambda node: (node.name, (node.arg,), None),
}


def lower_expr(f: Expr) -> tuple[Instr, ...]:
    """The expression as a straight-line program, common subexpressions
    once; it is built on first use and kept with `f`."""
    return f._code


def _lower(root: Node) -> tuple[Instr, ...]:
    code: list[Instr] = []
    by_key: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> register; root keeps nodes alive
    stack = [(root, None)]  # (node, its shape once its operands are queued)
    while stack:
        node, shape = stack.pop()
        if id(node) in done:
            continue
        if shape is None:
            if type(node) not in _SHAPES:
                raise TypeError(f"not an expression node: {node!r}")
            shape = _SHAPES[type(node)](node)
            if shape[1]:
                stack.append((node, shape))
                stack.extend((kid, None) for kid in reversed(shape[1]))
                continue
        op, kids, field = shape
        if op == "const":
            # repr keeps 0.0 and -0.0 (and int and float) apart
            key = (op, repr((field.re, field.ze)))
            ins = Instr(op, field, None, -1)
        elif op == "var":
            key, ins = (op, field), Instr(op, field, None, field)
        else:
            regs = [done[id(kid)] for kid in kids]
            a, b = regs if len(regs) == 2 else (regs[0], field)
            level = max(code[r].level for r in regs)
            key, ins = (op, a, b), Instr(op, a, b, level)
        if key not in by_key:
            by_key[key] = len(code)
            code.append(ins)
        done[id(node)] = by_key[key]
    return tuple(code)


# ---------------------------------------------------------------------------
# running a program

# An arithmetic says what the ops compute on one kind of register value.
# It is the tuple (const, neg, add, sub, mul, pow, prim) of functions of
# (Dual), (x), (x, y), (x, y), (x, y), (x, exponent) and (name, x).


def _run(code: tuple[Instr, ...], arith: tuple, args: Sequence):
    """The value of the last register; `args[i]` is the value of x(i+1)."""
    const, neg, add, sub, mul, power, prim = arith
    regs: list = []
    put = regs.append
    for op, a, b, _ in code:
        match op:
            case "var":
                put(args[a])
            case "const":
                put(const(a))
            case "add":
                put(add(regs[a], regs[b]))
            case "sub":
                put(sub(regs[a], regs[b]))
            case "mul":
                put(mul(regs[a], regs[b]))
            case "neg":
                put(neg(regs[a]))
            case "pow":
                put(power(regs[a], b))
            case _:
                put(prim(op, regs[a]))
    return regs[-1]


# registers hold Dual values
_POINT = (lambda value: value, operator.neg, operator.add, operator.sub,
          operator.mul, operator.pow, _prim_value)

# registers hold nodes, built (and folded) by the smart constructors
_NODES = (Const, _neg, _add, _sub, _mul, _pow, _prim)


# Registers hold (node, its derivative node) for one variable.  The node
# is rebuilt as it was, unfolded, so each rule sees the operands of the
# tree it differentiates.


def _d_mul(x, y):
    (u, du), (v, dv) = x, y
    return Mul(u, v), _add(_mul(du, v), _mul(u, dv))


def _d_pow(x, exponent: int):
    u, du = x
    scaled = _mul(Const(Dual(float(exponent))), _pow(u, exponent - 1))
    return PowInt(u, exponent), _mul(scaled, du)


def _d_prim(name: str, x):
    u, du = x
    if name == "exp":
        outer = Prim("exp", u)
    elif name == "sin":
        outer = _prim("cos", u)
    else:
        outer = _neg(_prim("sin", u))
    return Prim(name, u), _mul(outer, du)


_DERIVATIVE = (
    lambda value: (Const(value), _ZERO_NODE),
    lambda x: (Neg(x[0]), _neg(x[1])),
    lambda x, y: (Add(x[0], y[0]), _add(x[1], y[1])),
    lambda x, y: (Sub(x[0], y[0]), _sub(x[1], y[1])),
    _d_mul, _d_pow, _d_prim)


# ---------------------------------------------------------------------------
# interval enclosures

# Plain real intervals are (lo, hi) tuples; a DualBox pairs one for each
# part.  Rounding is to nearest (no outward rounding), so enclosures are
# sound up to roundoff, which is all the integration layer relies on.


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _isub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _ineg(a):
    return (-a[1], -a[0])


def _imul(a, b):
    p0 = a[0] * b[0]
    p1 = a[0] * b[1]
    p2 = a[1] * b[0]
    p3 = a[1] * b[1]
    return (min(p0, p1, p2, p3), max(p0, p1, p2, p3))


def _iscale(a, c: float):
    if c >= 0:
        return (c * a[0], c * a[1])
    return (c * a[1], c * a[0])


def _ipow(a, k: int):
    if k == 0:
        return (1.0, 1.0)
    lo = a[0] ** k
    hi = a[1] ** k
    if k % 2 == 1:
        return (lo, hi)
    if a[0] <= 0.0 <= a[1]:
        return (0.0, max(lo, hi))
    return (min(lo, hi), max(lo, hi))


def _iexp(a):
    return (math.exp(a[0]), math.exp(a[1]))


def _crosses(lo: float, hi: float, phase: float) -> bool:
    # does [lo, hi] contain a point congruent to phase mod 2*pi?
    k = math.ceil((lo - phase) / _TWO_PI)
    return phase + _TWO_PI * k <= hi


def _isin(a):
    lo, hi = a
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    s_lo, s_hi = math.sin(lo), math.sin(hi)
    top = 1.0 if _crosses(lo, hi, 0.5 * math.pi) else max(s_lo, s_hi)
    bot = -1.0 if _crosses(lo, hi, -0.5 * math.pi) else min(s_lo, s_hi)
    return (bot, top)


def _icos(a):
    lo, hi = a
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    c_lo, c_hi = math.cos(lo), math.cos(hi)
    top = 1.0 if _crosses(lo, hi, 0.0) else max(c_lo, c_hi)
    bot = -1.0 if _crosses(lo, hi, math.pi) else min(c_lo, c_hi)
    return (bot, top)


@dataclass(frozen=True)
class DualBox:
    """Axis-aligned set of duals: re in [re_lo, re_hi], ze in [ze_lo, ze_hi]."""

    re_lo: float
    re_hi: float
    ze_lo: float
    ze_hi: float

    def __post_init__(self):
        if self.re_lo > self.re_hi or self.ze_lo > self.ze_hi:
            raise ValueError("box bounds out of order")

    @staticmethod
    def point(value: Dual) -> "DualBox":
        return DualBox(value.re, value.re, value.ze, value.ze)

    def intervals(self):
        """The box as the (re interval, ze interval) pair that programs run on."""
        return ((self.re_lo, self.re_hi), (self.ze_lo, self.ze_hi))

    @property
    def width_re(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def width_ze(self) -> float:
        return self.ze_hi - self.ze_lo

    def contains(self, value: Dual, tol: float = 0.0) -> bool:
        return (self.re_lo - tol <= value.re <= self.re_hi + tol
                and self.ze_lo - tol <= value.ze <= self.ze_hi + tol)


def enclose_step(ins: Instr, regs: list, args: Sequence):
    """Run one instruction over intervals: (re interval, ze interval).

    `regs` holds the results of earlier instructions, and `args[i]` the
    (re interval, ze interval) pair of variable ``x(i+1)``.
    """
    op, a, b, _ = ins
    match op:
        case "const":
            return ((a.re, a.re), (a.ze, a.ze))
        case "var":
            return args[a]
        case "neg":
            r, z = regs[a]
            return (_ineg(r), _ineg(z))
        case "add":
            (r1, z1), (r2, z2) = regs[a], regs[b]
            return (_iadd(r1, r2), _iadd(z1, z2))
        case "sub":
            (r1, z1), (r2, z2) = regs[a], regs[b]
            return (_isub(r1, r2), _isub(z1, z2))
        case "mul":
            (r1, z1), (r2, z2) = regs[a], regs[b]
            return (_imul(r1, r2), _iadd(_imul(r1, z2), _imul(z1, r2)))
        case "pow":
            r, z = regs[a]
            ze_part = _iscale(_imul(_ipow(r, b - 1), z), float(b))
            return (_ipow(r, b), ze_part)
        case "exp":
            r, z = regs[a]
            er = _iexp(r)
            return (er, _imul(z, er))
        case "sin":
            r, z = regs[a]
            return (_isin(r), _imul(z, _icos(r)))
        case "cos":
            r, z = regs[a]
            return (_icos(r), _ineg(_imul(z, _isin(r))))
    raise TypeError(f"not an instruction: {ins!r}")


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
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Parentheses, function calls and unary minus each nest one level; the
# parser recurses per level, so the cap keeps it inside Python's stack.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, arity: int):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.arity = arity
        self.depth = 0  # levels open around the current factor

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        token = self.tokens[self.idx]
        self.idx += 1
        return token

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                rhs = self.term()
                node = _add(node, rhs) if value == "+" else _sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = _mul(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, value, pos = self.peek()
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", pos)
        self.depth += 1
        if kind == "op" and value == "-":
            self.advance()
            node = _neg(self.factor())
        else:
            node = self.atom()
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = _pow(node, self.uint())
        self.depth -= 1
        return node

    def uint(self) -> int:
        kind, value, pos = self.peek()
        if kind != "num" or not value.isdigit():
            raise ParseError("expected a nonnegative integer exponent", pos)
        self.advance()
        return int(value)

    def atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(Dual(float(value)))
        if kind == "name":
            if value == "eps":
                return Const(EPS)
            if value in PRIMITIVES:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _prim(value, inner)
            if value[0] == "x" and value[1:].isdigit():
                index = int(value[1:])
                if index < 1 or index > self.arity:
                    raise ParseError(
                        f"variable {value} out of range for arity {self.arity}",
                        pos)
                return Var(index - 1)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"expected a value, found {value!r}", pos)


# ---------------------------------------------------------------------------
# public wrapper


@dataclass(frozen=True)
class Expr:
    """A dual-analytic function of `arity` dual variables."""

    node: Node
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        top = _lower(self.node)[-1].level  # the highest variable read
        if top >= self.arity:
            raise ValueError(
                f"expression uses x{top + 1} but arity is {self.arity}")

    @classmethod
    def _built(cls, node: Node, arity: int) -> "Expr":
        """An Expr valid by construction, not checked nor lowered: the
        parser range-checks variables, and operators read no new one."""
        f = object.__new__(cls)
        object.__setattr__(f, "node", node)
        object.__setattr__(f, "arity", arity)
        return f

    @functools.cached_property
    def _code(self) -> tuple[Instr, ...]:
        return _lower(self.node)

    @staticmethod
    def constant(value, arity: int = 0) -> "Expr":
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        return Expr._built(Const(as_dual(value)), arity)

    @staticmethod
    def variable(index: int, arity: int) -> "Expr":
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        return Expr._built(Var(index), arity)

    def _rhs_node(self, other) -> Node | None:
        if isinstance(other, Expr):
            if other.arity != self.arity:
                raise ValueError("cannot combine expressions of different arity")
            return other.node
        dual = _as_dual_or_none(other)
        return None if dual is None else Const(dual)

    def __add__(self, other) -> "Expr":
        rhs = self._rhs_node(other)
        if rhs is None:
            return NotImplemented
        return Expr._built(_add(self.node, rhs), self.arity)

    def __radd__(self, other) -> "Expr":
        lhs = self._rhs_node(other)
        if lhs is None:
            return NotImplemented
        return Expr._built(_add(lhs, self.node), self.arity)

    def __sub__(self, other) -> "Expr":
        rhs = self._rhs_node(other)
        if rhs is None:
            return NotImplemented
        return Expr._built(_sub(self.node, rhs), self.arity)

    def __rsub__(self, other) -> "Expr":
        lhs = self._rhs_node(other)
        if lhs is None:
            return NotImplemented
        return Expr._built(_sub(lhs, self.node), self.arity)

    def __mul__(self, other) -> "Expr":
        rhs = self._rhs_node(other)
        if rhs is None:
            return NotImplemented
        return Expr._built(_mul(self.node, rhs), self.arity)

    def __rmul__(self, other) -> "Expr":
        lhs = self._rhs_node(other)
        if lhs is None:
            return NotImplemented
        return Expr._built(_mul(lhs, self.node), self.arity)

    def __neg__(self) -> "Expr":
        return Expr._built(_neg(self.node), self.arity)

    def __pow__(self, exponent: int) -> "Expr":
        return Expr._built(_pow(self.node, exponent), self.arity)

    def __str__(self) -> str:
        return render_expr(self)


def exp(f: Expr) -> Expr:
    return Expr._built(_prim("exp", f.node), f.arity)


def sin(f: Expr) -> Expr:
    return Expr._built(_prim("sin", f.node), f.arity)


def cos(f: Expr) -> Expr:
    return Expr._built(_prim("cos", f.node), f.arity)


def is_zero_expr(f: Expr) -> bool:
    """True when the expression is the folded constant zero."""
    return _is_zero_node(f.node)


def parse_expr(text: str, arity: int) -> Expr:
    """Parse grammar text into an expression of the given arity."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return Expr._built(_Parser(text, arity).parse(), arity)


def render_expr(f: Expr) -> str:
    """Grammar-conformant text for an expression; parses back to the same tree."""
    names = tuple((f"x{i + 1}", _PREC_ATOM) for i in range(f.arity))
    return _run(f._code, _TEXT, names)[0]


def _point_args(point) -> tuple[Dual, ...]:
    if isinstance(point, DualVec):
        return point.components
    return tuple(as_dual(c) for c in point)


def eval_dual(f: Expr, point) -> Dual:
    """Evaluate at a dual point (a DualVec or any sequence of scalars)."""
    args = _point_args(point)
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} components, got {len(args)}")
    return _run(f._code, _POINT, args)


def eval_enclosure(f: Expr, boxes: Sequence[DualBox]) -> DualBox:
    """A box guaranteed (up to roundoff) to contain f over the input boxes."""
    boxes = tuple(boxes)
    if len(boxes) != f.arity:
        raise ValueError(f"expected {f.arity} boxes, got {len(boxes)}")
    args = [box.intervals() for box in boxes]
    regs: list = []
    for ins in f._code:
        regs.append(enclose_step(ins, regs, args))
    (re_lo, re_hi), (ze_lo, ze_hi) = regs[-1]
    return DualBox(re_lo, re_hi, ze_lo, ze_hi)


def partial_diff(f: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative with respect to variable `index`."""
    if not 0 <= index < f.arity:
        raise ValueError("variable index out of range")
    args = tuple((Var(i), _ONE_NODE if i == index else _ZERO_NODE)
                 for i in range(f.arity))
    return Expr._built(_run(f._code, _DERIVATIVE, args)[1], f.arity)


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
    return Expr._built(
        _run(outer._code, _NODES, tuple(g.node for g in inner)), arity)


_GRID_SEED = 0x51AB


def sample_points(arity: int, count: int = 16) -> tuple[tuple[Dual, ...], ...]:
    """Fixed pseudo-random dual points in [-1,1]^(2*arity), for equality tests."""
    return _grid_points(arity, count)


@functools.cache
def _grid_points(arity: int, count: int) -> tuple[tuple[Dual, ...], ...]:
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
    for point in sample_points(f.arity):
        a = _run(f._code, _POINT, point)
        b = _run(g._code, _POINT, point)
        if not (abs(a.re - b.re) <= tol and abs(a.ze - b.ze) <= tol):
            return False
    return True


# ---------------------------------------------------------------------------
# maps and derivatives


@dataclass(frozen=True)
class ExprMap:
    """Function into dual m-space: one expression per output component."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a map needs at least one component")
        arity = self.components[0].arity
        if any(c.arity != arity for c in self.components):
            raise ValueError("components must share one arity")

    @property
    def arity(self) -> int:
        return self.components[0].arity

    @property
    def dim_out(self) -> int:
        return len(self.components)

    @staticmethod
    def identity(n: int) -> "ExprMap":
        return ExprMap(tuple(Expr.variable(i, n) for i in range(n)))

    def eval(self, point) -> DualVec:
        args = _point_args(point)
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} components, got {len(args)}")
        return DualVec(_run(c._code, _POINT, args) for c in self.components)

    def compose(self, inner: "ExprMap") -> "ExprMap":
        """This map after `inner` (symbolic substitution)."""
        if inner.dim_out != self.arity:
            raise ValueError("dimension mismatch in composition")
        return ExprMap(tuple(compose(c, inner.components)
                             for c in self.components))


@dataclass(frozen=True)
class DualMap:
    """Matrix of dual scalars acting on dual vectors: the derivative object."""

    entries: tuple[tuple[Dual, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_dual(x) for x in row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must have equal length")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

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
    """Matrix of symbolic partials evaluated at the point."""
    if f.arity < 1:
        raise ValueError("jacobian needs at least one input variable")
    args = _point_args(point)
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} components, got {len(args)}")
    return DualMap(tuple(
        tuple(eval_dual(partial_diff(c, i), args) for i in range(f.arity))
        for c in f.components))


def compose_maps(outer: DualMap, inner: DualMap) -> DualMap:
    """Matrix product: derivative of a composition from the two pieces."""
    if outer.cols != inner.rows:
        raise ValueError(
            f"dimension mismatch: {outer.rows}x{outer.cols} after "
            f"{inner.rows}x{inner.cols}")
    rows = []
    for i in range(outer.rows):
        row = []
        for j in range(inner.cols):
            acc = ZERO
            for t in range(outer.cols):
                acc = acc + outer.entries[i][t] * inner.entries[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return DualMap(tuple(rows))


def cr_check(f: ExprMap, point, h: float = 1e-6) -> float:
    """Finite-difference check of the 2x2 real block structure of derivatives.

    Each dual entry d = d1 + d2*eps of the jacobian must act on real
    coordinate pairs (re, ze) as the block [[d1, 0], [d2, d1]].  Central
    differences with step `h` probe all 2n real directions; the return
    value is the worst absolute deviation from that block structure.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    args = _point_args(point)
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} components, got {len(args)}")
    jac = jacobian(f, args)
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
            for j, comp in enumerate(f.components):
                f_hi = _run(comp._code, _POINT, args_hi)
                f_lo = _run(comp._code, _POINT, args_lo)
                d_re = (f_hi.re - f_lo.re) / (2.0 * h)
                d_ze = (f_hi.ze - f_lo.ze) / (2.0 * h)
                entry = jac.entries[j][i]
                if part == 0:
                    worst = max(worst, abs(d_re - entry.re), abs(d_ze - entry.ze))
                else:
                    worst = max(worst, abs(d_re), abs(d_ze - entry.re))
    return worst
