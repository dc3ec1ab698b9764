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

Interval enclosures run on :func:`lower_expr`'s straight-line program,
one :func:`enclose_step` per instruction.
"""

from __future__ import annotations

import math
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


def _max_var(node: Node) -> int:
    match node:
        case Const(_):
            return -1
        case Var(index):
            return index
        case Neg(arg) | Prim(_, arg):
            return _max_var(arg)
        case Add(lhs, rhs) | Sub(lhs, rhs) | Mul(lhs, rhs):
            return max(_max_var(lhs), _max_var(rhs))
        case PowInt(base, _):
            return _max_var(base)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation at dual points


def _eval(node: Node, args: tuple[Dual, ...]) -> Dual:
    match node:
        case Const(value):
            return value
        case Var(index):
            return args[index]
        case Neg(arg):
            return -_eval(arg, args)
        case Add(lhs, rhs):
            return _eval(lhs, args) + _eval(rhs, args)
        case Sub(lhs, rhs):
            return _eval(lhs, args) - _eval(rhs, args)
        case Mul(lhs, rhs):
            return _eval(lhs, args) * _eval(rhs, args)
        case PowInt(base, exponent):
            return _eval(base, args) ** exponent
        case Prim(name, arg):
            return _prim_value(name, _eval(arg, args))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# symbolic differentiation


def _diff(node: Node, i: int) -> Node:
    match node:
        case Const(_):
            return _ZERO_NODE
        case Var(index):
            return _ONE_NODE if index == i else _ZERO_NODE
        case Neg(arg):
            return _neg(_diff(arg, i))
        case Add(lhs, rhs):
            return _add(_diff(lhs, i), _diff(rhs, i))
        case Sub(lhs, rhs):
            return _sub(_diff(lhs, i), _diff(rhs, i))
        case Mul(lhs, rhs):
            return _add(_mul(_diff(lhs, i), rhs), _mul(lhs, _diff(rhs, i)))
        case PowInt(base, exponent):
            scaled = _mul(Const(Dual(float(exponent))), _pow(base, exponent - 1))
            return _mul(scaled, _diff(base, i))
        case Prim(name, arg):
            if name == "exp":
                outer: Node = Prim("exp", arg)
            elif name == "sin":
                outer = _prim("cos", arg)
            else:
                outer = _neg(_prim("sin", arg))
            return _mul(outer, _diff(arg, i))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# substitution (composition)


def _subst(node: Node, repl: tuple[Node, ...]) -> Node:
    match node:
        case Const(_):
            return node
        case Var(index):
            return repl[index]
        case Neg(arg):
            return _neg(_subst(arg, repl))
        case Add(lhs, rhs):
            return _add(_subst(lhs, repl), _subst(rhs, repl))
        case Sub(lhs, rhs):
            return _sub(_subst(lhs, repl), _subst(rhs, repl))
        case Mul(lhs, rhs):
            return _mul(_subst(lhs, repl), _subst(rhs, repl))
        case PowInt(base, exponent):
            return _pow(_subst(base, repl), exponent)
        case Prim(name, arg):
            return _prim(name, _subst(arg, repl))
    raise TypeError(f"not an expression node: {node!r}")


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


def _shape(node: Node):
    """(op, child nodes, the field that is not a child or None)."""
    match node:
        case Const(value):
            return "const", (), value
        case Var(index):
            return "var", (), index
        case Neg(arg):
            return "neg", (arg,), None
        case Add(lhs, rhs):
            return "add", (lhs, rhs), None
        case Sub(lhs, rhs):
            return "sub", (lhs, rhs), None
        case Mul(lhs, rhs):
            return "mul", (lhs, rhs), None
        case PowInt(base, exponent):
            return "pow", (base,), exponent
        case Prim(name, arg):
            return name, (arg,), None
    raise TypeError(f"not an expression node: {node!r}")


def lower_expr(f: Expr) -> tuple[Instr, ...]:
    """The expression as a straight-line program, common subexpressions once."""
    code: list[Instr] = []
    by_key: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id(node) -> register; f keeps every node alive
    stack = [f.node]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        op, kids, field = _shape(node)
        waiting = [kid for kid in kids if id(kid) not in done]
        if waiting:
            stack.extend(reversed(waiting))  # lhs first
            continue
        stack.pop()
        regs = [done[id(kid)] for kid in kids]
        if op == "const":
            # repr keeps 0.0 and -0.0 (and int and float) apart
            key, ins = (op, repr(field)), Instr(op, field, None, -1)
        elif op == "var":
            key, ins = (op, field), Instr(op, field, None, field)
        else:
            a, b = regs if len(regs) == 2 else (regs[0], field)
            level = max(code[r].level for r in regs)
            key, ins = (op, a, b), Instr(op, a, b, level)
        if key not in by_key:
            by_key[key] = len(code)
            code.append(ins)
        done[id(node)] = by_key[key]
    return tuple(code)


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


def _render(node: Node, context: int) -> str:
    match node:
        case Const(value):
            text, prec = _const_text(value)
        case Var(index):
            text, prec = f"x{index + 1}", _PREC_ATOM
        case Neg(arg):
            text, prec = "-" + _render(arg, _PREC_NEG), _PREC_NEG
        case Add(lhs, rhs):
            text = _render(lhs, _PREC_ADD) + "+" + _render(rhs, _PREC_ADD + 1)
            prec = _PREC_ADD
        case Sub(lhs, rhs):
            text = _render(lhs, _PREC_ADD) + "-" + _render(rhs, _PREC_ADD + 1)
            prec = _PREC_ADD
        case Mul(lhs, rhs):
            text = _render(lhs, _PREC_MUL) + "*" + _render(rhs, _PREC_MUL + 1)
            prec = _PREC_MUL
        case PowInt(base, exponent):
            text = _render(base, _PREC_ATOM) + "^" + str(exponent)
            prec = _PREC_POW
        case Prim(name, arg):
            text, prec = f"{name}({_render(arg, 0)})", _PREC_ATOM
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    if prec < context:
        return "(" + text + ")"
    return text


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
        top = _max_var(self.node)
        if top >= self.arity:
            raise ValueError(
                f"expression uses x{top + 1} but arity is {self.arity}")

    @staticmethod
    def constant(value, arity: int = 0) -> "Expr":
        return Expr(Const(as_dual(value)), arity)

    @staticmethod
    def variable(index: int, arity: int) -> "Expr":
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        return Expr(Var(index), arity)

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
        return Expr(_add(self.node, rhs), self.arity)

    def __radd__(self, other) -> "Expr":
        lhs = self._rhs_node(other)
        if lhs is None:
            return NotImplemented
        return Expr(_add(lhs, self.node), self.arity)

    def __sub__(self, other) -> "Expr":
        rhs = self._rhs_node(other)
        if rhs is None:
            return NotImplemented
        return Expr(_sub(self.node, rhs), self.arity)

    def __rsub__(self, other) -> "Expr":
        lhs = self._rhs_node(other)
        if lhs is None:
            return NotImplemented
        return Expr(_sub(lhs, self.node), self.arity)

    def __mul__(self, other) -> "Expr":
        rhs = self._rhs_node(other)
        if rhs is None:
            return NotImplemented
        return Expr(_mul(self.node, rhs), self.arity)

    def __rmul__(self, other) -> "Expr":
        lhs = self._rhs_node(other)
        if lhs is None:
            return NotImplemented
        return Expr(_mul(lhs, self.node), self.arity)

    def __neg__(self) -> "Expr":
        return Expr(_neg(self.node), self.arity)

    def __pow__(self, exponent: int) -> "Expr":
        return Expr(_pow(self.node, exponent), self.arity)

    def __str__(self) -> str:
        return _render(self.node, 0)


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
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return Expr(_Parser(text, arity).parse(), arity)


def render_expr(f: Expr) -> str:
    """Grammar-conformant text for an expression; parses back to the same tree."""
    return _render(f.node, 0)


def _point_args(point) -> tuple[Dual, ...]:
    if isinstance(point, DualVec):
        return point.components
    return tuple(as_dual(c) for c in point)


def eval_dual(f: Expr, point) -> Dual:
    """Evaluate at a dual point (a DualVec or any sequence of scalars)."""
    args = _point_args(point)
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} components, got {len(args)}")
    return _eval(f.node, args)


def eval_enclosure(f: Expr, boxes: Sequence[DualBox]) -> DualBox:
    """A box guaranteed (up to roundoff) to contain f over the input boxes."""
    boxes = tuple(boxes)
    if len(boxes) != f.arity:
        raise ValueError(f"expected {f.arity} boxes, got {len(boxes)}")
    args = [box.intervals() for box in boxes]
    regs: list = []
    for ins in lower_expr(f):
        regs.append(enclose_step(ins, regs, args))
    (re_lo, re_hi), (ze_lo, ze_hi) = regs[-1]
    return DualBox(re_lo, re_hi, ze_lo, ze_hi)


def partial_diff(f: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative with respect to variable `index`."""
    if not 0 <= index < f.arity:
        raise ValueError("variable index out of range")
    return Expr(_diff(f.node, index), f.arity)


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
    return Expr(_subst(outer.node, tuple(g.node for g in inner)), arity)


_GRID_SEED = 0x51AB


def sample_points(arity: int, count: int = 16) -> tuple[tuple[Dual, ...], ...]:
    """Fixed pseudo-random dual points in [-1,1]^(2*arity), for equality tests."""
    rng = random.Random(_GRID_SEED + 7919 * arity)
    return tuple(
        tuple(Dual(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
              for _ in range(arity))
        for _ in range(count))


def exprs_equal(f: Expr, g: Expr, tol: float = 1e-9) -> bool:
    """Sample-grid equality: agreement at the fixed 16-point grid."""
    if f.arity != g.arity:
        return False
    for point in sample_points(f.arity):
        a = _eval(f.node, point)
        b = _eval(g.node, point)
        if abs(a.re - b.re) > tol or abs(a.ze - b.ze) > tol:
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
        return ExprMap(tuple(Expr(Var(i), n) for i in range(n)))

    def eval(self, point) -> DualVec:
        args = _point_args(point)
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} components, got {len(args)}")
        return DualVec(_eval(c.node, args) for c in self.components)

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
        tuple(_eval(_diff(c.node, i), args) for i in range(f.arity))
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
                f_hi = _eval(comp.node, args_hi)
                f_lo = _eval(comp.node, args_lo)
                d_re = (f_hi.re - f_lo.re) / (2.0 * h)
                d_ze = (f_hi.ze - f_lo.ze) / (2.0 * h)
                entry = jac.entries[j][i]
                if part == 0:
                    worst = max(worst, abs(d_re - entry.re), abs(d_ze - entry.ze))
                else:
                    worst = max(worst, abs(d_re), abs(d_ze - entry.re))
    return worst
