"""Differential forms with symbolic dual-analytic coefficients.

A k-form on dual n-space is a dict from strictly ascending index tuples
to coefficient expressions of arity n.  Exterior derivatives go through
the symbolic partials, and pullbacks stay symbolic too: the
change-of-variables determinant is expanded into an expression, so a
pulled-back form can be differentiated or pulled back again without any
numerics; but the partials fold their constants in floats, unbounded.
The same loop runs on polynomial registers (:func:`pullback_polynomial`),
whose shadows bound every rounding: a chain integral pulls its form back
once per root map, for the map's cube and all its faces, and a verdict
builds no symbolic ``d w``.  Pointwise evaluation
hands off to the alternating-tensor machinery.

A form is the container of :mod:`.tensors` with expression
coefficients: :class:`~.tensors.Graded` checks the indices and supplies
``scale``, ``+``, ``-`` and negation, and ``wedge_forms`` is the wedge
that tensors use.  Only the coefficient check lives here.

Only coefficients that fold to the literal constant zero are dropped;
functionally-zero coefficients (for instance the cancelling mixed
partials inside ``d(d w)``) survive as trees, which is why form
comparisons go through sample-grid expression equality rather than
structural equality.
"""

from __future__ import annotations

import functools

from .dual import ONE, ZERO, Dual
# compose and partial_diff are unused here but stay module attributes:
# the benchmark's tracer (bench/spans.py) rebinds forms.compose and
# forms.partial_diff.
from .expr import (_NODES, _PAIRS, _POLYS, Const, Expr, ExprMap,
                   _is_zero_node, _point_pairs, _poly_vars, _run, compose,
                   is_zero_expr, lower_expr, partial_diff, partial_diffs,
                   poly_diff)
from .tensors import (AltTensor, Graded, add_term, ascending_tuples,
                      merge_sign, signed_permutations, wedge)


class DiffForm(Graded):
    """Degree-k form on dual n-space; `coeffs` maps ascending tuples to exprs."""

    __slots__ = ()

    def _clean(self, index, coeff):
        if not isinstance(coeff, Expr):
            raise TypeError("coefficients must be expressions")
        if coeff.arity != self.n:
            raise ValueError(
                f"coefficient for {index} has arity {coeff.arity}, "
                f"expected {self.n}")
        return None if is_zero_expr(coeff) else coeff

    def is_zero(self) -> bool:
        """True when no coefficient survived folding (syntactic check only)."""
        return not self.coeffs

    def coefficient(self, index) -> Expr:
        return self.coeffs.get(tuple(index), Expr.constant(0.0, self.n))


def zero_form(n: int, k: int) -> DiffForm:
    return DiffForm(n, k, {})


def basis_form(n: int, index) -> DiffForm:
    """The coordinate form dx^I with unit coefficient."""
    index = tuple(index)
    return DiffForm(n, len(index), {index: Expr.constant(1.0, n)})


def form_from_strings(n: int, k: int, coeffs: dict) -> DiffForm:
    """Parse a {ascending-tuple: grammar-text} mapping into a form."""
    from .expr import parse_expr
    return DiffForm(n, k, {tuple(index): parse_expr(text, n)
                           for index, text in coeffs.items()})


def d_of_function(f: Expr) -> DiffForm:
    """Differential of a 0-form: the sum of partials against coordinates."""
    return exterior_derivative(DiffForm(f.arity, 0, {(): f}))


def exterior_derivative(w: DiffForm) -> DiffForm:
    """Degree-raising derivative; signs come from sorting dx^i into dx^I."""
    out: dict = {}
    for index, coeff in w.coeffs.items():
        wrt = [i for i in range(w.n) if merge_sign((i,), index) != 0]
        for i, partial in zip(wrt, partial_diffs(coeff, wrt)):
            if is_zero_expr(partial):
                continue
            add_term(out, tuple(sorted((i,) + index)),
                     partial if merge_sign((i,), index) > 0 else -partial)
    return DiffForm(w.n, w.k + 1, out)


def form_eval(w: DiffForm, point, vectors) -> Dual:
    """Evaluate coefficients at the point, then apply the alternating tensor;
    the point becomes (re, ze) pairs once, for every coefficient."""
    pairs = _point_pairs(point, w.n) if w.coeffs else ()
    tensor = AltTensor(w.n, w.k, {
        index: Dual(*_run(lower_expr(coeff), _PAIRS, pairs))
        for index, coeff in w.coeffs.items()})
    return tensor.evaluate(vectors)


def _minor(matrix, arith: tuple):
    """Determinant of a square matrix by permutation expansion, under an
    arithmetic of :mod:`.expr`: nodes for :func:`pullback`, polynomial
    registers for :func:`pullback_polynomial`, both through
    :func:`_pullback`.

    A term with an exact-zero entry (the zero node, or a register whose
    shadow is 0) is skipped, and each sign is applied by adding or
    subtracting the term (negating a first odd one), not by a product
    with a constant 1 or -1.  Both only drop operations that are exact:
    a product with the exact zero is zero on the values and on their
    absolute values alike, and a product with -1 is a negation.  So the
    result is the exact determinant of the same float entries, and a
    register's shadow and order bound the roundings of the operations
    that remain, which are fewer."""
    const, neg, add, sub, mul, _, _ = arith
    total = None
    for perm, sign in signed_permutations(len(matrix)):
        entries = [matrix[row][col] for row, col in enumerate(perm)]
        if any(map(_exact_zero, entries)):
            continue
        term = functools.reduce(mul, entries) if entries else const(ONE)
        if total is None:
            total = term if sign > 0 else neg(term)
        else:
            total = (add if sign > 0 else sub)(total, term)
    return const(ZERO) if total is None else total


def _exact_zero(entry) -> bool:
    # a register is a tuple, and a shadow of 0 makes it the exact zero
    return not entry[1] if type(entry) is tuple else _is_zero_node(entry)


def _pullback(f: ExprMap, w: DiffForm, comps, jac, arith: tuple,
              zero) -> dict:
    """The pulled-back coefficient on each target index of the map `f`,
    under an arithmetic of :mod:`.expr`: the sum, from `zero`, over the
    form's indices I of the coefficient run on the map's component
    registers `comps`, times the minor of the jacobian registers `jac`,
    rows I against the target's columns, added in the form's order.  A
    coefficient runs once, for the first of its minors that is not the
    exact zero, and not at all if there is none; a term whose minor is
    the exact zero is not added."""
    if f.dim_out != w.n:
        raise ValueError(
            f"map lands in dimension {f.dim_out} but the form lives in "
            f"dimension {w.n}")
    _, _, add, _, mul, _, _ = arith
    targets = ascending_tuples(f.arity, w.k)
    out = dict.fromkeys(targets, zero)
    for index, coeff in w.coeffs.items():
        value = None
        for target in targets:
            det = _minor([[jac[i][j] for j in target] for i in index], arith)
            if not _exact_zero(det):
                if value is None:
                    value = _run(lower_expr(coeff), arith, comps)
                out[target] = add(out[target], mul(value, det))
    return out


def pullback(f: ExprMap, w: DiffForm) -> DiffForm:
    """Substitute the map into a form, symbolically: :func:`_pullback` on
    nodes, with the symbolic jacobian, for every target index."""
    m = f.arity
    comps = [c.node for c in f.components]
    jac = [[p.node for p in partial_diffs(c, range(m))]
           for c in f.components]
    # the zero is -0.0, the exact identity of float addition, so a sum
    # from it is its first term, signed zeros included
    out = _pullback(f, w, comps, jac, _NODES, Const(Dual(-0.0, -0.0)))
    return DiffForm(m, w.k, {t: Expr(node, m) for t, node in out.items()})


def pullback_polynomial(f: ExprMap, w: DiffForm) -> dict:
    """:func:`pullback`'s coefficient on every target index, as a
    polynomial register of :mod:`.expr`: the map's program runs once on
    polynomial registers, the form's coefficients run on the components'
    registers, and the jacobian (by :func:`.expr.poly_diff`) and its
    minors are registers too, so the shadow and order bound all their
    roundings.  Raises where :func:`.expr.expand_polynomial` would."""
    comps = f.run(_POLYS, _poly_vars(f.arity))
    jac = [[poly_diff(c, j) for j in range(f.arity)] for c in comps]
    return _pullback(f, w, comps, jac, _POLYS, ({}, 0.0, 0, 0))  # zero poly


wedge_forms = wedge  # the forms-layer name of the shared wedge


def forms_equal(left: DiffForm, right: DiffForm, tol: float = 1e-9) -> bool:
    """Coefficientwise sample-grid equality."""
    from .expr import exprs_equal
    if (left.n, left.k) != (right.n, right.k):
        return False
    for index in left.coeffs.keys() | right.coeffs.keys():
        if not exprs_equal(left.coefficient(index), right.coefficient(index),
                           tol):
            return False
    return True
