"""Differential forms with symbolic dual-analytic coefficients.

A k-form on dual n-space is a dict from strictly ascending index tuples
to coefficient expressions of arity n.  Exterior derivatives go through
the exact symbolic partials, and pullbacks stay symbolic too: the
change-of-variables determinant is expanded into an expression, so a
pulled-back form can be differentiated or pulled back again without any
numerics.  Pointwise evaluation hands off to the alternating-tensor
machinery.

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

from .dual import ZERO, Dual
# partial_diff is unused here but stays a module attribute: the
# benchmark's tracer (bench/spans.py) rebinds forms.partial_diff.
from .expr import (_NODES, _PAIRS, _POLYS, Expr, ExprMap, _point_pairs,
                   _poly_vars, _run, compose, is_zero_expr, lower_expr,
                   partial_diff, partial_diffs, poly_diff)
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
    partials = partial_diffs(f, range(f.arity))
    return DiffForm(f.arity, 1, {(i,): p for i, p in enumerate(partials)})


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
    registers for :func:`pullback_polynomial`."""
    const, _, add, _, mul, _, _ = arith
    total = const(ZERO)
    for perm, sign in signed_permutations(len(matrix)):
        term = const(Dual(sign))
        for row, col in enumerate(perm):
            term = mul(term, matrix[row][col])
        total = add(total, term)
    return total


def _sym_det(matrix, arity: int) -> Expr:
    """Determinant of a square matrix of expressions."""
    return Expr(_minor([[e.node for e in row] for row in matrix], _NODES),
                arity)


def pullback(f: ExprMap, w: DiffForm) -> DiffForm:
    """Substitute the map into a form, symbolically.

    The coefficient on dx^J downstairs is the sum over upstairs indices I
    of (coefficient composed with f) times the minor determinant of the
    symbolic jacobian rows I against columns J.
    """
    if f.dim_out != w.n:
        raise ValueError(
            f"map lands in dimension {f.dim_out} but the form lives in "
            f"dimension {w.n}")
    m = f.arity
    jac = [partial_diffs(component, range(m)) for component in f.components]
    out: dict = {}
    for target in ascending_tuples(m, w.k):
        acc = None
        for index, coeff in w.coeffs.items():
            det = _sym_det([[jac[i][j] for j in target] for i in index], m)
            if is_zero_expr(det):
                continue
            term = compose(coeff, f.components) * det
            acc = term if acc is None else acc + term
        if acc is not None and not is_zero_expr(acc):
            out[target] = acc
    return DiffForm(m, w.k, out)


def pullback_polynomial(f: ExprMap, w: DiffForm) -> tuple:
    """:func:`pullback`'s coefficient on dx1^...^dxm, for a map of arity m
    and an m-form, as a polynomial register of :mod:`.expr`: the map's
    program runs once on polynomial registers, the form's coefficients
    run on the components' registers, and the jacobian (by
    :func:`.expr.poly_diff`) and its minors are registers too, so the
    shadow and order bound all their roundings.  Raises where
    :func:`.expr.expand_polynomial` would."""
    if f.dim_out != w.n or f.arity != w.k:
        raise ValueError(
            f"need a form of degree {f.arity} on dimension {f.dim_out}")
    _, _, add, _, mul, _, _ = _POLYS
    comps = f.run(_POLYS, _poly_vars(f.arity))
    jac = [[poly_diff(c, j) for j in range(f.arity)] for c in comps]
    acc = ({}, 0.0, 0, 0)  # the zero polynomial
    for index, coeff in w.coeffs.items():
        det = _minor([jac[i] for i in index], _POLYS)
        if det[1]:  # a shadow of 0 is the exact zero
            acc = add(acc, mul(_run(lower_expr(coeff), _POLYS, comps), det))
    return acc


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
