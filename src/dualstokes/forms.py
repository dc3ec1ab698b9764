"""Differential forms with symbolic dual-analytic coefficients.

A k-form on dual n-space is a dict from strictly ascending index tuples
to coefficient expressions of arity n.  Exterior derivatives go through
the exact symbolic partials, and pullbacks stay symbolic too: the
change-of-variables determinant is expanded into an expression, so a
pulled-back form can be differentiated or pulled back again without any
numerics.  Pointwise evaluation hands off to the alternating-tensor
machinery.

Only coefficients that fold to the literal constant zero are dropped;
functionally-zero coefficients (for instance the cancelling mixed
partials inside ``d(d w)``) survive as trees, which is why form
comparisons go through sample-grid expression equality rather than
structural equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dual import Dual
# partial_diff is unused here but stays a module attribute: the
# benchmark's tracer (bench/spans.py) rebinds forms.partial_diff.
from .expr import (Expr, ExprMap, compose, eval_dual, is_zero_expr,
                   partial_diff, partial_diffs)
from .tensors import (MAX_PERMUTATION_DEGREE, AltTensor, ascending_tuples,
                      merge_sign, perm_sign)


@dataclass(eq=False)
class DiffForm:
    """Degree-k form on dual n-space; `coeffs` maps ascending tuples to exprs."""

    n: int
    k: int
    coeffs: dict

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError("dimensions must be nonnegative")
        cleaned = {}
        for index, coeff in dict(self.coeffs).items():
            index = tuple(index)
            if len(index) != self.k:
                raise ValueError(f"index {index} does not have length {self.k}")
            if any(not (0 <= i < self.n) for i in index):
                raise ValueError(f"index {index} out of range for n={self.n}")
            if any(a >= b for a, b in zip(index, index[1:])):
                raise ValueError(f"index {index} is not strictly ascending")
            if not isinstance(coeff, Expr):
                raise TypeError("coefficients must be expressions")
            if coeff.arity != self.n:
                raise ValueError(
                    f"coefficient for {index} has arity {coeff.arity}, "
                    f"expected {self.n}")
            if not is_zero_expr(coeff):
                cleaned[index] = coeff
        self.coeffs = cleaned

    def is_zero(self) -> bool:
        """True when no coefficient survived folding (syntactic check only)."""
        return not self.coeffs

    def coefficient(self, index) -> Expr:
        return self.coeffs.get(tuple(index), Expr.constant(0.0, self.n))

    def scale(self, factor) -> "DiffForm":
        if not isinstance(factor, Expr):
            factor = Expr.constant(factor, self.n)
        elif factor.arity != self.n:
            raise ValueError("scaling expression must have arity n")
        return DiffForm(self.n, self.k,
                        {i: factor * c for i, c in self.coeffs.items()})

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("forms must share dimension and degree")
        merged = dict(self.coeffs)
        for index, coeff in other.coeffs.items():
            merged[index] = merged[index] + coeff if index in merged else coeff
        return DiffForm(self.n, self.k, merged)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.n, self.k,
                        {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self + (-other)


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
            merged = tuple(sorted((i,) + index))
            term = partial if merge_sign((i,), index) > 0 else -partial
            out[merged] = out[merged] + term if merged in out else term
    return DiffForm(w.n, w.k + 1, out)


def form_eval(w: DiffForm, point, vectors) -> Dual:
    """Evaluate coefficients at the point, then apply the alternating tensor."""
    tensor = AltTensor(w.n, w.k, {index: eval_dual(coeff, point)
                                  for index, coeff in w.coeffs.items()})
    return tensor.evaluate(vectors)


def _sym_det(matrix, arity: int) -> Expr:
    """Determinant of a square matrix of expressions, by permutation expansion."""
    k = len(matrix)
    if k > MAX_PERMUTATION_DEGREE:
        raise ValueError(
            f"degree {k} exceeds the permutation-expansion cap "
            f"{MAX_PERMUTATION_DEGREE}")
    total = Expr.constant(0.0, arity)
    for perm in itertools.permutations(range(k)):
        term = Expr.constant(float(perm_sign(perm)), arity)
        for row in range(k):
            term = term * matrix[row][perm[row]]
        total = total + term
    return total


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


def wedge_forms(left: DiffForm, right: DiffForm) -> DiffForm:
    """Wedge product; index tuples merge with the usual sort sign."""
    if left.n != right.n:
        raise ValueError("forms must live over the same space")
    out: dict = {}
    for li, lc in left.coeffs.items():
        for ri, rc in right.coeffs.items():
            sign = merge_sign(li, ri)
            if sign == 0:
                continue
            index = tuple(sorted(li + ri))
            term = lc * rc
            if sign < 0:
                term = -term
            out[index] = out[index] + term if index in out else term
    return DiffForm(left.n, left.k + right.k, out)


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
