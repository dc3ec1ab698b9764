import random

import pytest

from dualstokes import (DiffForm, Dual, DualVec, Expr, ExprMap,
                        ascending_tuples, basis_form, compose, d_of_function,
                        eval_dual, exprs_equal, exterior_derivative,
                        form_eval, form_from_strings, forms_equal,
                        is_zero_expr, jacobian, merge_sign, parse_expr,
                        partial_diff, pullback, wedge_forms, zero_form)
from dualstokes.forms import _sym_det
from helpers import random_expr, random_form, random_map, small_point


def _vecs(rng, n, count):
    return [DualVec([Dual(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(n)]) for _ in range(count)]


# ---------------------------------------------------------------------------
# construction


def test_form_validation():
    one = Expr.constant(1.0, 2)
    with pytest.raises(ValueError):
        DiffForm(2, 1, {(2,): one})
    with pytest.raises(ValueError):
        DiffForm(2, 2, {(1, 0): one})
    with pytest.raises(ValueError):
        DiffForm(2, 2, {(1, 1): one})
    with pytest.raises(ValueError):
        DiffForm(2, 1, {(0, 1): one})
    with pytest.raises(ValueError):
        DiffForm(2, 1, {(0,): Expr.constant(1.0, 3)})  # arity mismatch
    with pytest.raises(TypeError):
        DiffForm(2, 1, {(0,): 1.0})
    # syntactic zeros are dropped at construction
    w = DiffForm(2, 1, {(0,): Expr.constant(0.0, 2), (1,): one})
    assert set(w.coeffs) == {(1,)}
    assert zero_form(3, 2).is_zero()
    # degree above dimension leaves only the zero form
    assert zero_form(2, 3).is_zero()


def test_form_from_strings():
    w = form_from_strings(2, 1, {(0,): "x1*x2", (1,): "eps"})
    assert exprs_equal(w.coefficient((0,)), parse_expr("x1*x2", 2))
    assert exprs_equal(w.coefficient((1,)), parse_expr("eps", 2))
    # missing indices read as zero
    assert exprs_equal(w.coefficient((5,)), Expr.constant(0.0, 2))


def test_form_arithmetic():
    a = basis_form(2, (0,))
    b = basis_form(2, (1,))
    w = a + b.scale(2.0)
    assert exprs_equal(w.coefficient((1,)), Expr.constant(2.0, 2))
    assert (w - w).is_zero() or forms_equal(w - w, zero_form(2, 1))
    neg = -a
    assert exprs_equal(neg.coefficient((0,)), Expr.constant(-1.0, 2))
    with pytest.raises(ValueError):
        a + basis_form(3, (0,))
    scaled = a.scale(parse_expr("x2", 2))
    assert exprs_equal(scaled.coefficient((0,)), parse_expr("x2", 2))


# ---------------------------------------------------------------------------
# evaluation


def test_form_eval_fixed():
    w = form_from_strings(2, 1, {(0,): "x2", (1,): "x1"})
    p = [Dual(2, 1), Dual(3, 0)]
    v = DualVec([Dual(1, 1), Dual(0, 2)])
    got = form_eval(w, p, [v])
    want = p[1] * v[0] + p[0] * v[1]
    assert got == want


def test_form_eval_area():
    area = basis_form(2, (0, 1))
    v = DualVec([Dual(1), Dual(0)])
    w = DualVec([Dual(0), Dual(1, 1)])
    assert form_eval(area, [Dual(0), Dual(0)], [v, w]) == Dual(1, 1)
    assert form_eval(area, [Dual(0), Dual(0)], [w, v]) == Dual(-1, -1)


# ---------------------------------------------------------------------------
# the exterior derivative


def test_d_of_function_is_gradient_row():
    f = parse_expr("x1^2*x2", 2)
    df = d_of_function(f)
    assert df.k == 1
    assert exprs_equal(df.coefficient((0,)), parse_expr("2*x1*x2", 2))
    assert exprs_equal(df.coefficient((1,)), parse_expr("x1^2", 2))


def _nodes(w: DiffForm) -> dict:
    return {index: coeff.node for index, coeff in w.coeffs.items()}


def test_derivatives_build_the_trees_of_partial_diff():
    # d and pullback take every partial of a coefficient or component
    # from one gradient run; each is the tree partial_diff builds alone,
    # so the forms are node for node what per-variable partials give
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(0, n - 1)
        w = random_form(rng, n, k, depth=3, prims=True)
        want = {}
        for index, coeff in w.coeffs.items():
            for i in range(n):
                sign = merge_sign((i,), index)
                partial = partial_diff(coeff, i)
                if sign == 0 or is_zero_expr(partial):
                    continue
                merged = tuple(sorted((i,) + index))
                term = partial if sign > 0 else -partial
                want[merged] = want[merged] + term if merged in want else term
        assert _nodes(exterior_derivative(w)) == _nodes(DiffForm(n, k + 1, want))
        f = random_expr(rng, n, depth=3)
        assert _nodes(d_of_function(f)) == _nodes(DiffForm(n, 1, {
            (i,): partial_diff(f, i) for i in range(n)}))
        m = rng.randint(max(k, 1), 3)
        phi = random_map(rng, m, n, depth=2)
        jac = [[partial_diff(c, j) for j in range(m)] for c in phi.components]
        want = {}
        for target in ascending_tuples(m, k):
            acc = None
            for index, coeff in w.coeffs.items():
                det = _sym_det([[jac[i][j] for j in target] for i in index], m)
                if not is_zero_expr(det):
                    term = compose(coeff, phi.components) * det
                    acc = term if acc is None else acc + term
            if acc is not None and not is_zero_expr(acc):
                want[target] = acc.node
        assert _nodes(pullback(phi, w)) == want


def test_exterior_derivative_fixed():
    # d(x1*x2 dx1) = -x1 dx1^dx2
    w = form_from_strings(2, 1, {(0,): "x1*x2"})
    dw = exterior_derivative(w)
    assert dw.k == 2
    assert exprs_equal(dw.coefficient((0, 1)), parse_expr("-x1", 2))
    # d hits every legal slot with the sort sign
    w3 = form_from_strings(3, 1, {(2,): "x1"})
    dw3 = exterior_derivative(w3)
    assert exprs_equal(dw3.coefficient((0, 2)), Expr.constant(1.0, 3))
    assert exprs_equal(dw3.coefficient((1, 2)), Expr.constant(0.0, 3))


def test_exterior_derivative_sign_convention():
    # mid-index insertion: d(x2 dx1^dx3) lands in dx1^dx2^dx3 with a minus
    w = form_from_strings(3, 2, {(0, 2): "x2"})
    dw = exterior_derivative(w)
    assert exprs_equal(dw.coefficient((0, 1, 2)), Expr.constant(-1.0, 3))


def test_dd_is_zero_random():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 3)
        k = rng.randint(0, max(0, n - 1))
        w = random_form(rng, n, k, depth=2, prims=True)
        ddw = exterior_derivative(exterior_derivative(w))
        assert forms_equal(ddw, zero_form(n, k + 2))


def test_d_is_linear_and_leibniz():
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(2, 3)
        k = rng.randint(0, n - 1)
        l = rng.randint(0, n - k)
        a = random_form(rng, n, k, depth=2)
        b = random_form(rng, n, k, depth=2)
        assert forms_equal(exterior_derivative(a + b),
                           exterior_derivative(a) + exterior_derivative(b))
        c = random_form(rng, n, l, depth=2)
        lhs = exterior_derivative(wedge_forms(a, c))
        rhs = wedge_forms(exterior_derivative(a), c) + \
            (wedge_forms(a, exterior_derivative(c)) if k % 2 == 0
             else -wedge_forms(a, exterior_derivative(c)))
        assert forms_equal(lhs, rhs, tol=1e-8)


# ---------------------------------------------------------------------------
# wedge on forms


def test_wedge_forms_fixed():
    a = form_from_strings(3, 1, {(0,): "x2"})
    b = form_from_strings(3, 1, {(1,): "x1"})
    w = wedge_forms(a, b)
    assert exprs_equal(w.coefficient((0, 1)), parse_expr("x2*x1", 3))
    # same index twice dies
    assert wedge_forms(a, a).is_zero()
    flipped = wedge_forms(b, a)
    assert forms_equal(w, -flipped)


def test_wedge_forms_with_zero_form_is_scaling():
    f = form_from_strings(2, 0, {(): "x1+x2"})
    a = basis_form(2, (1,))
    w = wedge_forms(f, a)
    assert exprs_equal(w.coefficient((1,)), parse_expr("x1+x2", 2))


def test_wedge_forms_dimension_check():
    with pytest.raises(ValueError):
        wedge_forms(basis_form(2, (0,)), basis_form(3, (0,)))


# ---------------------------------------------------------------------------
# pullback


def test_pullback_zero_form_is_composition():
    f = ExprMap((parse_expr("x1^2", 1),))
    w = form_from_strings(1, 0, {(): "x1+1"})
    back = pullback(f, w)
    assert back.n == 1 and back.k == 0
    assert exprs_equal(back.coefficient(()), parse_expr("x1^2+1", 1))


def test_pullback_fixed_line_integral():
    # pull x2 dx1 back through t -> (t^2, t^3): coefficient t^3 * 2t
    curve = ExprMap((parse_expr("x1^2", 1), parse_expr("x1^3", 1)))
    w = form_from_strings(2, 1, {(0,): "x2"})
    back = pullback(curve, w)
    assert exprs_equal(back.coefficient((0,)), parse_expr("x1^3*2*x1", 1))


def test_pullback_top_degree_picks_up_jacobian_determinant():
    f = ExprMap((parse_expr("x1+x2", 2), parse_expr("x1-x2", 2)))
    area = basis_form(2, (0, 1))
    back = pullback(f, area)
    assert exprs_equal(back.coefficient((0, 1)), Expr.constant(-2.0, 2))


def test_pullback_through_identity():
    rng = random.Random(71)
    ident = ExprMap.identity(3)
    for _ in range(10):
        w = random_form(rng, 3, rng.randint(0, 3), depth=2)
        assert forms_equal(pullback(ident, w), w)


def test_pullback_dimension_check():
    f = ExprMap((parse_expr("x1", 1),))
    with pytest.raises(ValueError):
        pullback(f, basis_form(2, (0,)))


def test_pullback_commutes_with_d():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.randint(0, max(0, n - 1))
        f = random_map(rng, m, n, depth=2)
        w = random_form(rng, n, k, depth=2)
        lhs = pullback(f, exterior_derivative(w))
        rhs = exterior_derivative(pullback(f, w))
        assert forms_equal(lhs, rhs, tol=1e-8)


def test_pullback_functoriality():
    rng = random.Random(79)
    for _ in range(25):
        a = rng.randint(1, 2)
        b = rng.randint(1, 3)
        c = rng.randint(1, 3)
        f = random_map(rng, a, b, depth=2, prims=False)
        g = random_map(rng, b, c, depth=2, prims=False)
        k = rng.randint(0, min(2, c))
        w = random_form(rng, c, k, depth=1)
        assert forms_equal(pullback(g.compose(f), w),
                           pullback(f, pullback(g, w)), tol=1e-8)


def test_pullback_pointwise_identity():
    # evaluating the pulled-back form is evaluating the original on
    # pushed-forward vectors
    rng = random.Random(83)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        k = rng.randint(0, min(2, m, n))
        f = random_map(rng, m, n, depth=2)
        w = random_form(rng, n, k, depth=2)
        p = small_point(rng, m, scale=0.6)
        vs = _vecs(rng, m, k)
        jac = jacobian(f, p) if m >= 1 else None
        lhs = form_eval(pullback(f, w), p, vs)
        rhs = form_eval(w, f.eval(p), [jac.apply(v) for v in vs])
        assert abs(lhs.re - rhs.re) < 1e-9
        assert abs(lhs.ze - rhs.ze) < 1e-9


def test_forms_equal_discriminates():
    a = basis_form(2, (0,))
    b = basis_form(2, (1,))
    assert not forms_equal(a, b)
    assert not forms_equal(a, basis_form(2, (0, 1)))
    assert not forms_equal(a, basis_form(3, (0,)))
