import itertools
import random
from fractions import Fraction

import pytest

import dualstokes.forms as forms
from dualstokes import (CubeDomain, DiffForm, Dual, DualVec, Expr, ExprMap,
                        SingularCube, Theta, ascending_tuples, basis_form,
                        compose, d_of_function, eval_dual, exprs_equal,
                        exterior_derivative, face, form_eval,
                        form_from_strings, forms_equal, is_zero_expr,
                        jacobian, merge_sign, parse_expr, partial_diff,
                        perm_sign, pullback, wedge, wedge_forms, zero_form)
from dualstokes.darboux import polynomial_estimate
from dualstokes.expr import (_NODES, _POLYS, Const, NotPolynomial, _add, _mul,
                             _run, expand_polynomial, lower_expr,
                             partial_diffs, poly_diff)
from dualstokes.forms import _exact_zero, _minor, pullback_polynomial
from helpers import (THETAS, bracket_contains, random_expr, random_form,
                     random_map, reference_dense_minor, reference_exact_det,
                     reference_exact_expansion, reference_exact_integral,
                     reference_exact_partial, reference_exact_pullback,
                     small_point)


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


def _reference_det(matrix, arity):
    """Permutation expansion through Expr operators, one product at a
    time: a term with a zero entry is skipped, and each term is added or
    subtracted by its sign, a first odd one negated."""
    total = None
    for perm in itertools.permutations(range(len(matrix))):
        entries = [matrix[row][col] for row, col in enumerate(perm)]
        if any(map(is_zero_expr, entries)):
            continue
        term = entries[0] if entries else Expr.constant(1.0, arity)
        for entry in entries[1:]:
            term = term * entry
        if total is None:
            total = term if perm_sign(perm) > 0 else -term
        else:
            total = total + term if perm_sign(perm) > 0 else total - term
    return Expr.constant(0.0, arity) if total is None else total


def test_derivatives_build_the_trees_of_partial_diff():
    # d and pullback take every partial of a coefficient or component
    # from one gradient run; each is the tree partial_diff builds alone,
    # and pullback's minors are the trees Expr operators build, so the
    # forms are node for node what per-variable partials give
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
                det = _reference_det(
                    [[jac[i][j] for j in target] for i in index], m)
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


def test_wedge_on_forms_builds_the_trees_of_wedge_forms():
    # one wedge serves tensors and forms; on forms it builds, node for
    # node, the products Expr operators give
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(1, 3)
        k, l = rng.randint(0, n), rng.randint(0, n)
        a = random_form(rng, n, k, depth=2)
        b = random_form(rng, n, l, depth=2)
        want = {}
        for li, lc in a.coeffs.items():
            for ri, rc in b.coeffs.items():
                sign = merge_sign(li, ri)
                if sign:
                    term = lc * rc if sign > 0 else -(lc * rc)
                    index = tuple(sorted(li + ri))
                    want[index] = want[index] + term if index in want else term
        got = wedge(a, b)
        assert isinstance(got, DiffForm) and got.k == k + l
        assert _nodes(got) == _nodes(wedge_forms(a, b))
        assert _nodes(got) == _nodes(DiffForm(n, k + l, want))


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


# ---------------------------------------------------------------------------
# the pullback on polynomial registers


def _scaled(rng, exprs, arity):
    """Each expression times and plus a random dual, so that its float
    constants round."""
    def dual():
        return Dual(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    return [e * Expr.constant(dual(), arity) + Expr.constant(dual(), arity)
            for e in exprs]


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, 0.5, 1.0))
def test_register_pullback_brackets_the_exact_integral(k, theta, r):
    # the oracle composes, differentiates and expands the map and form as
    # given, in Fractions, so the bracket holds the integral of the literal
    # form over the literal map, not of a float-folded integrand
    rng = random.Random(7000 + 100 * k + 10 * int(theta) + int(2 * r))
    rect = CubeDomain(theta, r, k).rectangle()
    nonconstant = 0
    while nonconstant < 8:
        n = rng.randint(k, k + 1)
        mapping = ExprMap(_scaled(rng, random_map(
            rng, k, n, depth=2, prims=False).components, k))
        w = random_form(rng, n, k, depth=2)
        w = DiffForm(n, k, dict(zip(w.coeffs, _scaled(rng, w.coeffs.values(),
                                                       n))))
        register = pullback_polynomial(mapping, w)[tuple(range(k))]
        # a constant is a polynomial of degree 0, and its bracket is exact
        # in the same way
        est = polynomial_estimate(register, rect.theta, rect.intervals)
        assert bracket_contains(est, reference_exact_integral(
            reference_exact_pullback(mapping, w), rect)), (mapping, w)
        nonconstant += any(register[0])


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.0, 0.5, 1.0))
def test_face_pullback_brackets_the_exact_integral(k, theta, r):
    # a face runs its cube's program with the endpoint pinned, so the
    # bracket holds the integral over the cube's literal map composed
    # exactly with the endpoint, the oracle's face
    rng = random.Random(8000 + 100 * k + 10 * int(theta) + int(2 * r))
    for _ in range(4):
        n = rng.randint(k, k + 1)
        cube = SingularCube(CubeDomain(theta, r, k + 1), ExprMap(_scaled(
            rng, random_map(rng, k + 1, n, depth=2, prims=False).components,
            k + 1)))
        w = random_form(rng, n, k, depth=2)
        w = DiffForm(n, k, dict(zip(w.coeffs, _scaled(rng, w.coeffs.values(),
                                                       n))))
        for axis in range(1, k + 2):
            for side in (0, 1):
                f = face(cube, axis, side)
                rect = f.domain.rectangle()
                est = polynomial_estimate(pullback_polynomial(
                    f.mapping, w)[tuple(range(k))], rect.theta,
                    rect.intervals)
                assert bracket_contains(est, reference_exact_integral(
                    reference_exact_pullback(f.mapping, w), rect)), (
                    cube, axis, side)


def test_face_bracket_bounds_the_endpoint_rounding():
    # on the face x1 = b = 1 + 0.3*eps, b*b*b - (1 + 0.9*eps) is -5.55e-17
    # exactly but folds to -1.11e-16 in floats, and the factor 1e16 makes
    # that the whole ze part: the folded face's bracket, 2.4e-14 wide,
    # misses the exact integral, and the pinned face's holds it
    cube = SingularCube(CubeDomain(Theta.TYPE1, 0.3, 2), ExprMap((
        parse_expr("(x1*x1*x1-(1+0.9*eps))*1e16+x2", 2), parse_expr("x2", 2))))
    f = face(cube, 1, 1)
    w = form_from_strings(2, 1, {(1,): "x1"})
    rect = f.domain.rectangle()
    exact = reference_exact_integral(reference_exact_pullback(f.mapping, w),
                                     rect)
    pinned = polynomial_estimate(pullback_polynomial(f.mapping, w)[(0,)],
                                 rect.theta, rect.intervals)
    folded = polynomial_estimate(
        pullback_polynomial(ExprMap(f.mapping.components), w)[(0,)],
        rect.theta, rect.intervals)
    assert bracket_contains(pinned, exact)
    assert not bracket_contains(folded, exact)


def test_register_pullback_keeps_a_minor_that_rounds_to_zero():
    # a*d - b*c rounds to 0.0 in floats, but is 2^-38 exactly; the minor's
    # shadow bounds that rounding, so the register keeps the minor, and
    # both brackets hold the exact integral (too wide to be taken)
    a = d = 2.0 ** 33 * (1 + 2.0 ** -52)
    b, c = 2.0 ** 33 * (1 + 2.0 ** -51), 2.0 ** 33
    assert a * d - b * c == 0.0
    assert Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c) == Fraction(
        1, 2 ** 38)
    rect = CubeDomain(Theta.TYPE1, 0.0, 2).rectangle()
    rows = [f"{a!r}*x1+{b!r}*x2", f"{c!r}*x1+{d!r}*x2", "x1"]
    for n, coeffs in ((3, {(0, 1): "1", (0, 2): "1e-20*x3"}),
                      (2, {(0, 1): "1"})):
        mapping = ExprMap(tuple(parse_expr(t, 2) for t in rows[:n]))
        w = form_from_strings(n, 2, coeffs)
        register = pullback_polynomial(mapping, w)[(0, 1)]
        assert register[1] > 0.0  # not the exact zero
        est = polynomial_estimate(register, rect.theta, rect.intervals)
        assert bracket_contains(est, reference_exact_integral(
            reference_exact_pullback(mapping, w), rect)), n


def _minor_entry(rng: random.Random):
    """A polynomial register in x1, x2 and its exact value: an exact zero,
    a zero coefficient of either sign, a coefficient that rounds to 0.0
    but keeps a positive shadow, or seeded float coefficients; the
    expansion of an expression, or its partial derivative in x1."""
    a = d = 2.0 ** 33 * (1 + 2.0 ** -52)  # a*d - b*c rounds to 0.0
    b, c = 2.0 ** 33 * (1 + 2.0 ** -51), 2.0 ** 33
    floats = [repr(rng.uniform(-2.0, 2.0)) for _ in range(4)]
    text = rng.choice((
        "0", "-0", "-(0*eps)", "x2+3",
        "x1-x1", "-(x1-x1)", "x2*eps-x2*eps+x1", "-(x1*x2-x1*x2)*eps",
        f"{a!r}*x1*{d!r}-{b!r}*x1*{c!r}", f"({a!r}*x1*{d!r}-{b!r}*x1*{c!r})*x2",
        "{}*x1+{}*x1*x2-{}*eps*x2+{}".format(*floats),
        "({}+{}*eps)*x1^2-{}*x2+{}*eps".format(*floats)))
    f = parse_expr(text, 2)
    register, exact = expand_polynomial(f), reference_exact_expansion(f)
    if rng.random() < 0.4:
        return poly_diff(register, 0), reference_exact_partial(exact, 0)
    return register, exact


def test_minor_brackets_the_exact_determinant():
    # the sparse, sign-free expansion skips exact-zero entries and applies
    # signs by add, sub and neg: its bracket holds the exact determinant
    # of the entries' exact values, and it counts no more roundings than
    # the dense expansion through constants +-1
    rng = random.Random(2323)
    skipped = 0
    for _ in range(160):
        size = rng.randint(1, 4)
        entries = [[_minor_entry(rng) for _ in range(size)]
                   for _ in range(size)]
        registers = [[e[0] for e in row] for row in entries]
        det = _minor(registers, _POLYS)
        dense = reference_dense_minor(registers, _POLYS)
        assert det[2] <= dense[2]
        skipped += det[2] < dense[2]
        rect = CubeDomain(rng.choice(THETAS), rng.choice((0.0, 0.5, 1.0)),
                          2).rectangle()
        exact = reference_exact_det([[e[1] for e in row] for row in entries],
                                    2)
        est = polynomial_estimate(det, rect.theta, rect.intervals)
        assert bracket_contains(est, reference_exact_integral(exact, rect))
    assert skipped > 100


def test_register_pullback_is_the_symbolic_pullback():
    rng = random.Random(4141)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(k, k + 1)
        mapping = random_map(rng, k, n, depth=2, prims=False)
        w = random_form(rng, n, k, depth=2)
        terms = pullback_polynomial(mapping, w)[tuple(range(k))][0]
        want = expand_polynomial(pullback(mapping, w).coefficient(
            tuple(range(k))))[0]
        # integer coefficients: both are exact, up to zero coefficients
        assert ({key: c for key, c in terms.items() if c != (0.0, 0.0)}
                == {key: c for key, c in want.items() if c != (0.0, 0.0)})


def _pullback_per_target(mapping: ExprMap, w: DiffForm) -> tuple:
    """The pullback, with every coefficient run anew for each target
    whose minor is not the exact zero, and the number of coefficient runs
    that takes."""
    m, runs = mapping.arity, 0
    comps = [c.node for c in mapping.components]
    jac = [[p.node for p in partial_diffs(c, range(m))]
           for c in mapping.components]
    out = {}
    for target in ascending_tuples(m, w.k):
        acc = Const(Dual(-0.0, -0.0))
        for index, coeff in w.coeffs.items():
            det = _minor([[jac[i][j] for j in target] for i in index], _NODES)
            if not _exact_zero(det):
                runs += 1
                acc = _add(acc, _mul(_run(lower_expr(coeff), _NODES, comps),
                                     det))
        out[target] = Expr(acc, m)
    return DiffForm(m, w.k, out), runs


def test_pullback_runs_each_coefficient_once(monkeypatch):
    # each target's minors are nonzero for two of the three coefficients:
    # a run per target and coefficient is 6 runs, one per coefficient 3
    w = form_from_strings(3, 1, {(0,): "x1*x2", (1,): "sin(x3)",
                                 (2,): "x1+x3"})
    mapping = ExprMap(tuple(parse_expr(t, 3)
                            for t in ("x1*x2", "x2+x3", "x3*x1")))
    assert _pullback_per_target(mapping, w)[1] == 6
    runs = []
    run = forms._run
    monkeypatch.setattr(forms, "_run",
                        lambda *args: runs.append(args) or run(*args))
    pullback(mapping, w)
    assert len(runs) == 3
    # the nodes are interned, so one run per coefficient gives the very
    # same nodes
    rng = random.Random(4242)
    cases = [(mapping, w)] + [
        (random_map(rng, k, n, depth=2), random_form(rng, n, k, prims=True))
        for k, n in ((rng.randint(1, 3), rng.randint(3, 4))
                     for _ in range(30))]
    for mapping, w in cases:
        want = _pullback_per_target(mapping, w)[0].coeffs
        got = pullback(mapping, w).coeffs
        assert got.keys() == want.keys()
        assert all(got[t].node is want[t].node for t in want)


def test_register_pullback_refuses_what_is_no_polynomial():
    w = form_from_strings(2, 2, {(0, 1): "x1"})
    with pytest.raises(NotPolynomial):
        pullback_polynomial(ExprMap((parse_expr("exp(x1)", 2),
                                     parse_expr("x2", 2))), w)
    with pytest.raises(ValueError):
        pullback_polynomial(ExprMap.identity(3), w)  # a 3-cube, a 2-form
