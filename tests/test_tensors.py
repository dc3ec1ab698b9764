import itertools
import math
import random

import pytest

from dualstokes import (AltTensor, DiffForm, Dual, DualVec, Expr, GenTensor,
                        MAX_PERMUTATION_DEGREE, ONE, ZERO, alt, alt_sum,
                        ascending_tuples, basis_form, lambda_dim, merge_sign,
                        perm_sign, tensor_product, tensors_equal, wedge)
from dualstokes.expr import _NODES
from dualstokes.forms import _minor
from helpers import random_alt_coeffs, random_int_vector, small_int_dual


# ---------------------------------------------------------------------------
# combinatorial helpers


def test_lambda_dim_table():
    assert lambda_dim(3, 0) == 1
    assert lambda_dim(3, 1) == 3
    assert lambda_dim(3, 2) == 3
    assert lambda_dim(3, 3) == 1
    assert lambda_dim(3, 4) == 0  # degree above dimension
    assert lambda_dim(5, 2) == 10
    assert lambda_dim(0, 0) == 1
    with pytest.raises(ValueError):
        lambda_dim(-1, 0)
    for n in range(6):
        assert sum(lambda_dim(n, k) for k in range(n + 1)) == 2 ** n


def test_ascending_tuples():
    assert ascending_tuples(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert ascending_tuples(2, 0) == ((),)
    assert ascending_tuples(2, 3) == ()
    assert len(ascending_tuples(5, 2)) == lambda_dim(5, 2)


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 5)
        p = list(range(k))
        q = list(range(k))
        rng.shuffle(p)
        rng.shuffle(q)
        pq = tuple(p[q[i]] for i in range(k))
        assert perm_sign(pq) == perm_sign(p) * perm_sign(q)


def test_merge_sign():
    assert merge_sign((0,), (1,)) == 1
    assert merge_sign((1,), (0,)) == -1
    assert merge_sign((0, 2), (1, 3)) == -1  # one inversion: 2 > 1
    assert merge_sign((0, 1), (0,)) == 0
    assert merge_sign((), (0, 1)) == 1
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 6)
        pool = list(range(n))
        rng.shuffle(pool)
        cut = rng.randint(0, n)
        left = tuple(sorted(pool[:cut]))
        right = tuple(sorted(pool[cut:]))
        # sign of the permutation that sorts the concatenation
        concat = left + right
        order = sorted(range(n), key=lambda i: concat[i])
        assert merge_sign(left, right) == perm_sign(order)


# ---------------------------------------------------------------------------
# general tensors


def test_gen_tensor_evaluate():
    t = GenTensor(2, 2, {(0, 1): Dual(2), (1, 1): Dual(0, 1)})
    v = DualVec([Dual(1, 0), Dual(3, 1)])
    w = DualVec([Dual(0, 1), Dual(2, 0)])
    want = Dual(2) * v[0] * w[1] + Dual(0, 1) * v[1] * w[1]
    assert t.evaluate([v, w]) == want


def test_gen_tensor_validation():
    with pytest.raises(ValueError):
        GenTensor(2, 1, {(2,): ONE})
    with pytest.raises(ValueError):
        GenTensor(2, 1, {(0, 1): ONE})
    t = GenTensor(2, 1, {(0,): ZERO})
    assert t.coeffs == {}
    with pytest.raises(ValueError):
        t.evaluate([])
    with pytest.raises(ValueError):
        GenTensor(2, 2, {(0, 1): ONE}).evaluate(
            [DualVec([ONE]), DualVec([ONE])])


def test_gen_tensor_arithmetic():
    a = GenTensor.basis(2, (0,))
    b = GenTensor.basis(2, (1,))
    v = DualVec([Dual(2, 1), Dual(3, 0)])
    assert (a + b).evaluate([v]) == Dual(5, 1)
    assert (a - b).evaluate([v]) == Dual(-1, 1)
    assert a.scale(Dual(0, 1)).evaluate([v]) == Dual(0, 2)
    with pytest.raises(ValueError):
        a + GenTensor.basis(3, (0,))


def test_tensor_product_multiplies_evaluations():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2)
        s = GenTensor(n, k1, {idx: small_int_dual(rng)
                              for idx in itertools.product(range(n), repeat=k1)
                              if rng.random() < 0.6})
        t = GenTensor(n, k2, {idx: small_int_dual(rng)
                              for idx in itertools.product(range(n), repeat=k2)
                              if rng.random() < 0.6})
        vs = [random_int_vector(rng, n) for _ in range(k1 + k2)]
        prod = tensor_product(s, t)
        assert prod.k == k1 + k2
        assert prod.evaluate(vs) == \
            s.evaluate(vs[:k1]) * t.evaluate(vs[k1:])


# ---------------------------------------------------------------------------
# alternating tensors


def test_alt_tensor_is_determinant():
    a = AltTensor.basis(2, (0, 1))
    v = DualVec([Dual(1, 1), Dual(2, 0)])
    w = DualVec([Dual(3, 0), Dual(4, 1)])
    det = v[0] * w[1] - v[1] * w[0]
    assert a.evaluate([v, w]) == det
    # swapping arguments flips the sign
    assert a.evaluate([w, v]) == -det
    # degree 0 is a scalar
    s = AltTensor(3, 0, {(): Dual(5, 2)})
    assert s.evaluate([]) == Dual(5, 2)


def test_alt_tensor_validation():
    with pytest.raises(ValueError):
        AltTensor(3, 2, {(1, 0): ONE})
    with pytest.raises(ValueError):
        AltTensor(3, 2, {(1, 1): ONE})
    with pytest.raises(ValueError):
        AltTensor(2, 1, {(5,): ONE})


def test_alt_tensor_alternating_random():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(2, min(3, n))
        a = AltTensor(n, k, random_alt_coeffs(rng, n, k))
        vs = [random_int_vector(rng, n) for _ in range(k)]
        i, j = rng.sample(range(k), 2)
        swapped = list(vs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert a.evaluate(swapped) == -a.evaluate(vs)
        # repeating an argument kills the value
        repeated = list(vs)
        repeated[i] = repeated[j]
        assert a.evaluate(repeated) == ZERO


def test_as_general_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(0, min(3, n))
        a = AltTensor(n, k, random_alt_coeffs(rng, n, k))
        g = a.as_general()
        vs = [random_int_vector(rng, n) for _ in range(k)]
        assert g.evaluate(vs) == a.evaluate(vs)
        # alt is the exact inverse on alternating tensors (integer inputs)
        assert tensors_equal(alt(g), a, tol=0.0)


def test_alt_projects():
    # alt of a symmetric tensor vanishes
    sym = GenTensor(2, 2, {(0, 1): Dual(3, 1), (1, 0): Dual(3, 1)})
    assert alt(sym).coeffs == {}
    # alt of an elementary product gives the expected coefficient
    g = GenTensor.basis(2, (1, 0))
    assert tensors_equal(alt(g), AltTensor(2, 2, {(0, 1): Dual(-0.5)}),
                         tol=0.0)
    assert tensors_equal(alt_sum(g), AltTensor(2, 2, {(0, 1): Dual(-1.0)}),
                         tol=0.0)


def test_alt_matches_pointwise_antisymmetrization():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        t = GenTensor(n, k, {idx: small_int_dual(rng, 2)
                             for idx in itertools.product(range(n), repeat=k)
                             if rng.random() < 0.5})
        vs = [random_int_vector(rng, n, 2) for _ in range(k)]
        acc = ZERO
        for perm in itertools.permutations(range(k)):
            acc = acc + t.evaluate([vs[perm[i]] for i in range(k)]) \
                * float(perm_sign(perm))
        assert alt_sum(t).evaluate(vs) == acc


# ---------------------------------------------------------------------------
# wedge


def test_wedge_basis_merge():
    a = AltTensor.basis(3, (0,))
    b = AltTensor.basis(3, (1, 2))
    w = wedge(a, b)
    assert w.coeffs == {(0, 1, 2): ONE}
    # out-of-order merge picks up the sort sign
    w2 = wedge(AltTensor.basis(3, (1,)), AltTensor.basis(3, (0, 2)))
    assert w2.coeffs == {(0, 1, 2): Dual(-1.0)}
    # overlapping indices vanish
    assert wedge(a, AltTensor.basis(3, (0, 1))).coeffs == {}


def test_wedge_scalar_action():
    s = AltTensor(2, 0, {(): Dual(2, 1)})
    a = AltTensor.basis(2, (0,))
    assert wedge(s, a).coeffs == {(0,): Dual(2, 1)}
    assert wedge(a, s).coeffs == {(0,): Dual(2, 1)}


def test_wedge_graded_anticommutativity():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        a = AltTensor(n, k, random_alt_coeffs(rng, n, k))
        b = AltTensor(n, l, random_alt_coeffs(rng, n, l))
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (k * l) % 2:
            rhs = -rhs
        assert tensors_equal(lhs, rhs, tol=0.0)


def test_wedge_associativity():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 4)
        degs = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (AltTensor(n, k, random_alt_coeffs(rng, n, k, span=2))
                   for k in degs)
        assert tensors_equal(wedge(wedge(a, b), c), wedge(a, wedge(b, c)),
                             tol=0.0)


def test_wedge_bilinearity():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 4)
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        a1 = AltTensor(n, k, random_alt_coeffs(rng, n, k))
        a2 = AltTensor(n, k, random_alt_coeffs(rng, n, k))
        b = AltTensor(n, l, random_alt_coeffs(rng, n, l))
        assert tensors_equal(wedge(a1 + a2, b), wedge(a1, b) + wedge(a2, b),
                             tol=0.0)


def test_wedge_against_cleared_denominator_antisymmetrization():
    # k! l! (a ^ b) equals the unnormalized alternation of the tensor
    # product — all integer arithmetic, so equality is exact
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        a = AltTensor(n, k, random_alt_coeffs(rng, n, k, span=2))
        b = AltTensor(n, l, random_alt_coeffs(rng, n, l, span=2))
        lhs = wedge(a, b).scale(float(math.factorial(k) * math.factorial(l)))
        rhs = alt_sum(tensor_product(a.as_general(), b.as_general()))
        assert tensors_equal(lhs, rhs, tol=0.0)
        vs = [random_int_vector(rng, n, 2) for _ in range(k + l)]
        assert lhs.evaluate(vs) == rhs.evaluate(vs)


def test_permutation_degree_cap():
    big = AltTensor(12, 9, {tuple(range(9)): ONE})
    vs = [DualVec([ONE] * 12) for _ in range(9)]
    with pytest.raises(ValueError):
        big.evaluate(vs)
    assert MAX_PERMUTATION_DEGREE == 8
    with pytest.raises(ValueError):
        big.as_general()
    x1 = Expr.variable(0, 1)
    with pytest.raises(ValueError):
        _minor([[x1.node] * 9 for _ in range(9)], _NODES)


def test_tensors_equal_discriminates():
    a = AltTensor.basis(2, (0,))
    b = AltTensor.basis(2, (1,))
    assert not tensors_equal(a, b)
    assert not tensors_equal(a, a.as_general())
    assert tensors_equal(a, a + AltTensor(2, 1, {}), tol=0.0)


@pytest.mark.parametrize("value", (Dual(math.nan), Dual(0.0, math.nan),
                                   Dual(math.inf), Dual(0.0, -math.inf)))
def test_tensors_equal_rejects_non_finite_coefficients(value):
    a = AltTensor(2, 1, {(0,): value})
    assert not tensors_equal(a, AltTensor(2, 1, {}))
    assert not tensors_equal(a, a)  # inf - inf is NaN
    assert not tensors_equal(a, a, tol=math.inf)


# ---------------------------------------------------------------------------
# the container shared by tensors and forms

# class, whether indices must ascend, and a nonzero and a zero coefficient
# on n-space
_KINDS = {
    "GenTensor": (GenTensor, False, lambda n: ONE, lambda n: ZERO),
    "AltTensor": (AltTensor, True, lambda n: ONE, lambda n: ZERO),
    "DiffForm": (DiffForm, True, lambda n: Expr.constant(1.0, n),
                 lambda n: Expr.constant(0.0, n)),
}

# (n, k, index, rejected by every kind or only where indices ascend)
_INDEX_CASES = [
    (2, 1, (0, 1), "all"),         # wrong length
    (2, 2, (0,), "all"),           # wrong length
    (2, 1, (2,), "all"),           # out of range
    (2, 1, (-1,), "all"),          # out of range
    (3, 2, (1, 0), "ascending"),   # descending
    (3, 2, (1, 1), "ascending"),   # repeated
]


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n, k, index, rejected_by", _INDEX_CASES)
def test_container_index_validation(kind, n, k, index, rejected_by):
    cls, ascending, one, zero = _KINDS[kind]
    if rejected_by == "all" or ascending:
        for coeff in (one(n), zero(n)):  # a zero does not excuse the index
            with pytest.raises(ValueError):
                cls(n, k, {index: coeff})
    else:
        assert list(cls(n, k, {index: one(n)}).coeffs) == [index]


@pytest.mark.parametrize("kind", _KINDS)
def test_container_dimensions_and_zeros(kind):
    cls, _, one, zero = _KINDS[kind]
    for n, k in ((-1, 0), (0, -1), (-2, -2)):
        with pytest.raises(ValueError):
            cls(n, k, {})
    t = cls(3, 1, {(0,): zero(3), (2,): one(3)})
    assert list(t.coeffs) == [(2,)]
    # cancellation leaves no stored zero behind
    assert (t - t).coeffs == {}
    assert (t + (-t)).coeffs == {}
    assert t.scale(0.0).coeffs == {}


def test_container_operations_need_one_kind():
    gen = GenTensor.basis(2, (0,))
    alt_ = AltTensor.basis(2, (0,))
    form = basis_form(2, (0,))
    for a, b in itertools.permutations((gen, alt_, form), 2):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    for a, b in ((alt_, form), (form, alt_), (alt_, gen), (gen, alt_),
                 (gen, gen), (alt_, ONE)):
        with pytest.raises(TypeError):
            wedge(a, b)


def test_negation_keeps_infinite_coefficients_finite_in_ze():
    t = AltTensor(1, 1, {(0,): Dual(math.inf, 0.0)})
    neg = (-t).coeffs[(0,)]
    assert neg.re == -math.inf and neg.ze == 0.0
    assert (t - t).coeffs[(0,)].ze == 0.0
