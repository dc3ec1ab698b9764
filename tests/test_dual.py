import math
import random
from fractions import Fraction

import pytest

from dualstokes import (Dual, DualVec, EPS, ONE, Ordering, Theta, ZERO,
                        as_dual, nbhd_contains, theta_cmp, vec_norm)
from helpers import small_int_dual


def test_construction_and_coercion():
    assert Dual(2).ze == 0.0
    assert Dual(2, 3) == Dual(2.0, 3.0)
    assert as_dual(5) == Dual(5.0)
    assert as_dual(Dual(1, 1)) == Dual(1, 1)
    with pytest.raises(TypeError):
        as_dual("nope")
    with pytest.raises(TypeError):
        as_dual(1j)


def test_ring_operations():
    x = Dual(2, 3)
    y = Dual(1, -1)
    assert x + y == Dual(3, 2)
    assert x - y == Dual(1, 4)
    assert x * y == Dual(2, 1)  # cross terms: 2*(-1) + 3*1
    assert -x == Dual(-2, -3)
    assert 1 + x == Dual(3, 3)
    assert 2.0 * x == Dual(4, 6)
    assert 3 - x == Dual(1, -3)
    assert (EPS * EPS).is_zero()
    assert x * ONE == x
    assert x * ZERO == ZERO
    # an exact float or int skips the ABC check; a bool, a Fraction and a
    # float subclass take it; all give Dual(float(v))'s bits, signed
    # zeros and NaN included, or its OverflowError
    class Sub(float):
        pass

    for x in (Dual(2, 3), Dual(-0.0, 1.5), Dual(0.1, math.inf)):
        for v in (2.5, -0.0, math.nan, 3, 0, True, Fraction(1, 3), Sub(-0.0)):
            d = Dual(float(v))
            for got, want in ((x + v, x + d), (v + x, x + d), (x - v, x - d),
                              (v - x, d - x), (x * v, x * d), (v * x, x * d)):
                assert repr(got) == repr(want), (x, v)
        with pytest.raises(OverflowError):
            x + 10 ** 400


def test_integer_powers():
    x = Dual(2, 3)
    assert x ** 0 == ONE
    assert x ** 1 == x
    assert x ** 3 == x * x * x
    assert EPS ** 2 == ZERO
    assert Dual(0, 5) ** 2 == ZERO
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(TypeError):
        x ** 0.5


def test_rendering():
    assert str(Dual(2, 3)) == "2.0+3.0*eps"
    assert str(Dual(2, -3)) == "2.0-3.0*eps"
    assert str(Dual(-1)) == "-1.0"
    assert str(EPS) == "0.0+1.0*eps"


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(500):
        x = small_int_dual(rng)
        y = small_int_dual(rng)
        z = small_int_dual(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO


def test_order_examples_type1():
    t1 = Theta.TYPE1
    assert theta_cmp(Dual(2, 0), Dual(1, 0), t1) is Ordering.GREATER
    assert theta_cmp(Dual(1, 1), Dual(1, 0), t1) is Ordering.GREATER
    assert theta_cmp(Dual(1, 1), Dual(1, 1), t1) is Ordering.EQUAL
    # bigger real part but smaller ze part: neither wins
    assert theta_cmp(Dual(2, 0), Dual(1, 1), t1) is Ordering.INCOMPARABLE
    assert theta_cmp(Dual(0, 0), Dual(1, 1), t1) is Ordering.LESS


def test_order_examples_type2():
    t2 = Theta.TYPE2
    # ze comparisons flip for the second order
    assert theta_cmp(Dual(2, 0), Dual(1, 0), t2) is Ordering.GREATER
    assert theta_cmp(Dual(1, 1), Dual(1, 0), t2) is Ordering.LESS
    assert theta_cmp(Dual(2, 0), Dual(1, 1), t2) is Ordering.GREATER
    assert theta_cmp(Dual(2, 1), Dual(1, 0), t2) is Ordering.INCOMPARABLE


def test_theta_enum():
    assert Theta.TYPE1.sign == 1
    assert Theta.TYPE2.sign == -1
    assert Theta(1) is Theta.TYPE1
    assert Theta(2) is Theta.TYPE2
    assert Theta(1).sign == 1 and Theta(2).sign == -1
    assert Theta(Theta.TYPE2) is Theta.TYPE2
    assert list(Theta) == [Theta.TYPE1, Theta.TYPE2]  # sign is no member
    with pytest.raises(ValueError):
        Theta(3)


def _flip(x: Dual) -> Dual:
    return Dual(x.re, -x.ze)


def test_order_duality_random():
    rng = random.Random(202)
    for _ in range(500):
        x = small_int_dual(rng)
        y = small_int_dual(rng)
        assert theta_cmp(x, y, Theta.TYPE1) is \
            theta_cmp(_flip(x), _flip(y), Theta.TYPE2)
        for theta in (Theta.TYPE1, Theta.TYPE2):
            fwd = theta_cmp(x, y, theta)
            rev = theta_cmp(y, x, theta)
            if fwd is Ordering.LESS:
                assert rev is Ordering.GREATER
            elif fwd is Ordering.GREATER:
                assert rev is Ordering.LESS
            elif fwd is Ordering.EQUAL:
                assert x == y and rev is Ordering.EQUAL
            else:
                assert rev is Ordering.INCOMPARABLE


def test_order_transitivity_random():
    rng = random.Random(303)
    ok = (Ordering.LESS, Ordering.EQUAL)
    for _ in range(500):
        x, y, z = (small_int_dual(rng, 2) for _ in range(3))
        for theta in (Theta.TYPE1, Theta.TYPE2):
            if theta_cmp(x, y, theta) in ok and theta_cmp(y, z, theta) in ok:
                assert theta_cmp(x, z, theta) in ok


def test_vector_basics():
    v = DualVec([Dual(1, 2), 3])
    w = DualVec([Dual(0, 1), Dual(1, 0)])
    assert len(v) == 2
    assert v[1] == Dual(3, 0)
    assert v + w == DualVec([Dual(1, 3), Dual(4, 0)])
    assert v - w == DualVec([Dual(1, 1), Dual(2, 0)])
    assert -v == DualVec([Dual(-1, -2), Dual(-3, 0)])
    assert 2 * v == DualVec([Dual(2, 4), Dual(6, 0)])
    assert EPS * v == DualVec([Dual(0, 1), Dual(0, 3)])
    assert DualVec.unit(3, 1) == DualVec([ZERO, ONE, ZERO])
    assert DualVec.zero(2) == DualVec([ZERO, ZERO])
    with pytest.raises(ValueError):
        DualVec([])
    with pytest.raises(ValueError):
        v + DualVec.zero(3)


def test_norm():
    # doubled weight on the real part
    assert vec_norm(DualVec.unit(3, 0)) == math.sqrt(2.0)
    assert vec_norm(DualVec([EPS])) == 1.0
    assert vec_norm(DualVec([Dual(1, 1), Dual(-1, 2)])) == \
        math.sqrt(2 * (1 + 1) + 1 + 4)
    assert vec_norm(DualVec.zero(4)) == 0.0


def test_neighborhoods():
    center = DualVec([Dual(0, 0)])
    assert nbhd_contains(center, 1.0, DualVec([Dual(0.5, 0)]))
    assert not nbhd_contains(center, 0.5, DualVec([Dual(0.5, 0)]))
    # the center itself is excluded from a deleted neighborhood
    assert nbhd_contains(center, 1.0, center)
    assert not nbhd_contains(center, 1.0, center, deleted=True)
    with pytest.raises(ValueError):
        nbhd_contains(center, 0.0, center)
    for radius in (-1.0, math.nan):
        with pytest.raises(ValueError):
            nbhd_contains(center, radius, center)
    with pytest.raises(ValueError):
        nbhd_contains(center, 1.0, DualVec.zero(2))
