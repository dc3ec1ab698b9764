import itertools
import math
import random

from dualstokes import DualBox, Expr, eval_enclosure
from dualstokes.expr import Mul, Var
from dualstokes.intervals import _span
from helpers import reference_enclose

_SPECIALS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324,
             1e308)


def test_span_is_builtin_min_and_max():
    # the compare chain keeps the first of equal values and skips NaN
    # just as min and max do, so their signs and NaNs come out the same
    for products in itertools.product(_SPECIALS, repeat=4):
        assert repr(_span(*products)) == repr((min(products), max(products)))


def test_box_mul_matches_nested_formula_on_special_values():
    ends = [(lo, hi) for lo, hi in itertools.product(_SPECIALS, repeat=2)
            if not lo > hi]
    rng = random.Random(31)
    boxes = [DualBox(*rng.choice(ends), *rng.choice(ends))
             for _ in range(300)]
    # the reference walk multiplies (re, ze) interval pairs, each
    # product's bounds by builtin min and max
    product = Expr(Mul(Var(0), Var(1)), 2)
    square = Expr(Mul(Var(0), Var(0)), 1)
    for a in boxes:
        for f, args in [(square, [a])] + [(product, [a, b])
                                          for b in rng.sample(boxes, 40)]:
            assert (repr(eval_enclosure(f, args))
                    == repr(reference_enclose(f.node, args)))
