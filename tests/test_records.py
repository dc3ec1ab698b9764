"""The value classes' contract: repr, ==, hash, construction and copies.

Each class is a plain slotted class on :class:`dualstokes.dual.Record`.
Reports and golden files print them in the dataclass format
``Name(field=value, ...)``, a value compares and hashes as the tuple of
its fields, and cubes, chains, tensors and forms compare by identity.
"""

import copy
import pickle

import pytest

from dualstokes import (AltTensor, Chain, CubeDomain, DiffForm, Dual, DualBox,
                        DualMap, Expr, ExprMap, IntegralEstimate, Partition,
                        Refinement, Scenario, SingularCube, StokesReport,
                        Theta, ThetaInterval, ThetaRectangle, builtin_scenario,
                        make_interval, parse_expr, standard_cube,
                        uniform_partition)
from dualstokes.tensors import Graded

T1 = "<Theta.TYPE1: 1>"
X1 = "Expr(node=Var(index=0), arity=2)"
X2 = "Expr(node=Var(index=1), arity=2)"
IV = (f"ThetaInterval(theta={T1}, a=Dual(re=0.0, ze=0.0), "
      f"b=Dual(re=1.0, ze=0.5))")
RECT = f"ThetaRectangle(theta={T1}, intervals=({IV},))"
EXACT = ("IntegralEstimate(value=Dual(re=2.0, ze=0.0), "
         "lower=Dual(re=2.0, ze=0.0), upper=Dual(re=2.0, ze=0.0), "
         "gap_re=0.0, gap_ze=0.0, subdivisions=0)")


def _interval():
    return ThetaInterval(Theta.TYPE1, Dual(0.0), Dual(1.0, 0.5))


def _report_fields():
    est = IntegralEstimate.exact(Dual(2.0))
    return {"scenario": "s", "theta": Theta.TYPE1, "r": 0.5, "k": 1, "n": 1,
            "converged": True, "passed": True, "lhs": est, "rhs": est,
            "diff_re": 0.0, "diff_ze": 0.0, "tol_re": 1e-3, "tol_ze": 1e-3,
            "note": ""}


# (class, fields in order, field values, repr) of each value class
VALUES = [
    (Dual, ("re", "ze"), (1.5, -2.0), "Dual(re=1.5, ze=-2.0)"),
    (DualBox, ("re_lo", "re_hi", "ze_lo", "ze_hi"), (0.0, 1.0, -1.0, 1.0),
     "DualBox(re_lo=0.0, re_hi=1.0, ze_lo=-1.0, ze_hi=1.0)"),
    (Expr, ("node", "arity"), (parse_expr("x1*x2", 2).node, 2),
     "Expr(node=Mul(lhs=Var(index=0), rhs=Var(index=1)), arity=2)"),
    (ExprMap, ("components",),
     ((parse_expr("x1", 2), parse_expr("x2", 2)),),
     f"ExprMap(components=({X1}, {X2}))"),
    (DualMap, ("entries",), (((Dual(1.0), Dual(0.0, 2.0)),),),
     "DualMap(entries=((Dual(re=1.0, ze=0.0), Dual(re=0.0, ze=2.0)),))"),
    (CubeDomain, ("theta", "r", "k"), (Theta.TYPE1, 0.5, 2),
     f"CubeDomain(theta={T1}, r=0.5, k=2)"),
    (ThetaInterval, ("theta", "a", "b"),
     (Theta.TYPE1, Dual(0.0), Dual(1.0, 0.5)), IV),
    (ThetaRectangle, ("theta", "intervals"), (Theta.TYPE1, (_interval(),)),
     RECT),
    (Partition, ("rect", "subdivisions", "axes"),
     (ThetaRectangle(Theta.TYPE1, (_interval(),)), 2,
      (((0.0, 0.0), (0.5, 0.25), (1.0, 0.5)),)),
     f"Partition(rect={RECT}, subdivisions=2, "
     f"axes=(((0.0, 0.0), (0.5, 0.25), (1.0, 0.5)),))"),
    (IntegralEstimate,
     ("value", "lower", "upper", "gap_re", "gap_ze", "subdivisions"),
     (Dual(2.0), Dual(2.0), Dual(2.0), 0.0, 0.0, 0), EXACT),
    (Refinement, ("tol_re", "tol_ze", "base_subdivisions", "max_doublings"),
     (0.5, 0.25, 2, 3),
     "Refinement(tol_re=0.5, tol_ze=0.25, base_subdivisions=2, "
     "max_doublings=3)"),
    (StokesReport, tuple(_report_fields()), tuple(_report_fields().values()),
     f"StokesReport(scenario='s', theta={T1}, r=0.5, k=1, n=1, "
     f"converged=True, passed=True, lhs={EXACT}, rhs={EXACT}, diff_re=0.0, "
     f"diff_ze=0.0, tol_re=0.001, tol_ze=0.001, note='')"),
]


@pytest.mark.parametrize("cls, fields, values, text", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
def test_value_classes_behave_as_frozen_dataclasses(cls, fields, values,
                                                    text):
    value = cls(*values)
    assert repr(value) == text
    assert cls(**dict(zip(fields, values))) == value
    assert tuple(getattr(value, f) for f in fields) == values
    assert hash(value) == hash(values)
    assert value != values and value != object()
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text
    assert not hasattr(value, "__dict__")


def test_expr_map_keeps_its_program_outside_the_fields():
    from dualstokes.expr import _PAIRS
    comps = (parse_expr("x1*x2+x1", 2), parse_expr("(x1*x2)^2", 2))
    text = ("ExprMap(components=(Expr(node=Add(lhs=Mul(lhs=Var(index=0), "
            "rhs=Var(index=1)), rhs=Var(index=0)), arity=2), "
            "Expr(node=PowInt(base=Mul(lhs=Var(index=0), rhs=Var(index=1)), "
            "exponent=2), arity=2)))")
    point = ((0.5, -0.25), (3.0, 0.125))
    m = ExprMap(comps)
    values = m.run(_PAIRS, point)  # the program is built and kept
    assert m._code is not None
    assert repr(m) == text and m == ExprMap(comps) and m != comps
    assert hash(m) == hash((comps,)) == hash(ExprMap(comps))
    assert not hasattr(m, "__dict__")
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is ExprMap and twin == m and repr(twin) == text
        assert repr(twin.run(_PAIRS, point)) == repr(values)


def test_fields_are_compared_in_order():
    assert Dual(1.0, 2.0) != Dual(2.0, 1.0)
    assert DualBox(0.0, 1.0, 0.0, 2.0) != DualBox(0.0, 1.0, 0.0, 1.0)
    # equal fields of a different class are not equal values
    assert Dual(1.0, 2.0) != ThetaInterval(Theta.TYPE1, Dual(0.0), Dual(0.0))


def test_defaults():
    assert Dual(3) == Dual(3, 0.0) and repr(Dual(3)) == "Dual(re=3, ze=0.0)"
    assert repr(Refinement()) == ("Refinement(tol_re=1e-06, tol_ze=1e-06, "
                                  "base_subdivisions=4, max_doublings=8)")
    fields = _report_fields()
    del fields["note"]
    assert StokesReport(**fields).note == ""
    assert Graded(2, 1).coeffs == {} and DiffForm(2, 1).coeffs == {}


def test_scenario_leaves_form_and_chain_out():
    first, second = (builtin_scenario("type1-saddle-surface")
                     for _ in range(2))
    assert first.form is not second.form and first.chain is not second.chain
    assert first == second
    fields = ("name", "theta", "r", "n", "k", "form_degree", "form_coeffs",
              "cubes", "refinement", "description", "expected", "tol_floor")
    values = tuple(getattr(first, f) for f in fields)
    assert hash(first) == hash(values)
    assert Scenario(*values) == first == Scenario(**dict(zip(fields, values)))
    assert repr(first).startswith("Scenario(name='type1-saddle-surface', "
                                  f"theta={T1}, r=0.5, n=3, k=2, ")
    assert repr(first).endswith(", tol_floor=0.001)")
    assert "form=" not in repr(first) and "chain=" not in repr(first)
    for twin in (copy.copy(first), pickle.loads(pickle.dumps(first))):
        assert twin == first and repr(twin.form) == repr(first.form)
        assert len(twin.chain.terms) == len(first.chain.terms) == 1


def _identity_values():
    cube = builtin_scenario("type1-saddle-surface").chain.terms[0][1]
    return [
        (cube, "SingularCube(domain=CubeDomain(theta=<Theta.TYPE1: 1>, "
               "r=0.5, k=2), mapping=ExprMap(components=("),
        (Chain(Theta.TYPE1, 0.5, 2, 3, ((2, cube),)),
         f"Chain(theta={T1}, r=0.5, k=2, n=3, terms=((2, SingularCube("),
        (DiffForm(2, 1, {(1,): parse_expr("x1", 2)}),
         f"DiffForm(n=2, k=1, coeffs={{(1,): {X1}}})"),
        (AltTensor(2, 1, {(0,): Dual(1.0)}),
         "AltTensor(n=2, k=1, coeffs={(0,): Dual(re=1.0, ze=0.0)})"),
    ]


def test_cubes_chains_tensors_and_forms_compare_by_identity():
    for value, text in _identity_values():
        assert repr(value).startswith(text)
        assert value == value and hash(value) == object.__hash__(value)
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin != value
            assert repr(twin) == repr(value)
        assert not hasattr(value, "__dict__")


def test_construction_coerces_and_checks_as_before():
    domain = CubeDomain(1, 1, 2)
    assert domain.theta is Theta.TYPE1 and repr(domain.r) == "1.0"
    assert domain == CubeDomain(Theta.TYPE1, 1.0, 2)
    assert repr(domain.b) == repr(CubeDomain(Theta.TYPE1, 1.0, 2).b) == \
        "Dual(re=1.0, ze=1.0)"
    assert repr(CubeDomain(2, 1, 2).b) == "Dual(re=1.0, ze=-1.0)"
    assert make_interval(2, 0, 1) == make_interval(Theta.TYPE2, 0, 1)
    point = standard_cube(Theta.TYPE2, 0.0, 0)
    chain = Chain(2, 0, 0, 1, ((0, point),))  # a zero weight is dropped
    assert chain.theta is Theta.TYPE2 and chain.r == 0.0 and not chain.terms
    assert Chain(2, 0, 0, 1, ((3, point),)).terms == ((3, point),)
    assert chain.theta.sign == -1 and domain.theta.sign == 1
    assert ExprMap([parse_expr("x1", 1)]).components == (parse_expr("x1", 1),)
    assert DualMap([[1, 2]]).entries == ((Dual(1.0), Dual(2.0)),)
    part = uniform_partition(
        ThetaRectangle(Theta.TYPE1, [_interval()]), 2)
    assert part.rect.intervals == (_interval(),)
    with pytest.raises(ValueError):
        Expr(parse_expr("x2", 2).node, 1)
    with pytest.raises(ValueError):
        SingularCube(domain, ExprMap((parse_expr("x1", 1),)))
