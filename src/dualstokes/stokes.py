"""Two-sided verification of the boundary theorem on cubical chains.

For a (k-1)-form w and a k-chain c the claim under test is that the
integral of dw over c matches the integral of w over the normalized
boundary of c.  Both sides are sums of per-cube brackets, so each
carries an explicit gap: exact brackets for polynomial integrands,
constants and points included, Darboux brackets for the rest.  The
verdict compares the bracket midpoints against a tolerance derived from
those gaps (with an absolute floor), which keeps the check honest — a
sloppy bracket widens the tolerance instead of silently passing — and
fails two exact brackets that are disjoint, whatever the tolerance.

Scenarios bundle a form, a chain, and refinement settings into a plain
dict (JSON-friendly).  Loading validates every field, rejecting
non-finite or negative numbers, and builds the form and chain once;
running a scenario reuses them.  Reports serialize the same way and have
a schema constant for downstream validation.
"""

from __future__ import annotations

import sys

from .cubes import (MERGE_TOL, Chain, CubeDomain, SingularCube,
                    _component_registers, boundary, chain_normalize)
from .darboux import (DEFAULT_BASE_SUBDIVISIONS, DEFAULT_MAX_DOUBLINGS,
                      DEFAULT_TOL_RE, DEFAULT_TOL_ZE, IntegralEstimate,
                      NotConverged, NotFinite, integral_estimate,
                      polynomial_estimate)
from .dual import Dual, Record, Theta
from .expr import (_POLYS, ExprMap, NotPolynomial, ParseError, eval_dual,
                   parse_expr, poly_diff)
from .forms import DiffForm, exterior_derivative, pullback, pullback_polynomial

DEFAULT_STOKES_TOL = 1e-3
REPORT_SCHEMA_VERSION = "stokes-report/1"


class ScenarioError(ValueError):
    """Malformed scenario configuration."""


def _number(value, what: str, lowest: float | None = 0.0) -> float:
    """A finite JSON number (not a bool), at least `lowest` unless None."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (lowest is None or value >= lowest)):
        return float(value)
    bound = "" if lowest is None else f" >= {lowest:g}"
    raise ScenarioError(f"{what} must be a finite number{bound}")


def _integer(value, what: str, lowest: int | None = None) -> int:
    """A JSON integer (not a bool), at least `lowest` unless None."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and (lowest is None or value >= lowest)):
        return value
    bound = "" if lowest is None else f" >= {lowest}"
    raise ScenarioError(f"{what} must be an integer{bound}")


def _string(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise ScenarioError(f"{what} must be a string")


def _object(data, what: str) -> dict:
    """`data`, checked to be a JSON object holding every key that
    `_SHAPES` requires of a `what` and no key outside those it allows."""
    required, allowed = _SHAPES[what]
    if not isinstance(data, dict):
        raise ScenarioError(f"{what} must be an object")
    if not data.keys() <= allowed:
        raise ScenarioError(
            f"unknown {what} keys: {sorted(data.keys() - allowed)}")
    for key in required:
        if key not in data:
            raise ScenarioError(f"{what} is missing {key!r}")
    return data


# each refinement field's JSON reader and least value; an absent field
# keeps its default
_REFINEMENT_FIELDS = {"tol_re": (_number, 0.0), "tol_ze": (_number, 0.0),
                      "base_subdivisions": (_integer, 1),
                      "max_doublings": (_integer, 0)}

# the keys each object of a scenario must hold, and all those it may hold
_SHAPES = {what: (required, frozenset(required + optional))
           for what, required, optional in (
               ("scenario", ("name", "theta", "r", "n", "k", "form"),
                ("cubes", "refinement", "expected", "tol_floor",
                 "description")),
               ("form", ("degree",), ("coeffs",)),
               ("form coefficient", ("index", "expr"), ()),
               ("cube", ("map",), ("weight",)),
               ("expected", ("re", "ze"), ()),
               ("refinement", (), tuple(_REFINEMENT_FIELDS)))}


class Refinement(Record):
    """Immutable refinement budget and convergence targets of an integration."""

    __slots__ = _fields = tuple(_REFINEMENT_FIELDS)

    def __init__(self, tol_re=DEFAULT_TOL_RE, tol_ze=DEFAULT_TOL_ZE,
                 base_subdivisions=DEFAULT_BASE_SUBDIVISIONS,
                 max_doublings=DEFAULT_MAX_DOUBLINGS):
        self.tol_re, self.tol_ze = tol_re, tol_ze
        self.base_subdivisions = base_subdivisions
        self.max_doublings = max_doublings

    @staticmethod
    def from_dict(data: dict) -> "Refinement":
        _object(data, "refinement")
        fields = _REFINEMENT_FIELDS.items()
        return Refinement(**{key: read(data[key], key, least)
                             for key, (read, least) in fields if key in data})

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


# ---------------------------------------------------------------------------
# integration of forms over cubes and chains


# the key, in a verdict's cache of root registers, of the cache that the
# proofs of chain normalization keep (`cubes.chain_normalize`'s `_proofs`),
# which holds each root map's component registers: the verdict's two
# normalizations and its pullbacks share them, so that a root map's
# program runs once on polynomial registers
_PROOFS = "proofs"


def _registers(f: ExprMap, w: DiffForm, roots: dict) -> dict | None:
    # the pullback reads the map's component registers from the proofs'
    # cache (see `_PROOFS`), which runs its program on them at most once
    comps = _component_registers(f, roots.setdefault(_PROOFS, {}))
    try:
        return None if comps is None else pullback_polynomial(f, w, comps)
    except (NotPolynomial, OverflowError):  # an int constant past floats
        return None


def _register(w: DiffForm, cube: SingularCube, roots: dict) -> tuple:
    # `roots` maps the id of each root map F (its cubes keep it alive) to
    # the registers of F*w = sum_J R_J dx^J from one run of F's program,
    # or to None where they raise.  A cube's register is read in F's
    # variables, and returned with its map's pins: on its free axes J, a
    # cube of w's degree reads R_J, one of a degree more (a verdict's
    # chain) d(F*w)'s sum_t (-1)^t dR_(J omit j_t)/dx_(j_t).  A face whose
    # root raises reads its own pullback, pinning nothing; the register
    # is None where that raises too, or for a cube of d.
    mapping, k = cube.mapping, cube.domain.k
    root, pins = mapping._pin or (mapping, ())
    if id(root) not in roots:
        roots[id(root)] = _registers(root, w, roots)
    if (regs := roots[id(root)]) is None:
        own = None if k > w.k or not pins else _registers(mapping, w, roots)
        return (None if own is None else own[tuple(range(k))]), ()
    free = [*range(root.arity)]
    for index, _ in pins[::-1]:  # pins ascend: delete from the last
        del free[index]
    if k == w.k:
        return regs[tuple(free)], pins
    add, sub = _POLYS[2:4]
    for t, j in enumerate(free):
        term = poly_diff(regs[(*free[:t], *free[t + 1:])], j)
        total = term if not t else (sub if t % 2 else add)(total, term)
    return total, pins


def integrate_over_cube(w: DiffForm, cube: SingularCube,
                        refinement: Refinement, *, _roots: dict | None = None,
                        _verdict: bool = False) -> IntegralEstimate:
    """Pull the form back through the cube's map and integrate the result.

    The integrand is a polynomial register from one run of the program
    of the cube's root map (its own, or the one a face pins), in the
    root's variables; only a face whose root raises reads its own
    pullback.  Its bracket, over the side [0, b] on each free variable
    and at the pinned endpoint on each pinned one (a 0-cube that pins
    nothing is a point), is returned within the refinement's
    tolerances; a finite one that is wider raises NotConverged carrying
    it.  Only an integrand that is no polynomial register, or whose
    bracket is not finite, takes the Darboux refinement of the symbolic
    pullback over the cube's rectangle (a 0-cube its point value).
    `_roots` caches each root map's registers.  In a verdict
    (`_verdict`) a cube of one more dimension than the form integrates
    d of the form: the divergence of its root's registers, or where
    they raise, the Darboux refinement of the symbolic d, which is
    built once in `_roots`.
    """
    domain = cube.domain
    if w.n != cube.mapping.dim_out:
        raise ValueError(
            f"form lives in dimension {w.n} but the cube maps into {cube.n}")
    if not w.k <= domain.k <= w.k + _verdict:
        raise ValueError(f"cannot integrate a {w.k}-form over a {cube.k}-cube")
    roots = {} if _roots is None else _roots
    register, pins = _register(w, cube, roots)
    if register is not None and (est := polynomial_estimate(
            register, domain.theta, domain.axes(pins))) is not None:
        if est.gap_re <= refinement.tol_re and est.gap_ze <= refinement.tol_ze:
            return est
        raise NotConverged(est, refinement.tol_re, refinement.tol_ze)
    if cube.k > w.k:
        w = roots[None] = roots.get(None) or exterior_derivative(w)
    if cube.k == 0:
        point = cube.mapping.eval(())
        return IntegralEstimate.exact(eval_dual(w.coefficient(()), point))
    integrand = pullback(cube.mapping, w).coefficient(tuple(range(cube.k)))
    return integral_estimate(integrand, cube.domain.rectangle(),
                             **refinement.to_dict())


def integrate_over_chain(w: DiffForm, chain: Chain, refinement: Refinement,
                         *, _verdict: dict | None = None
                         ) -> IntegralEstimate:
    """Weighted sum of per-cube brackets over the normalized chain.

    Gaps accumulate by |weight|.  Every term reads one cache of root
    registers (:func:`integrate_over_cube`'s `_roots`), which the
    normalization's proofs share, so a root map's program runs once for
    all its cubes and faces; a verdict passes its own as `_verdict`,
    which both sides share, and the chain's cubes then integrate d of
    the form.  Raises :class:`.darboux.NotFinite` when a
    cube's bracket, or the sum's value or a gap, is not finite.
    """
    roots, verdict = ({}, False) if _verdict is None else (_verdict, True)
    chain = chain_normalize(chain, MERGE_TOL, roots.setdefault(_PROOFS, {}))
    lo_re = hi_re = lo_ze = hi_ze = 0.0
    finest = 0
    for weight, cube in chain.terms:
        try:
            est = integrate_over_cube(w, cube, refinement, _roots=roots,
                                      _verdict=verdict)
        except NotFinite as exc:
            raise NotFinite(f"the chain sum is not finite: {exc}") from exc
        # the min and max of each part's two products without the builtin
        # calls, taken as those take them: the first unless the second is
        # strictly less (greater)
        lower, upper = est.lower, est.upper
        a, b = weight * lower.re, weight * upper.re
        lo_re += b if b < a else a
        hi_re += b if b > a else a
        a, b = weight * lower.ze, weight * upper.ze
        lo_ze += b if b < a else a
        hi_ze += b if b > a else a
        if est.subdivisions > finest:
            finest = est.subdivisions
    # the lower end of a type-2 bracket has the greater ze part
    ze = (lo_ze, hi_ze) if chain.theta.sign > 0 else (hi_ze, lo_ze)
    est = IntegralEstimate.from_bounds(Dual(lo_re, ze[0]), Dual(hi_re, ze[1]),
                                       finest)
    if not est.finite():
        raise NotFinite(
            f"the chain sum is not finite: {est.lower}, {est.upper}")
    return est


# ---------------------------------------------------------------------------
# reports


def _side_to_dict(est: IntegralEstimate | None) -> dict | None:
    if est is None:
        return None
    return {"re": est.value.re, "ze": est.value.ze,
            "gap_re": est.gap_re, "gap_ze": est.gap_ze,
            "subdivisions": est.subdivisions}


def _side_from_dict(data: dict | None, theta: Theta) -> IntegralEstimate | None:
    if data is None:
        return None
    value = Dual(data["re"], data["ze"])
    half = Dual(data["gap_re"] / 2.0, theta.sign * data["gap_ze"] / 2.0)
    return IntegralEstimate(value, value - half, value + half, data["gap_re"],
                            data["gap_ze"], data["subdivisions"])


class StokesReport(Record):
    """Outcome of one boundary-theorem check, JSON-serializable; immutable."""

    __slots__ = _fields = ("scenario", "theta", "r", "k", "n", "converged",
                           "passed", "lhs", "rhs", "diff_re", "diff_ze",
                           "tol_re", "tol_ze", "note")

    def __init__(self, scenario, theta, r, k, n, converged, passed, lhs, rhs,
                 diff_re, diff_ze, tol_re, tol_ze, note=""):
        self.scenario, self.theta, self.r, self.k = scenario, theta, r, k
        self.n, self.converged, self.passed = n, converged, passed
        self.lhs, self.rhs, self.note = lhs, rhs, note
        self.diff_re, self.diff_ze = diff_re, diff_ze
        self.tol_re, self.tol_ze = tol_re, tol_ze

    def to_dict(self) -> dict:
        diff = None
        if self.diff_re is not None:
            diff = {"re": self.diff_re, "ze": self.diff_ze}
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "theta": int(self.theta),
            "r": self.r,
            "k": self.k,
            "n": self.n,
            "converged": self.converged,
            "passed": self.passed,
            "lhs": _side_to_dict(self.lhs),
            "rhs": _side_to_dict(self.rhs),
            "diff": diff,
            "tolerance": {"re": self.tol_re, "ze": self.tol_ze},
            "note": self.note,
        }

    @staticmethod
    def from_dict(data: dict) -> "StokesReport":
        if data.get("schema") != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema {data.get('schema')!r}")
        theta = Theta(data["theta"])
        diff = data.get("diff")
        return StokesReport(
            scenario=data.get("scenario"),
            theta=theta, r=data["r"], k=data["k"], n=data["n"],
            converged=data["converged"], passed=data["passed"],
            lhs=_side_from_dict(data.get("lhs"), theta),
            rhs=_side_from_dict(data.get("rhs"), theta),
            diff_re=None if diff is None else diff["re"],
            diff_ze=None if diff is None else diff["ze"],
            tol_re=data["tolerance"]["re"], tol_ze=data["tolerance"]["ze"],
            note=data.get("note", ""))


_SIDE_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "re": {"type": "number"},
        "ze": {"type": "number"},
        "gap_re": {"type": "number", "minimum": 0},
        "gap_ze": {"type": "number", "minimum": 0},
        "subdivisions": {"type": "integer", "minimum": 0},
    },
    "required": ["re", "ze", "gap_re", "gap_ze", "subdivisions"],
    "additionalProperties": False,
}

# a nonnegative (re, ze) pair: the diff and the tolerance
_PAIR_SCHEMA = {
    "properties": {"re": {"type": "number", "minimum": 0},
                   "ze": {"type": "number", "minimum": 0}},
    "required": ["re", "ze"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Boundary-theorem verification report",
    "type": "object",
    "properties": {
        "schema": {"const": REPORT_SCHEMA_VERSION},
        "scenario": {"type": ["string", "null"]},
        "theta": {"enum": [1, 2]},
        "r": {"type": "number", "minimum": 0},
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "converged": {"type": "boolean"},
        "passed": {"type": "boolean"},
        "lhs": _SIDE_SCHEMA,
        "rhs": _SIDE_SCHEMA,
        "diff": {"type": ["object", "null"], **_PAIR_SCHEMA},
        "tolerance": {"type": "object", **_PAIR_SCHEMA},
        "note": {"type": "string"},
    },
    "required": ["schema", "scenario", "theta", "r", "k", "n", "converged",
                 "passed", "lhs", "rhs", "diff", "tolerance"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# the verdict


def verify_stokes(w: DiffForm, chain: Chain,
                  refinement: Refinement = Refinement(),
                  tol_floor: float = DEFAULT_STOKES_TOL,
                  scenario: str | None = None) -> StokesReport:
    """Compare the chain integral of dw with the boundary integral of w.

    Both sides integrate from one register pullback of w per root map,
    so a polynomial verdict builds no symbolic dw.  The pass tolerance
    per component is the larger of `tol_floor` and ten times the summed
    bracket gaps, so the verdict never claims more precision than the
    integrations delivered; exact brackets (neither side refined)
    disjoint in either part fail whatever the tolerance.  A blown
    refinement budget, or a bracket wider than the tolerances, yields
    converged=False, not an exception.
    """
    if w.k != chain.k - 1:
        raise ValueError(
            f"need a {chain.k - 1}-form against a {chain.k}-chain, "
            f"got degree {w.k}")
    if w.n != chain.n:
        raise ValueError(
            f"form dimension {w.n} does not match chain dimension {chain.n}")
    meta = dict(scenario=scenario, theta=chain.theta, r=chain.r,
                k=chain.k, n=chain.n)
    verdict = {}
    try:
        lhs = integrate_over_chain(w, chain, refinement, _verdict=verdict)
        rhs = integrate_over_chain(w, boundary(chain), refinement,
                                   _verdict=verdict)
    except NotConverged as exc:
        return StokesReport(
            converged=False, passed=False, lhs=None, rhs=None,
            diff_re=None, diff_ze=None, tol_re=tol_floor, tol_ze=tol_floor,
            note=str(exc), **meta)
    diff_re = abs(lhs.value.re - rhs.value.re)
    diff_ze = abs(lhs.value.ze - rhs.value.ze)
    tol_re = max(10.0 * (lhs.gap_re + rhs.gap_re), tol_floor)
    tol_ze = max(10.0 * (lhs.gap_ze + rhs.gap_ze), tol_floor)
    # register brackets (no refinement on either side) bound every
    # rounding, so two that are disjoint in a part hold no value in
    # common, whatever the tolerances say; Darboux brackets are not
    # rounded outward, so they are left to the tolerances
    s = chain.theta.sign  # a type-2 bracket's lower end has the greater ze
    apart = lhs.subdivisions == rhs.subdivisions == 0 and (
        max(lhs.lower.re, rhs.lower.re) > min(lhs.upper.re, rhs.upper.re)
        or max(s * lhs.lower.ze, s * rhs.lower.ze)
        > min(s * lhs.upper.ze, s * rhs.upper.ze))
    return StokesReport(
        converged=True,
        passed=not apart and diff_re <= tol_re and diff_ze <= tol_ze,
        lhs=lhs, rhs=rhs, diff_re=diff_re, diff_ze=diff_ze,
        tol_re=tol_re, tol_ze=tol_ze, **meta)


# ---------------------------------------------------------------------------
# scenarios


class Scenario(Record):
    """A form, a chain, and settings, all expressed with grammar strings.

    `form` and `chain` are built from the strings when the scenario is
    made, so parse errors surface at load and runs never parse again.
    They are not fields, so ``==``, ``hash`` and ``repr`` leave them
    out.  Immutable.  `form_coeffs` holds ``(ascending 0-based index
    tuple, expr text)`` pairs, `cubes` ``(integer weight, (component
    text, ...))`` pairs, `expected` the ``(re, ze)`` of both sides or None.
    """

    _fields = ("name", "theta", "r", "n", "k", "form_degree", "form_coeffs",
               "cubes", "refinement", "description", "expected", "tol_floor")
    __slots__ = _fields + ("form", "chain")

    def __init__(self, name: str, theta: Theta, r: float, n: int, k: int,
                 form_degree: int, form_coeffs: tuple, cubes: tuple,
                 refinement: Refinement, description: str = "",
                 expected: tuple | None = None,
                 tol_floor: float = DEFAULT_STOKES_TOL):
        self.name, self.theta, self.r, self.n, self.k = name, theta, r, n, k
        self.form_degree, self.form_coeffs = form_degree, form_coeffs
        self.cubes, self.refinement, self.tol_floor = cubes, refinement, tol_floor
        self.description, self.expected = description, expected
        self.form, self.chain = self.build_form(), self.build_chain()

    def build_form(self) -> DiffForm:
        try:
            coeffs = {index: parse_expr(text, self.n)
                      for index, text in self.form_coeffs}
            return DiffForm(self.n, self.form_degree, coeffs)
        except (ParseError, ValueError) as exc:
            raise ScenarioError(f"{self.name}: bad form: {exc}") from exc

    def build_chain(self) -> Chain:
        domain = CubeDomain(self.theta, self.r, self.k)
        terms = []
        try:
            for weight, components in self.cubes:
                mapping = ExprMap([parse_expr(text, self.k)
                                   for text in components])
                terms.append((weight, SingularCube(domain, mapping)))
            return Chain(self.theta, self.r, self.k, self.n, tuple(terms))
        except (ParseError, ValueError) as exc:
            raise ScenarioError(f"{self.name}: bad cube map: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a raw scenario dict (1-based indices) into a Scenario."""
    _object(data, "scenario")
    name = _string(data["name"], "name")
    theta = _integer(data["theta"], "theta")
    if theta not in (1, 2):
        raise ScenarioError("theta must be 1 or 2")
    r = _number(data["r"], "r")
    n = _integer(data["n"], "n", 1)
    k = _integer(data["k"], "k", 1)
    form = _object(data["form"], "form")
    degree = _integer(form["degree"], "form degree", 0)
    raw_coeffs = form.get("coeffs", [])
    if not isinstance(raw_coeffs, list):
        raise ScenarioError("form coeffs must be a list")
    coeffs = {}  # in the file's order
    for item in raw_coeffs:
        index = _object(item, "form coefficient")["index"]
        if not isinstance(index, list) or len(index) != degree:
            raise ScenarioError(
                f"coefficient index {index!r} must list {degree} integers")
        shifted = tuple(_integer(i, "coefficient index", 1) - 1 for i in index)
        if any(i >= n for i in shifted):
            raise ScenarioError(f"coefficient index {index} out of range 1..{n}")
        if any(a >= b for a, b in zip(shifted, shifted[1:])):
            raise ScenarioError(
                f"coefficient index {index} must be strictly increasing")
        if shifted in coeffs:
            raise ScenarioError(f"coefficient index {index} is repeated")
        coeffs[shifted] = _string(item["expr"], "coefficient expr")
    raw_cubes = data.get("cubes")
    if raw_cubes is None:
        if n != k:
            raise ScenarioError(
                "omitting 'cubes' requires n == k (the identity cube)")
        cubes = [(1, tuple(f"x{i + 1}" for i in range(k)))]
    else:
        if not isinstance(raw_cubes, list) or not raw_cubes:
            raise ScenarioError("cubes must be a nonempty list")
        cubes = []
        for item in raw_cubes:
            _object(item, "cube")
            weight = _integer(item.get("weight", 1), "cube weight")
            if abs(weight) > sys.float_info.max:
                raise ScenarioError("cube weight is past the float range")
            comps = item["map"]
            if (not isinstance(comps, list) or len(comps) != n
                    or any(not isinstance(c, str) for c in comps)):
                raise ScenarioError(f"cube map must be a list of {n} strings")
            cubes.append((weight, tuple(comps)))
    refinement = Refinement.from_dict(data.get("refinement", {}))
    expected = data.get("expected")
    if expected is not None:
        _object(expected, "expected")
        expected = (_number(expected["re"], "expected re", None),
                    _number(expected["ze"], "expected ze", None))
    tol_floor = _number(data.get("tol_floor", DEFAULT_STOKES_TOL), "tol_floor")
    description = _string(data.get("description", ""), "description")
    return Scenario(name, Theta(theta), r, n, k, degree, tuple(coeffs.items()),
                    tuple(cubes), refinement, description, expected, tol_floor)


def load_scenarios(path) -> list[Scenario]:
    """Read one scenario object or a list of them from a JSON file."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path} nests too deeply to load") from exc
    items = raw if isinstance(raw, list) else [raw]
    return [scenario_from_dict(item) for item in items]


def run_scenario(scenario: Scenario) -> StokesReport:
    """Verify the boundary theorem for one scenario."""
    if scenario.form_degree != scenario.k - 1:
        raise ScenarioError(
            f"{scenario.name}: verification needs a degree-{scenario.k - 1} "
            f"form against a {scenario.k}-chain, got degree "
            f"{scenario.form_degree}")
    return verify_stokes(
        scenario.form, scenario.chain, scenario.refinement,
        tol_floor=scenario.tol_floor, scenario=scenario.name)


def run_integral(scenario: Scenario) -> IntegralEstimate:
    """Integrate the scenario's form (degree k) over its chain directly."""
    if scenario.form_degree != scenario.k:
        raise ScenarioError(
            f"{scenario.name}: direct integration needs a degree-"
            f"{scenario.k} form, got degree {scenario.form_degree}")
    return integrate_over_chain(
        scenario.form, scenario.chain, scenario.refinement)


def run_suite(scenarios) -> list[StokesReport]:
    return [run_scenario(s) for s in scenarios]


def exit_code(reports) -> int:
    """0 all good, 3 if anything failed to converge, else 1 on violations."""
    reports = list(reports)
    if any(not r.converged for r in reports):
        return 3
    if any(not r.passed for r in reports):
        return 1
    return 0


# ---------------------------------------------------------------------------
# bundled scenarios

_TIGHT = {"tol_re": 1e-9, "tol_ze": 1e-9, "base_subdivisions": 4,
          "max_doublings": 2}
_POLY = {"tol_re": 0.05, "tol_ze": 0.05, "base_subdivisions": 4,
         "max_doublings": 4}

BUILTIN_SCENARIO_DICTS = (
    {
        "name": "type1-unit-square",
        "description": "Area form against the inflated square, type-1 order.",
        "theta": 1, "r": 0.5, "n": 2, "k": 2,
        "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "x1"}]},
        "refinement": dict(_TIGHT),
        "expected": {"re": 1.0, "ze": 1.0},
    },
    {
        "name": "type2-unit-square",
        "description": "Same square, type-2 order: the correction flips sign.",
        "theta": 2, "r": 0.5, "n": 2, "k": 2,
        "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "x1"}]},
        "refinement": dict(_TIGHT),
        "expected": {"re": 1.0, "ze": -1.0},
    },
    {
        "name": "type1-ftc-parabola",
        "description": "Fundamental-theorem check for x1^2 on an inflated "
                       "segment, type-1 order.",
        "theta": 1, "r": 0.5, "n": 1, "k": 1,
        "form": {"degree": 0, "coeffs": [{"index": [], "expr": "x1^2"}]},
        "refinement": dict(_POLY),
        "expected": {"re": 1.0, "ze": 1.0},
    },
    {
        "name": "type2-ftc-parabola",
        "description": "Fundamental-theorem check for x1^2, type-2 order.",
        "theta": 2, "r": 0.5, "n": 1, "k": 1,
        "form": {"degree": 0, "coeffs": [{"index": [], "expr": "x1^2"}]},
        "refinement": dict(_POLY),
        "expected": {"re": 1.0, "ze": -1.0},
    },
    {
        "name": "type1-saddle-surface",
        "description": "Curved surface (x1, x2, x1*x2) with a mixed 1-form.",
        "theta": 1, "r": 0.5, "n": 3, "k": 2,
        "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "x1"},
                                         {"index": [1], "expr": "x3"}]},
        "cubes": [{"weight": 1, "map": ["x1", "x2", "x1*x2"]}],
        "refinement": dict(_POLY),
        "expected": {"re": 0.5, "ze": 0.25},
    },
    {
        "name": "classical-green-anchor",
        "description": "r = 0 recovers the classical Green identity on the "
                       "unit square.",
        "theta": 1, "r": 0.0, "n": 2, "k": 2,
        "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "x1"}]},
        "refinement": dict(_TIGHT),
        "expected": {"re": 1.0, "ze": 0.0},
    },
    {
        "name": "type1-eps-coefficient",
        "description": "A coefficient proportional to eps; everything lands "
                       "in the correction slot.",
        "theta": 1, "r": 0.5, "n": 2, "k": 2,
        "form": {"degree": 1, "coeffs": [{"index": [2], "expr": "eps*x1"}]},
        "refinement": dict(_TIGHT),
        "expected": {"re": 0.0, "ze": 1.0},
    },
    {
        "name": "classical-ftc-anchor",
        "description": "r = 0 recovers the classical fundamental theorem "
                       "for x1^2.",
        "theta": 1, "r": 0.0, "n": 1, "k": 1,
        "form": {"degree": 0, "coeffs": [{"index": [], "expr": "x1^2"}]},
        "refinement": dict(_POLY),
        "expected": {"re": 1.0, "ze": 0.0},
    },
)


def builtin_scenarios() -> list[Scenario]:
    return [scenario_from_dict(d) for d in BUILTIN_SCENARIO_DICTS]


def builtin_scenario(name: str) -> Scenario:
    for data in BUILTIN_SCENARIO_DICTS:
        if data["name"] == name:
            return scenario_from_dict(data)
    known = ", ".join(d["name"] for d in BUILTIN_SCENARIO_DICTS)
    raise ScenarioError(f"no bundled scenario named {name!r} (have: {known})")


# ---------------------------------------------------------------------------
# report output


def write_report_json(reports, fh):
    import json
    json.dump([r.to_dict() for r in reports], fh, indent=2)
    fh.write("\n")


_CSV_COLUMNS = ("scenario", "theta", "r", "k", "n", "converged", "passed",
                "lhs_re", "lhs_ze", "lhs_gap_re", "lhs_gap_ze",
                "rhs_re", "rhs_ze", "rhs_gap_re", "rhs_gap_ze",
                "diff_re", "diff_ze", "tol_re", "tol_ze")


def write_report_csv(reports, fh):
    import csv
    writer = csv.writer(fh)
    writer.writerow(_CSV_COLUMNS)
    for report in reports:
        row = [report.scenario or "", int(report.theta), report.r,
               report.k, report.n, report.converged, report.passed]
        for side in (report.lhs, report.rhs):
            if side is None:
                row.extend(["", "", "", ""])
            else:
                row.extend([side.value.re, side.value.ze,
                            side.gap_re, side.gap_ze])
        row.extend(["" if report.diff_re is None else report.diff_re,
                    "" if report.diff_ze is None else report.diff_ze,
                    report.tol_re, report.tol_ze])
        writer.writerow(row)
