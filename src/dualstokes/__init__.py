"""Calculus over the dual reals R + R*eps with eps^2 = 0.

The pieces fit together in layers: dual scalars and the two partial
orders (:mod:`.dual`), symbolic expressions with exact derivatives and
interval enclosures (:mod:`.expr`), order-interval Darboux integration
(:mod:`.darboux`), alternating tensors (:mod:`.tensors`), differential
forms (:mod:`.forms`), cubical chains (:mod:`.cubes`), and the
boundary-theorem verifier with its scenario/report plumbing
(:mod:`.stokes`).  The ``dualstokes`` console script fronts the last
layer.
"""

from .cubes import (Chain, CubeDomain, SingularCube, boundary, chain_normalize,
                    chain_of, cubes_equal, face, standard_cube)
from .darboux import (DEFAULT_BASE_SUBDIVISIONS, DEFAULT_MAX_DOUBLINGS,
                      DEFAULT_TOL_RE, DEFAULT_TOL_ZE, IncomparableEndpoints,
                      IntegralEstimate, NotConverged, Partition, ThetaInterval,
                      ThetaRectangle, darboux_sums, integral_estimate,
                      make_interval, make_rectangle, uniform_partition)
from .dual import (Dual, DualVec, EPS, ONE, Ordering, Theta, ZERO, as_dual,
                   nbhd_contains, theta_cmp, vec_norm)
from .expr import (DualBox, DualMap, Expr, ExprMap, ParseError, compose,
                   compose_maps, cos, cr_check, eval_dual, eval_enclosure,
                   exp, exprs_equal, is_zero_expr, jacobian, parse_expr,
                   partial_diff, render_expr, sample_points, sin)
from .forms import (DiffForm, basis_form, d_of_function, exterior_derivative,
                    form_eval, form_from_strings, forms_equal, pullback,
                    wedge_forms, zero_form)
from .stokes import (BUILTIN_SCENARIO_DICTS, DEFAULT_STOKES_TOL,
                     REPORT_SCHEMA, REPORT_SCHEMA_VERSION, Refinement,
                     Scenario, ScenarioError, StokesReport, builtin_scenario,
                     builtin_scenarios, exit_code, integrate_over_chain,
                     integrate_over_cube, load_scenarios, run_integral,
                     run_scenario, run_suite, scenario_from_dict,
                     verify_stokes, write_report_csv, write_report_json)
from .tensors import (AltTensor, GenTensor, MAX_PERMUTATION_DEGREE, alt,
                      alt_sum, ascending_tuples, lambda_dim, merge_sign,
                      perm_sign, tensor_product, tensors_equal, wedge)

__version__ = "0.1.0"

__all__ = [
    "AltTensor", "BUILTIN_SCENARIO_DICTS", "Chain", "CubeDomain",
    "DEFAULT_BASE_SUBDIVISIONS", "DEFAULT_MAX_DOUBLINGS", "DEFAULT_STOKES_TOL",
    "DEFAULT_TOL_RE", "DEFAULT_TOL_ZE", "DiffForm", "Dual", "DualBox",
    "DualMap", "DualVec", "EPS", "Expr", "ExprMap", "GenTensor",
    "IncomparableEndpoints", "IntegralEstimate", "MAX_PERMUTATION_DEGREE",
    "NotConverged", "ONE", "Ordering", "ParseError", "Partition",
    "REPORT_SCHEMA", "REPORT_SCHEMA_VERSION",
    "Refinement", "Scenario", "ScenarioError", "SingularCube", "StokesReport",
    "Theta", "ThetaInterval", "ThetaRectangle", "ZERO", "alt", "alt_sum",
    "as_dual", "ascending_tuples", "basis_form", "boundary",
    "builtin_scenario", "builtin_scenarios", "chain_normalize", "chain_of",
    "compose", "compose_maps", "cos", "cr_check", "cubes_equal",
    "d_of_function", "darboux_sums", "eval_dual", "eval_enclosure", "exit_code",
    "exp", "exprs_equal", "exterior_derivative", "face", "form_eval",
    "form_from_strings", "forms_equal", "integral_estimate",
    "integrate_over_chain", "integrate_over_cube", "is_zero_expr", "jacobian",
    "lambda_dim", "load_scenarios", "make_interval", "make_rectangle",
    "merge_sign", "nbhd_contains", "parse_expr",
    "partial_diff", "perm_sign", "pullback", "render_expr", "run_integral",
    "run_scenario", "run_suite", "sample_points", "scenario_from_dict", "sin",
    "standard_cube", "tensor_product", "tensors_equal", "theta_cmp",
    "uniform_partition", "vec_norm", "verify_stokes", "wedge", "wedge_forms",
    "write_report_csv", "write_report_json", "zero_form",
]
