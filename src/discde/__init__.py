"""Numerical analysis of f'' + A f = 0 in the unit disc: power-series
continuation of solution bases, disc geometry and Carleson squares, growth
and Carleson-type functionals, zero localization, Schwarzian/quotient
calculus, dyadic stopping times, and verification suites."""

from .expr import parse_expr, to_string, evaluate, eval_jet, eval_array
from .series import PowerSeries, estimate_trust_radius
from .ode import (
    ContinuableSolution,
    SolutionBasis,
    make_basis,
    mobius_transfer,
)
from .geometry import CarlesonSquare, phi, rho_p, stolz_contains
from .functionals import (
    carleson_constant,
    circle_mean,
    fp_norm,
    growth_norm,
    weighted_area_integral,
)
from .zeros import ZeroSequence, find_zeros, separation_delta
from .schwarzian import (
    QuotientMap,
    factorize,
    pre_schwarzian_bound_check,
    quotient_from_coefficient,
    roth_value_map,
    schwarzian,
)
from .stopping import StoppingForest, build_g0, predicted_p, refine_generation
from .suites import Scenario, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CarlesonSquare",
    "ContinuableSolution",
    "PowerSeries",
    "QuotientMap",
    "Scenario",
    "SolutionBasis",
    "StoppingForest",
    "SuiteReport",
    "ZeroSequence",
    "build_g0",
    "carleson_constant",
    "circle_mean",
    "estimate_trust_radius",
    "eval_array",
    "eval_jet",
    "evaluate",
    "factorize",
    "find_zeros",
    "fp_norm",
    "growth_norm",
    "make_basis",
    "mobius_transfer",
    "parse_expr",
    "phi",
    "pre_schwarzian_bound_check",
    "predicted_p",
    "quotient_from_coefficient",
    "refine_generation",
    "rho_p",
    "roth_value_map",
    "run_suite",
    "schwarzian",
    "separation_delta",
    "stolz_contains",
    "to_string",
    "weighted_area_integral",
]
