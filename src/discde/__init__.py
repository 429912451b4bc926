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
    solve_ivp,
)
from .geometry import CarlesonSquare, phi, rho_p, stolz_contains
from .functionals import (
    circle_mean,
    fp_norm,
    growth_norm,
    nevanlinna_m,
    weighted_area_integral,
)
from .zeros import ZeroSequence, blaschke_sum, find_zeros, separation_delta
from .schwarzian import (
    QuotientMap,
    defC_constant,
    factorize,
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
    "blaschke_sum",
    "build_g0",
    "circle_mean",
    "defC_constant",
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
    "nevanlinna_m",
    "parse_expr",
    "phi",
    "predicted_p",
    "quotient_from_coefficient",
    "refine_generation",
    "rho_p",
    "roth_value_map",
    "run_suite",
    "schwarzian",
    "separation_delta",
    "solve_ivp",
    "stolz_contains",
    "to_string",
    "weighted_area_integral",
]
