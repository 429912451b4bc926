"""Verification suites tying the solver pipeline to the statements it is
meant to reproduce, plus scenario configuration and report emission.

Each check carries the mathematical statement it exercises as its anchor;
reports are deterministic (fixed grids, fixed seeds) and byte-stable.
"""

from __future__ import annotations

import cmath
import json
import math
import typing
from dataclasses import dataclass, field, asdict
from itertools import combinations

import numpy as np

from . import expr
from .geometry import maximal_squares, rho_p, unit_roots
from .ode import mobius_transfer
from .functionals import (
    bmoa_seminorm,
    default_sup_radii,
    fp_norm,
    growth_norm,
    normality_sigma,
    weighted_area_integral,
)
from .zeros import (divide_out_origin, find_zeros, jensen_check,
                    separation_delta)
from .schwarzian import (
    bjest_check,
    factorize,
    quotient_basis,
    quotient_from_coefficient,
    roth_critical_points,
    roth_map,
    roth_value_map,
    stopping_wprime_abs,
)
from .stopping import (
    DEFAULT_C0,
    DEFAULT_EPS0,
    build_g0,
    exhaustive_g0,
    nontangential_max_inv,
    predicted_p,
    refine_generation,
    stopping_threshold,
    weak_lp_fit,
)

SUITE_IDS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


def require_finite(values):
    """Raise ScenarioError naming the first of the named values (computed
    from the coefficient) that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ScenarioError(f"{name} = {value}: the coefficient is not "
                                "finite on the disc")


def _config_parser(tp):
    """Reader of a config value for a field of type ``tp``: str, int, float,
    or a comma-separated tuple[X, ...] of one of them; None for a field with
    no config form."""
    scalar = (str, int, float)
    if tp in scalar:
        return tp
    item, *rest = typing.get_args(tp) or (None,)
    if typing.get_origin(tp) is tuple and item in scalar and rest == [...]:
        return lambda text: tuple(item(v.strip()) for v in text.split(","))
    return None


@dataclass
class Scenario:
    """Configuration for one verification run."""

    coefficient: str = "1"
    rmax: float = 0.95
    tol: float = 1e-8
    max_generation: int = 12
    c0: float = DEFAULT_C0
    eps0: float = DEFAULT_EPS0
    alpha: float = 2.0
    radii: tuple[float, ...] = (0.5, 0.7, 0.9)
    suites: tuple[str, ...] = SUITE_IDS
    out: str = None
    fmt: str = "json"

    def __post_init__(self):
        if not 0 < self.rmax < 1:
            raise ScenarioError("rmax must lie in (0, 1)")
        if any(not 0 < r < 1 for r in self.radii):
            raise ScenarioError("all radii must lie in (0, 1)")
        if not 2 <= self.max_generation <= 20:
            raise ScenarioError(f"max_generation = {self.max_generation} must "
                                "lie in [2, 20]: G0 starts at generation 2, and "
                                "a descent visits up to 2^max_generation squares")
        for s in self.suites:
            if s not in SUITE_IDS:
                raise ScenarioError(f"unknown suite {s!r}")
        if self.fmt not in ("json", "csv"):
            raise ScenarioError("format must be json or csv")
        try:
            stopping_threshold(self.c0, self.eps0)
        except ValueError as exc:
            raise ScenarioError(f"c0 = {self.c0}, eps0 = {self.eps0}: {exc}")
        expr.parse_expr(self.coefficient)  # fail fast on bad expressions

    def stolz_aperture(self):
        """alpha as the Stolz aperture of S5 and stoptime: it must exceed 1,
        and its square, the width of the sample, must be finite."""
        if not self.alpha > 1:
            raise ScenarioError(f"Stolz aperture alpha = {self.alpha} must exceed 1")
        if not math.isfinite(self.alpha * self.alpha):
            raise ScenarioError(f"Stolz aperture alpha = {self.alpha} has no "
                                "finite square")
        return self.alpha

    def coefficient_eval(self):
        node = expr.parse_expr(self.coefficient)
        return lambda zs: expr.eval_array(node, zs)

    @classmethod
    def from_config(cls, path):
        """Flat key=value text; '#' comments; lists are comma-separated.

        The keys are the field names (``format`` for ``fmt``), each read
        by its field type; an unknown key or an unreadable value raises
        ScenarioError naming the path and the key."""
        values = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ScenarioError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
        fields = {("format" if name == "fmt" else name):
                  (name, _config_parser(tp))
                  for name, tp in typing.get_type_hints(cls).items()}
        kwargs = {}
        for key, val in values.items():
            name, parse = fields.get(key, (None, None))
            if parse is None:
                raise ScenarioError(f"{path}: unknown key {key!r}")
            try:
                kwargs[name] = parse(val)
            except ValueError as exc:
                raise ScenarioError(f"{path}: {key}: {exc}") from None
        return cls(**kwargs)


@dataclass
class Check:
    """One verified statement: computed values against its anchor."""

    name: str
    anchor: str
    values: dict
    tolerance: float = None
    passed: bool = None        # None = empirical/data-only record


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def add(self, name, anchor, values, tolerance=None, passed=None):
        # numpy bools are not False by identity, so coerce before ok reads them
        passed = None if passed is None else bool(passed)
        self.checks.append(Check(name, anchor, dict(values), tolerance, passed))

    @property
    def ok(self):
        return not any(c.passed is False for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
            "environment": dict(self.environment),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def lint_report(report):
    """Every check must cite a nonempty anchor string."""
    bad = [c.name for c in report.checks if not str(c.anchor).strip()]
    if bad:
        raise ValueError(f"checks without anchors: {bad}")
    return True


# ---------------------------------------------------------------------------
# suite implementations


def run_s1(scenario):
    """Zero separation: coefficient norm, transfer of zeros, Jensen, the
    transferred Blaschke sums, uniform separation."""
    report = SuiteReport("S1")
    a_eval = scenario.coefficient_eval()
    f = quotient_basis(scenario.coefficient, scenario.rmax).f1
    f_jet = lambda z: f.jet(z, 1)
    f1norm = fp_norm(a_eval, 1.0)
    report.add(
        "coefficient-F1-norm",
        "sup over a of the integral of |A(z)| (1 - |phi_a(z)|^2) dm(z) "
        "equals ||A||_{F^1}",
        {"f1_norm": f1norm.value, "argmax": complex(f1norm.argmax)},
    )
    seq = find_zeros(f_jet, scenario.rmax, deflate_origin=True)
    zeros = list(seq.zeros)
    report.add(
        "zero-residuals",
        "zeros of non-trivial solutions are simple",
        {"count": len(zeros), "max_residual": max(seq.residuals, default=0.0)},
        tolerance=scenario.tol,
        passed=max(seq.residuals, default=0.0) <= scenario.tol,
    )
    if scenario.coefficient.strip() == "0":
        report.add(
            "at-most-one-zero",
            "each non-trivial solution vanishes at most once in D",
            {"count": len(zeros)},
            passed=len(zeros) <= 1,
        )
    # transfer: zeros of g_kappa are the phi_kappa-images of the zeros of f
    transfer_err = 0.0
    for kappa in zeros[:3]:
        if kappa == 0:
            continue
        transferred = mobius_transfer(scenario.coefficient, kappa)
        g = transferred.transform_solution(f)
        images = transferred.phi(np.array(zeros))  # phi is an involution
        transfer_err = max(transfer_err, float(np.max(np.abs(g(images)))))
    report.add(
        "zero-transfer",
        "the zeros of g_{z_k} are precisely the images of the zeros of f "
        "under phi_{z_k}",
        {"max_abs_at_images": transfer_err},
        tolerance=1e-7,
        passed=transfer_err <= 1e-7,
    )
    # Jensen completeness certificate at the largest schedule radius
    if zeros:
        r_j = max(scenario.radii)
        shifted = [z for z in zeros if abs(z) < r_j and z != 0]
        gap = jensen_check(divide_out_origin(f_jet), shifted, r_j)
        report.add(
            "jensen-gap",
            "applying Jensen's formula to z -> z^{-1} g(z) accounts for "
            "every zero inside the circle",
            {"radius": r_j, "gap": gap},
            tolerance=1e-6,
            passed=abs(gap) <= 1e-6,
        )
    # transferred Blaschke sums and the fitted comparison constant
    if len(zeros) >= 2:
        sums = []
        for z_k in zeros:
            total = sum(1 - rho_p(z_n, z_k) for z_n in zeros if z_n != z_k)
            sums.append(total)
        sup_sum = max(sums)
        fitted_k = sup_sum / f1norm.value if f1norm.value > 0 else 0.0
        report.add(
            "blaschke-sum-bound",
            "sup over k of the sum of (1 - |zeta_{n,k}|) is at most "
            "K ||A||_{F^1}",
            {"sup_sum": sup_sum, "fitted_K": fitted_k},
        )
    delta = separation_delta(zeros)
    report.add(
        "uniform-separation",
        "the zero-sequence of each non-trivial solution is uniformly "
        "separated",
        {"delta": delta, "count": len(zeros)},
        passed=delta > 0,
    )
    report.environment = {"coefficient": scenario.coefficient,
                          "rmax": scenario.rmax}
    return report


def run_s2(scenario):
    """Factorization f = g W through the quotient of a fundamental pair."""
    report = SuiteReport("S2")
    q = quotient_from_coefficient(scenario.coefficient, r_max=scenario.rmax)
    if q.poles:
        raise ScenarioError(
            "S2 needs a coefficient whose normalized f2 is zero-free on the "
            f"working disc; poles found at {q.poles}"
        )
    grid = np.array([0.2, -0.35, 0.4j, -0.5j, 0.3 + 0.3j, -0.45 + 0.2j,
                     0.1 - 0.55j])
    grid = grid[np.abs(grid) < scenario.rmax]
    if not len(grid):
        raise ScenarioError(f"S2's grid lies outside rmax = {scenario.rmax}")
    for alpha, beta in ((1.0, 0.5), (0.0, 2.0), (1 + 0.5j, -0.3)):
        fac = factorize(q, alpha, beta)
        targets = q.basis.solution(alpha, beta)(grid)
        resid = float(np.max(np.abs(fac.reconstruct(grid) - targets),
                             initial=0.0))
        branch_err = float(np.max(
            np.abs(fac.g(grid) ** 2 * q.wprime(grid) - 1.0), initial=0.0))
        report.add(
            f"factorization-alpha={alpha}-beta={beta}",
            "all non-trivial solutions can be factorized as f = g W",
            {"max_residual": resid, "branch_error": branch_err,
             "constant_marker": fac.constant_marker,
             "normalization": fac.normalization},
            tolerance=scenario.tol,
            passed=resid <= scenario.tol and branch_err <= scenario.tol,
        )
        if alpha != 0:
            z = grid[0]
            lhs = fac.log_w_factor_prime(z)
            rhs = cmath.log(complex(alpha)) + fac.log_wprime(z)
            report.add(
                f"log-derivative-split-alpha={alpha}-beta={beta}",
                "log W' = log alpha + log w'",
                {"difference": abs(lhs - rhs)},
                tolerance=1e-12,
                passed=abs(lhs - rhs) <= 1e-12,
            )
    report.environment = {"coefficient": scenario.coefficient,
                          "grid_size": len(grid)}
    return report


def run_s3(scenario):
    """Non-vanishing solutions: log f in BMOA / Bloch, and the mean-growth
    estimate for log f with its fitted comparison constant."""
    report = SuiteReport("S3")
    a_eval = scenario.coefficient_eval()
    q = quotient_from_coefficient(scenario.coefficient, r_max=scenario.rmax)
    if q.poles:
        raise ScenarioError("S3 needs a zero-free normalized solution")
    f2 = lambda z: q.basis.jet(2, z, 1)

    def dlog_f2(zs):
        v, d = f2(np.asarray(zs))
        return d / v

    bmoa = bmoa_seminorm(dlog_f2, r_max=min(scenario.rmax, 0.95))
    report.add(
        "log-f-bmoa",
        "non-vanishing solutions satisfy log f in BMOA",
        {"seminorm": bmoa.value, "argmax": complex(bmoa.argmax)},
        passed=math.isfinite(bmoa.value),
    )
    bloch = growth_norm(dlog_f2, 1.0, radii=default_sup_radii(depth=4),
                        n_theta=64, refine=False)
    report.add(
        "log-f-bloch",
        "non-vanishing solutions satisfy log f in the Bloch space",
        {"seminorm": bloch.value},
        passed=math.isfinite(bloch.value),
    )
    for r in scenario.radii:
        lhs, (t1, t2), ratio = bjest_check(f2, a_eval, r)
        report.add(
            f"log-mean-growth-r={r}",
            "the circle mean of |log f/f(0)|^2 is controlled by "
            "r^2 |f'(0)/f(0)|^2 plus r^2 times the integral of "
            "|A|^2 (1-|z|^2)^3 dm",
            {"lhs": lhs, "rhs_derivative_term": t1, "rhs_area_term": t2,
             "fitted_constant": ratio},
        )
    report.environment = {"coefficient": scenario.coefficient}
    return report


def run_s4(scenario):
    """Normality: sigma(f), the zero-derivative supremum, boundedness on
    zero discs, and the disc-radius smallness rule."""
    report = SuiteReport("S4")
    a_eval = scenario.coefficient_eval()
    f = quotient_basis(scenario.coefficient, scenario.rmax).f1
    seq = find_zeros(lambda z: f.jet(z, 1), scenario.rmax, deflate_origin=True)
    zeros = list(seq.zeros)
    sigma = normality_sigma(lambda z: f.jet(z, 1), n_theta=48,
                            radii=default_sup_radii(r_cap=scenario.rmax))
    report.add(
        "condition-i-sigma",
        "f is normal: sigma(f) = sup (1-|z|^2) |f'(z)| / (1+|f(z)|^2) is "
        "finite",
        {"sigma": sigma.value, "argmax": complex(sigma.argmax)},
        passed=math.isfinite(sigma.value),
    )
    at_zeros = np.array(zeros, dtype=complex)
    deriv_sup = float(np.max((1 - np.abs(at_zeros) ** 2)
                             * np.abs(f.jet(at_zeros, 1)[1]), initial=0.0))
    report.add(
        "condition-ii-zero-derivatives",
        "sup over n of (1-|z_n|^2) |f'(z_n)| is finite",
        {"sup": deriv_sup, "zero_count": len(zeros)},
        passed=math.isfinite(deriv_sup),
    )
    c = 0.3
    on_discs = np.array([z_n + frac * (c * (1 - abs(z_n))) * unit_roots(8)
                         for z_n in zeros for frac in (0.5, 0.9)],
                        dtype=complex).ravel()
    disc_sup = float(np.max(np.abs(f(on_discs[np.abs(on_discs) < 1])),
                            initial=0.0))
    report.add(
        "condition-iii-disc-bound",
        "f is uniformly bounded on the union of the discs "
        "D(z_n, c (1-|z_n|))",
        {"c": c, "sup": disc_sup},
        passed=math.isfinite(disc_sup),
    )
    norm_a = growth_norm(a_eval, 2.0).value
    rule = c * c * norm_a / (1 - c) ** 2
    report.add(
        "disc-radius-rule",
        "c^2 ||A||_{H^infty_2} / (1-c)^2 < 1",
        {"c": c, "coefficient_norm": norm_a, "value": rule},
        passed=rule < 1,
    )
    report.environment = {"coefficient": scenario.coefficient,
                          "rmax": scenario.rmax}
    return report


def run_s5(scenario):
    """Stopping-time generations for |w'| = |f2|^{-2}, their invariants,
    and the weak-L^p tail of the non-tangential maximal function of 1/w'."""
    report = SuiteReport("S5")
    alpha = scenario.stolz_aperture()
    wprime_abs = stopping_wprime_abs(scenario.coefficient,
                                     scenario.max_generation)
    forest = build_g0(wprime_abs, scenario.c0, scenario.eps0,
                      scenario.max_generation)
    oracle = sorted(exhaustive_g0(wprime_abs, scenario.c0, scenario.eps0,
                                  min(scenario.max_generation, 10)))
    got = sorted(
        n.square for n in forest.generations[0]
        if n.square.generation <= min(scenario.max_generation, 10)
    )
    report.add(
        "g0-maximality",
        "G_0 consists of the maximal dyadic squares of at least second "
        "generation with |w'(z_Q)| <= C_0^{-1/eps_0}",
        {"g0_size": len(forest.generations[0]),
         "scan_matches": got == oracle},
        passed=got == oracle,
    )
    for _ in range(4):
        refine_generation(forest)
    nested = all(
        node.square.is_descendant_of(node.parent)
        for gen in forest.generations[1:] for node in gen
    )
    disjoint = all(
        len(set(squares)) == len(squares) == len(maximal_squares(squares))
        for squares in ([n.square for n in gen] for gen in forest.generations)
    )
    report.add(
        "forest-invariants",
        "every square of G_{n+1} is a strict dyadic descendant of exactly "
        "one square of G_n, and squares within one generation are disjoint",
        {"generations": len(forest.generations),
         "sizes": [len(g) for g in forest.generations],
         "length_sums": forest.length_sums(),
         "nested": nested, "disjoint": disjoint},
        passed=nested and disjoint,
    )
    decay = [
        node.decay_pass
        for gen in forest.generations[:-1] for node in gen
        if node.decay_pass is not None
    ]
    report.add(
        "length-decay",
        "the selected subsquares satisfy sum of l(Q_j) <= l(Q)/2",
        {"passes": sum(1 for d in decay if d), "total": len(decay)},
    )
    pred = predicted_p(scenario.c0, scenario.eps0)
    report.add(
        "predicted-exponent",
        "p = 1/(log_2 C_0/eps_0)",
        {"c0": scenario.c0, "eps0": scenario.eps0, "predicted_p": pred},
        passed=True,
    )
    thetas, samples = nontangential_max_inv(
        wprime_abs, alpha=alpha, n_theta=256, r_max=0.995,
        n_radii=16,
    )
    try:
        emp_p, emp_c, diag = weak_lp_fit(samples)
        report.add(
            "weak-lp-tail",
            "the non-tangential maximal function of 1/w' lies in weak L^p",
            {"empirical_p": emp_p, "constant": emp_c,
             "predicted_p": pred, "diagnostics": diag,
             "one_sided_ok": emp_p >= pred},
        )
    except ValueError as exc:
        report.add(
            "weak-lp-tail",
            "the non-tangential maximal function of 1/w' lies in weak L^p",
            {"skipped": str(exc)},
        )
    report.environment = {"coefficient": scenario.coefficient,
                          "c0": scenario.c0, "eps0": scenario.eps0,
                          "max_generation": scenario.max_generation}
    return report


def run_s6(scenario):
    """The rational value map R(z) = z + 1/(2 z^2) behind the zero-free
    obstruction: critical points and desk-scale surjectivity."""
    report = SuiteReport("S6")
    crit = roth_critical_points()
    # R'(c) = 1 - c^-3 must vanish at three distinct points
    crit_err = max((abs(1 - c ** -3) for c in crit), default=math.inf)
    distinct = len(crit) == 3 and all(abs(a - b) > 1e-6
                                      for a, b in combinations(crit, 2))
    report.add(
        "critical-points",
        "the critical points of R are the three cube roots of unity",
        {"max_error": crit_err, "distinct": distinct, "value_at_1": roth_map(1.0)},
        tolerance=1e-12,
        passed=distinct and crit_err <= 1e-12 and abs(roth_map(1.0) - 1.5) <= 1e-12,
    )
    rng = np.random.default_rng(20260823)
    misses = 0
    worst_resid = 0.0
    for _ in range(200):
        w = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        roots = roth_value_map(w)
        if not roots:
            misses += 1
            continue
        worst_resid = max(worst_resid,
                          max(abs(roth_map(z) - w) for z in roots))
    report.add(
        "surjectivity-sampling",
        "every value w is attained: 2 z^3 - 2 w z^2 + 1 = 0 has a root "
        "outside the excluded set",
        {"samples": 200, "misses": misses, "max_residual": worst_resid},
        passed=misses == 0 and worst_resid <= 1e-6,
    )
    roots0 = roth_value_map(0.0)
    report.add(
        "preimages-of-zero",
        "the solutions of 2 z^3 + 1 = 0 have modulus 2^{-1/3}",
        {"moduli": sorted(abs(z) for z in roots0)},
        tolerance=1e-10,
        passed=all(abs(abs(z) - 2 ** (-1 / 3)) <= 1e-10 for z in roots0),
    )
    return report


def run_s7(scenario):
    """The comparison chain of coefficient integrals against the growth
    norm."""
    report = SuiteReport("S7")
    a_eval = scenario.coefficient_eval()
    # a coefficient that is not finite on a node is reported below, once
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm_a = growth_norm(a_eval, 2.0).value
        left = weighted_area_integral(a_eval, 2.0, 3.0)
        mid_int = weighted_area_integral(a_eval, 1.0, 1.0)
        right_int = weighted_area_integral(a_eval, 0.5, 0.0)
    require_finite({"coefficient_norm": norm_a,
                    "integral of |A|^2 (1-|z|^2)^3": left,
                    "integral of |A| (1-|z|^2)": mid_int,
                    "integral of |A|^{1/2}": right_int})
    middle = norm_a * mid_int
    right = norm_a ** 1.5 * right_int
    tol = 1e-9 * max(1.0, abs(middle), abs(right))
    report.add(
        "inequality-chain",
        "the integral of |A|^2 (1-|z|^2)^3 dm is at most "
        "||A||_{H^infty_2} times the integral of |A| (1-|z|^2) dm, which is "
        "at most ||A||_{H^infty_2}^{3/2} times the integral of |A|^{1/2} dm",
        {"left": left, "middle": middle, "right": right,
         "coefficient_norm": norm_a,
         "slack_left": middle - left, "slack_right": right - middle},
        tolerance=tol,
        passed=left <= middle + tol and middle <= right + tol,
    )
    report.environment = {"coefficient": scenario.coefficient}
    return report


_RUNNERS = {
    "S1": run_s1, "S2": run_s2, "S3": run_s3, "S4": run_s4,
    "S5": run_s5, "S6": run_s6, "S7": run_s7,
}


def run_suite(suite_id, scenario):
    if suite_id not in _RUNNERS:
        raise ScenarioError(f"unknown suite {suite_id!r}")
    report = _RUNNERS[suite_id](scenario)
    lint_report(report)
    return report
