"""Command-line front end: solve, zeros, norms, quotient, stoptime,
verify <suite>, report.

Exit codes: 0 success, 1 a verification check failed or a computation
failed (ContinuationError, ZeroLocationError), 2 a usage or scenario error
or an OSError, such as an ``--out`` that cannot be made a directory, a
``--max-generation`` outside [2, 20], or a ``stoptime`` maximal function
with no finite positive sample; exit 2 prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from ._files import write_atomic
from .expr import ExprError
from .ode import ContinuationError, make_basis
from .functionals import fp_norm, growth_norm
from .geometry import unit_roots
from .schwarzian import (quotient_basis, quotient_from_coefficient,
                         stopping_wprime_abs)
from .stopping import (
    build_g0,
    dump_distribution_csv,
    dump_forest_jsonl,
    nontangential_max_inv,
    predicted_p,
    refine_generation,
    weak_lp_fit,
)
from .suites import (SUITE_IDS, Scenario, ScenarioError, _json_default,
                     require_finite, run_suite)
from .zeros import ZeroLocationError, find_zeros


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser():
    parser = _Parser(prog="discde",
                     description="solvers and verifiers for f'' + A f = 0 "
                                 "in the unit disc")
    parser.add_argument("--config", help="flat key=value scenario file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--coefficient", help="coefficient expression A(z)")
        p.add_argument("--rmax", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-generation", type=int, dest="max_generation")
        p.add_argument("--c0", type=float)
        p.add_argument("--eps0", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), dest="fmt")

    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("suite", choices=SUITE_IDS)
        common(p)
    return parser


def _scenario_from_args(args):
    """The config file's scenario, or the default one, with every
    ``Scenario`` field that a flag sets replaced by the flag's value."""
    scenario = Scenario.from_config(args.config) if args.config else Scenario()
    return replace(scenario, **{f.name: getattr(args, f.name)
                                for f in fields(Scenario)
                                if getattr(args, f.name, None) is not None})


def _out_path(scenario, name):
    if scenario.out:
        directory = Path(scenario.out)
        directory.mkdir(parents=True, exist_ok=True)
        return directory / name
    return Path(name)


def _emit(scenario, stem, rows, header):
    """Write rows as CSV or JSON according to the scenario format."""
    if scenario.fmt == "csv":
        path = _out_path(scenario, stem + ".csv")
        write_atomic(path, lambda fh: csv.writer(fh).writerows([header] + rows),
                     newline="")
    else:
        path = _out_path(scenario, stem + ".json")
        payload = [dict(zip(header, row)) for row in rows]
        write_atomic(path, lambda fh: json.dump(payload, fh, sort_keys=True,
                                                indent=1))
    print(path)
    return path


def cmd_solve(scenario):
    basis = make_basis(scenario.coefficient, r_max=max(scenario.rmax, 0.97))
    zs = (np.array(scenario.radii)[:, None] * unit_roots(32)).ravel()
    v1, d1 = basis.jet(1, zs, 1)
    v2, d2 = basis.jet(2, zs, 1)
    rows = np.column_stack([part for c in (zs, v1, d1, v2, d2)
                            for part in (c.real, c.imag)])
    _emit(scenario, "solution", rows.tolist(),
          ["re_z", "im_z", "re_f1", "im_f1", "re_df1", "im_df1",
           "re_f2", "im_f2", "re_df2", "im_df2"])
    return 0


def cmd_zeros(scenario):
    basis = quotient_basis(scenario.coefficient, scenario.rmax)
    seq = find_zeros(lambda z: basis.jet(1, z, 1), scenario.rmax,
                     deflate_origin=True)
    rows = [[z.real, z.imag, abs(z), res]
            for z, res in zip(seq.zeros, seq.residuals)]
    _emit(scenario, "zeros", rows, ["re", "im", "modulus", "residual"])
    return 0


def cmd_norms(scenario):
    if not scenario.alpha >= 0:
        raise ScenarioError(f"growth exponent alpha = {scenario.alpha} must be >= 0")
    a_eval = scenario.coefficient_eval()
    # a coefficient that is not finite on a node is reported below, once
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gn = growth_norm(a_eval, scenario.alpha)
        f1 = fp_norm(a_eval, 1.0)
    require_finite({"growth_norm": gn.value, "f1_norm": f1.value})
    rows = [[r, v] for r, v in gn.per_radius]
    _emit(scenario, "growth_profile", rows, ["radius", "max_on_circle"])
    print(json.dumps({
        "growth_norm": gn.value,
        "growth_alpha": scenario.alpha,
        "f1_norm": f1.value,
    }, sort_keys=True))
    return 0


def cmd_quotient(scenario):
    q = quotient_from_coefficient(scenario.coefficient, r_max=scenario.rmax)
    a_eval = scenario.coefficient_eval()
    xy = np.random.default_rng(7).uniform(-0.6, 0.6, size=(100, 2))
    zs = xy[:, 0] + 1j * xy[:, 1]
    zs = zs[~q.near_pole(zs)]
    worst = float(np.max(np.abs(q.schwarzian_at(zs) - 2 * a_eval(zs)),
                         initial=0.0))
    print(json.dumps({
        "poles": [[p.real, p.imag] for p in q.poles],
        "schwarzian_identity_residual": worst,
    }, sort_keys=True))
    return 0 if worst <= 1e-7 else 1


def cmd_stoptime(scenario):
    alpha = scenario.stolz_aperture()
    wprime_abs = stopping_wprime_abs(scenario.coefficient,
                                     scenario.max_generation)
    forest = build_g0(wprime_abs, scenario.c0, scenario.eps0,
                      scenario.max_generation)
    for _ in range(3):
        refine_generation(forest)
    _, samples = nontangential_max_inv(wprime_abs, alpha=alpha,
                                       n_theta=256, r_max=0.995, n_radii=16)
    # distribution.csv first: it raises before writing when no sample is
    # finite and positive, so a failing run leaves no file at all
    dist_path = _out_path(scenario, "distribution.csv")
    try:
        dump_distribution_csv(samples, dist_path)
    except ValueError as exc:  # no finite positive sample to anchor on
        raise ScenarioError(f"maximal function of 1/|w'|: {exc}") from None
    forest_path = _out_path(scenario, "forest.jsonl")
    dump_forest_jsonl(forest, forest_path)
    print(forest_path)
    print(dist_path)
    summary = {
        "g0_size": len(forest.generations[0]),
        "generation_sizes": [len(g) for g in forest.generations],
        "predicted_p": predicted_p(scenario.c0, scenario.eps0),
    }
    try:
        emp_p, emp_c, _ = weak_lp_fit(samples)
        summary["empirical_p"] = emp_p
        summary["empirical_constant"] = emp_c
    except ValueError as exc:
        summary["fit_skipped"] = str(exc)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_verify(scenario, suite_id):
    report = run_suite(suite_id, scenario)
    path = _out_path(scenario, f"report_{suite_id}.json")
    write_atomic(path, lambda fh: fh.write(report.to_json() + "\n"))
    for check in report.checks:
        status = ("PASS" if check.passed
                  else "DATA" if check.passed is None else "FAIL")
        print(f"{report.suite} {check.name}: {status}")
    print(path)
    return 0 if report.ok else 1


def cmd_report(scenario):
    combined = {}
    ok = True
    for suite_id in scenario.suites:
        report = run_suite(suite_id, scenario)
        combined[suite_id] = report.to_dict()
        ok = ok and report.ok
    path = _out_path(scenario, "report.json")
    write_atomic(path, lambda fh: fh.write(
        json.dumps(combined, sort_keys=True, indent=1,
                   default=_json_default) + "\n"))
    print(path)
    return 0 if ok else 1


# in the order of the usage text
_COMMANDS = {"solve": cmd_solve, "zeros": cmd_zeros, "norms": cmd_norms,
             "quotient": cmd_quotient, "stoptime": cmd_stoptime,
             "report": cmd_report, "verify": cmd_verify}


def main(argv=None):
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value that starts with '-' for an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--coefficient":
            argv[i:i + 2] = [f"--coefficient={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
        scenario = _scenario_from_args(args)
        extra = (args.suite,) if args.command == "verify" else ()
        return _COMMANDS[args.command](scenario, *extra)
    except (UsageError, ScenarioError, ExprError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContinuationError, ZeroLocationError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
