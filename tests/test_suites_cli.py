import json
from dataclasses import replace

import numpy as np
import pytest

from discde.cli import _build_parser, _scenario_from_args, main
from discde.suites import (
    Scenario,
    ScenarioError,
    SuiteReport,
    lint_report,
    run_suite,
)


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario(rmax=1.5)
    with pytest.raises(ScenarioError):
        Scenario(suites=("S1", "S99"))
    with pytest.raises(ValueError):
        Scenario(coefficient="1 +")


def test_scenario_from_config(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "# comment\n"
        "coefficient = 25\n"
        "rmax = 0.9\n"
        "c0 = 1.5\n"
        "eps0 = 0.2\n"
        "radii = 0.5, 0.8\n"
        "suites = S1, S6\n"
        "format = csv\n"
    )
    sc = Scenario.from_config(cfg)
    assert sc.coefficient == "25"
    assert sc.rmax == 0.9
    assert sc.radii == (0.5, 0.8)
    assert sc.suites == ("S1", "S6")
    assert sc.fmt == "csv"


def test_scenario_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = fast\n")
    with pytest.raises(ScenarioError):
        Scenario.from_config(cfg)


def test_lint_rejects_missing_anchor():
    report = SuiteReport("S1")
    report.add("nameless", "", {})
    with pytest.raises(ValueError):
        lint_report(report)


def test_numpy_false_check_fails_report():
    report = SuiteReport("S1")
    report.add("numpy-bool", "a check built from numpy values",
               {"flag": np.bool_(False)}, passed=np.float64(1.0) < 0.5)
    assert report.ok is False
    assert report.checks[0].passed is False
    data = json.loads(report.to_json())
    assert data["checks"][0]["values"]["flag"] is False


def test_s1_trivial_coefficient():
    report = run_suite("S1", Scenario(coefficient="0"))
    assert report.ok
    names = [c.name for c in report.checks]
    assert "at-most-one-zero" in names


def test_s1_oscillatory():
    report = run_suite("S1", Scenario(coefficient="25"))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["uniform-separation"].values["count"] == 3
    assert by_name["zero-transfer"].values["max_abs_at_images"] < 1e-7


def test_s4_trig():
    report = run_suite("S4", Scenario(coefficient="1"))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["condition-i-sigma"].values["sigma"] == pytest.approx(1.0)
    assert by_name["disc-radius-rule"].values["value"] == pytest.approx(
        0.09 / 0.49)


def test_s6_deterministic_and_stable():
    sc = Scenario()
    a = run_suite("S6", sc).to_json()
    b = run_suite("S6", sc).to_json()
    assert a == b


def test_s7_chain_holds():
    for coeff in ("1", "0.25", "0.5/(1-z)"):
        report = run_suite("S7", Scenario(coefficient=coeff))
        assert report.ok, coeff


def test_run_suite_unknown():
    with pytest.raises(ScenarioError):
        run_suite("S9", Scenario())


def test_cli_verify_exit_zero(tmp_path, capsys):
    code = main(["verify", "S6", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "S6 critical-points: PASS" in out
    data = json.loads((tmp_path / "report_S6.json").read_text())
    assert data["ok"] is True


def test_cli_verify_s2_writes_parseable_report(tmp_path):
    code = main(["verify", "S2", "--coefficient", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "report_S2.json").read_text())
    assert data["ok"] is True
    assert all(c["passed"] is not False for c in data["checks"])


def test_cli_zeros_count(tmp_path):
    code = main(["zeros", "--coefficient", "100", "--rmax", "0.95",
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    lines = (tmp_path / "zeros.csv").read_text().splitlines()
    assert len(lines) == 1 + 7  # header + 7 zeros of sin(10z)/10


def test_cli_stoptime(tmp_path):
    code = main(["stoptime", "--coefficient", "1", "--c0", "2",
                 "--eps0", "0.125", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "forest.jsonl").exists()
    assert (tmp_path / "distribution.csv").exists()


def test_cli_usage_error():
    assert main(["definitely-not-a-command"]) == 2
    assert main(["verify", "S1", "--coefficient", "1 +"]) == 2


@pytest.mark.parametrize("flag, value, field, expected", [
    ("--coefficient", "25", "coefficient", "25"),
    ("--rmax", "0.9", "rmax", 0.9),
    ("--tol", "1e-6", "tol", 1e-6),
    ("--max-generation", "8", "max_generation", 8),
    ("--c0", "1.5", "c0", 1.5),
    ("--eps0", "0.2", "eps0", 0.2),
    ("--alpha", "3", "alpha", 3.0),
    ("--out", "results", "out", "results"),
    ("--format", "csv", "fmt", "csv"),
])
def test_each_flag_alone_sets_its_scenario_field(flag, value, field, expected):
    args = _build_parser().parse_args(["solve", flag, value])
    scenario = _scenario_from_args(args)
    assert getattr(Scenario(), field) != expected
    assert scenario == replace(Scenario(), **{field: expected})


def test_cli_solve(tmp_path):
    code = main(["solve", "--coefficient", "1", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "solution.json").read_text())
    assert len(data) == 96


@pytest.mark.parametrize("suite", ["S1", "S2", "S3", "S4", "S5", "S6", "S7"])
def test_cli_verify_every_suite(suite, tmp_path, capsys):
    code = main(["verify", suite, "--coefficient", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    data = json.loads((tmp_path / f"report_{suite}.json").read_text())
    assert data["suite"] == suite and data["checks"]
    assert code == (0 if data["ok"] else 1)
    status = {True: "PASS", None: "DATA", False: "FAIL"}
    expected = [f"{suite} {c['name']}: {status[c['passed']]}"
                for c in data["checks"]]
    assert [line for line in out.splitlines() if line.startswith(suite)] \
        == expected


def test_cli_report_runs_the_configured_suites(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("coefficient = 1\nsuites = S1, S6, S7\n")
    code = main(["--config", str(cfg), "report", "--out", str(tmp_path)])
    data = json.loads((tmp_path / "report.json").read_text())
    assert set(data) == {"S1", "S6", "S7"}
    assert code == (0 if all(r["ok"] for r in data.values()) else 1)


def test_s2_pole_message_prints_plain_numbers():
    with pytest.raises(ScenarioError) as info:
        run_suite("S2", Scenario(coefficient="25"))
    message = str(info.value)
    assert "poles found at [" in message
    assert "np." not in message


def test_cli_coefficient_with_leading_minus(tmp_path):
    code = main(["verify", "S7", "--coefficient", "-4*z/(1-z)^4",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "report_S7.json").read_text())
    assert data["environment"]["coefficient"] == "-4*z/(1-z)^4"


def test_s5_reports_a_square_over_its_grand_descendant(monkeypatch):
    from discde import suites
    from discde.geometry import CarlesonSquare
    from discde.stopping import StoppingNode

    def overlapping_generation(forest):
        if len(forest.generations) == 1:
            forest.generations.append([
                StoppingNode(CarlesonSquare(3, 2), 1.0, 1, CarlesonSquare(1, 1)),
                StoppingNode(CarlesonSquare(5, 6), 1.0, 1, CarlesonSquare(1, 1))])

    monkeypatch.setattr(suites, "refine_generation", overlapping_generation)
    report = run_suite("S5", Scenario(coefficient="1", max_generation=6))
    check = next(c for c in report.checks if c.name == "forest-invariants")
    assert check.values["nested"] and not check.values["disjoint"]
    assert check.passed is False


def test_cli_pole_inside_disc_fails_with_one_line(tmp_path, capsys):
    code = main(["zeros", "--coefficient", "1/(z-0.5)", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("failed: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_serialization_leaves_no_partial_file(tmp_path, monkeypatch):
    from discde import cli
    from discde.stopping import dump_forest_jsonl

    # _emit: JSON rows that cannot be serialized
    target = tmp_path / "rows.json"
    target.write_text("previous\n")
    with pytest.raises(TypeError):
        cli._emit(Scenario(out=str(tmp_path)), "rows", [[object()]], ["a"])
    assert target.read_text() == "previous\n"

    # verify: a report value the JSON encoder rejects
    report_path = tmp_path / "report_S6.json"
    report_path.write_text("previous\n")
    broken = SuiteReport("S6")
    broken.add("unserializable", "anchor", {"value": object()}, passed=True)
    monkeypatch.setattr(cli, "run_suite", lambda suite_id, scenario: broken)
    with pytest.raises(TypeError):
        main(["verify", "S6", "--out", str(tmp_path)])
    assert report_path.read_text() == "previous\n"

    # forest.jsonl is written line by line: fail after the first line
    class Node:
        def __init__(self, record):
            self.record = record

        def to_record(self):
            if self.record is None:
                raise RuntimeError("record failed")
            return self.record

    class Forest:
        def all_nodes(self):
            return [Node({"generation": 0}), Node(None)]

    with pytest.raises(RuntimeError):
        dump_forest_jsonl(Forest(), tmp_path / "forest.jsonl")
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["report_S6.json", "rows.json"]


@pytest.mark.parametrize("line", ["rmax = abc", "max_generation = 2.5",
                                  "radii = 0.5, x"])
def test_cli_bad_config_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["--config", str(cfg), "report", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    key = line.split(" =")[0]
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg) in err and key in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, value", [
    (["verify", "S2", "--rmax", "0.15"], "0.15"),
    (["verify", "S5", "--alpha", "0.5"], "0.5"),
    (["verify", "S5", "--eps0", "0.9"], "0.9"),
    (["stoptime", "--c0", "0.5"], "0.5"),
    (["norms", "--alpha", "-1"], "-1.0"),
])
def test_cli_value_out_of_range_exits_2(tmp_path, capsys, argv, value):
    code = main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert value in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["stoptime", "--coefficient", "25", "--c0", "1.5", "--eps0", "0.2"],
    ["verify", "S5", "--coefficient", "25"],
])
@pytest.mark.parametrize("alpha", ["inf", "1e200"])
def test_cli_stolz_aperture_without_a_finite_square_exits_2(
        tmp_path, capsys, command, alpha):
    # alpha * alpha overflows: every Stolz offset would be NaN
    code = main(command + ["--alpha", alpha, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: Stolz aperture alpha = ")
    assert captured.err.count("\n") == 1 and "finite square" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["solve", "--coefficient", "1"],
    ["verify", "S6", "--coefficient", "1"],
])
def test_cli_out_below_a_regular_file_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    code = main(argv + ["--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(blocker / "sub") in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


def test_cli_norms_accepts_growth_exponent_below_stolz_range(tmp_path):
    # alpha is a growth exponent for norms (>= 0), an aperture only for S5
    assert main(["norms", "--alpha", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "growth_profile.json").exists()


def test_scenario_config_has_no_ics_key(tmp_path, capsys):
    cfg = tmp_path / "ics.cfg"
    cfg.write_text("ics = 0, 1\n")
    assert main(["--config", str(cfg), "verify", "S6",
                 "--out", str(tmp_path)]) == 2
    assert "unknown key 'ics'" in capsys.readouterr().err


@pytest.mark.parametrize("points", [
    [2.0, 1j, -1.0],                     # R' = 1 - c^-3 is not 0
    [1.0 + 0j, 1.0 + 0j, 1.0 + 0j],      # critical, but not distinct
    [1.0 + 0j, complex(-0.5, 3 ** 0.5 / 2)],
])
def test_s6_rejects_wrong_critical_points(monkeypatch, points):
    from discde import suites

    monkeypatch.setattr(suites, "roth_critical_points", lambda: points)
    report = run_suite("S6", Scenario())
    check = next(c for c in report.checks if c.name == "critical-points")
    assert check.passed is False
    assert not report.ok


def test_s6_checks_the_critical_points_independently():
    check = run_suite("S6", Scenario()).checks[0]
    assert check.passed and check.values["distinct"]
    assert check.values["max_error"] <= 1e-14


@pytest.mark.parametrize("argv, code", [
    (["stoptime", "--coefficient=25", "--c0", "1.5", "--eps0", "0.2",
      "--max-generation", "0"], 2),
    (["verify", "S5", "--max-generation", "1"], 2),
    (["stoptime", "--max-generation", "2"], 0),
])
def test_cli_max_generation_below_two_exits_2(tmp_path, capsys, argv, code):
    assert main(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "max_generation" in err
        assert list(tmp_path.iterdir()) == []


def test_max_generation_above_twenty_exits_2(tmp_path, capsys):
    # the descent visits up to 2^max_generation squares when none is selected
    Scenario(max_generation=20)
    with pytest.raises(ScenarioError, match="max_generation = 21"):
        Scenario(max_generation=21)
    assert main(["verify", "S6", "--max-generation", "21",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_generation = 21")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_stoptime_without_a_finite_sample_exits_2(tmp_path, capsys,
                                                      monkeypatch):
    from discde import cli

    def all_poles(wprime_abs, alpha, n_theta, r_max, n_radii):
        return np.zeros(n_theta), np.full(n_theta, np.inf)

    monkeypatch.setattr(cli, "nontangential_max_inv", all_poles)
    code = main(["stoptime", "--max-generation", "4", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "0 of 256 samples are finite" in err
    assert not (tmp_path / "distribution.csv").exists()
    assert list(tmp_path.iterdir()) == []


def test_config_max_generation_below_two_exits_2(tmp_path, capsys):
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text("max_generation = 1\n")
    assert main(["--config", str(cfg), "stoptime", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: max_generation = 1")


def test_cli_norms_rejects_a_norm_that_is_not_finite(tmp_path, capsys):
    # a sweep node lands on the pole at 0.5: the norm is inf, not JSON
    code = main(["norms", "--coefficient=1/(z-0.5)", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "growth_norm" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_s7_rejects_a_coefficient_that_is_not_finite(tmp_path,
                                                                capsys):
    # the pole at 0.5 makes the growth norm inf and the chain inf/NaN
    code = main(["verify", "S7", "--coefficient=1/(z-0.5)",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: coefficient_norm = inf: the coefficient "
                            "is not finite on the disc\n")
    assert list(tmp_path.iterdir()) == []
