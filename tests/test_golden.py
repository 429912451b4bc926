"""CLI outputs equal their recorded fixtures byte for byte
(tests/record_golden.py runs the commands and rewrites the fixtures)."""

import difflib

import pytest

from record_golden import CASES, read_fixture, run_case, run_fresh


def _first_difference(want, got):
    for name in sorted(want.keys() | got.keys()):
        a, b = want.get(name), got.get(name)
        if a == b:
            continue
        if a is None or b is None:
            return f"{name}: {'missing' if b is None else 'unexpected'}"
        diff = difflib.unified_diff(
            a.decode(errors="replace").splitlines(),
            b.decode(errors="replace").splitlines(),
            f"golden/{name}", f"run/{name}", lineterm="", n=1)
        return "\n".join(list(diff)[:40])
    return None


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_its_golden_fixture(case):
    want = read_fixture(case)
    assert want, f"no fixture for {case}"
    diff = _first_difference(want, run_case(CASES[case]))
    assert diff is None, diff


def test_a_fresh_interpreter_writes_the_in_process_bytes():
    """The fixtures are recorded in one process; a fresh interpreter, as
    a user runs the command, must write the same bytes."""
    case = "verify-S5-pole"
    diff = _first_difference(read_fixture(case), run_fresh(CASES[case]))
    assert diff is None, diff
