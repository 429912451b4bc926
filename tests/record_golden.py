"""Golden outputs of CLI commands: every command on the benchmark
coefficients.

Each case runs ``discde.cli.main`` in this process, with standard output
and standard error captured and the output directory under a temporary
folder, and keeps the exit code, standard output, standard error and every
file written, with the output directory replaced by ``<OUT>``.  Each
warning the run raises is one more ``Category: message`` line of its
standard error, so a new warning changes a fixture.  ``run_fresh`` runs a
case in a fresh interpreter instead, to show that the in-process bytes are
a fresh process's.  ``tests/test_golden.py`` compares a run with the
fixtures in ``tests/golden/<case>/`` byte for byte.

Rewrite the fixtures, from the root of a checkout, with

    PYTHONPATH=src python tests/record_golden.py

and review the diff: a changed fixture is a changed output.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import discde
from discde import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TOKEN = b"<OUT>"
STOPTIME = ["--c0", "1.5", "--eps0", "0.2"]
COEFFICIENTS = {"1": "1", "25": "25", "pole": "0.5/(1-z)",
                "koebe": "-4*z/(1-z)^4"}
CASES = {
    f"verify-{suite}-{name}": ["verify", suite, f"--coefficient={coefficient}"]
    for suite in ("S1", "S2", "S3", "S4", "S5", "S6", "S7")
    for name, coefficient in COEFFICIENTS.items()
}
CASES.update({
    f"stoptime-{name}": ["stoptime", f"--coefficient={COEFFICIENTS[name]}"]
    + STOPTIME for name in ("25", "pole", "koebe")
})
CASES.update({
    "zeros-100": ["zeros", "--coefficient=100", "--rmax", "0.95"],
    "quotient-25": ["quotient", "--coefficient=25"],
    "norms-pole": ["norms", "--coefficient=0.5/(1-z)"],
    "solve-1": ["solve", "--coefficient=1"],
    "report-1": ["report", "--coefficient=1"],
    "report-25": ["report", "--coefficient=25"],
})
_MAIN = "import sys; from discde.cli import main; sys.exit(main(sys.argv[1:]))"


def _found(out, exit_code, stdout, stderr):
    """{relative path: bytes} of one run, the output directory ``out``
    replaced by the token."""
    found = {"exit_code": b"%d\n" % exit_code, "stdout": stdout,
             "stderr": stderr}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            found[f"files/{path.name}"] = path.read_bytes()
    here = str(out).encode()
    return {name: data.replace(here, TOKEN) for name, data in found.items()}


def run_case(argv):
    """{relative path: bytes} of one in-process run: exit_code, stdout,
    stderr (then one line per warning raised) and files/<name> for each
    file written to the output directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            exit_code = cli.main([*argv, "--out", str(out)])
        for w in caught:
            stderr.write(f"{w.category.__name__}: {w.message}\n")
        return _found(out, exit_code, stdout.getvalue().encode(),
                      stderr.getvalue().encode())


def run_fresh(argv):
    """``run_case`` in a fresh interpreter, warnings printed as Python
    prints them."""
    src = str(Path(discde.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv,
                               "--out", str(out)],
                              capture_output=True, env=env, timeout=300)
        return _found(out, proc.returncode, proc.stdout, proc.stderr)


def read_fixture(case):
    root = GOLDEN / case
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main():
    for case, argv in CASES.items():
        root = GOLDEN / case
        shutil.rmtree(root, ignore_errors=True)
        for name, data in run_case(argv).items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(root)


if __name__ == "__main__":
    main()
