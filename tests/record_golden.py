"""Golden outputs of CLI commands: the stopping layer and the array path.

Each case runs ``discde`` in a fresh interpreter with its output directory
under a temporary folder, and keeps the exit code, standard output,
standard error and every file written, with the output directory replaced
by ``<OUT>``.  ``tests/test_golden.py`` compares a run with the fixtures in
``tests/golden/<case>/`` byte for byte.

Rewrite the fixtures, from the root of a checkout, with

    PYTHONPATH=src python tests/record_golden.py

and review the diff: a changed fixture is a changed output.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import discde

GOLDEN = Path(__file__).resolve().parent / "golden"
TOKEN = b"<OUT>"
STOPTIME = ["--c0", "1.5", "--eps0", "0.2"]
CASES = {
    "verify-S5-1": ["verify", "S5", "--coefficient=1"],
    "verify-S5-25": ["verify", "S5", "--coefficient=25"],
    "verify-S5-pole": ["verify", "S5", "--coefficient=0.5/(1-z)"],
    "verify-S5-koebe": ["verify", "S5", "--coefficient=-4*z/(1-z)^4"],
    "stoptime-25": ["stoptime", "--coefficient=25"] + STOPTIME,
    "stoptime-pole": ["stoptime", "--coefficient=0.5/(1-z)"] + STOPTIME,
    "zeros-100": ["zeros", "--coefficient=100", "--rmax", "0.95"],
    "quotient-25": ["quotient", "--coefficient=25"],
    "norms-pole": ["norms", "--coefficient=0.5/(1-z)"],
    "solve-1": ["solve", "--coefficient=1"],
}
_MAIN = "import sys; from discde.cli import main; sys.exit(main(sys.argv[1:]))"


def run_case(argv):
    """{relative path: bytes} of one run: exit_code, stdout, stderr and
    files/<name> for each file written to the output directory."""
    src = str(Path(discde.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv,
                               "--out", str(out)],
                              capture_output=True, env=env, timeout=300)
        found = {"exit_code": b"%d\n" % proc.returncode,
                 "stdout": proc.stdout, "stderr": proc.stderr}
        if out.is_dir():
            for path in sorted(out.iterdir()):
                found[f"files/{path.name}"] = path.read_bytes()
    here = str(out).encode()
    return {name: data.replace(here, TOKEN) for name, data in found.items()}


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
