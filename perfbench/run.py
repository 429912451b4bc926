"""discde benchmark: seeded closed-loop workloads with oracle-checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client runs the workload's fixed list of operations in order, each sent
only when the previous one has returned (a closed loop).  A round is one
pass over the list; rounds repeat while another fits in ``--seconds``, and
at least one runs.  The set-up (import, inputs, parsing, reused bases) is
timed in this process and in two to four fresh processes (as many as fit
in six seconds), and ``setup_s`` is the median of them all.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then traced rounds, and prints the per-layer metrics of
BENCHMARK.json: counts of the traced round and median times over traced
rounds, plus ``trace.overhead_s``, the traced round's wall time minus the
untraced one.  Spans are written to ``.bench_out/`` in the checkout.

``--workload all`` runs every workload in its own process, one after the
other, and prints each one's metrics.  The last line of standard output is
always one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# single-threaded numerics; set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = (2, 4)     # fresh-process set-ups: at least, at most
SETUP_PROBE_BUDGET = 6.0  # seconds of probing after which no more start
CHILD_TIMEOUT = 170
MIN_OPS = 21  # fewest samples whose tail (ten beyond) lies above their median

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Outcome  # noqa: E402

_clock = time.perf_counter


def _prepare(name, seed):
    """Build a workload and run its set-up; returns (workload, seconds)."""
    t0 = _clock()
    workload = WORKLOADS[name](seed, SRC, OUT)
    workload.setup()
    return workload, _clock() - t0


def _probe_setup(name, seed):
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _run_op(op):
    try:
        return op()
    except Exception as exc:  # an operation that raised counts as failed
        return Outcome(False, note=f"raised {type(exc).__name__}: {exc}")


class Recorder:
    """Latencies and outcomes of every operation run."""

    def __init__(self):
        self.latencies = []
        self.outcomes = []
        self.labels = []

    def run_round(self, ops, tracer=None):
        t0 = _clock()
        for i, (label, op) in enumerate(ops):
            s = _clock()
            if tracer is None:
                outcome = _run_op(op)
            else:
                outcome = tracer.operation(i, label, lambda: _run_op(op))
            self.latencies.append(_clock() - s)
            self.outcomes.append(outcome)
            self.labels.append(label)
        return _clock() - t0


def _rounds(recorder, ops, start, seconds, tracer=None, after_round=None):
    """Rounds until MIN_OPS operations have run and the next round is not
    expected to end within the budget."""
    walls = []
    while True:
        if tracer is not None:
            tracer.reset_round()
        walls.append(recorder.run_round(ops, tracer))
        if after_round is not None:
            after_round()
        if (len(walls) * len(ops) >= MIN_OPS
                and _clock() - start + statistics.median(walls) > seconds):
            return walls


def _tail(latencies, per_round):
    """Latency at the highest percentile that has at least ten samples
    beyond it in one round's worth of samples (per_round), taken over the
    samples of all rounds; with fewer than MIN_OPS operations per round, in
    the pooled samples.  Returns (latency, percentile, samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    span = per_round if per_round >= MIN_OPS else n
    if span <= 10:
        return xs[-1], 100.0, 0
    beyond = 10 * n // span
    return xs[n - 1 - beyond], 100.0 * (span - 10) / span, beyond


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _metadata(name, seed, seconds, trace):
    import numpy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "discde").glob("*.py")))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": _git_revision(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "machine": platform.machine(), "src_lines": src_lines,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def _summary(recorder):
    outcomes = recorder.outcomes
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    wrong = sum(1 for o in outcomes if o.wrong)
    checks = sum(o.checks for o in outcomes)
    checks_failed = sum(o.checks_failed for o in outcomes)
    return attempted, failed, wrong, checks, checks_failed


def _failures(recorder):
    notes = {}
    for label, o in zip(recorder.labels, recorder.outcomes):
        if not o.ok:
            notes.setdefault(label, o.note.replace("\n", " ")[:160])
    return notes


def run_workload(name, seed, seconds, trace):
    setups = []
    t0 = _clock()
    while len(setups) < SETUP_PROBES[0] or (
            len(setups) < SETUP_PROBES[1]
            and _clock() - t0 < SETUP_PROBE_BUDGET):
        setups.append(_probe_setup(name, seed))
    OUT.mkdir(exist_ok=True)
    workload, setup_s = _prepare(name, seed)
    setups.append(setup_s)
    ops = workload.operations()
    meta = _metadata(name, seed, seconds, trace)
    recorder = Recorder()
    start = _clock()
    if trace:
        metrics, extra = _traced(recorder, ops, start, seconds, meta)
    else:
        walls = _rounds(recorder, ops, start, seconds)
        attempted, failed, _, checks, checks_failed = _summary(recorder)
        tail, pct, beyond = _tail(recorder.latencies, len(ops))
        metrics = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(recorder.latencies),
            "op_tail_s": tail,
            "ok_frac": (attempted - failed) / attempted,
            "check_pass_frac": ((checks - checks_failed) / checks
                                if checks else 1.0),
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": statistics.median(setups),
        }
        extra = {"rounds": len(walls), "ops_per_round": len(ops),
                 "op_tail_percentile": round(pct, 2),
                 "op_tail_samples": len(recorder.latencies),
                 "op_tail_beyond": beyond, "setup_samples": setups,
                 "checks": checks, "checks_failed": checks_failed}
    units = _spec_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted, failed, wrong, _, _ = _summary(recorder)
    return {
        "meta": meta, "extra": extra, "failures": _failures(recorder),
        "result": {
            "correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()},
        },
    }


def _traced(recorder, ops, start, seconds, meta):
    import tracer as tracing

    untraced = recorder.run_round(ops)
    tracer = tracing.Tracer()
    rounds = []

    def collect():
        written = sum(o.bytes_written
                      for o in recorder.outcomes[-len(ops):])
        rounds.append(tracing.layer_metrics(tracer, written))

    tracing.install(tracer)
    try:
        walls = _rounds(recorder, ops, start, seconds, tracer, collect)
    finally:
        tracer.restore()
    metrics = {key: statistics.median(r[key] for r in rounds)
               for key in rounds[0]}
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced
    tracer.dump(OUT / f"trace-{meta['workload']}-seed{meta['seed']}.json",
                meta)
    return metrics, {"traced_rounds": len(walls), "untraced_wall_s": untraced,
                     "traced_wall_s": statistics.median(walls),
                     "patched_sites": dict(tracer.patched_sites)}


def _spec_units(section):
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _print_result(run):
    print("meta: " + json.dumps(run["meta"], sort_keys=True))
    print("extra: " + json.dumps(run["extra"], sort_keys=True))
    for label, note in sorted(run["failures"].items()):
        print(f"failed op: {label}: {note}")
    for key, m in run["result"]["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(run["result"]))


def run_all(seed, seconds, trace):
    """Every workload in its own process; a table, then all results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"workload {name} failed")
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "discde" / "__init__.py").is_file():
        print(f"error: no discde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    if args.setup_only:
        _, setup_s = _prepare(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    _print_result(run_workload(args.workload, args.seed, args.seconds,
                               args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
