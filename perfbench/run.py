"""Run one xpq benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
untraced calls for reference, then one traced call, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. Spans,
the environment record and every figure are also written to
perfbench/work/<workload>/. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # <= nproc; one thread of xpq work per workload
MIN_CALLS = 2  # timed calls per run at least, so the same-seed digests can be compared
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "final_mse")


def fix_environment() -> None:
    """Pin the environment the workloads (and their subprocesses) run in."""
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    os.environ["XPQ_BACKEND"] = "numpy"
    os.environ["XPQ_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy as np

    import xpq.kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    get_backend = getattr(xpq.kernels, "get_backend", None)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "backend": get_backend() if get_backend else None,
    }


class Ledger:
    """Operations attempted and failed, with their problems kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, op: str, problem: str) -> None:
        """One attempted operation that failed."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{op}: {problem}")

    def add(self, outcome) -> None:
        self.attempted += len(outcome.ops)
        self.failed += len(outcome.failures)
        for op, problems in outcome.failures.items():
            self.problems += [f"{op}: {p}" for p in problems]

    def same(self, label: str, reference: dict, digests: dict) -> None:
        """One determinism operation: digests of a same-seed call must match the first."""
        differ = sorted(k for k in reference.keys() | digests.keys()
                        if reference.get(k) != digests.get(k))
        if differ:
            self.fail("determinism", f"{label}: {differ} differ between same-seed calls")
        else:
            self.attempted += 1


def checked(ledger: Ledger, check, *args):
    """check(*args), or None after counting a failed operation if it raised."""
    try:
        outcome = check(*args)
    except Exception as e:  # an output the checks cannot read is a failed output
        ledger.fail("check", f"{type(e).__name__}: {e}")
        return None
    ledger.add(outcome)
    return outcome


def call(ledger: Ledger, op: str, fn, *args):
    """(seconds, result) of fn(*args); result is None if it raised, counted as failed."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:  # the program failed; count it and go on
        ledger.fail(op, f"{type(e).__name__}: {e}")
        result = None
    return time.perf_counter() - start, result


def set_up(ledger, workload, seed: int, directory: Path, reference: dict | None):
    """One set-up; returns (state, seconds, digests).

    Returns None, after counting a failed operation, if it raised or its check
    could not run. Its digests must equal `reference`, the first set-up's.
    """
    made = call(ledger, "setup", workload.setup, seed, directory)[1]
    if made is None:
        return None
    state, seconds = made
    outcome = checked(ledger, workload.check_setup, state)
    if outcome is None:
        return None
    if reference is not None:
        ledger.same("setup", reference, outcome.digests)
    return state, seconds, outcome.digests


def closed_loop(ledger, workload, seed: int, work: Path, seconds: float):
    """Set-ups and timed unit calls for `seconds`, with at least MIN_CALLS calls.

    Before each call the workload is set up `setups_per_call` times, so set-up
    times sample the same stretch of time as the calls; the call gets the
    last set-up's state. Set-ups alternate between two directories: a
    workload may keep what it wrote there, while the same-seed comparison
    still sees two independent set-ups. Each call's outputs are checked after
    its clock stops, and every call's digests must equal the first call's.

    Returns (set-up times, call times, call outcomes).
    """
    setup_times, reference, times, outcomes = [], None, [], []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        for _ in range(workload.setups_per_call):
            made = state = result = None  # hold nothing from before while setting up
            directory = work / f"setup{len(setup_times) % 2}"
            made = set_up(ledger, workload, seed, directory, reference)
            if made is None:
                return setup_times, times, outcomes
            state, took, digests = made
            setup_times.append(took)
            reference = digests if reference is None else reference
        out = work / f"call{len(times)}"
        wall, result = call(ledger, "unit", workload.unit, state, out)
        outcome = None if result is None else checked(ledger, workload.check, state, out, result)
        if outcome is None:
            break
        times.append(wall)
        if outcomes:
            ledger.same("call", outcomes[0].digests, outcome.digests)
        outcomes.append(outcome)
        shutil.rmtree(out, ignore_errors=True)
    return setup_times, times, outcomes


def traced_call(ledger, workload, seed: int, work: Path, setup_times, times, reference):
    """One traced set-up and unit call after untraced `times`; returns
    (metrics, absent metric names, tails) or None if the call failed.

    `reference` is the first untraced call's outcome; tracing must not change
    a single output byte.
    """
    import layers
    from tracing import Summary, Tracer, installed

    tracer = Tracer(f"{workload.name}:{seed}:{time.time_ns()}")
    setup_targets = {t: layers.TARGETS[t][0] for t in layers.SETUP_TARGETS}
    unit_targets = {t: observe for t, (observe, _) in layers.TARGETS.items()}
    with installed(tracer, setup_targets), tracer.span("setup"):
        made = call(ledger, "setup", workload.setup, seed, work / "setup-traced")[1]
    if made is None:
        return None
    state = made[0]
    out = work / "traced"
    with installed(tracer, unit_targets) as absent, tracer.span("unit"):
        wall, result = call(ledger, "unit", workload.unit, state, out, tracer)
    outcome = None if result is None else checked(ledger, workload.check, state, out, result)
    if outcome is None:
        return None
    ledger.same("traced", reference.digests, outcome.digests)
    shutil.rmtree(out, ignore_errors=True)
    tracer.write(work / "trace.jsonl")

    summary = Summary(tracer)
    for name, workloads in layers.EXPECTED.items():
        if workload.name in workloads and name not in absent:
            if summary.calls(name):
                ledger.attempted += 1
            else:
                ledger.fail("trace", f"{name} recorded no calls on {workload.name}")
    extras = {
        # the pipeline's set-up is a fresh interpreter importing xpq.cli
        "cli.startup_s": statistics.median(setup_times) if workload.name == "pipeline" else 0.0,
        "trace.overhead_s": wall - statistics.median(times),
    }
    metrics, missing = {}, []
    for m in layers.METRICS:
        if any(t in absent for t in m.needs) or (m.counted and m.needs[0] in tracer.broken):
            missing.append(m.name)
        elif (value := m.value(summary, extras)) is None:
            missing.append(m.name)  # e.g. a tail from too few calls
        else:
            metrics[m.name] = {"value": float(value), "unit": m.unit}
    tails = {t: (*summary.ms_tail(t), summary.calls(t)) for t in layers.TAILED}
    return metrics, missing, tails


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "pipeline"))
    p.add_argument("--seed", type=int, required=True, help="corpus seed (inputs only)")
    p.add_argument("--seconds", type=float, required=True, help="timed calls run this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xpq" / "__init__.py").is_file():
        print(f"error: no xpq sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run finally blocks
    fix_environment()
    env = environment()
    if env["backend"] not in (None, "numpy"):
        print(f"error: kernel backend is {env['backend']!r}; numbers must come from numpy",
              file=sys.stderr)
        return 3

    from workloads import WORKLOADS, Pipeline

    workload = Pipeline(in_process=True) if args.workload == "pipeline" and args.trace \
        else WORKLOADS[args.workload]()
    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()

    setup_times, times, outcomes = closed_loop(ledger, workload, args.seed, work, args.seconds)
    if not outcomes:
        print("error: no call completed: " + "; ".join(ledger.problems[:5]), file=sys.stderr)
        return 1

    result = {"env": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_times_s": setup_times, "call_times_s": times}
    wall_s = statistics.median(times)
    quality = outcomes[0].quality
    if args.trace:
        traced = traced_call(ledger, workload, args.seed, work, setup_times, times, outcomes[0])
        if traced is None:
            print("error: traced call failed: " + "; ".join(ledger.problems[:5]),
                  file=sys.stderr)
            return 1
        metrics, missing, tails = traced
        result.update(absent=missing, tails={k: list(v) for k, v in tails.items()})
        for name, (ms, pct, calls) in tails.items():
            if pct:
                print(f"{name}.ms_tail = {ms:.4f} ms at p{pct:g} of {calls} calls")
        if missing:
            print("absent (wrapped name gone, or too few calls for a tail): " + ", ".join(missing))
    else:
        values = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
            "final_mse": (quality.get("final_mse", math.nan), "MSE"),
        }
        figures = workload.figures(wall_s, quality) + [
            ("setup_s", values["setup_s"][0], "s"),
            ("peak_rss_mb", values["peak_rss_mb"][0], "MB"),
            ("error_rate", ledger.failed / max(ledger.attempted, 1), "failed/attempted"),
        ]
        result["figures"] = {n: {"value": v, "unit": u} for n, v, u in figures}
        for name, value, unit in figures:
            print(f"{name} = {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items() if math.isfinite(v)}

    correct = ledger.failed == 0 and (args.trace == 1 or all(k in metrics for k in END_TO_END))
    for problem in ledger.problems[:20]:
        print(f"problem: {problem}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    line = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}
    result.update(line)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for directory in work.glob("setup*"):
        shutil.rmtree(directory)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
