"""Benchmark of the three acceptance operating points of tensorpca.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {roc,cascade,recovery} \\
        [--seed N] [--seconds S] [--trace 0|1] [--trials T]

Each run starts a fresh worker process (``worker.py``) with BLAS/OpenMP
pinned to one thread and ``src/`` on the import path, times its set-up,
lets it run trials for ``--seconds`` and checks the trials against the
workload's acceptance gate.  Set-up is timed in two more fresh processes
and reported as the median of the three.  ``--trials`` caps the trial
count (for quick checks).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
run that fails its gate reports ``correct: false`` and no metrics.  The
line before it holds the full record (environment, gate checks, sample
counts), which is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3  # fresh processes whose set-up time is timed; the median is reported
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, str, int]:
    """Start worker.py; return (seconds until it printed ``ready``, the rest of
    its standard output, exit code).  The worker is killed at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready":
        code = code or 1
    return setup, rest, code


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None
    outside a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tensorpca").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(record: dict, setups: list[float]) -> dict:
    durations = sorted(record["durations"])
    attempted = len(record["kinds"])
    return {
        "trials_per_s": (len(durations) / record["wall"], "1/s"),
        "trial_s.p50": (statistics.median(durations), "s"),
        "trial_s.p90": (nearest_rank(durations, 0.9), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "success_rate": (len(durations) / attempted, "ratio"),
    }


def per_layer(record: dict) -> dict:
    metrics = dict(record["layers"])
    untraced = record["untraced"]["completed"] / record["untraced"]["wall"]
    traced = record["timed"]["completed"] / record["timed"]["wall"]
    metrics["trace.untraced_trials_per_s"] = (untraced, "1/s")
    metrics["trace.traced_trials_per_s"] = (traced, "1/s")
    metrics["trace.overhead"] = (1.0 - traced / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="default: the acceptance seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int, default=None, help="cap on timed trials")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tensorpca" / "__init__.py").is_file():
        print(f"no tensorpca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].ACCEPTANCE_SEED if args.seed is None else args.seed
    deadline = time.perf_counter() + TIME_LIMIT_S

    common = ["--workload", args.workload, "--seed", str(seed)]
    timed = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trials is not None:
        timed += ["--trials", str(args.trials)]
    setup, out, code = run_worker(timed, deadline)
    if code != 0:
        print(f"worker exited with code {code}", file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])
    setups = [setup]
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            extra, _, code = run_worker([*common, "--seconds", "0", "--setup-only"], deadline)
            if code != 0:
                print(f"set-up worker exited with code {code}", file=sys.stderr)
                return 1
            setups.append(extra)

    durations = record["durations"]
    phases = ("untraced", "timed", "memory") if args.trace else ()
    # metrics need at least one completed trial in every phase
    correct = (
        all(check["ok"] for check in record["gate"].values())
        and bool(durations)
        and all(record[p]["completed"] for p in phases)
    )
    metrics = {}
    if correct:
        metrics = per_layer(record) if args.trace else end_to_end(record, setups)
    detail = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "gate": record["gate"],
        "samples": len(durations),
        "samples_above_p90": len(durations) - math.ceil(0.9 * len(durations)),
        "setup_samples_s": setups,
        "spans_file": record.get("spans_file"),
        "environment": {
            **record["environment"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (HERE / "out").mkdir(exist_ok=True)
    result_file = HERE / "out" / f"BENCH_{args.workload}-seed{seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=2) + "\n")
    if not correct:
        print(f"{args.workload}: run failed its gate: {record['gate']}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(record["kinds"]),
                "failed": record["failed"],
                "metrics": detail["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
