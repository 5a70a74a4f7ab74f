"""One benchmark process: set up a workload, run timed trials, check them.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and
``src/`` on the import path.  It prints ``ready`` once set-up is done
(the parent times set-up up to that line), then, unless ``--setup-only``,
one JSON line with the raw trial record.

Set-up is the import, the cold basis builds and the workload's own
set-up checks, then one untimed warm-up trial.  Per-instance operator
assembly stays inside trial time, because users pay it for every
instance.

With ``--trace 1`` the timed phase is split: the first half untraced,
a quarter with the span tracer on (per-layer times and counts), and a
quarter with allocation tracking on as well (per-layer peaks; tracemalloc
slows Python several-fold, so its times are not used).  The tracer is also
on during set-up, so that cache-miss basis builds are seen.  The tracing
overhead is the throughput of the traced quarter against the untraced half.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import tensorpca as tp
from spans import Span, Tracer, layer_metrics
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def timed_phase(wl, seconds: float, max_trials: int | None, start: int, tracer=None):
    """Run trials from index ``start`` until ``seconds`` have passed.

    Returns (rows, durations, wall): rows holds (kind, row) with row None
    for a trial that raised; durations holds the wall time of each
    completed trial.
    """
    rows, durations = [], []
    t = start
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds and (max_trials is None or len(rows) < max_trials):
        if tracer is not None:
            tracer.trial = t
        t0 = time.perf_counter()
        try:
            row = wl.trial(t)
        except Exception:  # a failing trial is a counted row, never an abort
            traceback.print_exc(file=sys.stderr)
            row = None
        dt = time.perf_counter() - t0
        rows.append((wl.kind(t), row))
        if row is not None:
            durations.append(dt)
        t += 1
    if tracer is not None:
        tracer.trial = None
    return rows, durations, time.perf_counter() - begin


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "workload_seed": seed,
    }


def write_spans(spans: list, workload: str, seed: int) -> str:
    """Write the traced run's spans, one JSON array a line, under ``out/``."""
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps(Span._fields) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(OUT_DIR.parent.parent))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(tp)
    wl = WORKLOADS[args.workload](tp, args.seed)
    wl.trial(0)  # warm-up
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {}
    if tracer is None:
        rows, durations, wall = timed_phase(wl, args.seconds, args.trials, 0)
    else:
        # untraced half, then a traced quarter for times and counts and a
        # quarter with allocation tracking for peaks
        tracer.uninstall()
        rows, durations, wall = timed_phase(wl, args.seconds / 2, args.trials, 0)
        record["untraced"] = {"completed": len(durations), "wall": wall}
        tracer.install(tp)
        for phase in ("timed", "memory"):
            tracer.set_phase(phase)
            rows_p, durations_p, wall_p = timed_phase(
                wl, args.seconds / 4, args.trials, len(rows), tracer
            )
            record[phase] = {"completed": len(durations_p), "wall": wall_p}
            rows, durations, wall = rows + rows_p, durations + durations_p, wall + wall_p
        tracer.set_phase("setup")
        tracer.uninstall()
        record["layers"] = layer_metrics(tracer.spans, record["timed"]["completed"])
        record["spans_file"] = write_spans(tracer.spans, args.workload, args.seed)

    record.update(
        environment=environment(args.seed),
        kinds=[k for k, _ in rows],
        failed=sum(1 for _, r in rows if r is None),
        durations=durations,
        wall=wall,
        gate=wl.gate(rows),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
