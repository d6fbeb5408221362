"""One workload run in a child process; started by ``run.py``, not by hand.

The child caps its own address space (``RLIMIT_AS``), imports fermarkov from
the checkout's ``src/``, builds its inputs, runs one untimed warm-up
operation and then the timed closed loop.  It writes one JSON line per
operation and a summary line to stdout, so the parent can count the
operations done even when it has to kill a hung child.

Timed loop: whole input cycles run until one more cycle, at the length of
the last, would pass the deadline (at least one cycle runs).  Every cycle
holds each input kind once, so the median latency does not depend on where
the deadline cut the kinds.

With ``--trace 1`` each input runs twice, once with the tracer's wrappers
installed and once without, in alternating order; the spans of the traced
runs give the per-layer numbers and the pair gives the tracing overhead.
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
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AS_LIMIT = 3 << 30   # bytes of address space a child may map; the machine is shared


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _limit_memory() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = AS_LIMIT if hard == resource.RLIM_INFINITY else min(AS_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return limit


def _import_fermarkov():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fermarkov

    if Path(fermarkov.__file__).resolve().parent != src / "fermarkov":
        raise ImportError(f"fermarkov imported from {fermarkov.__file__}, not from {src}")
    return fermarkov


def environment(limit: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": threads or "default (one per allowed cpu)",
        "rlimit_as_bytes": limit,
    }


def _run(fm, workload, kind, inp):
    """(ok, seconds, error) of one operation and its output check."""
    start = time.perf_counter()
    try:
        out = workload.op(fm, inp)
    except Exception as exc:  # an operation that raises is a failed operation
        return False, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - start
    if not workload.check(kind, out):
        return False, dt, "output check failed"
    return True, dt, None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = p.parse_args(argv)

    limit = _limit_memory()
    _import_fermarkov()
    from tracer import Tracer, aggregate
    from workloads import WORKLOADS, Fermarkov, build_inputs

    workload = WORKLOADS[args.workload]
    fm = Fermarkov()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.op = "setup"
        tracer.install()
    warm, cycles = build_inputs(fm, workload, args.seed, args.smoke)
    if tracer:
        tracer.uninstall()
    ok, _, err = _run(fm, workload, workload.warmup, warm)
    if not ok:
        _emit({"warmup_error": err})
        return 1
    setup_s = time.monotonic() - args.t0
    _emit({"setup_s": setup_s})
    if args.setup_only:
        return 0

    if tracer:
        tracer.rounds = tracer.ambient_rows = tracer.kept_rows = 0
    untraced_s = []     # seconds of every untraced timed operation
    traced_s = []       # seconds of every traced twin in --trace 1
    start = time.perf_counter()
    deadline = start + args.seconds
    n_cycle = 0
    while True:
        cycle_start = time.perf_counter()
        for j, (kind, inp) in enumerate(zip(workload.cycle, cycles[n_cycle % len(cycles)])):
            order = (False, True) if (n_cycle + j) % 2 == 0 else (True, False)
            for with_trace in order if tracer else (False,):
                if with_trace:
                    tracer.op = len(traced_s)
                    tracer.install()
                ok, dt, err = _run(fm, workload, kind, inp)
                if with_trace:
                    tracer.uninstall()
                (traced_s if with_trace else untraced_s).append(dt)
                _emit({"op": kind.label, "traced": with_trace, "s": dt, "ok": ok, "error": err})
        n_cycle += 1
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            break
    timed_s = time.perf_counter() - start

    summary = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "cycles": n_cycle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(limit),
    }
    if tracer:
        n, total = len(traced_s), sum(traced_s)
        layers = aggregate(tracer.spans, set(range(n)), n, total, "setup")
        info = fm.car.matrix_units.cache_info()
        layers["car.matrix_units.hit_ratio"] = info.hits / max(1, info.hits + info.misses)
        layers["subalgebra.invariant_subspace_under.rounds"] = tracer.rounds / n
        layers["subalgebra.invariant_subspace_under.kept_frac"] = tracer.kept_rows / max(1, tracer.ambient_rows)
        layers["trace.overhead_frac"] = 1.0 - sum(untraced_s) / total
        summary.update(traced_op_s=total / n, layers=layers, spans=len(tracer.spans))
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    _emit({"summary": summary})
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MemoryError:
        traceback.print_exc()
        sys.exit(3)
