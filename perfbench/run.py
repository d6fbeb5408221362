"""fermarkov benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {screen,markov,decompose,recovery} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout: it imports fermarkov from ``src/`` and
exits non-zero, without a result, when that is missing.  Workloads, inputs
and output checks are in ``workloads.py``; the timed loop runs in a child
process (``worker.py``) that caps its own address space and is killed if it
outlives the wall-clock budget, so an out-of-memory run or a hang ends as
failed operations with a status instead of taking the machine down.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: child start to first timed operation (imports, input
  generation, one untimed warm-up operation), median over three fresh
  children;
- ``states_per_s``: timed operations per second of the timed phase;
- ``latency_p50_s``: median operation time;
- ``peak_rss_mb``: the child's own ``ru_maxrss``.

With ``--trace 1`` they are the per-layer ones (see ``tracer.py``).  The line
before the result holds the environment (git sha, cpus, Python, numpy,
scipy, BLAS and its thread setting, the seed), the run status,
``failed_frac`` and ``latency_tail_s`` (the highest percentile with at least
ten samples beyond it, omitted when a run has fewer than eleven operations).
Full records, and the spans of a traced run, go to ``.perfbench_out/``.

``--smoke`` runs the same workloads at n=3 and n=4 in seconds; the
benchmark's own tests (``python3 -m pytest perfbench``) use it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0       # wall clock for the whole run, children included
SETUP_SAMPLES = 3      # children whose set-up time is measured; the last one runs the timed loop


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
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
    return "unknown"


def tail_latency(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_child(args, setup_only: bool, deadline: float, spans: Path | None) -> tuple[str, list[dict]]:
    """(status, records) of one worker child."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    cmd += ["--spans", str(spans)] if spans else []
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        out, code = proc.stdout, proc.returncode
        status = "ok" if code == 0 else ("oom" if code == 3 else f"exit {code}")
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped the child
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
        status = "timeout"
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return status, records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="n=3/4 inputs, for the self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fermarkov" / "__init__.py").is_file():
        print(f"error: no fermarkov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{stem}.spans.jsonl" if args.trace else None

    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        status, records = run_child(args, True, deadline, None)
        got = [r["setup_s"] for r in records if "setup_s" in r]
        if status != "ok" or not got:
            print(f"error: set-up child ended with status {status}: {records[-1:]}", file=sys.stderr)
            return 1
        setups += got
    status, records = run_child(args, False, deadline, spans)
    if not any("setup_s" in r for r in records):
        print(f"error: worker ended with status {status} before its first operation: {records[-1:]}",
              file=sys.stderr)
        return 1
    summary = next((r["summary"] for r in records if "summary" in r), None)
    op_records = [r for r in records if "op" in r]
    attempted = len(op_records)
    failed = sum(not r["ok"] for r in op_records)
    if summary is None:
        # killed or crashed mid-loop: the operation in flight failed too
        attempted, failed = attempted + 1, failed + 1
    elif any((r["error"] or "").startswith("MemoryError") for r in op_records):
        status = "oom"

    latencies = [r["s"] for r in op_records if not r["traced"]]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "env": summary["env"] if summary else None,
        "status": status,
        "failed_frac": failed / attempted,
        "cycles": summary["cycles"] if summary else None,
    }
    metrics: dict[str, dict] = {}
    if summary and args.trace:
        header["traced_op_s"] = summary["traced_op_s"]
        header["spans"] = summary["spans"]
        for name, (unit, _) in per_layer_units().items():
            metrics[name] = {"value": summary["layers"][name], "unit": unit}
    elif summary:
        setups.append(summary["setup_s"])
        header["setup_samples_s"] = setups
        header["latency_tail_s"] = tail_latency(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "states_per_s": {"value": len(latencies) / summary["timed_s"], "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    correct = summary is not None and status == "ok" and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"header": header, "result": result, "operations": op_records}, fh, indent=1)
    print(json.dumps(header))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
