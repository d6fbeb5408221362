"""Self-test of the benchmark: smoke runs of every harness workload at n=3/4.

    python3 -m pytest perfbench

Each run takes a few seconds.  The tests check the result schema, every
metric name and unit against BENCHMARK.json, that no operation failed, that
the traced self times add up, and that a directory without the sources gets
no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from tracer import LAYERS, SETUP_LAYERS, per_layer_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INVARIANT_SUBALGEBRA_CALLS = {"screen": 2, "markov": 4, "decompose": 6}


def smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(proc, spec_metrics):
    assert proc.returncode == 0, proc.stderr
    header, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert header["failed_frac"] == 0
    assert header["status"] == "ok"
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "rlimit_as_bytes"):
        assert header["env"][key]
    assert header["seed"] == 1 and header["git_sha"]
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    return header, result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload):
    header, metrics = check_result(smoke(workload, 0), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    assert len(header["setup_samples_s"]) == 3


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke(workload):
    header, metrics = check_result(smoke(workload, 1), SPEC["per_layer"])
    units = per_layer_units()
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in units.items()
    ]
    value = {name: m["value"] for name, m in metrics.items()}
    timed_layers = [mod for mod in LAYERS if mod not in SETUP_LAYERS]
    total = sum(value[f"{mod}.self_s"] for mod in timed_layers) + value["other.self_s"]
    assert total == pytest.approx(header["traced_op_s"], rel=1e-9)
    if workload in INVARIANT_SUBALGEBRA_CALLS:
        assert value["subalgebra.invariant_subalgebra.calls"] == INVARIANT_SUBALGEBRA_CALLS[workload]
    assert value["states.generate.calls"] > 0
    assert 0 < value["car.matrix_units.hit_ratio"] <= 1


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("screen", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_child_address_space_is_capped():
    # np.empty only reserves address space, so the refusal costs no memory
    code = (
        "import numpy as np, worker\n"
        "worker._limit_memory()\n"
        "try:\n"
        "    np.empty(worker.AS_LIMIT, np.uint8)\n"
        "except MemoryError:\n"
        "    print('refused')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "refused", proc.stderr
