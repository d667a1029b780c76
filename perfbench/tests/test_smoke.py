"""Tiny-scale smoke test of the benchmark: every workload, untraced and
traced, emits every metric named in BENCHMARK.json with its unit. This
includes ``serve``, which run.py offers but BENCHMARK.json does not list.

    python3 -m pytest perfbench/tests -q

Each case starts its own Spark session, so the module takes a few minutes.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["build", "offline_query", "serve"]


def test_benchmark_lists_only_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    out = run_bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    for rel in BENCH["paths"]:
        src = ROOT / rel
        for f in src.rglob("*.py"):
            dst = tmp_path / f.relative_to(ROOT)
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(f.read_bytes())
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
