#!/usr/bin/env python3
"""Fixed-seed benchmark of the LANNS reproduction.

    python3 perfbench/run.py --workload build|offline_query|serve \
        --seed N --seconds S --trace 0|1 [--scale F]

Run from the root of a checkout. It builds nothing: the program is the
``repro`` package under ``src/`` of that checkout, imported from source.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, and spans are written to ``perfbench/out/``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
RECALL_FLOOR = 0.5  # below this an index is returning noise, not neighbours


def parse_args(argv):
    from lannsbench.workloads import SPECS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies n and the query counts (the smoke test uses a small value)")
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def start_spark(work: Path, cores: int):
    """A session shaped like the test suite's ``spark`` fixture, with every
    scratch file kept under ``work``."""
    for d in ("spark-local", "tmp"):
        (work / d).mkdir(parents=True, exist_ok=True)
    tmp = str(work / "tmp")
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote('spark.local.dir=' + str(work / 'spark-local'))}",
        f"--conf {shlex.quote('spark.sql.warehouse.dir=' + str(work / 'warehouse'))}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("lanns-perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = SparkContext._jvm = None


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the program's sources: names the code even without git."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(spec, st, res, setup_s: float) -> tuple[dict, dict]:
    """(the BENCHMARK.json metrics, the same figures under workload-specific
    names)."""
    from lannsbench.layers import tail
    from lannsbench.workloads import dir_bytes

    ds = st.ds
    throughput = res.items / res.wall_s
    p50_ms = statistics.median(res.op_seconds) * 1e3
    bytes_ratio = dir_bytes(st.store_root) / (ds.n * ds.dim * 4)
    rss = peak_rss_mb()
    e2e = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (p50_ms, "ms"),
        "recall": (res.recall, "ratio"),
        "index_bytes_per_vector_byte": (bytes_ratio, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = {"setup_s": (setup_s, "s")}
    if spec.name == "build":
        named["build_vectors_per_s"] = (throughput, "1/s")
        named["index_bytes_per_vector_byte"] = (bytes_ratio, "ratio")
    elif spec.name == "offline_query":
        named["offline_qps"] = (throughput, "1/s")
    else:
        named["serve_qps"] = (throughput, "1/s")
        named["serve_p50_ms"] = (p50_ms, "ms")
        if len(res.op_seconds) >= 1000:
            named["serve_p99_ms"] = (statistics.quantiles(res.op_seconds, n=100)[98] * 1e3, "ms")
        p, v = tail(res.op_seconds)
        named[f"serve_tail_p{p:g}_ms"] = (v * 1e3, "ms")
    named["recall"] = (res.recall, "ratio")
    named["peak_rss_mb"] = (rss, "MB")
    named["fail_ratio"] = (res.failed / res.attempted, "ratio")
    named["samples"] = (float(len(res.op_seconds)), "count")
    return e2e, named


def run(args, work: Path) -> dict:
    from lannsbench import layers, workloads
    from lannsbench.spans import Tracer

    spec = workloads.SPECS[args.workload].scaled(args.scale)
    cores = nproc()
    t0 = time.perf_counter()
    spark = start_spark(work, cores)
    spark_start_s = time.perf_counter() - t0
    tracer = Tracer(enabled=bool(args.trace))
    ctx = workloads.Ctx(spark, cores, tracer, str(work / "data"), args.seed)
    try:
        timed = workloads.TIMED[spec.name]
        st, setups = workloads.setup_repeated(ctx, spec, workloads.SETUP_REPEATS)
        if not args.trace:
            res = timed(ctx, spec, st, args.seconds)
            e2e, named = end_to_end(spec, st, res, statistics.median(setups))
            metrics = e2e
            extra = {"named": named, "setup_runs_s": setups, "op_seconds": res.op_seconds}
            attempted, failed, recalls = res.attempted, res.failed, [res.recall]
        else:
            half = args.seconds / 2
            tracer.enabled = False
            plain = timed(ctx, spec, st, half)
            tracer.enabled = True
            probes, finals = [], []
            if spec.name == "serve":
                layers.instrument_broker(st.broker, tracer, probes, finals)
            traced = timed(ctx, spec, st, half)
            serving = layers.serving_metrics(tracer, probes, finals) if finals else None
            metrics, notes = layers.measure(ctx, spec, st, serving)
            overhead = statistics.median(traced.op_seconds) / statistics.median(plain.op_seconds)
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            metrics["trace.spans"] = (float(len(tracer.spans)), "count")
            extra = {
                "notes": notes,
                "untraced": end_to_end(spec, st, plain, statistics.median(setups))[1],
                "traced": end_to_end(spec, st, traced, statistics.median(setups))[1],
                "self_times": tracer.self_times(),
            }
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            recalls = [plain.recall, traced.recall]
    finally:
        stop_spark(spark)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"{spec.name}-seed{args.seed}-spans.jsonl"
        tracer.dump(str(span_file))
        extra["span_file"] = str(span_file.relative_to(ROOT))
    meta = {
        "workload": spec.name, "why": spec.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "nproc": cores, "n_executors": cores, "dataset": spec.dataset,
        "n": spec.n, "n_queries": spec.n_queries, "batch": spec.batch,
        "topk": spec.topk, "ef": spec.ef, "hnsw_m": spec.hnsw_m,
        "ef_construction": spec.ef_construction,
        "shards_x_segments": f"{spec.n_shards}x{spec.n_segments}",
        "spill": spec.spill, "alpha": spec.alpha,
        "git_commit": git_commit(), "src_sha256_16": src_digest(),
        "spark_start_s": spark_start_s,
    }
    return {
        "meta": meta,
        "correct": failed == 0 and min(recalls) >= RECALL_FLOOR,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **extra,
    }


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    work = BENCH_DIR / "_work" / str(os.getpid())
    try:
        out = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(out, indent=2, default=float))
    print("meta " + json.dumps(out["meta"]))
    for name, (value, unit) in out.get("named", {}).items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, row in out.get("self_times", {}).items():
        print(f"self {name} calls={row['calls']} total_s={row['total_s']:.6g} "
              f"self_s={row['self_s']:.6g}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{'layer' if args.trace else 'e2e'} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
