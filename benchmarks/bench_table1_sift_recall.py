"""Table 1 — Recall on the SIFT1M stand-in: HNSW vs RS/RH/APD at
(1,8)- and (2,4)-partitioning, R@{1,5,10,15,50,100}."""
from repro.core.querying import query_index
from repro.eval.experiments import render_table
from repro.synth_data import sift_like

from benchmarks.conftest import SCALE


def test_table1_sift_recall(spark, benchmark, sift_sweep):
    res, work = sift_sweep
    render_table("table1", res)
    ds = sift_like(n=max(2000, int(20_000 * SCALE)), n_queries=max(50, int(400 * SCALE)))
    # representative op: one full pipeline query pass on the APD(1,8) store
    benchmark.pedantic(
        lambda: query_index(spark, f"{work}/APD_1_8-E8", ds.queries, 100, ef=160).count(),
        rounds=1, iterations=1,
    )
