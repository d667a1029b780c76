"""Table 4 — Recall on the GIST1M stand-in, (1,8)-partitioning."""
from repro.core.querying import query_index
from repro.eval.experiments import render_table
from repro.synth_data import gist_like

from benchmarks.conftest import SCALE


def test_table4_gist_recall(spark, benchmark, gist_sweep):
    res, work = gist_sweep
    render_table("table4", res)
    ds = gist_like(n=max(1500, int(10_000 * SCALE)), n_queries=max(40, int(200 * SCALE)))
    benchmark.pedantic(
        lambda: query_index(spark, f"{work}/APD_1_8-E8", ds.queries, 100, ef=160).count(),
        rounds=1, iterations=1,
    )
