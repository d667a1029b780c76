"""Table 3 — Query times (ms/query) on the SIFT1M stand-in."""
from repro.core.querying import query_index
from repro.eval.experiments import render_table
from repro.synth_data import sift_like

from benchmarks.conftest import SCALE


def test_table3_sift_query(spark, benchmark, sift_sweep):
    res, work = sift_sweep
    render_table("table3", res)
    ds = sift_like(n=max(2000, int(20_000 * SCALE)), n_queries=max(50, int(400 * SCALE)))
    benchmark.pedantic(
        lambda: query_index(spark, f"{work}/RS_2_4-E8", ds.queries, 100, ef=160).count(),
        rounds=1, iterations=1,
    )
