"""Table 5 — Build times on the GIST1M stand-in vs executor count."""
from repro.core.indexing import build_index
from repro.eval.experiments import render_table
from repro.segmenters import learn_segmenter
from repro.synth_data import gist_like, vectors_to_df

from benchmarks.conftest import SCALE


def test_table5_gist_build(spark, benchmark, gist_sweep, tmp_path):
    res, _ = gist_sweep
    render_table("table5", res)
    ds = gist_like(n=max(1500, int(10_000 * SCALE)), n_queries=40)
    df = vectors_to_df(spark, ds.base, ds.ids).cache(); df.count()
    seg = learn_segmenter("RS", 8)
    benchmark.pedantic(
        lambda: build_index(spark, df, str(tmp_path / "b"), seg, 1,
                            n_executors=8, hnsw_m=12, ef_construction=100),
        rounds=1, iterations=1,
    )
    df.unpersist()
