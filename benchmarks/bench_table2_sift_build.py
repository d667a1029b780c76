"""Table 2 — Build times on the SIFT1M stand-in vs executor count."""
from repro.core.indexing import build_index
from repro.eval.experiments import render_table
from repro.segmenters import learn_segmenter
from repro.synth_data import sift_like, vectors_to_df

from benchmarks.conftest import SCALE


def test_table2_sift_build(spark, benchmark, sift_sweep, tmp_path):
    res, _ = sift_sweep
    render_table("table2", res)
    ds = sift_like(n=max(2000, int(20_000 * SCALE)), n_queries=50)
    df = vectors_to_df(spark, ds.base, ds.ids).cache(); df.count()
    seg = learn_segmenter("RS", 8)
    # representative op: one segmented build at 8 executors
    benchmark.pedantic(
        lambda: build_index(spark, df, str(tmp_path / "b"), seg, 1,
                            n_executors=8, hnsw_m=12, ef_construction=100),
        rounds=1, iterations=1,
    )
    df.unpersist()
