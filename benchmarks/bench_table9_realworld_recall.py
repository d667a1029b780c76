"""Table 9 — Recall for the real-world dataset proxies (paper: >= 95%)."""
import numpy as np

from repro.bruteforce.local import exact_topk
from repro.eval.experiments import render_table
from repro.synth_data import pymk_like


def test_table9_realworld_recall(spark, benchmark, realworld_rows):
    rows, _ = realworld_rows
    render_table("table9", rows)
    ds = pymk_like(n=4000, n_queries=200)
    benchmark.pedantic(
        lambda: exact_topk(ds.queries, ds.base, 100, ids=ds.ids),
        rounds=1, iterations=1,
    )
