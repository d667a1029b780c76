"""Table 7 — Physical vs virtual spill on the Groups stand-in:
R@15 and QPS across segment counts and spill fractions (APD)."""
from repro.core.index_store import IndexStore
from repro.eval.experiments import render_table
from repro.serving import Broker
from repro.synth_data import groups_like

from benchmarks.conftest import SCALE


def test_table7_groups_spill(spark, benchmark, groups_spill_rows):
    rows, work = groups_spill_rows
    render_table("table7", rows)
    ds = groups_like(n=max(2000, int(12_000 * SCALE)), n_queries=max(100, int(500 * SCALE)))
    broker = Broker(IndexStore(f"{work}/g-16-30-virtual"), ef=100)
    benchmark.pedantic(
        lambda: broker.benchmark(ds.queries, 15), rounds=1, iterations=1
    )
