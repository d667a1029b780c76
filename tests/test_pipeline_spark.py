"""Integration tests for the offline LANNS pipeline: build (Fig 6) +
query (Fig 7), with the final merge oracle-verified from checkpointed
partials and the index contents cross-checked against an independent
driver-side reference build."""
import os
import re

import numpy as np
import pandas as pd
import pytest

from repro.bruteforce.local import exact_topk
from repro.core import (
    IndexStore,
    build_index,
    per_shard_topk,
    query_index,
    route_queries,
    shard_of,
)
from repro.eval.recall import recall_at_k
from repro.oracle import assert_equivalent
from repro.segmenters import RandomSegmenter, learn_segmenter
from repro.serving import Broker
from repro.synth_data import gaussian_mixture, vectors_to_df
from tests.util import reference_partition_map


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=2000, dim=12, n_clusters=16, n_queries=60, seed=51)


@pytest.fixture(scope="module")
def df(spark, ds):
    d = vectors_to_df(spark, ds.base, ds.ids).cache()
    d.count()
    return d


@pytest.fixture(scope="module")
def gt(ds):
    ids, _ = exact_topk(ds.queries, ds.base, 20, ids=ds.ids)
    return ids


def _segmenter(kind, ds, m=2):
    return learn_segmenter(kind, m, sample=ds.base[:1000], alpha=0.15, seed=0)


@pytest.fixture(scope="module")
def apd_store_root(spark, ds, df, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pipe") / "apd")
    build_index(spark, df, root, _segmenter("APD", ds), 2, n_executors=4,
                ef_construction=60, hnsw_m=8)
    return root


class TestBuild:
    @pytest.mark.parametrize("kind", ["RS", "RH", "APD"])
    def test_partition_contents_match_reference(self, spark, ds, df, tmp_path, kind):
        seg = _segmenter(kind, ds)
        root = str(tmp_path / f"idx-{kind}")
        summary = build_index(spark, df, root, seg, 2, n_executors=4,
                              ef_construction=40, hnsw_m=8)
        ref = reference_partition_map(ds, seg, 2)
        store = IndexStore(root)
        assert set(store.list_partitions()) == set(ref.keys())
        for (s, m) in ref:
            idx = store.read_index(s, m)
            assert sorted(idx.ids.tolist()) == ref[(s, m)].tolist()
        assert summary["n_items"].sum() == ds.n

    def test_metadata_written(self, ds, apd_store_root):
        meta = IndexStore(apd_store_root).load_metadata()
        assert meta.n_shards == 2 and meta.n_segments == 2
        assert meta.segmenter_kind == "APD" and meta.dim == ds.dim
        assert meta.n_items == ds.n

    def test_segmenter_persisted(self, apd_store_root):
        seg = IndexStore(apd_store_root).load_segmenter()
        assert seg.kind == "APD" and seg.n_segments == 2

    def test_executor_bucket_counts(self, spark, ds, df, tmp_path):
        """E=2 buckets must still produce all 4 (shard, segment) indices."""
        seg = _segmenter("RS", ds)
        root = str(tmp_path / "e2")
        build_index(spark, df, root, seg, 2, n_executors=2, ef_construction=40)
        assert len(IndexStore(root).list_partitions()) == 4

    def test_empty_input_raises(self, spark, ds, df, tmp_path):
        empty = df.filter("id < 0")
        with pytest.raises(Exception):
            build_index(spark, empty, str(tmp_path / "empty"), _segmenter("RS", ds), 1)

    def test_build_deterministic(self, spark, ds, df, tmp_path):
        seg = _segmenter("RH", ds)
        roots = [str(tmp_path / f"det{i}") for i in range(2)]
        for r in roots:
            build_index(spark, df, r, seg, 2, n_executors=3, ef_construction=40)
        a, b = (IndexStore(r).read_index(0, 0) for r in roots)
        np.testing.assert_array_equal(a.ids, b.ids)
        q = ds.queries[:10]
        np.testing.assert_array_equal(a.search(q, 5, ef=50)[0], b.search(q, 5, ef=50)[0])


class TestQuery:
    @pytest.mark.parametrize("kind,min_recall", [("RS", 0.95), ("RH", 0.75), ("APD", 0.85)])
    def test_end_to_end_recall(self, spark, ds, df, gt, tmp_path, kind, min_recall):
        seg = _segmenter(kind, ds)
        root = str(tmp_path / f"q-{kind}")
        build_index(spark, df, root, seg, 2, n_executors=4, ef_construction=60, hnsw_m=8)
        res = query_index(spark, root, ds.queries, 20, ef=100, n_executors=4).toPandas()
        assert recall_at_k(res, gt, 20) >= min_recall

    def test_result_shape(self, spark, ds, apd_store_root):
        res = query_index(spark, apd_store_root, ds.queries, 10, ef=80).toPandas()
        per_q = res.groupby("query_id")["rank"].agg(["min", "max", "count"])
        assert (per_q["min"] == 1).all()
        assert (per_q["max"] == 10).all()
        assert (per_q["count"] == 10).all()
        assert res.groupby(["query_id", "neighbor_id"]).size().max() == 1

    def test_final_merge_oracle_from_partials(self, spark, ds, apd_store_root, tmp_path):
        """Re-derive the final result in DuckDB from the checkpointed
        partials parquet: two-level merge must match exactly."""
        ck = str(tmp_path / "ck")
        topk = 12
        res = query_index(
            spark, apd_store_root, ds.queries, topk, ef=80, checkpoint_dir=ck
        ).select("query_id", "neighbor_id", "dist", "rank")
        pdir = next(
            os.path.join(ck, d) for d in os.listdir(ck) if d.startswith("partials-")
        )
        partials = spark.read.parquet(pdir).toPandas()
        pstk = per_shard_topk(topk, 2, 0.95)
        sql = f"""
        WITH seg_merged AS (
          SELECT query_id, shard_id, neighbor_id, min(dist) AS dist
          FROM partials GROUP BY query_id, shard_id, neighbor_id
        ), shard_level AS (
          SELECT query_id, shard_id, neighbor_id, dist,
                 row_number() OVER (PARTITION BY query_id, shard_id
                                    ORDER BY dist, neighbor_id) AS r
          FROM seg_merged
        ), survivors AS (
          SELECT query_id, neighbor_id, min(dist) AS dist
          FROM shard_level WHERE r <= {pstk}
          GROUP BY query_id, neighbor_id
        )
        SELECT query_id, neighbor_id, dist, rank FROM (
          SELECT query_id, neighbor_id, dist,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY dist, neighbor_id) AS rank
          FROM survivors
        ) WHERE rank <= {topk}
        """
        assert_equivalent(res, sql, partials=partials)

    def test_checkpoint_stages_written(self, spark, ds, apd_store_root, tmp_path):
        ck = str(tmp_path / "stages")
        query_index(spark, apd_store_root, ds.queries[:10], 5, ef=50,
                    checkpoint_dir=ck).count()
        names = os.listdir(ck)
        for stage in ("query-partitions-", "partials-", "shard-results-"):
            assert any(n.startswith(stage) for n in names), (stage, names)

    def test_per_shard_topk_restricts_partials(self, spark, ds, apd_store_root):
        """perShardTopK < topK: per (query, shard), at most pstk survivors
        reach the broker-side merge."""
        topk = 20
        pstk = per_shard_topk(topk, 2, 0.95)
        assert pstk < topk
        res_on = query_index(spark, apd_store_root, ds.queries, topk, ef=100,
                             use_per_shard_topk=True).toPandas()
        res_off = query_index(spark, apd_store_root, ds.queries, topk, ef=100,
                              use_per_shard_topk=False).toPandas()
        # both still return exactly topk rows per query
        assert (res_on.groupby("query_id").size() == topk).all()
        assert (res_off.groupby("query_id").size() == topk).all()

    def test_recall_close_with_per_shard_topk(self, spark, ds, gt, apd_store_root):
        """Sec 5.3.2: the confidence interval keeps the recall drop tiny."""
        a = query_index(spark, apd_store_root, ds.queries, 20, ef=100,
                        use_per_shard_topk=True).toPandas()
        b = query_index(spark, apd_store_root, ds.queries, 20, ef=100,
                        use_per_shard_topk=False).toPandas()
        assert recall_at_k(a, gt, 20) >= recall_at_k(b, gt, 20) - 0.02

    @pytest.mark.parametrize("spill", ["virtual", "physical"])
    def test_matches_serving_broker(self, spark, ds, df, apd_store_root, tmp_path, spill):
        """Offline Spark pipeline ≡ online broker path on the same store,
        under either spill mode."""
        root = apd_store_root
        if spill == "physical":
            root = str(tmp_path / "apd-physical")
            build_index(spark, df, root, _segmenter("APD", ds), 2, spill=spill,
                        n_executors=4, ef_construction=60, hnsw_m=8)
        res = query_index(spark, root, ds.queries[:20], 10, ef=100).toPandas()
        broker = Broker(IndexStore(root), ef=100)
        for q in range(20):
            ids, _ = broker.search(ds.queries[q], 10)
            offline = res[res.query_id == q].sort_values("rank")["neighbor_id"]
            assert set(offline.tolist()) == set(ids.tolist())

    def test_plan_shuffles_ids_once_per_stage(self, spark, ds, apd_store_root):
        """Routing ships probe ids, not vectors, and the query plan has
        exactly two Exchanges: the executor-bucket shuffle and the one
        query_id shuffle both merge levels share."""
        store = IndexStore(apd_store_root)
        qdf = vectors_to_df(spark, ds.queries[:10], id_col="query_id")
        routed = route_queries(spark, qdf, store.load_segmenter(), 2)
        assert "vector" not in routed.columns
        res = query_index(spark, apd_store_root, ds.queries[:10], 5, ef=50)
        plan = res._jdf.queryExecution().executedPlan().toString()
        assert len(re.findall(r"\bExchange\b", plan)) == 2, plan


class TestEdges:
    def test_empty_segments_offline_matches_broker(self, spark, tmp_path):
        """RS(8) over 5 points leaves segments empty. The build writes an
        empty index for each, so the Spark query and the broker both read
        every segment and agree, also with topk > n."""
        g = np.random.default_rng(3)
        base = g.normal(size=(5, 6)).astype(np.float32)
        queries = g.normal(size=(4, 6)).astype(np.float32)
        root = str(tmp_path / "tiny")
        summary = build_index(spark, vectors_to_df(spark, base, np.arange(5)), root,
                              RandomSegmenter(8), 2, n_executors=4, ef_construction=20)
        store = IndexStore(root)
        assert len(summary) < 16 and summary["n_items"].sum() == 5
        assert (summary["dim"] == 6).all()
        assert store.list_partitions() == [(s, m) for s in range(2) for m in range(8)]
        assert store.load_metadata().dim == 6
        res = query_index(spark, root, queries, 10, ef=50).toPandas()
        broker = Broker(store, ef=50)
        for q in range(len(queries)):
            ids, _ = broker.search(queries[q], 10)
            offline = res[res.query_id == q].sort_values("rank")["neighbor_id"]
            assert sorted(offline.tolist()) == sorted(ids.tolist()) == list(range(5))

    def test_mixed_dimensions_raise(self, spark, tmp_path):
        """The dimension comes from the build tasks; partitions that
        disagree fail the build instead of writing a wrong ``meta.dim``."""
        g = np.random.default_rng(4)
        ids = np.arange(40, dtype=np.int64)
        shard = shard_of(ids, 2)
        parts = [vectors_to_df(spark, g.normal(size=(int((shard == s).sum()), 3 + s)),
                               ids[shard == s]) for s in (0, 1)]
        with pytest.raises(ValueError, match="mixed dimensions"):
            build_index(spark, parts[0].union(parts[1]), str(tmp_path / "mixed"),
                        RandomSegmenter(1), 2, ef_construction=20)

    @pytest.mark.parametrize("case", ["one_vector", "wrong_dim", "nan", "inf"])
    def test_bad_queries_rejected_before_any_job(self, spark, ds, apd_store_root, case):
        queries = ds.queries[:4].copy()
        if case == "one_vector":
            queries = queries[0]
        elif case == "wrong_dim":
            queries = queries[:, :-1]
        else:
            queries[2, 1] = np.nan if case == "nan" else np.inf
        sc = spark.sparkContext
        sc.setJobGroup("bad-queries", "query_index on invalid queries")
        try:
            with pytest.raises(ValueError):
                query_index(spark, apd_store_root, queries, 5, ef=50).toPandas()
            assert list(sc.statusTracker().getJobIdsForGroup("bad-queries")) == []
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
