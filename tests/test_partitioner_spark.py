"""Tests for the two-level tagging / routing (repro.core.partitioner),
oracle-verified against an independent driver-side reference."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.partitioner import (
    executor_bucket,
    route_queries,
    shard_of,
    spark_hash_long,
    tag_partitions,
)
from repro.oracle import assert_equivalent
from repro.segmenters import RandomSegmenter, learn_rh_segmenter
from repro.synth_data import gaussian_mixture, vectors_to_df
from tests.util import reference_partition_map


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=1200, dim=10, n_clusters=8, n_queries=80, seed=41)


@pytest.fixture(scope="module")
def df(spark, ds):
    return vectors_to_df(spark, ds.base, ds.ids).cache()


@pytest.fixture(scope="module")
def rh(ds):
    return learn_rh_segmenter(ds.base[:600], 4, alpha=0.15, seed=0)


class TestShardOf:
    def test_deterministic(self, ds):
        np.testing.assert_array_equal(shard_of(ds.ids, 5), shard_of(ds.ids, 5))

    def test_range(self, ds):
        s = shard_of(ds.ids, 7)
        assert s.min() >= 0 and s.max() < 7

    def test_balanced(self, ds):
        counts = np.bincount(shard_of(ds.ids, 4), minlength=4)
        assert counts.min() > 0.7 * ds.n / 4

    def test_single_shard(self, ds):
        assert set(shard_of(ds.ids, 1).tolist()) == {0}

    def test_invalid(self, ds):
        with pytest.raises(ValueError):
            shard_of(ds.ids, 0)


class TestTagPartitions:
    def _reference_pdf(self, ds, seg, n_shards, spill):
        ref = reference_partition_map(ds, seg, n_shards, spill=spill)
        rows = [
            (int(i), s, m) for (s, m), ids in ref.items() for i in ids
        ]
        return pd.DataFrame(rows, columns=["id", "shard_id", "segment_id"])

    @pytest.mark.parametrize("spill", ["virtual", "physical"])
    def test_oracle_counts_match_reference(self, spark, ds, df, rh, spill):
        """Per-(shard, segment) row counts from the Spark tagging equal
        the independent numpy reference (DuckDB group-by as the diff)."""
        tagged = tag_partitions(spark, df, rh, 2, spill=spill)
        got = tagged.groupBy("shard_id", "segment_id").agg(
            F.count(F.lit(1)).alias("cnt")
        )
        assert_equivalent(
            got,
            "SELECT shard_id, segment_id, count(*) AS cnt FROM ref GROUP BY shard_id, segment_id",
            ref=self._reference_pdf(ds, rh, 2, spill),
        )

    def test_oracle_exact_membership(self, spark, ds, df, rh):
        """Exact (id, shard, segment) membership equality, not just counts."""
        tagged = tag_partitions(spark, df, rh, 3).select("id", "shard_id", "segment_id")
        assert_equivalent(
            tagged,
            "SELECT id, shard_id, segment_id FROM ref",
            ref=self._reference_pdf(ds, rh, 3, "virtual"),
        )

    def test_virtual_spill_no_duplication(self, spark, ds, df, rh):
        assert tag_partitions(spark, df, rh, 2, spill="virtual").count() == ds.n

    def test_physical_spill_duplicates(self, spark, ds, df, rh):
        assert tag_partitions(spark, df, rh, 2, spill="physical").count() > ds.n

    def test_rs_tagging(self, spark, ds, df):
        seg = RandomSegmenter(4)
        tagged = tag_partitions(spark, df, seg, 2).select("id", "shard_id", "segment_id")
        assert_equivalent(
            tagged,
            "SELECT id, shard_id, segment_id FROM ref",
            ref=self._reference_pdf(ds, seg, 2, "virtual"),
        )

    def test_vectors_preserved(self, spark, ds, df, rh):
        tagged = tag_partitions(spark, df, rh, 2).toPandas()
        row = tagged[tagged.id == int(ds.ids[5])].iloc[0]
        np.testing.assert_allclose(np.asarray(row["vector"]), ds.base[5], rtol=1e-6)


class TestRouteQueries:
    @pytest.fixture(scope="class")
    def qdf(self, spark, ds):
        return vectors_to_df(spark, ds.queries, id_col="query_id").cache()

    def test_every_query_visits_every_shard(self, spark, ds, qdf, rh):
        routed = route_queries(spark, qdf, rh, 3).toPandas()
        per_q = routed.groupby("query_id")["shard_id"].nunique()
        assert (per_q == 3).all()

    def test_fanout_matches_segmenter(self, spark, ds, qdf, rh):
        routed = route_queries(spark, qdf, rh, 2).toPandas()
        expect = rh.route(ds.queries, spill="virtual")
        for q in range(ds.queries.shape[0]):
            got = set(
                routed[(routed.query_id == q) & (routed.shard_id == 0)][
                    "segment_id"
                ].tolist()
            )
            assert got == set(int(x) for x in expect[q])

    def test_rs_routes_everywhere(self, spark, ds, qdf):
        seg = RandomSegmenter(4)
        routed = route_queries(spark, qdf, seg, 2)
        assert routed.count() == ds.queries.shape[0] * 2 * 4

    def test_physical_spill_single_probe_per_shard(self, spark, ds, qdf, rh):
        routed = route_queries(spark, qdf, rh, 2, spill="physical").toPandas()
        per = routed.groupby(["query_id", "shard_id"]).size()
        assert (per == 1).all()


class TestExecutorBucket:
    def test_hash_matches_spark(self, spark):
        """The driver-side Murmur3 equals ``F.hash`` on longs of every sign
        and width."""
        keys = list(range(-300, 300)) + [2**31 - 1, 2**31, -(2**31) - 1, 2**32 + 5,
                                         2**62, -(2**62), 2**63 - 1, -(2**63)]
        rows = spark.createDataFrame([(k,) for k in keys], "k long").select(
            "k", F.hash("k").alias("h")
        ).collect()
        assert len(rows) == len(keys)
        for r in rows:
            assert spark_hash_long(r["k"]) == r["h"], r["k"]

    @pytest.mark.parametrize("n_exec", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_bucket_b_runs_on_task_b(self, spark, n_exec):
        """After ``repartition(E, "bucket")`` — the shuffle both the build
        and the query job run — Spark task b holds exactly the
        (shard, segment) groups of bucket (s·m + seg) mod E = b."""
        n_shards, n_segments = 2, 8
        groups = spark.createDataFrame(
            [(s, m) for s in range(n_shards) for m in range(n_segments)],
            "shard_id long, segment_id long",
        )
        placed = (
            groups.withColumn("bucket", executor_bucket(n_segments, n_exec))
            .repartition(n_exec, "bucket")
            .select("shard_id", "segment_id", F.spark_partition_id().alias("task"))
            .toPandas()
        )
        index = (placed["shard_id"] * n_segments + placed["segment_id"]) % n_exec
        assert len(placed) == n_shards * n_segments
        assert (placed["task"] == index).all(), placed.assign(index=index)
