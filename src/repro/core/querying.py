"""Partitioned query pipeline (paper Sec 5.3, Fig 7).

Stages, each one a DataFrame transformation:

1. the query set is repartitioned into query partitions and persisted to
   "HDFS" (a parquet checkpoint — Sec 5.3.1's time-out mitigation, also
   applied after every later stage);
2. a *SearchExecutorContext* is formed: each query is routed to every
   shard × the segment(s) the broadcast segmenter selects for it, and
   the (shard, segment) probes are grouped into executor buckets, bucket
   ``b`` on Spark task ``b`` (DESIGN.md substitution #4). Only the probe ids
   (query_id, segment_id, shard_id) are shuffled; the query vectors reach
   every task through one broadcast, as in the brute force (Fig 8);
3. partial search: each bucket task loads its (shard, segment) HNSW
   indices from the store and searches its queries with k =
   ``perShardTopK`` (Sec 5.3.2 — propagated unchanged to segments);
4. segment-level merge per (query, shard) — in production this happens
   inside the shard's server node;
5. shard-level merge per query — the broker-side final merge.

Merges are Catalyst-planned window row_number() over (dist, neighbor_id)
(see ``repro.bruteforce.spark_bf.merge_topk``). The partials are
hash-partitioned on query_id once, which already clusters both merge
levels, so neither plans another shuffle.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.bruteforce.spark_bf import checkpoint, merge_topk
from repro.core.index_store import IndexStore
from repro.core.partitioner import executor_bucket, route_queries
from repro.core.topk import per_shard_topk
from repro.hnsw.distance import check_vectors
from repro.synth_data import vectors_to_df

PARTIAL_SCHEMA = (
    "query_id long, shard_id long, segment_id long, neighbor_id long, dist double"
)


def query_index(
    spark: SparkSession,
    store_root: str,
    queries: np.ndarray,
    topk: int,
    *,
    ef: int | None = None,
    confidence: float = 0.95,
    use_per_shard_topk: bool = True,
    n_executors: int | None = None,
    checkpoint_dir: str | None = None,
    n_query_partitions: int | None = None,
) -> DataFrame:
    """Search the stored index for the top-``topk`` neighbors of each query.

    Returns (query_id, neighbor_id, dist, rank) with rank 1..topk
    ascending by (dist, neighbor_id); query ids are row indices of
    ``queries``. Raises ``ValueError`` before any Spark job unless
    ``queries`` is an (n, dim) matrix of finite values.
    """
    store = IndexStore(store_root)
    meta = store.load_metadata()
    queries = check_vectors(queries, meta.dim)
    segmenter = store.load_segmenter()
    n_parts = meta.n_shards * meta.n_segments
    n_exec = min(n_executors or n_parts, n_parts)
    pstk = (
        per_shard_topk(topk, meta.n_shards, confidence)
        if use_per_shard_topk
        else topk
    )

    bq = spark.sparkContext.broadcast(queries)
    qdf = vectors_to_df(spark, queries, id_col="query_id")
    if n_query_partitions:
        qdf = qdf.repartition(n_query_partitions)
    if checkpoint_dir is not None:  # Fig 7: query partitions persisted first
        qdf = checkpoint(qdf, spark, checkpoint_dir, "query-partitions")

    routed = route_queries(
        spark, qdf, segmenter, meta.n_shards, spill=meta.spill, id_col="query_id"
    ).withColumn("bucket", executor_bucket(meta.n_segments, n_exec))

    root, ef_eff = store.root, ef

    def search_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        local_store = IndexStore(root)
        frames = []
        for (s, m), grp in sorted(pdf.groupby(["shard_id", "segment_id"])):
            idx = local_store.read_index(int(s), int(m))
            qids = grp["query_id"].to_numpy(np.int64)
            nn_ids, nn_d = idx.search(bq.value[qids], pstk, ef=ef_eff)
            kk = nn_ids.shape[1]
            if kk == 0:
                continue
            frames.append(
                pd.DataFrame(
                    {
                        "query_id": np.repeat(qids, kk),
                        "shard_id": np.int64(s),
                        "segment_id": np.int64(m),
                        "neighbor_id": nn_ids.reshape(-1),
                        "dist": nn_d.reshape(-1).astype(np.float64),
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                columns=["query_id", "shard_id", "segment_id", "neighbor_id", "dist"]
            )
        return pd.concat(frames, ignore_index=True)

    partials = (
        routed.repartition(n_exec, "bucket")
        .groupBy("bucket")
        .applyInPandas(lambda _, pdf: search_bucket(pdf), schema=PARTIAL_SCHEMA)
    )
    if checkpoint_dir is not None:
        partials = checkpoint(partials, spark, checkpoint_dir, "partials")

    # Level 1: segment merge within (query, shard) — keeps perShardTopK.
    shard_results = merge_topk(
        partials.repartition("query_id"), pstk, by=("query_id", "shard_id")
    ).drop("rank")
    if checkpoint_dir is not None:  # the re-read loses the partitioning
        shard_results = checkpoint(
            shard_results, spark, checkpoint_dir, "shard-results"
        ).repartition("query_id")

    # Level 2: shard merge per query — the broker-side final topK.
    return merge_topk(shard_results.drop("shard_id"), topk, by=("query_id",))
