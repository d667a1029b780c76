"""Two-level partition tagging (paper Sec 4, Fig 6-7).

Level 1 — *sharding*: a point's key hashes to exactly one shard
(``mix64 % S``); no locality, so queries fan out to all shards.
Level 2 — *segmentation*: the broadcast segmenter maps each point to one
or more segments within its shard (and each query to the segment(s) it
must probe). Both taggers are DataFrame → DataFrame transformations with
the numpy work inside Arrow-backed ``mapInPandas``.

The build and the query jobs then place the (shard, segment) groups on
*executor buckets* (DESIGN.md substitution #4): ``executor_bucket`` gives
every bucket a key that ``repartition(E, key)`` sends to its own task.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.segmenters.base import Segmenter, mix64

SHARD_SALT = 7  # distinct from the RS segmenter salt (see random_segmenter)
_M32 = 0xFFFFFFFF


def shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard id per external id (Sec 4.1 hash sharding)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return (mix64(np.asarray(ids, dtype=np.int64), SHARD_SALT) % np.uint64(n_shards)).astype(
        np.int64
    )


def tag_partitions(
    spark: SparkSession,
    df: DataFrame,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    id_col: str = "id",
    vec_col: str = "vector",
) -> DataFrame:
    """Tag every data point with (shard_id, segment_id) — Fig 6's tagging.

    Output has one row per (point, segment) pair: with physical spill a
    point inside a boundary band appears in both children's segments.
    """
    bseg = spark.sparkContext.broadcast(segmenter)

    def tag(batches):
        seg = bseg.value
        for pdf in batches:
            if pdf.empty:
                continue
            ids = pdf[id_col].to_numpy(np.int64)
            vecs = np.stack(pdf[vec_col].to_numpy()).astype(np.float32)
            shards = shard_of(ids, n_shards)
            seg_lists = seg.assign(vecs, ids, spill=spill)
            counts = np.asarray([len(s) for s in seg_lists])
            rep = np.repeat(np.arange(len(ids)), counts)
            out = pdf.iloc[rep][[id_col, vec_col]].reset_index(drop=True)
            out["shard_id"] = shards[rep]
            out["segment_id"] = np.concatenate(seg_lists) if len(seg_lists) else []
            yield out

    schema = f"{id_col} long, {vec_col} array<float>, shard_id long, segment_id long"
    return df.select(id_col, vec_col).mapInPandas(tag, schema=schema)


def route_queries(
    spark: SparkSession,
    queries_df: DataFrame,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    id_col: str = "query_id",
    vec_col: str = "vector",
) -> DataFrame:
    """Fan each query out to every shard × its routed segment(s) (Fig 7).

    Output: one ``(query_id, segment_id, shard_id)`` row per probe, with no
    vector — the query job broadcasts the query matrix instead of
    shuffling a copy of it per probe. Sharding is hash-based so every
    query visits all S shards; segment fan-out is the segmenter's routing
    decision under the given spill mode.
    """
    bseg = spark.sparkContext.broadcast(segmenter)

    def route(batches):
        seg = bseg.value
        for pdf in batches:
            if pdf.empty:
                continue
            vecs = np.stack(pdf[vec_col].to_numpy()).astype(np.float32)
            seg_lists = seg.route(vecs, spill=spill)
            counts = np.asarray([len(s) for s in seg_lists])
            qids = np.repeat(pdf[id_col].to_numpy(np.int64), counts)
            segs = np.concatenate(seg_lists).astype(np.int64)
            # cross with all shards
            yield pd.DataFrame(
                {
                    id_col: np.tile(qids, n_shards),
                    "segment_id": np.tile(segs, n_shards),
                    "shard_id": np.repeat(np.arange(n_shards, dtype=np.int64), len(qids)),
                }
            )

    schema = f"{id_col} long, segment_id long, shard_id long"
    return queries_df.select(id_col, vec_col).mapInPandas(route, schema=schema)


def spark_hash_long(k: int) -> int:
    """Spark's ``Murmur3_x86_32.hashLong`` with seed 42: ``F.hash`` of a long
    column, and the hash ``repartition(n, col)`` takes ``pmod`` of."""

    def mix(h: int, word: int) -> int:  # mixK1, then mixH1
        word = (word * 0xCC9E2D51) & _M32
        word = ((word << 15) | (word >> 17)) & _M32
        h ^= (word * 0x1B873593) & _M32
        h = ((h << 13) | (h >> 19)) & _M32
        return (h * 5 + 0xE6546B64) & _M32

    h = mix(mix(42, k & _M32), (k >> 32) & _M32) ^ 8  # fmix(h, 8 bytes)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _M32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _M32
    h ^= h >> 16
    return h - (1 << 32) if h & 0x80000000 else h


def executor_bucket(n_segments: int, n_exec: int) -> Column:
    """The executor bucket ``b = (shard_id·m + segment_id) mod E`` as a long
    key that ``repartition(E, key)`` places in partition ``b``.

    Hashing ``b`` itself collides (E=2 puts both buckets in one task), so
    each ``b`` maps to the smallest non-negative ``k`` with
    ``pmod(spark_hash_long(k), E) == b``, found here on the driver.
    """
    keys: dict[int, int] = {}
    k = 0
    while len(keys) < n_exec:
        keys.setdefault(spark_hash_long(k) % n_exec, k)  # Python % is pmod
        k += 1
    b = (F.col("shard_id") * F.lit(n_segments) + F.col("segment_id")) % F.lit(n_exec)
    table = F.array(*[F.lit(keys[i]).cast("long") for i in range(n_exec)])
    return F.element_at(table, (b + 1).cast("int"))
