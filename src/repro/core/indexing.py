"""Offline index build pipeline (paper Sec 5.2, Fig 6).

Dataflow, at the DataFrame layer throughout:

1. the pre-learnt segmenter is broadcast to executors and every document
   is tagged with its shard id and segment id(s) (``tag_partitions``);
2. the tagged dataset is repartitioned by (shard, segment) — grouped into
   *executor buckets* to model a cluster with E executors (DESIGN.md
   substitution #4): bucket ``(s·m + seg) mod E`` is Spark task number
   ``b`` (``executor_bucket``), which builds its (shard, segment) groups
   sequentially, exactly like one executor draining its task queue;
3. each group's HNSW index is built inside the task and serialized to the
   index store ("HDFS") *from the executor itself*;
4. from the driver: an empty index for every (shard, segment) no point
   reached, so that every segment the segmenter can route to exists, then
   the metadata + the segmenter. The vector dimension comes from the
   tasks' summary rows; no extra job reads the input again to learn it.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.index_store import IndexMetadata, IndexStore
from repro.core.partitioner import executor_bucket, tag_partitions
from repro.hnsw.graph import HNSWIndex
from repro.segmenters.base import Segmenter, validate_spill

BUILD_SUMMARY_SCHEMA = (
    "shard_id long, segment_id long, n_items long, dim long, path string,"
    " build_seconds double"
)


def build_index(
    spark: SparkSession,
    df: DataFrame,
    store_root: str,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    metric: str = "l2",
    hnsw_m: int = 12,
    ef_construction: int = 100,
    n_executors: int | None = None,
    seed: int = 0,
    id_col: str = "id",
    vec_col: str = "vector",
) -> pd.DataFrame:
    """Build a two-level partitioned LANNS index; returns the build summary
    (shard, segment, n_items, dim, path, build_seconds) of every partition
    that received points."""
    validate_spill(spill)
    store = IndexStore(store_root)
    n_segments = segmenter.n_segments
    n_parts = n_shards * n_segments
    n_exec = min(n_executors or n_parts, n_parts)

    tagged = tag_partitions(
        spark, df, segmenter, n_shards, spill=spill, id_col=id_col, vec_col=vec_col
    ).withColumn("bucket", executor_bucket(n_segments, n_exec))

    root = store.root

    def new_index(s: int, m: int, dim: int) -> HNSWIndex:
        return HNSWIndex(
            dim,
            M=hnsw_m,
            ef_construction=ef_construction,
            metric=metric,
            seed=seed + 1_000_003 * s + m,
        )

    def build_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        local_store = IndexStore(root)
        for (s, m), grp in sorted(pdf.groupby(["shard_id", "segment_id"])):
            grp = grp.sort_values(id_col)  # deterministic insertion order
            vecs = np.stack(grp[vec_col].to_numpy()).astype(np.float32)
            ids = grp[id_col].to_numpy(np.int64)
            t0 = time.perf_counter()
            idx = new_index(int(s), int(m), vecs.shape[1])
            idx.add_items(vecs, ids)
            blob = idx.to_bytes()
            path = local_store.write_index_bytes(int(s), int(m), blob)
            rows.append(
                {
                    "shard_id": int(s),
                    "segment_id": int(m),
                    "n_items": int(len(ids)),
                    "dim": int(vecs.shape[1]),
                    "path": path,
                    "build_seconds": time.perf_counter() - t0,
                }
            )
        return pd.DataFrame(
            rows,
            columns=["shard_id", "segment_id", "n_items", "dim", "path", "build_seconds"],
        )

    summary = (
        tagged.repartition(n_exec, "bucket")
        .groupBy("bucket")
        .applyInPandas(lambda _, pdf: build_bucket(pdf), schema=BUILD_SUMMARY_SCHEMA)
        .toPandas()
        .sort_values(["shard_id", "segment_id"])
        .reset_index(drop=True)
    )
    if summary.empty:
        raise ValueError("build produced no partitions — is the input empty?")
    dims = summary["dim"].unique()
    if len(dims) != 1:
        raise ValueError(f"input vectors have mixed dimensions {sorted(dims)}")
    dim = int(dims[0])

    # Driver-side: empty segments, metadata + segmenter (Fig 6).
    built = set(zip(summary["shard_id"].tolist(), summary["segment_id"].tolist()))
    for s in range(n_shards):
        for m in range(n_segments):
            if (s, m) not in built:
                store.write_index_bytes(s, m, new_index(s, m, dim).to_bytes())
    store.save_segmenter(segmenter)
    store.save_metadata(
        IndexMetadata(
            dim=dim,
            metric=metric,
            n_shards=n_shards,
            n_segments=n_segments,
            segmenter_kind=segmenter.kind,
            spill=spill,
            alpha=float(getattr(segmenter, "alpha", 0.0)),
            hnsw_m=hnsw_m,
            hnsw_ef_construction=ef_construction,
            n_items=int(summary["n_items"].sum()),
        )
    )
    return summary
