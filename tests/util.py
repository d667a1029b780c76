"""Test helpers: a driver-side reference implementation of the LANNS
build, independent of the Spark pipeline, used both to feed the serving
tests without Spark and to cross-check the Spark pipeline's partition
contents."""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.index_store import IndexMetadata, IndexStore
from repro.core.partitioner import shard_of
from repro.hnsw.graph import HNSWIndex
from repro.segmenters.base import Segmenter
from repro.synth_data import AnnDataset


def reference_partition_map(
    ds: AnnDataset, segmenter: Segmenter, n_shards: int, *, spill: str = "virtual"
) -> dict[tuple[int, int], np.ndarray]:
    """(shard, segment) -> sorted external ids, computed on the driver."""
    shards = shard_of(ds.ids, n_shards)
    seg_lists = segmenter.assign(ds.base, ds.ids, spill=spill)
    out: dict[tuple[int, int], list[int]] = {}
    for i in range(ds.n):
        for m in seg_lists[i]:
            out.setdefault((int(shards[i]), int(m)), []).append(int(ds.ids[i]))
    return {k: np.asarray(sorted(v), dtype=np.int64) for k, v in out.items()}


def build_local_store(
    ds: AnnDataset,
    root: str,
    segmenter: Segmenter,
    n_shards: int,
    *,
    spill: str = "virtual",
    hnsw_m: int = 8,
    ef_construction: int = 60,
    seed: int = 0,
) -> IndexStore:
    """Build a complete LANNS index store without Spark (for serving
    tests and as ground truth for pipeline tests); like ``build_index``,
    it writes an empty index for every segment no point reached."""
    store = IndexStore(root)
    parts = reference_partition_map(ds, segmenter, n_shards, spill=spill)
    id_to_row = {int(i): r for r, i in enumerate(ds.ids)}
    for s, m in itertools.product(range(n_shards), range(segmenter.n_segments)):
        ids = parts.get((s, m), np.empty(0, np.int64))
        rows = np.asarray([id_to_row[int(i)] for i in ids], dtype=np.intp)
        idx = HNSWIndex(
            ds.dim, M=hnsw_m, ef_construction=ef_construction, metric=ds.metric,
            seed=seed + 1_000_003 * s + m,
        )
        idx.add_items(ds.base[rows], ids)
        store.write_index_bytes(s, m, idx.to_bytes())
    store.save_segmenter(segmenter)
    store.save_metadata(
        IndexMetadata(
            dim=ds.dim, metric=ds.metric, n_shards=n_shards,
            n_segments=segmenter.n_segments, segmenter_kind=segmenter.kind,
            spill=spill, alpha=float(getattr(segmenter, "alpha", 0.0)),
            hnsw_m=hnsw_m, hnsw_ef_construction=ef_construction,
            n_items=int(sum(len(v) for v in parts.values())),
        )
    )
    return store
