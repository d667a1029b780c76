"""The broker: fan-out, perShardTopK, final merge, QPS/latency stats
(paper Sec 7, Fig 9 — and the measurement vehicle for Table 7)."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.topk import merge_topk_arrays, per_shard_topk
from repro.hnsw.distance import check_vectors
from repro.serving.searcher import Searcher


@dataclass(frozen=True)
class ServingStats:
    """Throughput/latency summary over a query batch."""

    n_queries: int
    qps: float
    p50_ms: float
    p99_ms: float


class Broker:
    """Client-facing node: computes perShardTopK, merges shard responses."""

    def __init__(
        self,
        store: IndexStore,
        *,
        ef: int | None = None,
        confidence: float = 0.95,
        use_per_shard_topk: bool = True,
    ):
        self.meta = store.load_metadata()
        self.confidence = confidence
        self.use_per_shard_topk = use_per_shard_topk
        self.searchers = [
            Searcher(store, s, ef=ef) for s in range(self.meta.n_shards)
        ]

    def search(self, query: np.ndarray, topk: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k over all shards; returns (ids, dists) ascending.

        ``ValueError``, before any searcher is asked, unless ``query`` is
        one finite vector of the index's dimension.
        """
        if np.ndim(query) != 1:
            raise ValueError(f"expected one query vector, got shape {np.shape(query)}")
        query = check_vectors(np.reshape(query, (1, -1)), self.meta.dim)
        pstk = (
            per_shard_topk(topk, self.meta.n_shards, self.confidence)
            if self.use_per_shard_topk
            else topk
        )
        hits = [searcher.search(query, pstk) for searcher in self.searchers]
        return merge_topk_arrays(  # broker-side fan-out + final merge
            np.concatenate([i for i, _ in hits]),
            np.concatenate([d for _, d in hits]),
            topk,
        )

    def benchmark(
        self, queries: np.ndarray, topk: int
    ) -> tuple[list[np.ndarray], ServingStats]:
        """Run every query sequentially, recording per-query latency.

        Returns the per-query result id arrays and a ServingStats with
        QPS (queries / total wall time) and latency percentiles — the
        quantities Table 7 reports per spill configuration.
        """
        queries = np.asarray(queries, dtype=np.float32)
        lat = np.empty(queries.shape[0])
        out: list[np.ndarray] = []
        t_all = time.perf_counter()
        for i in range(queries.shape[0]):
            t0 = time.perf_counter()
            ids, _ = self.search(queries[i], topk)
            lat[i] = time.perf_counter() - t0
            out.append(ids)
        total = time.perf_counter() - t_all
        stats = ServingStats(
            n_queries=queries.shape[0],
            qps=queries.shape[0] / total if total > 0 else float("inf"),
            p50_ms=float(np.percentile(lat, 50) * 1000),
            p99_ms=float(np.percentile(lat, 99) * 1000),
        )
        return out, stats
