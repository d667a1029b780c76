"""Output checks. Every violation is counted against the operation that
produced it and ends up in ``failed``; nothing is dropped or resized away.

A query result is an ``(ids, dists)`` pair of 1-d arrays. It is valid when
it holds exactly ``min(K, n)`` distinct ids, every id names a base vector,
and the distances are finite and ascending.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def result_ok(ids: np.ndarray, dists: np.ndarray, k: int, n: int) -> bool:
    ids, dists = np.asarray(ids), np.asarray(dists, dtype=np.float64)
    return (
        ids.shape == dists.shape == (min(k, n),)
        and len(np.unique(ids)) == ids.shape[0]
        and bool(np.all((ids >= 0) & (ids < n)))
        and bool(np.all(np.isfinite(dists)))
        and bool(np.all(np.diff(dists) >= 0))
    )


def query_violations(results, k: int, n: int) -> int:
    """Number of results in ``results`` that are not valid."""
    return sum(not result_ok(ids, d, k, n) for ids, d in results)


def rows_to_lists(out: pd.DataFrame, n_queries: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``query_index`` rows -> one ``(ids, dists)`` per query, by rank."""
    out = out.sort_values(["query_id", "rank"])
    qid = out["query_id"].to_numpy(np.int64)
    ids = out["neighbor_id"].to_numpy(np.int64)
    dists = out["dist"].to_numpy(np.float64)
    bounds = np.searchsorted(qid, np.arange(n_queries + 1))
    return [
        (ids[bounds[q] : bounds[q + 1]], dists[bounds[q] : bounds[q + 1]])
        for q in range(n_queries)
    ]


def offline_violations(out: pd.DataFrame, n_queries: int, k: int, n: int) -> int:
    """Invalid queries in one ``query_index`` result: besides
    :func:`result_ok`, ranks must run 1..min(K, n). A row whose query id is
    outside the batch makes the whole batch invalid."""
    qid = out["query_id"].to_numpy(np.int64)
    if np.any((qid < 0) | (qid >= n_queries)):
        return n_queries
    out = out.sort_values(["query_id", "rank"])
    bad = np.array(
        [not result_ok(ids, d, k, n) for ids, d in rows_to_lists(out, n_queries)],
        dtype=bool,
    )
    pos = out.groupby("query_id").cumcount().to_numpy() + 1
    bad[out["query_id"].to_numpy()[out["rank"].to_numpy() != pos]] = True
    return int(bad.sum())


def recall(results, gt_ids: np.ndarray, k: int) -> float:
    """Mean of |returned ∩ exact top-k| / k over queries."""
    hits = sum(
        len(np.intersect1d(ids, gt_ids[i, :k], assume_unique=True))
        for i, (ids, _) in enumerate(results)
    )
    return hits / (len(results) * k)


def broker_mismatches(broker, queries: np.ndarray, offline, k: int) -> int:
    """Queries whose offline result set differs from the broker's."""
    return sum(
        set(broker.search(queries[q], k)[0].tolist()) != set(ids.tolist())
        for q, (ids, _) in enumerate(offline)
    )


def expected_partition_sizes(ds, segmenter, spec) -> dict[tuple[int, int], int]:
    """(shard, segment) -> row count, computed on the driver without Spark."""
    from repro.core.partitioner import shard_of

    shards = shard_of(ds.ids, spec.n_shards)
    segs = segmenter.assign(ds.base, ds.ids, spill=spec.spill)
    sizes: dict[tuple[int, int], int] = {}
    for s, ms in zip(shards.tolist(), segs):
        for m in ms.tolist():
            sizes[(s, m)] = sizes.get((s, m), 0) + 1
    return sizes


def build_violations(root: str, summary: pd.DataFrame, expected: dict, spec) -> int:
    """1 when a build's store or summary disagrees with the driver-side
    partition map or the metadata, else 0."""
    from repro.core import IndexStore

    store = IndexStore(root)
    got = {
        (int(s), int(m)): int(c)
        for s, m, c in summary[["shard_id", "segment_id", "n_items"]].itertuples(index=False)
    }
    meta = store.load_metadata()
    ok = (
        got == expected
        and set(store.list_partitions()) == set(expected)
        and meta.n_items == sum(expected.values())
        and (meta.n_shards, meta.n_segments) == (spec.n_shards, spec.n_segments)
    )
    return int(not ok)
