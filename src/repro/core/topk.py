"""perShardTopK — paper Sec 5.3.2, Eq 5-6.

When a query fans out to S hash-partitioned shards, each shard need not
return the full topK: the count of true top-K neighbors landing in one
shard is Binomial(topK, 1/S), so a Normal Approximation Interval upper
bound suffices. The reduced per-shard K cuts network I/O and merge cost.

The paper writes f(p) as "the (1 - p/2) quantile of the standard normal"
with p named the *confidence*; taken literally (p = 0.95 → the 0.525
quantile ≈ 0.063) the interval would be tighter than the point estimate,
which contradicts the construction of [7] (Brown, Cai & DasGupta's
normal approximation interval, z_{1-α/2} with α = 1 - confidence). We
implement the standard interval: f(p) = probit(1 - (1-p)/2), i.e. 1.96
at p = 0.95.

Per the paper, the *segment* level propagates the shard-level value
unchanged — a per-segment reduction could return fewer than topK results
when hyperplane segmenters route to a single segment.

``merge_topk_arrays`` is the numpy merge both in-process levels (the
searcher's segment merge and the broker's shard merge) share.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def per_shard_topk(topk: int, n_shards: int, confidence: float = 0.95) -> int:
    """Eq 5-6: the number of candidates each shard must return."""
    if topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_shards == 1:
        return topk
    s = 1.0 / n_shards
    z = NormalDist().inv_cdf(1.0 - (1.0 - confidence) / 2.0)
    ci = s + z * math.sqrt(s * (1.0 - s) / topk)
    return min(topk, math.ceil(ci * topk))


def merge_topk_arrays(
    ids: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """In-process twin of ``spark_bf.merge_topk`` for one group.

    Dedupes candidate ``ids`` (each keeps its min dist), orders by
    (dist, id) and keeps the best ``k``; returns ``(ids, dists)``.
    """
    ids = np.asarray(ids, dtype=np.int64).ravel()
    dists = np.asarray(dists).ravel()
    order = np.lexsort((dists, ids))  # by id, then dist: first of a run is its min
    ids, dists = ids[order], dists[order]
    first = np.ones(ids.shape[0], dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids, dists = ids[first], dists[first]
    best = np.lexsort((ids, dists))[:k]
    return ids[best], dists[best]
