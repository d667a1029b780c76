"""Vectorized distance kernels shared by HNSW and brute-force search.

Two metrics, matching the paper's deployments:

- ``"l2"``     — Euclidean distance (SIFT/GIST evaluations use this).
- ``"cosine"`` — cosine *distance* (1 - cosine similarity), used by the
  embedding-based LinkedIn use cases.

All kernels order by the true metric; L2 kernels compute squared L2
internally (monotone in L2) and take one sqrt at the boundary.
"""
from __future__ import annotations

import numpy as np

METRICS = ("l2", "cosine")


def validate_metric(metric: str) -> str:
    """Return ``metric`` if supported, else raise ``ValueError``."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return metric


def check_vectors(x, dim: int, what: str = "queries") -> np.ndarray:
    """``x`` as a C-contiguous float32 (n, ``dim``) matrix.

    Raises ``ValueError`` on any other shape and on a NaN or infinite
    entry, which HNSW would otherwise insert, or answer with arbitrary ids
    at NaN distances.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected (n, {dim}) {what}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contain NaN or infinite values")
    return x


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Row-normalize to unit L2 norm; zero rows are left as zeros."""
    x = np.asarray(x, dtype=np.float32)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def batch_distances(
    query: np.ndarray, points: np.ndarray, metric: str = "l2"
) -> np.ndarray:
    """Distances from one ``query`` (d,) to each row of ``points`` (m, d).

    Returns float32 (m,) of *true* distances (L2, not squared; cosine
    distance in [0, 2]).
    """
    validate_metric(metric)
    query = np.asarray(query, dtype=np.float32)
    points = np.asarray(points, dtype=np.float32)
    if metric == "l2":
        diff = points - query
        return np.sqrt(np.maximum(np.einsum("ij,ij->i", diff, diff), 0.0))
    qn = normalize_rows(query[None, :])[0]
    pn = normalize_rows(points)
    return (1.0 - pn @ qn).astype(np.float32)


def cross_distances(
    queries: np.ndarray, points: np.ndarray, metric: str = "l2"
) -> np.ndarray:
    """Full (q, m) distance matrix between ``queries`` (q, d) and ``points``.

    Uses the |a-b|^2 = |a|^2 + |b|^2 - 2ab expansion for L2 so the inner
    loop is a single matmul.
    """
    validate_metric(metric)
    queries = np.asarray(queries, dtype=np.float32)
    points = np.asarray(points, dtype=np.float32)
    if metric == "cosine":
        return (1.0 - normalize_rows(queries) @ normalize_rows(points).T).astype(
            np.float32
        )
    qq = np.einsum("ij,ij->i", queries, queries)[:, None]
    pp = np.einsum("ij,ij->i", points, points)[None, :]
    sq = qq + pp - 2.0 * (queries @ points.T)
    return np.sqrt(np.maximum(sq, 0.0), dtype=np.float32)


def pairwise_argsort_topk(
    queries: np.ndarray, points: np.ndarray, k: int, metric: str = "l2"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k over ``points`` for each query; ties broken by row index.

    Returns ``(idx, dist)`` each of shape (q, k'), k' = min(k, m), sorted by
    ascending distance. The row-index tiebreak makes results deterministic,
    which the DuckDB oracle relies on.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    d = cross_distances(queries, points, metric)
    m = d.shape[1]
    kk = min(k, m)
    # argpartition then lexsort((idx, dist)) for a deterministic ordering.
    part = np.argpartition(d, kk - 1, axis=1)[:, :kk]
    rows = np.arange(d.shape[0])[:, None]
    pdist = d[rows, part]
    order = np.lexsort((part, pdist), axis=1)
    idx = part[rows, order]
    return idx, d[rows, idx]
