"""Hierarchical Navigable Small World graph index (Malkov & Yashunin 2016).

This is the per-(shard, segment) index LANNS builds inside each Spark
executor (paper Sec 3, Fig 2/6). The implementation follows the original
paper's algorithms:

- Alg 1 (INSERT): geometric level sampling with mL = 1/ln(M); greedy
  descent through upper layers; ef_construction-bounded candidate search
  and bidirectional linking with degree caps (M above layer 0, 2M at
  layer 0) on the way down.
- Alg 2 (SEARCH-LAYER): best-first frontier search with an ef-bounded
  result heap and a visited set.
- Alg 4 (SELECT-NEIGHBORS-HEURISTIC): diversity-aware neighbor selection
  with keepPrunedConnections, which is what keeps recall high on the
  clustered data the LANNS segmenters produce.

Distances are computed internally as monotone surrogates (squared-L2
offset by a per-query constant; negative inner product for cosine) and
converted to true metric values only at the API boundary.
"""
from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

import numpy as np

from repro.hnsw.distance import normalize_rows, validate_metric
from repro.npz import pack, unpack


class HNSWIndex:
    """An append-only HNSW index over float32 vectors with external ids.

    Parameters mirror hnswlib: ``M`` (degree target), ``ef_construction``
    (build-time frontier width), ``metric`` ("l2" or "cosine"), ``seed``
    (level sampling — builds are deterministic given insertion order).
    """

    def __init__(
        self,
        dim: int,
        *,
        M: int = 16,
        ef_construction: int = 200,
        metric: str = "l2",
        seed: int = 0,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if M < 2:
            raise ValueError(f"M must be >= 2, got {M}")
        if ef_construction < 1:
            raise ValueError(f"ef_construction must be >= 1, got {ef_construction}")
        self.dim = int(dim)
        self.M = int(M)
        self.M0 = 2 * int(M)
        self.ef_construction = int(ef_construction)
        self.metric = validate_metric(metric)
        self.seed = int(seed)
        self._mL = 1.0 / math.log(M)
        self._rng = np.random.default_rng(seed)
        self._data = np.empty((0, dim), dtype=np.float32)  # stored (normalized if cosine)
        self._sq_norms = np.empty((0,), dtype=np.float32)
        self._ids = np.empty((0,), dtype=np.int64)
        self._levels: list[int] = []
        # _links[level][node] -> list[int] of internal neighbor ids.
        self._links: list[dict[int, list[int]]] = []
        self._entry: int = -1

    # ------------------------------------------------------------------ size
    @property
    def n_items(self) -> int:
        """Number of indexed vectors."""
        return len(self._levels)

    @property
    def max_level(self) -> int:
        """Topmost populated layer (-1 when empty)."""
        return len(self._links) - 1

    @property
    def ids(self) -> np.ndarray:
        """External ids in insertion order (read-only view)."""
        return self._ids

    # ------------------------------------------------------- internal kernels
    def _prep_query(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32).reshape(-1)
        if q.shape[0] != self.dim:
            raise ValueError(f"query dim {q.shape[0]} != index dim {self.dim}")
        if self.metric == "cosine":
            return normalize_rows(q[None, :])[0]
        return q

    def _surrogate(self, q: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Monotone distance surrogate from prepped query to internal nodes."""
        v = self._data[nodes]
        if self.metric == "cosine":
            return -(v @ q)
        return self._sq_norms[nodes] - 2.0 * (v @ q)

    def _true_dist(self, q_raw: np.ndarray, surrogate: np.ndarray) -> np.ndarray:
        """Convert surrogate distances back to the metric's true values."""
        if self.metric == "cosine":
            return (1.0 + surrogate).astype(np.float32)
        qq = float(np.dot(q_raw, q_raw))
        return np.sqrt(np.maximum(surrogate + qq, 0.0)).astype(np.float32)

    def _search_layer(
        self, q: np.ndarray, entry_points: list[tuple[float, int]], ef: int, level: int
    ) -> list[tuple[float, int]]:
        """Alg 2: ef-bounded best-first search in one layer.

        ``entry_points`` are (surrogate_dist, node) pairs; returns up to
        ``ef`` (surrogate_dist, node) pairs sorted ascending.
        """
        links = self._links[level]
        visited = {n for _, n in entry_points}
        candidates = list(entry_points)
        heapify(candidates)
        results = [(-d, n) for d, n in entry_points]
        heapify(results)
        while len(results) > ef:
            heappop(results)
        while candidates:
            d, c = heappop(candidates)
            if d > -results[0][0] and len(results) >= ef:
                break
            fresh = [n for n in links.get(c, ()) if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            nd = self._surrogate(q, np.asarray(fresh, dtype=np.int64))
            bound = -results[0][0]
            full = len(results) >= ef
            for dn, n in zip(nd.tolist(), fresh):
                if not full or dn < bound:
                    heappush(candidates, (dn, n))
                    heappush(results, (-dn, n))
                    if len(results) > ef:
                        heappop(results)
                    bound = -results[0][0]
                    full = len(results) >= ef
        out = [(-d, n) for d, n in results]
        out.sort()
        return out

    def _greedy_descend(self, q: np.ndarray, node: int, level: int) -> tuple[float, int]:
        """ef=1 greedy walk within one layer; returns (surrogate_dist, node)."""
        links = self._links[level]
        cur_d = float(self._surrogate(q, np.asarray([node], dtype=np.int64))[0])
        improved = True
        while improved:
            improved = False
            nbrs = links.get(node, ())
            if not nbrs:
                break
            nd = self._surrogate(q, np.asarray(nbrs, dtype=np.int64))
            j = int(np.argmin(nd))
            if nd[j] < cur_d:
                cur_d = float(nd[j])
                node = nbrs[j]
                improved = True
        return cur_d, node

    def _select_heuristic(
        self, base: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Alg 4: pick <= m diverse neighbors, keepPrunedConnections=True.

        ``candidates`` are (surrogate_dist, node) pairs ascending by
        distance to ``base`` (a stored vector). A candidate is kept only if
        it is closer to ``base`` than to every already-selected neighbor;
        pruned candidates backfill remaining slots. Comparisons use true
        metric values (squared L2 / cosine distance) on both sides.
        """
        if len(candidates) <= m:
            return [n for _, n in candidates]
        nodes = [n for _, n in candidates]
        vecs = self._data[np.asarray(nodes, dtype=np.int64)]
        if self.metric == "l2":
            diff = vecs - base
            d_base = np.einsum("ij,ij->i", diff, diff)
        else:
            d_base = 1.0 - vecs @ base
        selected: list[int] = []
        selected_vecs: list[np.ndarray] = []
        pruned: list[int] = []
        for i, n in enumerate(nodes):
            if len(selected) >= m:
                break
            v = vecs[i]
            db = float(d_base[i])
            keep = True
            for sv in selected_vecs:
                if self.metric == "l2":
                    dv = v - sv
                    ds = float(dv @ dv)
                else:
                    ds = 1.0 - float(v @ sv)
                if ds < db:
                    keep = False
                    break
            if keep:
                selected.append(n)
                selected_vecs.append(v)
            else:
                pruned.append(n)
        for n in pruned:
            if len(selected) >= m:
                break
            selected.append(n)
        return selected

    # ---------------------------------------------------------------- insert
    def add_items(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Insert a batch of vectors with external int64 ids (Alg 1)."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) vectors, got {vectors.shape}")
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids and vectors length mismatch")
        stored = normalize_rows(vectors) if self.metric == "cosine" else vectors
        start = self.n_items
        self._data = np.vstack([self._data, stored])
        self._sq_norms = np.concatenate(
            [self._sq_norms, np.einsum("ij,ij->i", stored, stored).astype(np.float32)]
        )
        self._ids = np.concatenate([self._ids, ids])
        for i in range(vectors.shape[0]):
            self._insert_one(start + i)

    def _insert_one(self, node: int) -> None:
        q = self._data[node]
        u = self._rng.random()
        level = int(-math.log(max(u, 1e-12)) * self._mL)
        self._levels.append(level)
        old_top = len(self._links) - 1  # pre-insert topmost layer (-1 if empty)
        while len(self._links) <= level:
            self._links.append({})
        for lc in range(level + 1):
            self._links[lc].setdefault(node, [])
        if self._entry < 0:
            self._entry = node
            return
        ep = self._entry
        ep_d = float(self._surrogate(q, np.asarray([ep], dtype=np.int64))[0])
        # Phase 1: greedy descent through pre-existing layers above `level`.
        for lc in range(old_top, level, -1):
            ep_d, ep = self._greedy_descend(q, ep, lc)
        # Phase 2: connect at each pre-existing layer from min(level, old_top)
        # down to 0. Layers above old_top contain only `node` itself.
        eps = [(ep_d, ep)]
        for lc in range(min(level, old_top), -1, -1):
            w = self._search_layer(q, eps, self.ef_construction, lc)
            w = [(d, n) for d, n in w if n != node]
            if not w:
                eps = [(ep_d, ep)]
                continue
            m_cap = self.M0 if lc == 0 else self.M
            neighbors = self._select_heuristic(q, w, self.M)
            layer = self._links[lc]
            layer[node] = list(neighbors)
            for n in neighbors:
                lst = layer.setdefault(n, [])
                lst.append(node)
                if len(lst) > m_cap:
                    nd = self._surrogate(self._data[n], np.asarray(lst, dtype=np.int64))
                    cand = sorted(zip(nd.tolist(), lst))
                    layer[n] = self._select_heuristic(self._data[n], cand, m_cap)
            eps = w
        # A new topmost layer makes this node the global entry point.
        if level > old_top:
            self._entry = node

    # ---------------------------------------------------------------- search
    def search(
        self, queries: np.ndarray, k: int, *, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search for each row of ``queries``.

        Returns ``(ids, dists)`` of shape (q, k'), k' = min(k, n_items),
        ids are *external* ids, dists are true metric distances ascending.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        n = self.n_items
        kk = min(k, n)
        out_ids = np.empty((queries.shape[0], kk), dtype=np.int64)
        out_d = np.empty((queries.shape[0], kk), dtype=np.float32)
        if n == 0:
            return out_ids, out_d
        ef_eff = max(ef if ef is not None else max(2 * k, 50), kk)
        for qi in range(queries.shape[0]):
            q_raw = queries[qi]
            q = self._prep_query(q_raw)
            ep = self._entry
            ep_d = float(self._surrogate(q, np.asarray([ep], dtype=np.int64))[0])
            for lc in range(self.max_level, 0, -1):
                ep_d, ep = self._greedy_descend(q, ep, lc)
            res = self._search_layer(q, [(ep_d, ep)], ef_eff, 0)[:kk]
            nodes = np.asarray([n_ for _, n_ in res], dtype=np.int64)
            sur = np.asarray([d for d, _ in res], dtype=np.float32)
            if nodes.shape[0] < kk:  # disconnected graph corner: backfill
                missing = kk - nodes.shape[0]
                rest = np.setdiff1d(
                    np.arange(n, dtype=np.int64), nodes, assume_unique=False
                )[:missing]
                nodes = np.concatenate([nodes, rest])
                sur = np.concatenate([sur, self._surrogate(q, rest).astype(np.float32)])
                order = np.argsort(sur, kind="stable")
                nodes, sur = nodes[order], sur[order]
            out_ids[qi] = self._ids[nodes]
            out_d[qi] = self._true_dist(q_raw if self.metric == "l2" else q, sur)
        return out_ids, out_d

    # --------------------------------------------------------- serialization
    def to_bytes(self) -> bytes:
        """Serialize graph + vectors + metadata (paper Sec 7: the shipped
        index bundles embeddings, graph, and build configuration).

        ``repro.npz`` format: ``data``, ``ids``, ``levels``, and per layer
        ``lc`` the int32 ``degrees<lc>``/``neighbors<lc>`` of the nodes with
        level >= lc, in node order (the flat layout of FAISS ``IndexHNSW``).
        """
        arrays = {"data": self._data, "ids": self._ids,
                  "levels": np.asarray(self._levels, dtype=np.int32)}
        for lc, layer in enumerate(self._links):
            nbrs = [layer[n] for n in sorted(layer)]
            arrays[f"degrees{lc}"] = np.asarray([len(x) for x in nbrs], dtype=np.int32)
            arrays[f"neighbors{lc}"] = np.asarray([n for x in nbrs for n in x], np.int32)
        header = {"dim": self.dim, "M": self.M, "ef_construction": self.ef_construction,
                  "metric": self.metric, "seed": self.seed, "entry": self._entry}
        return pack("hnsw", header, arrays)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HNSWIndex":
        """Inverse of :meth:`to_bytes`; ``ValueError`` on a bad blob."""
        h, a = unpack(blob, "hnsw")
        idx = cls(h["dim"], M=h["M"], ef_construction=h["ef_construction"],
                  metric=h["metric"], seed=h["seed"])
        idx._data, idx._ids, levels = a["data"], a["ids"], a["levels"]
        idx._sq_norms = np.einsum("ij,ij->i", idx._data, idx._data).astype(np.float32)
        idx._levels, idx._entry = levels.tolist(), h["entry"]
        for lc in range(int(levels.max(initial=-1)) + 1):
            flat, ends = a[f"neighbors{lc}"].tolist(), np.cumsum(a[f"degrees{lc}"])
            starts = (ends - a[f"degrees{lc}"]).tolist()
            nodes = np.flatnonzero(levels >= lc).tolist()
            idx._links.append({n: flat[b:e] for n, b, e in zip(nodes, starts, ends.tolist())})
        return idx
