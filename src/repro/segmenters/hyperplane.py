"""Shared hyperplane-tree machinery for the RH and APD segmenters.

Paper Sec 4.3.2: each internal node holds a unit hyperplane ``h``, a
median split point ``s`` and spill boundaries ``l``/``r`` (the 0.5∓α
fractiles of the projections ``U = D·h``). A depth-L tree is stored as
four arrays in heap order: ``H`` of shape (2^L−1, d) and ``s``/``l``/``r``
of shape (2^L−1,). Node ``i`` has children ``2i+1``/``2i+2``; heap index
``j + 2^L − 1`` is leaf (segment) ``j``, so leaves run left to right.

Insertion (data side, no spill): ``x·h < s`` → left else right.
Query (virtual spill):           ``q·h < l`` → left, ``q·h > r`` → right,
                                 else both sides.
Physical spill swaps the two rules (data duplicates inside [l, r],
queries take the median rule). See footnote 1 in the paper.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.segmenters.base import Segmenter, validate_spill

HyperplaneFn = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def learn_tree(
    sample: np.ndarray,
    n_segments: int,
    alpha: float,
    hyperplane_fn: HyperplaneFn,
    *,
    kind: str,
    seed: int = 0,
    min_node: int = 4,
) -> "HyperplaneTreeSegmenter":
    """Learn a tree of splitting hyperplanes with ``n_segments`` leaves.

    ``n_segments`` must be a power of two >= 2. ``hyperplane_fn(node_sample,
    rng) -> (d,) unit vector`` supplies the direction (random for RH,
    approximate principal direction for APD). ``alpha`` is the spill
    fraction (paper uses 0.15 → ~30% of queries spill to both sides at
    each level). Nodes are learnt depth-first, left before right.
    """
    if n_segments < 2 or n_segments & (n_segments - 1):
        raise ValueError(f"n_segments must be a power of 2 >= 2, got {n_segments}")
    sample = np.asarray(sample, dtype=np.float32)
    if sample.ndim != 2 or sample.shape[0] < 2:
        raise ValueError(f"need a (n>=2, d) sample, got {sample.shape}")
    if not (0.0 <= alpha < 0.5):
        raise ValueError(f"alpha must be in [0, 0.5), got {alpha}")
    rng = np.random.default_rng(seed)
    n_nodes = n_segments - 1
    H = np.empty((n_nodes, sample.shape[1]), dtype=np.float32)
    s, l, r = (np.empty(n_nodes) for _ in range(3))

    def build(i: int, node_sample: np.ndarray) -> None:
        if i >= n_nodes:
            return
        if node_sample.shape[0] < min_node:
            # Degenerate node: fall back to a balanced random direction so
            # the tree keeps its full shape (leaf numbering stays dense).
            h = rng.standard_normal(node_sample.shape[1]).astype(np.float32)
            h /= np.linalg.norm(h)
        else:
            h = np.asarray(hyperplane_fn(node_sample, rng), dtype=np.float32)
            nrm = float(np.linalg.norm(h))
            if nrm <= 0:
                raise ValueError("hyperplane_fn returned a zero vector")
            h = h / nrm
        u = node_sample @ h
        med = float(np.median(u))
        H[i], s[i] = h, med
        l[i] = min(float(np.quantile(u, 0.5 - alpha)), med)
        r[i] = max(float(np.quantile(u, 0.5 + alpha)), med)
        build(2 * i + 1, node_sample[u < med])
        build(2 * i + 2, node_sample[u >= med])

    build(0, sample)
    return HyperplaneTreeSegmenter(H, s, l, r, kind=kind, alpha=alpha)


class HyperplaneTreeSegmenter(Segmenter):
    """Segmenter backed by a learnt hyperplane tree (RH or APD)."""

    def __init__(
        self, H: np.ndarray, s: np.ndarray, l: np.ndarray, r: np.ndarray,
        *, kind: str, alpha: float,
    ) -> None:
        self.H = np.asarray(H, dtype=np.float32)
        self.s, self.l, self.r = (np.asarray(x, dtype=np.float64) for x in (s, l, r))
        n_nodes = self.H.shape[0] if self.H.ndim == 2 else 0
        full_tree = n_nodes >= 1 and not n_nodes & (n_nodes + 1)
        if not full_tree or not self.s.shape == self.l.shape == self.r.shape == (n_nodes,):
            raise ValueError(f"need H (2^L-1, d) and s/l/r (2^L-1,), got H {self.H.shape}")
        if not np.all((self.l <= self.s) & (self.s <= self.r)):
            raise ValueError("spill band must bracket split: l <= s <= r at every node")
        self._kind = kind
        self.alpha = float(alpha)
        self.n_segments = n_nodes + 1

    @property
    def kind(self) -> str:
        return self._kind

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"alpha": self.alpha}, {"H": self.H, "s": self.s, "l": self.l, "r": self.r}

    def _collect(
        self, vectors: np.ndarray, *, spilling: bool
    ) -> list[np.ndarray]:
        """Route each row down the tree.

        ``spilling=False`` → median rule, exactly one leaf per row.
        ``spilling=True``  → [l, r] band duplicates rows to both subtrees.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        n = vectors.shape[0]
        if n == 0:
            return []
        n_nodes = self.n_segments - 1
        leaf_rows = [np.empty(0, dtype=np.intp)] * self.n_segments

        def walk(i: int, rows: np.ndarray) -> None:
            if rows.size == 0:
                return
            if i >= n_nodes:
                leaf_rows[i - n_nodes] = rows
                return
            u = vectors[rows] @ self.H[i]
            # Python-float thresholds keep the comparison in float32 under
            # both NumPy 1 and NumPy 2 promotion rules.
            if spilling:
                go_left = u <= float(self.r[i])
                go_right = u >= float(self.l[i])
            else:
                go_left = u < float(self.s[i])
                go_right = ~go_left
            walk(2 * i + 1, rows[go_left])
            walk(2 * i + 2, rows[go_right])

        walk(0, np.arange(n))
        # (row, leaf) pairs in leaf order; a stable sort by row keeps each
        # row's leaves ascending.
        rows = np.concatenate(leaf_rows)
        leaves = np.repeat(np.arange(self.n_segments), [len(x) for x in leaf_rows])
        order = np.argsort(rows, kind="stable")
        return np.split(leaves[order], np.cumsum(np.bincount(rows, minlength=n))[:-1])

    def assign(
        self, vectors: np.ndarray, ids: np.ndarray, *, spill: str = "virtual"
    ) -> list[np.ndarray]:
        validate_spill(spill)
        # virtual spill: data goes to exactly one segment;
        # physical spill: data inside the band is duplicated.
        return self._collect(vectors, spilling=(spill == "physical"))

    def route(self, vectors: np.ndarray, *, spill: str = "virtual") -> list[np.ndarray]:
        validate_spill(spill)
        # virtual spill: queries in the band fan out; physical: single leaf.
        return self._collect(vectors, spilling=(spill == "virtual"))
