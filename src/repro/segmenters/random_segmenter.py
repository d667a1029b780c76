"""Random (modulo) Segmenter — paper Sec 4.3.1.

Data-independent: each point hashes to one segment; since no locality is
preserved, every query fans out to all segments (both spill modes — the
spill concept does not apply to RS)."""
from __future__ import annotations

import numpy as np

from repro.segmenters.base import Segmenter, mix64, validate_spill

_RS_SALT = 101  # distinct from the shard-hash salt so (shard, segment)
# assignments stay independent even when S and m share factors.


class RandomSegmenter(Segmenter):
    """Hash-modulo segmenter over external ids."""

    def __init__(self, n_segments: int) -> None:
        if n_segments < 1:
            raise ValueError(f"n_segments must be >= 1, got {n_segments}")
        self.n_segments = int(n_segments)

    @property
    def kind(self) -> str:
        return "RS"

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"n_segments": self.n_segments}, {}

    def assign(
        self, vectors: np.ndarray, ids: np.ndarray, *, spill: str = "virtual"
    ) -> list[np.ndarray]:
        validate_spill(spill)
        segs = (mix64(np.asarray(ids, dtype=np.int64), _RS_SALT) % np.uint64(
            self.n_segments
        )).astype(np.int64)
        return [np.asarray([s], dtype=np.int64) for s in segs]

    def route(self, vectors: np.ndarray, *, spill: str = "virtual") -> list[np.ndarray]:
        validate_spill(spill)
        vectors = np.asarray(vectors)
        n = vectors.shape[0] if vectors.ndim == 2 else 1
        allseg = np.arange(self.n_segments, dtype=np.int64)
        return [allseg.copy() for _ in range(n)]
