"""A searcher node: hosts one shard's segment indices (paper Sec 7).

Startup mirrors production: the serialized indices + persisted metadata
are deserialized into native structures "with minimal additional
configuration", so the online path cannot diverge from the offline build
(distance function, segmenter and spill mode all come from the store).
"""
from __future__ import annotations

import numpy as np

from repro.core.index_store import IndexStore
from repro.core.topk import merge_topk_arrays


class Searcher:
    """Serves one shard: segment routing + segment-level merge in-node."""

    def __init__(self, store: IndexStore, shard_id: int, *, ef: int | None = None):
        self.shard_id = int(shard_id)
        self.meta = store.load_metadata()
        self.segmenter = store.load_segmenter()
        self.ef = ef
        if not 0 <= self.shard_id < self.meta.n_shards:
            raise ValueError(f"no shard {shard_id} in a {self.meta.n_shards}-shard index")
        # Every segment is on disk, empty ones included; a missing file raises.
        self._segments = {
            m: store.read_index(self.shard_id, m) for m in range(self.meta.n_segments)
        }

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def search(
        self, query: np.ndarray, per_shard_topk: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route to segment(s), search each, merge in-node (level-1 merge).

        Returns up to ``per_shard_topk`` (ids, dists), ascending.
        """
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        segs = self.segmenter.route(query, spill=self.meta.spill)[0]
        ids, dists = [np.empty(0, np.int64)], [np.empty(0, np.float32)]
        for m in segs:
            i, d = self._segments[int(m)].search(query, per_shard_topk, ef=self.ef)
            ids.append(i[0])
            dists.append(d[0])
        return merge_topk_arrays(np.concatenate(ids), np.concatenate(dists), per_shard_topk)
