"""Segmenter interface + serialization (paper Fig 5: the learnt segmenter
is stored once and shared by every shard's ingestion and querying)."""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.npz import pack, unpack

SPILL_MODES = ("virtual", "physical")


def validate_spill(spill: str) -> str:
    """Return ``spill`` if it is a known mode, else raise ``ValueError``."""
    if spill not in SPILL_MODES:
        raise ValueError(f"unknown spill mode {spill!r}; expected one of {SPILL_MODES}")
    return spill


class Segmenter(ABC):
    """Routes points to segments at ingest (``assign``) and query time
    (``route``). Both return one ``np.ndarray`` of segment ids per input
    row — possibly with more than one entry when spill duplicates work."""

    n_segments: int

    @abstractmethod
    def assign(
        self, vectors: np.ndarray, ids: np.ndarray, *, spill: str = "virtual"
    ) -> list[np.ndarray]:
        """Segment id(s) for each data point at ingestion time."""

    @abstractmethod
    def route(self, vectors: np.ndarray, *, spill: str = "virtual") -> list[np.ndarray]:
        """Segment id(s) each query fans out to."""

    @property
    @abstractmethod
    def kind(self) -> str:
        """Short name: 'RS', 'RH', or 'APD' (paper Sec 4.3 nomenclature)."""

    @abstractmethod
    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(JSON header fields, named arrays) that rebuild this segmenter."""

    def to_bytes(self) -> bytes:
        """Serialize for the index store (``repro.npz`` format)."""
        header, arrays = self._state()
        return pack("segmenter", {"kind": self.kind, **header}, arrays)


def segmenter_from_bytes(blob: bytes) -> Segmenter:
    """Inverse of :meth:`Segmenter.to_bytes`; ``ValueError`` on a bad blob."""
    from repro.segmenters.hyperplane import HyperplaneTreeSegmenter
    from repro.segmenters.random_segmenter import RandomSegmenter

    header, a = unpack(blob, "segmenter")
    kind = header.get("kind")
    if kind == "RS":
        return RandomSegmenter(header["n_segments"])
    if kind in ("RH", "APD"):
        return HyperplaneTreeSegmenter(
            a["H"], a["s"], a["l"], a["r"], kind=kind, alpha=header["alpha"]
        )
    raise ValueError(f"unknown segmenter kind {kind!r}")


def mix64(x: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic 64-bit integer mix (splitmix64 finalizer).

    Used for hash-based routing (sharding, RS segmentation) so partition
    assignment is identical on the driver, in every Spark worker, and
    across runs — unlike Python's randomized string hashing.
    """
    z = np.asarray(x, dtype=np.uint64) + np.uint64(
        ((salt + 1) * 0x9E3779B97F4A7C15) % (1 << 64)
    )
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z
