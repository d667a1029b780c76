"""Random Hyperplane Segmenter (RH) — paper Sec 4.3.2.

Hyperplanes are drawn uniformly from the unit sphere (isotropic Gaussian,
normalized); split at the median projection with an α spill band, per
Randomized Partition Trees (Dasgupta & Sinha)."""
from __future__ import annotations

import numpy as np

from repro.segmenters.hyperplane import HyperplaneTreeSegmenter, learn_tree


def _random_unit(sample: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    h = rng.standard_normal(sample.shape[1]).astype(np.float32)
    return h / np.linalg.norm(h)


def learn_rh_segmenter(
    sample: np.ndarray, n_segments: int, *, alpha: float = 0.15, seed: int = 0
) -> HyperplaneTreeSegmenter:
    """Learn an RH segmenter with ``n_segments`` leaves (power of two)."""
    return learn_tree(sample, n_segments, alpha, _random_unit, kind="RH", seed=seed)
