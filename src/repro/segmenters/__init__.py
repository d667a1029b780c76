"""LANNS segmenters (paper Sec 4.3): RS, RH, and APD.

A segmenter decides, within a shard, which segment(s) a data point is
ingested into (``assign``) and which segment(s) a query fans out to
(``route``). Spill handling (paper Sec 4.3.2 + footnote 1):

- **virtual spill** — data goes to exactly one segment; queries whose
  projection falls inside the [l, r] boundary band route to both sides.
- **physical spill** — data inside the band is duplicated to both sides;
  queries route to exactly one segment.
"""
from repro.segmenters.base import Segmenter, segmenter_from_bytes
from repro.segmenters.hyperplane import HyperplaneTreeSegmenter, learn_tree
from repro.segmenters.random_segmenter import RandomSegmenter
from repro.segmenters.rh import learn_rh_segmenter
from repro.segmenters.apd import learn_apd_segmenter
from repro.segmenters.learning import learn_segmenter, sample_vectors

__all__ = [
    "Segmenter",
    "segmenter_from_bytes",
    "HyperplaneTreeSegmenter",
    "learn_tree",
    "RandomSegmenter",
    "learn_rh_segmenter",
    "learn_apd_segmenter",
    "learn_segmenter",
    "sample_vectors",
]
