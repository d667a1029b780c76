"""The pickle-free index format (repro.npz): both loaders reject bad blobs
with ValueError, and nothing under src/ can unpickle."""
import ast
import io
import json
import os

import numpy as np
import pytest

from repro.hnsw.graph import HNSWIndex
from repro.npz import FORMAT_VERSION, pack, unpack
from repro.segmenters import learn_rh_segmenter, segmenter_from_bytes

LOADERS = {"hnsw": HNSWIndex.from_bytes, "segmenter": segmenter_from_bytes}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def blobs():
    g = np.random.default_rng(0)
    x = g.normal(size=(80, 5)).astype(np.float32)
    idx = HNSWIndex(5, M=4, ef_construction=20, seed=0)
    idx.add_items(x, np.arange(80))
    return {"hnsw": idx.to_bytes(), "segmenter": learn_rh_segmenter(x, 4).to_bytes()}


@pytest.mark.parametrize("what", sorted(LOADERS))
class TestLoadersRejectBadBlobs:
    def test_good_blob_loads(self, blobs, what):
        LOADERS[what](blobs[what])

    def test_truncated(self, blobs, what):
        with pytest.raises(ValueError):
            LOADERS[what](blobs[what][: len(blobs[what]) // 2])

    def test_random_bytes(self, what):
        with pytest.raises(ValueError):
            LOADERS[what](np.random.default_rng(1).bytes(512))

    def test_object_array(self, what):
        buf = io.BytesIO()
        np.savez(buf, header=np.array([{"format_version": FORMAT_VERSION, "what": what}]))
        with pytest.raises(ValueError):
            LOADERS[what](buf.getvalue())

    def test_wrong_format_version(self, what):
        buf = io.BytesIO()
        meta = json.dumps({"format_version": FORMAT_VERSION + 1, "what": what})
        np.savez_compressed(buf, header=np.frombuffer(meta.encode(), np.uint8))
        with pytest.raises(ValueError):
            LOADERS[what](buf.getvalue())

    def test_foreign_blob(self, blobs, what):
        other = next(w for w in LOADERS if w != what)
        with pytest.raises(ValueError):
            LOADERS[what](blobs[other])


def test_pack_unpack_roundtrip():
    arrays = {"a": np.arange(5, dtype=np.int32), "b": np.ones((2, 3), np.float32)}
    header, out = unpack(pack("thing", {"x": 1.5}, arrays), "thing")
    assert header["x"] == 1.5 and header["what"] == "thing"
    assert out.keys() == arrays.keys()
    for k in arrays:
        assert out[k].dtype == arrays[k].dtype
        np.testing.assert_array_equal(out[k], arrays[k])


def _unpickling_sites(path):
    """Imports of a pickle module, and np.load calls without a literal
    allow_pickle=False, in one source file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            mods = []
        if any(m.split(".")[0] in ("pickle", "cPickle", "dill", "cloudpickle") for m in mods):
            yield f"{path}:{node.lineno}: imports pickle"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "load"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any(
                k.arg == "allow_pickle"
                and isinstance(k.value, ast.Constant)
                and k.value.value is False
                for k in node.keywords
            )
        ):
            yield f"{path}:{node.lineno}: np.load without allow_pickle=False"


def test_src_never_unpickles():
    """No module under src/ imports pickle, and every np.load passes
    allow_pickle=False."""
    offenders = [
        site
        for root, _, files in os.walk(SRC)
        for f in files
        if f.endswith(".py")
        for site in _unpickling_sites(os.path.join(root, f))
    ]
    assert not offenders, offenders
