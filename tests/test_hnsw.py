"""Unit tests for the HNSW index (repro.hnsw.graph)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bruteforce.local import exact_topk
from repro.hnsw.graph import HNSWIndex
from repro.synth_data import gaussian_mixture


def _recall(res_ids: np.ndarray, gt_ids: np.ndarray) -> float:
    k = gt_ids.shape[1]
    return np.mean(
        [len(set(res_ids[i].tolist()) & set(gt_ids[i].tolist())) / k for i in range(len(gt_ids))]
    )


@pytest.fixture(scope="module")
def small_ds():
    return gaussian_mixture(n=1500, dim=16, n_clusters=12, n_queries=50, seed=42)


@pytest.fixture(scope="module")
def small_index(small_ds):
    idx = HNSWIndex(small_ds.dim, M=12, ef_construction=80, seed=1)
    idx.add_items(small_ds.base, small_ds.ids)
    return idx


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HNSWIndex(0)
        with pytest.raises(ValueError):
            HNSWIndex(4, M=1)
        with pytest.raises(ValueError):
            HNSWIndex(4, ef_construction=0)
        with pytest.raises(ValueError):
            HNSWIndex(4, metric="hamming")

    def test_empty_index(self):
        idx = HNSWIndex(4)
        assert idx.n_items == 0 and idx.max_level == -1
        ids, dists = idx.search(np.zeros((2, 4), np.float32), 3)
        assert ids.shape == (2, 0) and dists.shape == (2, 0)

    def test_single_point(self):
        idx = HNSWIndex(3)
        idx.add_items(np.ones((1, 3), np.float32), np.array([7]))
        ids, dists = idx.search(np.ones((1, 3), np.float32), 5)
        assert ids.tolist() == [[7]]
        assert dists[0, 0] == pytest.approx(0, abs=1e-4)

    def test_shape_mismatch_raises(self):
        idx = HNSWIndex(4)
        with pytest.raises(ValueError):
            idx.add_items(np.zeros((2, 3), np.float32), np.array([0, 1]))
        with pytest.raises(ValueError):
            idx.add_items(np.zeros((2, 4), np.float32), np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_raise(self, bad):
        idx = HNSWIndex(4)
        vecs = np.zeros((3, 4), np.float32)
        vecs[1, 2] = bad
        with pytest.raises(ValueError):
            idx.add_items(vecs, np.arange(3))
        assert idx.n_items == 0

    def test_incremental_adds(self):
        g = np.random.default_rng(0)
        a, b = g.normal(size=(60, 5)).astype(np.float32), g.normal(size=(40, 5)).astype(np.float32)
        idx = HNSWIndex(5, M=8, ef_construction=40, seed=2)
        idx.add_items(a, np.arange(60))
        idx.add_items(b, np.arange(60, 100))
        assert idx.n_items == 100
        ids, _ = idx.search(b[:5], 1, ef=100)
        np.testing.assert_array_equal(ids[:, 0], np.arange(60, 65))

    def test_level_distribution_geometric(self):
        g = np.random.default_rng(1)
        idx = HNSWIndex(4, M=8, ef_construction=20, seed=3)
        idx.add_items(g.normal(size=(2000, 4)).astype(np.float32), np.arange(2000))
        levels = np.asarray(idx._levels)
        frac0 = np.mean(levels == 0)
        # P(level 0) = 1 - 1/M = 0.875 for M=8 (power-law of Sec 3)
        assert 0.8 < frac0 < 0.95
        assert idx.max_level >= 1


class TestSearch:
    def test_k_nonpositive_raises(self, small_index):
        with pytest.raises(ValueError):
            small_index.search(np.zeros((1, 16), np.float32), 0)

    def test_wrong_dim_raises(self, small_index):
        with pytest.raises(ValueError):
            small_index.search(np.zeros((1, 4), np.float32), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_raises(self, small_index, bad):
        q = np.zeros((2, 16), np.float32)
        q[1, 0] = bad
        with pytest.raises(ValueError):
            small_index.search(q, 3)

    def test_k_greater_than_n_returns_all(self):
        g = np.random.default_rng(2)
        idx = HNSWIndex(4, M=8, ef_construction=20, seed=0)
        idx.add_items(g.normal(size=(10, 4)).astype(np.float32), np.arange(10))
        ids, dists = idx.search(g.normal(size=(3, 4)).astype(np.float32), 25)
        assert ids.shape == (3, 10)
        for row in ids:
            assert sorted(row.tolist()) == list(range(10))

    def test_distances_sorted_and_unique_ids(self, small_index, small_ds):
        ids, dists = small_index.search(small_ds.queries, 20, ef=100)
        assert np.all(np.diff(dists, axis=1) >= -1e-6)
        for row in ids:
            assert len(set(row.tolist())) == len(row)

    def test_exhaustive_ef_is_exact(self, small_ds):
        """ef >= n makes base-layer search exhaustive ⇒ recall 1.0."""
        idx = HNSWIndex(small_ds.dim, M=12, ef_construction=80, seed=5)
        idx.add_items(small_ds.base[:400], small_ds.ids[:400])
        gt, _ = exact_topk(small_ds.queries, small_ds.base[:400], 10, ids=small_ds.ids[:400])
        ids, _ = idx.search(small_ds.queries, 10, ef=400)
        assert _recall(ids, gt) == 1.0

    def test_high_recall_on_clustered_data(self, small_index, small_ds):
        gt, _ = exact_topk(small_ds.queries, small_ds.base, 10, ids=small_ds.ids)
        ids, _ = small_index.search(small_ds.queries, 10, ef=120)
        assert _recall(ids, gt) >= 0.97

    def test_true_l2_distances_returned(self, small_index, small_ds):
        ids, dists = small_index.search(small_ds.queries[:5], 3, ef=60)
        id_to_row = {int(i): r for r, i in enumerate(small_ds.ids)}
        for qi in range(5):
            for j in range(3):
                v = small_ds.base[id_to_row[int(ids[qi, j])]]
                expect = np.linalg.norm(small_ds.queries[qi] - v)
                assert dists[qi, j] == pytest.approx(expect, rel=1e-3)

    def test_single_query_vector_1d(self, small_index, small_ds):
        ids, dists = small_index.search(small_ds.queries[0], 5, ef=50)
        assert ids.shape == (1, 5)

    def test_deterministic_given_seed(self, small_ds):
        def build():
            idx = HNSWIndex(small_ds.dim, M=8, ef_construction=40, seed=9)
            idx.add_items(small_ds.base[:300], small_ds.ids[:300])
            return idx.search(small_ds.queries[:10], 5, ef=50)

        a, b = build(), build()
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_duplicate_vectors_handled(self):
        base = np.tile(np.arange(8, dtype=np.float32), (30, 1))
        idx = HNSWIndex(8, M=6, ef_construction=20, seed=0)
        idx.add_items(base, np.arange(30))
        ids, dists = idx.search(base[:1], 5, ef=40)
        assert np.all(dists == 0)
        assert len(set(ids[0].tolist())) == 5

    def test_external_ids_not_row_indices(self):
        g = np.random.default_rng(4)
        base = g.normal(size=(50, 6)).astype(np.float32)
        ext = np.arange(50) * 1000 + 17
        idx = HNSWIndex(6, M=8, ef_construction=30, seed=0)
        idx.add_items(base, ext)
        ids, _ = idx.search(base[:10], 1, ef=60)
        np.testing.assert_array_equal(ids[:, 0], ext[:10])


class TestCosine:
    def test_scale_invariance(self):
        g = np.random.default_rng(5)
        base = g.normal(size=(200, 8)).astype(np.float32)
        idx = HNSWIndex(8, M=8, ef_construction=50, metric="cosine", seed=0)
        idx.add_items(base, np.arange(200))
        q = base[3]
        ids1, _ = idx.search(q, 5, ef=200)
        ids2, _ = idx.search(q * 100.0, 5, ef=200)
        np.testing.assert_array_equal(ids1, ids2)
        assert ids1[0, 0] == 3

    def test_cosine_recall_vs_exact(self):
        ds = gaussian_mixture(n=600, dim=12, n_clusters=8, n_queries=30, seed=7)
        idx = HNSWIndex(12, M=10, ef_construction=60, metric="cosine", seed=0)
        idx.add_items(ds.base, ds.ids)
        gt, _ = exact_topk(ds.queries, ds.base, 5, ids=ds.ids, metric="cosine")
        ids, _ = idx.search(ds.queries, 5, ef=120)
        assert _recall(ids, gt) >= 0.95

    def test_cosine_distance_value(self):
        base = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        idx = HNSWIndex(2, metric="cosine")
        idx.add_items(base, np.arange(3))
        ids, dists = idx.search(np.array([1.0, 0.0], np.float32), 3, ef=10)
        assert ids[0].tolist() == [0, 1, 2]
        np.testing.assert_allclose(dists[0], [0.0, 1.0, 2.0], atol=1e-5)


def _cosine_index(ds):
    idx = HNSWIndex(ds.dim, M=8, ef_construction=40, metric="cosine", seed=4)
    idx.add_items(ds.base[:300], ds.ids[:300])
    return idx


class TestSerialization:
    def test_roundtrip_identical_results(self, small_index, small_ds):
        clone = HNSWIndex.from_bytes(small_index.to_bytes())
        a = small_index.search(small_ds.queries[:20], 10, ef=80)
        b = clone.search(small_ds.queries[:20], 10, ef=80)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1], rtol=1e-6)

    @pytest.mark.parametrize("which", ["small", "empty", "cosine"])
    def test_roundtrip_structurally_equal(self, which, small_index, small_ds):
        idx = {
            "small": lambda: small_index,
            "empty": lambda: HNSWIndex(small_ds.dim),
            "cosine": lambda: _cosine_index(small_ds),
        }[which]()
        clone = HNSWIndex.from_bytes(idx.to_bytes())
        assert clone._links == idx._links
        assert clone._levels == idx._levels
        assert clone._entry == idx._entry
        assert clone._data.dtype == np.float32 and clone.ids.dtype == np.int64
        np.testing.assert_array_equal(clone._data, idx._data)
        np.testing.assert_array_equal(clone.ids, idx.ids)
        a = idx.search(small_ds.queries[:10], 5, ef=40)
        b = clone.search(small_ds.queries[:10], 5, ef=40)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_roundtrip_preserves_params(self, small_index):
        clone = HNSWIndex.from_bytes(small_index.to_bytes())
        assert clone.M == small_index.M
        assert clone.metric == small_index.metric
        assert clone.ef_construction == small_index.ef_construction
        assert clone.n_items == small_index.n_items
        assert clone.max_level == small_index.max_level

    def test_roundtrip_can_continue_adding(self, small_ds):
        idx = HNSWIndex(small_ds.dim, M=8, ef_construction=40, seed=0)
        idx.add_items(small_ds.base[:100], small_ds.ids[:100])
        clone = HNSWIndex.from_bytes(idx.to_bytes())
        clone.add_items(small_ds.base[100:200], small_ds.ids[100:200])
        assert clone.n_items == 200


class TestGraphInvariants:
    def test_degree_caps(self, small_index):
        for level, layer in enumerate(small_index._links):
            cap = small_index.M0 if level == 0 else small_index.M
            # insertion may transiently exceed by one before prune; the
            # stored graph must respect the cap
            for node, nbrs in layer.items():
                assert len(nbrs) <= cap + 1, (level, node, len(nbrs))

    def test_links_are_symmetric_enough(self, small_index):
        """HNSW prunes, so not fully symmetric — but the base layer must
        be strongly connected enough that every node has a neighbor."""
        layer0 = small_index._links[0]
        assert len(layer0) == small_index.n_items
        n_isolated = sum(1 for v in layer0.values() if not v)
        assert n_isolated == 0

    def test_entry_point_at_max_level(self, small_index):
        assert small_index._levels[small_index._entry] == small_index.max_level


@settings(max_examples=10, deadline=None)
@given(n=st.integers(5, 80), dim=st.integers(2, 10), seed=st.integers(0, 100))
def test_property_exhaustive_search_matches_bruteforce(n, dim, seed):
    g = np.random.default_rng(seed)
    base = g.normal(size=(n, dim)).astype(np.float32)
    idx = HNSWIndex(dim, M=6, ef_construction=30, seed=seed)
    idx.add_items(base, np.arange(n))
    q = g.normal(size=(1, dim)).astype(np.float32)
    k = min(5, n)
    ids, dists = idx.search(q, k, ef=n)
    gt, gtd = exact_topk(q, base, k)
    assert set(ids[0].tolist()) == set(gt[0].tolist())
    np.testing.assert_allclose(np.sort(dists[0]), np.sort(gtd[0]), rtol=1e-4, atol=1e-5)
