"""Tests for the online serving simulation (repro.serving) — Sec 7."""
import os

import numpy as np
import pytest

from repro.bruteforce.local import exact_topk
from repro.core.topk import per_shard_topk
from repro.segmenters import RandomSegmenter, learn_apd_segmenter
from repro.serving import Broker, Searcher
from repro.synth_data import gaussian_mixture
from tests.util import build_local_store


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=3000, dim=12, n_clusters=16, n_queries=60, seed=21)


@pytest.fixture(scope="module")
def rs_store(ds, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve-rs"))
    return build_local_store(ds, root, RandomSegmenter(4), 2)


@pytest.fixture(scope="module")
def apd_store(ds, tmp_path_factory):
    seg = learn_apd_segmenter(ds.base[:1500], 4, alpha=0.15, seed=0)
    root = str(tmp_path_factory.mktemp("serve-apd"))
    return build_local_store(ds, root, seg, 1)


class TestSearcher:
    def test_loads_all_segments(self, rs_store):
        s = Searcher(rs_store, 0, ef=100)
        assert s.n_segments == 4

    def test_missing_shard_raises(self, rs_store):
        with pytest.raises(ValueError):
            Searcher(rs_store, 9)

    def test_missing_segment_raises(self, tmp_path):
        """A segment file absent from the store fails the load; it is not
        silently skipped."""
        small = gaussian_mixture(n=200, dim=12, n_clusters=4, n_queries=1, seed=22)
        store = build_local_store(small, str(tmp_path / "gap"), RandomSegmenter(4), 2)
        os.remove(store.index_path(1, 2))
        Searcher(store, 0)
        with pytest.raises(FileNotFoundError):
            Searcher(store, 1)

    def test_results_sorted_and_bounded(self, rs_store, ds):
        s = Searcher(rs_store, 0, ef=100)
        ids, dists = s.search(ds.queries[0], 10)
        assert len(ids) == len(dists) <= 10
        assert np.all(np.diff(dists) >= 0)

    def test_rs_probes_all_segments(self, rs_store, ds):
        """RS has no locality: searcher results must equal an exhaustive
        scan over everything the shard hosts."""
        s = Searcher(rs_store, 0, ef=10_000)
        all_ids, all_vecs = [], []
        for m, idx in s._segments.items():
            all_ids.append(idx.ids)
            all_vecs.append(idx._data)
        ids = np.concatenate(all_ids)
        vecs = np.vstack(all_vecs)
        gt, _ = exact_topk(ds.queries[:5], vecs, 10, ids=ids)
        for qi in range(5):
            got, _ = s.search(ds.queries[qi], 10)
            assert set(got.tolist()) == set(gt[qi].tolist())


class TestBroker:
    def test_high_recall_rs(self, rs_store, ds):
        broker = Broker(rs_store, ef=200)
        gt, _ = exact_topk(ds.queries, ds.base, 20, ids=ds.ids)
        out, stats = broker.benchmark(ds.queries, 20)
        rec = np.mean(
            [len(set(out[i].tolist()) & set(gt[i].tolist())) / 20 for i in range(ds.queries.shape[0])]
        )
        assert rec >= 0.95
        assert stats.qps > 0 and stats.p99_ms >= stats.p50_ms

    def test_high_recall_apd_single_shard(self, apd_store, ds):
        broker = Broker(apd_store, ef=200)
        gt, _ = exact_topk(ds.queries, ds.base, 15, ids=ds.ids)
        out, _ = broker.benchmark(ds.queries, 15)
        rec = np.mean(
            [len(set(out[i].tolist()) & set(gt[i].tolist())) / 15 for i in range(ds.queries.shape[0])]
        )
        assert rec >= 0.9

    def test_returns_topk_results(self, rs_store, ds):
        broker = Broker(rs_store, ef=100)
        ids, dists = broker.search(ds.queries[0], 12)
        assert len(ids) == 12
        assert np.all(np.diff(dists) >= -1e-6)
        assert len(set(ids.tolist())) == 12

    def test_per_shard_topk_reduces_fetch(self, rs_store, ds):
        """With perShardTopK on, each searcher is asked for fewer than
        topK candidates, yet final recall stays high (Sec 5.3.2)."""
        k = 40
        pstk = per_shard_topk(k, 2, 0.95)
        assert pstk < k
        with_opt = Broker(rs_store, ef=200, use_per_shard_topk=True)
        without = Broker(rs_store, ef=200, use_per_shard_topk=False)
        gt, _ = exact_topk(ds.queries[:30], ds.base, k, ids=ds.ids)
        r_with, r_without = [], []
        for i in range(30):
            a, _ = with_opt.search(ds.queries[i], k)
            b, _ = without.search(ds.queries[i], k)
            r_with.append(len(set(a.tolist()) & set(gt[i].tolist())) / k)
            r_without.append(len(set(b.tolist()) & set(gt[i].tolist())) / k)
        assert np.mean(r_with) >= np.mean(r_without) - 0.03
        assert np.mean(r_with) >= 0.93

    def test_physical_vs_virtual_spill_comparable(self, ds, tmp_path_factory):
        """Table 7's claim: the two spill modes reach comparable recall."""
        seg = learn_apd_segmenter(ds.base[:1500], 4, alpha=0.15, seed=0)
        recs = {}
        for spill in ("virtual", "physical"):
            root = str(tmp_path_factory.mktemp(f"spill-{spill}"))
            store = build_local_store(ds, root, seg, 1, spill=spill)
            broker = Broker(store, ef=150)
            gt, _ = exact_topk(ds.queries, ds.base, 15, ids=ds.ids)
            out, _ = broker.benchmark(ds.queries, 15)
            recs[spill] = np.mean(
                [len(set(out[i].tolist()) & set(gt[i].tolist())) / 15 for i in range(len(out))]
            )
        assert abs(recs["virtual"] - recs["physical"]) < 0.05
        assert min(recs.values()) > 0.8

    @pytest.mark.parametrize("case", ["matrix", "wrong_dim", "nan", "inf"])
    def test_bad_query_rejected_before_fan_out(self, rs_store, ds, case):
        broker = Broker(rs_store, ef=50)
        for searcher in broker.searchers:
            searcher.search = None  # any fan-out would raise TypeError
        query = ds.queries[0].copy()
        if case == "matrix":
            query = ds.queries[:2]
        elif case == "wrong_dim":
            query = query[:-1]
        else:
            query[3] = np.nan if case == "nan" else np.inf
        with pytest.raises(ValueError):
            broker.search(query, 5)

    def test_stats_fields(self, rs_store, ds):
        broker = Broker(rs_store, ef=50)
        _, stats = broker.benchmark(ds.queries[:10], 5)
        assert stats.n_queries == 10
        assert stats.p50_ms > 0
