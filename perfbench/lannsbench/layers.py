"""Per-layer metrics of the traced run, grouped by the module they measure.

Every probe calls a layer's public functions from here, on the workload's
own data, segmenter and store, and times the call with the span recorder.
The arrow in each comment names the end-to-end metric the number should
move (see ../README.md).
"""
from __future__ import annotations

import glob
import os
import time

import numpy as np

from lannsbench.spans import Tracer
from lannsbench.workloads import Ctx, Spec, State, load_broker

ROUTE_SAMPLE = 200  # single-query route calls, as the broker makes them
HNSW_SEARCH_SAMPLE = 200  # driver-side searches on the largest partition
BROKER_SAMPLE = 300  # traced broker queries when the workload has none
CONFIDENCE = 0.95  # p of Eq 5-6: the default of query_index and Broker


def tail(samples) -> tuple[float, float] | None:
    """(percentile, value) for the highest of a few standard percentiles
    that has at least ten samples beyond it, else None."""
    a = np.asarray(samples, dtype=np.float64)
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if a.size * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(a, p))
    return None


def _membership(lists, n_segments: int) -> np.ndarray:
    """Per-row segment lists -> (rows, n_segments) boolean matrix."""
    m = np.zeros((len(lists), n_segments), dtype=bool)
    rows = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
    m[rows, np.concatenate(lists)] = True
    return m


def _noop(df) -> None:
    """Materialise a DataFrame without collecting it."""
    df.write.format("noop").mode("overwrite").save()


def _timed(tr: Tracer, name: str, fn):
    t0 = time.perf_counter()
    with tr.span(name):
        out = fn()
    return out, time.perf_counter() - t0


def instrument_broker(broker, tr: Tracer, probes: list, finals: list) -> None:
    """Wrap the loaded serving objects' methods in spans.

    ``probes`` receives (trace id, result) for every segment search and
    ``finals`` (trace id, result) for every broker answer, so the useful
    share of the fan-out can be measured.
    """
    broker.search = tr.wrap(broker.search, "serving.Broker.search", finals)
    for searcher in broker.searchers:
        searcher.search = tr.wrap(searcher.search, "serving.Searcher.search")
        searcher.segmenter.route = tr.wrap(searcher.segmenter.route, "segmenters.route")
        for idx in searcher._segments.values():
            idx.search = tr.wrap(idx.search, "hnsw.search", probes)


def serving_metrics(tr: Tracer, probes: list, finals: list) -> tuple[dict, dict]:
    """Serving metrics from the spans of traced broker queries, plus the
    percentile the tail figure stands for and the sample count."""
    st = tr.self_times()
    n = st["serving.Broker.search"]["calls"]
    per_query: dict[int, int] = {}
    for trace_id, _ in probes:
        per_query[trace_id] = per_query.get(trace_id, 0) + 1
    final = {t: set(out[0].tolist()) for t, out in finals}
    useful = sum(bool(final[t] & set(out[0].ravel().tolist())) for t, out in probes)
    probed = [per_query.get(t, 0) for t, _ in finals]
    p, v = tail(probed) or (100.0, float(max(probed)))
    metrics = {
        "serving.broker_self_ms": (st["serving.Broker.search"]["self_s"] / n * 1e3, "ms"),
        "serving.searcher_self_ms": (st["serving.Searcher.search"]["self_s"] / n * 1e3, "ms"),
        "serving.segments_probed_per_query": (float(np.mean(probed)), "count"),
        "serving.segments_probed_tail": (v, "count"),
        "serving.useful_probe_ratio": (useful / len(probes), "ratio"),
    }
    return metrics, {"segments_probed_tail_percentile": p, "broker_queries": n}


def measure(ctx: Ctx, spec: Spec, st: State, serving: tuple | None) -> tuple[dict, dict]:
    """All per-layer metrics for one workload as name -> (value, unit),
    and notes on how some were taken.

    ``serving`` is :func:`serving_metrics` of a traced timed phase; when
    the workload has none, a traced broker probe is run here.
    """
    from repro.bruteforce.spark_bf import merge_topk
    from repro.core import IndexStore, per_shard_topk, query_index
    from repro.core.partitioner import route_queries, shard_of, tag_partitions
    from repro.hnsw.graph import HNSWIndex
    from repro.synth_data import vectors_to_df

    tr, spark, E = ctx.tracer, ctx.spark, ctx.n_exec
    ds, seg, spill, S, K = st.ds, st.segmenter, spec.spill, spec.n_shards, spec.topk
    queries = ds.queries[: spec.batch]
    pstk = per_shard_topk(K, S, CONFIDENCE)
    store = IndexStore(st.store_root)
    out: dict = {}

    # segmenters: learn -> setup_s; assign -> throughput on build;
    # route -> serve p50; routing miss -> recall
    seg_of, t = _timed(
        tr, "segmenters.assign", lambda: seg.assign(ds.base, ds.ids, spill=spill)
    )
    out["segmenters.learn_s"] = (st.learn_s, "s")
    out["segmenters.assign_ms_per_1k"] = (t * 1e3 / (ds.n / 1e3), "ms")
    one = [q[None, :] for q in queries[:ROUTE_SAMPLE]]
    _, t = _timed(
        tr, "segmenters.route.single_queries", lambda: [seg.route(q, spill=spill)[0] for q in one]
    )
    out["segmenters.route_ms_per_query"] = (t * 1e3 / len(one), "ms")
    stored = _membership(seg_of, seg.n_segments)
    probed = _membership(seg.route(ds.queries, spill=spill), seg.n_segments)
    gt = st.gt_ids[:, :K]
    miss = ~np.any(stored[gt] & probed[:, None, :], axis=2)
    out["segmenters.routing_miss_rate"] = (float(miss.mean()), "ratio")

    # partitioner: tag -> build throughput; route -> offline throughput
    tagged = tag_partitions(spark, st.df, seg, S, spill=spill)
    _, t = _timed(tr, "partitioner.tag_partitions", lambda: _noop(tagged))
    out["partitioner.tag_s"] = (t, "s")
    out["partitioner.tag_rows_per_vector"] = (tagged.count() / ds.n, "ratio")
    qdf = vectors_to_df(spark, queries, id_col="query_id")
    probes_df = route_queries(spark, qdf, seg, S, spill=spill)
    _, t = _timed(tr, "partitioner.route_queries", lambda: _noop(probes_df))
    rows = probes_df.count()
    out["partitioner.route_s"] = (t, "s")
    out["partitioner.probes_per_query"] = (rows / len(queries), "count")
    # query_id, vector (d float32), segment_id, shard_id
    out["partitioner.probe_bytes"] = (float(rows * (8 + 4 * ds.dim + 8 + 8)), "bytes")

    # indexing, from build_index's own summary -> build throughput
    sm = st.summary
    bucket = (sm["shard_id"] * spec.n_segments + sm["segment_id"]) % min(E, S * spec.n_segments)
    critical = float(sm.groupby(bucket)["build_seconds"].sum().max())
    out["indexing.task_build_s_sum"] = (float(sm["build_seconds"].sum()), "s")
    out["indexing.critical_bucket_s"] = (critical, "s")
    out["indexing.overhead_s"] = (st.build_wall_s - critical, "s")
    out["indexing.partition_skew"] = (float(sm["n_items"].max() / sm["n_items"].mean()), "ratio")

    # hnsw, driver-side on the largest partition
    big = sm.loc[sm["n_items"].idxmax()]
    ids = np.sort(store.read_index(int(big["shard_id"]), int(big["segment_id"])).ids)
    vecs = ds.base[ids]  # the generated ids are row numbers
    idx = HNSWIndex(ds.dim, M=spec.hnsw_m, ef_construction=spec.ef_construction, seed=ctx.seed)
    _, t = _timed(tr, "hnsw.add_items", lambda: idx.add_items(vecs, ids))
    out["hnsw.inserts_per_s"] = (len(ids) / t, "1/s")
    qs = queries[:HNSW_SEARCH_SAMPLE]
    _, t = _timed(tr, "hnsw.search.largest_partition", lambda: idx.search(qs, pstk, ef=spec.ef))
    out["hnsw.search_ms_per_probe"] = (t * 1e3 / len(qs), "ms")
    blob, t = _timed(tr, "hnsw.to_bytes", idx.to_bytes)
    out["hnsw.to_bytes_s"] = (t, "s")
    _, t = _timed(tr, "hnsw.from_bytes", lambda: HNSWIndex.from_bytes(blob))
    out["hnsw.from_bytes_s"] = (t, "s")
    out["hnsw.index_bytes"] = (float(len(blob)), "bytes")

    # index_store: write -> build throughput; read -> offline throughput
    parts = store.list_partitions()
    blobs = {}
    for s, m in parts:
        with open(store.index_path(s, m), "rb") as f:
            blobs[(s, m)] = f.read()
    copy = IndexStore(ctx.fresh_dir("store-copy"))
    _, t = _timed(tr, "index_store.write", lambda: [
        copy.write_index_bytes(s, m, b) for (s, m), b in blobs.items()
    ])
    out["index_store.write_s"] = (t, "s")
    _, t = _timed(tr, "index_store.read", lambda: [store.read_index(s, m) for s, m in parts])
    out["index_store.read_s"] = (t, "s")

    # querying with checkpoints, and the merges over its partials
    cp = ctx.fresh_dir("checkpoints")
    final, _ = _timed(tr, "querying.query_index", lambda: query_index(
        spark, st.store_root, queries, K, ef=spec.ef, n_executors=E, checkpoint_dir=cp
    ).toPandas())
    partials = spark.read.parquet(glob.glob(os.path.join(cp, "partials-*"))[0])
    n_partial = partials.count()
    out["querying.partial_rows"] = (float(n_partial), "count")
    out["querying.useful_partial_ratio"] = (len(final) / n_partial, "ratio")
    _, t = _timed(tr, "bruteforce.merge_topk.segment", lambda: _noop(
        merge_topk(partials, pstk, by=("query_id", "shard_id"))
    ))
    out["bruteforce.merge_segment_s"] = (t, "s")
    shard_rows = spark.read.parquet(glob.glob(os.path.join(cp, "shard-results-*"))[0])
    _, t = _timed(tr, "bruteforce.merge_topk.shard", lambda: _noop(
        merge_topk(shard_rows.drop("shard_id"), K, by=("query_id",))
    ))
    out["bruteforce.merge_shard_s"] = (t, "s")
    out["bruteforce.exact_topk_s"] = (st.exact_topk_s, "s")

    # topk: a query "misses" when one shard fills all perShardTopK slots
    shard = shard_of(final["neighbor_id"].to_numpy(np.int64), S)
    per = final.assign(shard=shard).groupby(["query_id", "shard"]).size()
    full = per[per >= pstk].reset_index()["query_id"].nunique() if pstk < K else 0
    out["topk.per_shard_topk"] = (float(pstk), "count")
    out["topk.miss_rate"] = (full / len(queries), "ratio")
    out["topk.miss_bound"] = (1 - CONFIDENCE, "ratio")

    # serving
    if serving is None:
        broker, load_s = load_broker(ctx, spec, st.store_root)
        probes, finals = [], []
        instrument_broker(broker, tr, probes, finals)
        for q in queries[:BROKER_SAMPLE]:
            broker.search(q, K)
        serving = serving_metrics(tr, probes, finals)
    else:
        load_s = st.load_s
    out["serving.load_s"] = (load_s, "s")
    out.update(serving[0])
    return out, serving[1]
