"""The three workloads: their shapes, set-up and timed phases.

Each workload gets its inputs only from ``--seed``: the generators in
``repro.synth_data`` make the base vectors and a query pool, and the
program under test receives those arrays and nothing else.

- ``build``: the write path alone (tag, shuffle, HNSW insert, serialise,
  store write); no search and no merge in the timed phase.
- ``offline_query``: the Spark query dataflow (route, shuffle, in-task
  index load and search, two merge levels); no HNSW insert.
- ``serve``: the in-process ``Broker`` as one closed-loop client, with no
  Spark in the timed phase; per-call routing, search and merge overhead.
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from lannsbench import checks
from lannsbench.spans import Tracer

SETUP_REPEATS = 3  # set-up runs per untraced run; setup_s is their median
MIN_SERVE_QUERIES = 1_000  # so that serve_p99_ms has 10 samples beyond it
WARM_UP_QUERIES = 10


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    dataset: str  # a generator in repro.synth_data
    n: int  # base vectors
    n_queries: int  # size of the query pool the timed phase cycles through
    batch: int  # queries per offline query_index call / recall sample size
    n_shards: int
    n_segments: int
    spill: str
    topk: int
    ef: int
    hnsw_m: int = 12
    ef_construction: int = 100
    alpha: float = 0.15

    def scaled(self, scale: float) -> "Spec":
        return replace(
            self,
            n=max(200, int(self.n * scale)),
            n_queries=max(20, int(self.n_queries * scale)),
            batch=max(20, int(self.batch * scale)),
        )


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="build",
            why="write path only: tag, shuffle, HNSW insert, to_bytes, store write",
            dataset="sift_like", n=1_500, n_queries=200, batch=200,
            n_shards=2, n_segments=4, spill="physical", topk=10, ef=100,
        ),
        Spec(
            name="offline_query",
            why="Spark routing, shuffle, in-task load+search and two-level merge; no insert",
            dataset="sift_like", n=2_500, n_queries=1_500, batch=500,
            n_shards=4, n_segments=2, spill="virtual", topk=100, ef=100,
        ),
        Spec(
            name="serve",
            why="in-process Broker, one closed-loop client: per-call route/search/merge",
            dataset="groups_like", n=2_000, n_queries=2_000, batch=300,
            n_shards=2, n_segments=8, spill="virtual", topk=15, ef=100,
        ),
    )
}


@dataclass
class Ctx:
    """What every phase needs: the session, the executor count, the
    tracer and a private scratch directory inside the checkout."""

    spark: object
    n_exec: int
    tracer: Tracer
    work: str
    seed: int
    _dirs: int = 0

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{stem}-{self._dirs}")
        os.makedirs(path)
        return path


@dataclass
class State:
    """Set-up products handed to the timed phase and the layer probes."""

    ds: object
    gt_ids: np.ndarray
    segmenter: object
    df: object
    setup_s: float
    learn_s: float
    exact_topk_s: float
    store_root: str | None = None
    summary: pd.DataFrame | None = None
    build_wall_s: float | None = None
    broker: object | None = None
    load_s: float | None = None


@dataclass
class Timed:
    """Outcome of one timed phase."""

    op_seconds: list[float]  # one entry per user-visible operation
    items: int  # vectors indexed or queries answered
    wall_s: float
    attempted: int = 0
    failed: int = 0
    recall: float = float("nan")


def _timer():
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


def build(ctx: Ctx, spec: Spec, st: State, root: str):
    """One ``build_index`` call into ``root``; returns (summary, wall_s)."""
    from repro.core import build_index

    elapsed = _timer()
    with ctx.tracer.span("indexing.build_index"):
        summary = build_index(
            ctx.spark, st.df, root, st.segmenter, spec.n_shards,
            spill=spec.spill, hnsw_m=spec.hnsw_m,
            ef_construction=spec.ef_construction, n_executors=ctx.n_exec,
            seed=ctx.seed,
        )
    return summary, elapsed()


def setup(ctx: Ctx, spec: Spec) -> State:
    """Data, exact ground truth, segmenter, Spark input and, for the query
    workloads, the index (and the broker for ``serve``)."""
    import repro.synth_data as synth
    from repro.bruteforce import exact_topk
    from repro.core import query_index
    from repro.segmenters import learn_segmenter

    tr = ctx.tracer
    total = _timer()
    with tr.span("setup"):
        ds = getattr(synth, spec.dataset)(
            n=spec.n, n_queries=spec.n_queries, seed=ctx.seed
        )
        t = _timer()
        with tr.span("bruteforce.exact_topk"):
            gt_ids, _ = exact_topk(ds.queries, ds.base, spec.topk, ids=ds.ids)
        exact_s = t()
        t = _timer()
        with tr.span("segmenters.learn"):
            seg = learn_segmenter(
                "APD", spec.n_segments, sample=ds.base, alpha=spec.alpha, seed=ctx.seed
            )
        learn_s = t()
        df = synth.vectors_to_df(ctx.spark, ds.base, ds.ids)
        st = State(ds, gt_ids, seg, df, 0.0, learn_s, exact_s)
        if spec.name == "build":
            warm_up_build(ctx, spec, st)
        else:
            st.store_root = ctx.fresh_dir("store")
            st.summary, st.build_wall_s = build(ctx, spec, st, st.store_root)
        if spec.name == "offline_query":
            with tr.span("setup.warm_up"):
                query_index(ctx.spark, st.store_root, ds.queries[:WARM_UP_QUERIES],
                            spec.topk, ef=spec.ef, n_executors=ctx.n_exec).toPandas()
        if spec.name == "serve":
            st.broker, st.load_s = load_broker(ctx, spec, st.store_root)
            with tr.span("setup.warm_up"):
                for q in ds.queries[:WARM_UP_QUERIES]:
                    st.broker.search(q, spec.topk)
    st.setup_s = total()
    return st


def warm_up_build(ctx: Ctx, spec: Spec, st: State) -> None:
    """A build over an eighth of the data into a throw-away store, so that
    the Python workers start and the JVM compiles the build plan here
    rather than in the first timed build."""
    from repro.synth_data import vectors_to_df

    part = slice(0, max(spec.n // 8, 2 * spec.n_shards * spec.n_segments))
    small = replace(st, df=vectors_to_df(ctx.spark, st.ds.base[part], st.ds.ids[part]))
    root = ctx.fresh_dir("warm-up")
    with ctx.tracer.span("setup.warm_up"):
        build(ctx, spec, small, root)
    shutil.rmtree(root, ignore_errors=True)


def load_broker(ctx: Ctx, spec: Spec, root: str):
    from repro.core import IndexStore
    from repro.serving import Broker

    t = _timer()
    with ctx.tracer.span("serving.load"):
        broker = Broker(IndexStore(root), ef=spec.ef)
    return broker, t()


def setup_repeated(ctx: Ctx, spec: Spec, repeats: int) -> tuple[State, list[float]]:
    """Set up ``repeats`` times; keep the last state, discard the others."""
    times, st = [], None
    for _ in range(repeats):
        if st is not None and st.store_root:
            shutil.rmtree(st.store_root, ignore_errors=True)
        st = setup(ctx, spec)
        times.append(st.setup_s)
    return st, times


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root)
        for f in files
    )


# ------------------------------------------------------------ timed phases
def run_build(ctx: Ctx, spec: Spec, st: State, seconds: float) -> Timed:
    """Repeated ``build_index`` calls for ``seconds``; each one is checked
    against the driver-side partition map. Recall is scored afterwards,
    untimed, through a ``Broker`` on the last store."""
    expected = checks.expected_partition_sizes(st.ds, st.segmenter, spec)
    res = Timed([], 0, 0.0)
    prev = None
    while res.wall_s < seconds:
        root = ctx.fresh_dir("store")
        summary, wall = build(ctx, spec, st, root)
        res.op_seconds.append(wall)
        res.wall_s += wall
        res.items += spec.n
        res.attempted += 1
        res.failed += checks.build_violations(root, summary, expected, spec)
        if prev:
            shutil.rmtree(prev, ignore_errors=True)
        prev, st.store_root, st.summary, st.build_wall_s = root, root, summary, wall
    broker, _ = load_broker(ctx, spec, st.store_root)
    sample = st.ds.queries[: spec.batch]
    got = [broker.search(q, spec.topk) for q in sample]
    res.attempted += len(got)
    res.failed += checks.query_violations(got, spec.topk, st.ds.n)
    res.recall = checks.recall(got, st.gt_ids, spec.topk)
    return res


def run_offline(ctx: Ctx, spec: Spec, st: State, seconds: float) -> Timed:
    """Repeated ``query_index(...).toPandas()`` over successive batches of
    the query pool; then a fixed sample is compared set-wise with the
    ``Broker`` on the same store."""
    from repro.core import query_index

    res = Timed([], 0, 0.0)
    hits = 0.0
    n_batches = max(1, spec.n_queries // spec.batch)
    first = None
    while res.wall_s < seconds:
        b = len(res.op_seconds) % n_batches
        qs = slice(b * spec.batch, (b + 1) * spec.batch)
        elapsed = _timer()
        with ctx.tracer.span("querying.query_index"):
            out = query_index(
                ctx.spark, st.store_root, st.ds.queries[qs], spec.topk,
                ef=spec.ef, n_executors=ctx.n_exec,
            ).toPandas()
        wall = elapsed()
        res.op_seconds.append(wall)
        res.wall_s += wall
        n_q = qs.stop - qs.start
        res.items += n_q
        res.attempted += n_q
        got = checks.rows_to_lists(out, n_q)
        res.failed += checks.offline_violations(out, n_q, spec.topk, st.ds.n)
        hits += checks.recall(got, st.gt_ids[qs], spec.topk) * n_q
        if first is None:
            first = got
    res.recall = hits / res.items
    broker, _ = load_broker(ctx, spec, st.store_root)
    n_cmp = min(20, len(first))
    res.attempted += n_cmp
    res.failed += checks.broker_mismatches(broker, st.ds.queries, first[:n_cmp], spec.topk)
    return res


def run_serve(ctx: Ctx, spec: Spec, st: State, seconds: float) -> Timed:
    """One closed-loop client: each ``Broker.search`` is sent when the
    previous one returns. Runs at least ``seconds`` and at least
    ``MIN_SERVE_QUERIES`` queries."""
    res = Timed([], 0, 0.0)
    queries, got = st.ds.queries, []
    n_pool = queries.shape[0]
    total = _timer()
    while total() < seconds or len(got) < MIN_SERVE_QUERIES:
        q = queries[len(got) % n_pool]
        elapsed = _timer()
        out = st.broker.search(q, spec.topk)
        res.op_seconds.append(elapsed())
        got.append(out)
    res.wall_s = total()
    res.items = res.attempted = len(got)
    res.failed = checks.query_violations(got, spec.topk, st.ds.n)
    gt = st.gt_ids[np.arange(len(got)) % n_pool]
    res.recall = checks.recall(got, gt, spec.topk)
    return res


TIMED = {"build": run_build, "offline_query": run_offline, "serve": run_serve}
