"""The three workloads: ``lookup``, ``file-to-answer`` and ``mixed``.

Each workload function makes its inputs, then sets up several times and
reports the median set-up time, inputs not included (``lookup`` once
per round, ``file-to-answer`` spread over its window, ``mixed`` before
its window), runs its timed window for the given seconds, checks every
answer against an oracle from :mod:`data`, and returns a
:class:`Result`.

Every service is configured with the ``repro serve`` defaults, passed
explicitly: a 64 MiB line-graph cache, 4 simulated batch threads, the
``simulated`` backend, no quotas, an ephemeral port on 127.0.0.1, and 8
in-flight executions on the async door.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import data
from client import LineClient

#: set-ups per run on file-to-answer and mixed (a few tens of
#: milliseconds each at most); lookup sets up once per round
SETUPS = 15
CACHE_BUDGET = 64 * 1024 * 1024  # repro serve --budget-mb 64
SERVE_THREADS = 4  # repro serve --threads 4
SERVE_BACKEND = "simulated"  # repro serve default backend
ASYNC_INFLIGHT = 8  # repro serve --max-inflight 8
SERVE_AT = {"host": "127.0.0.1", "port": 0, "quotas": None}

#: lookup: the dataset, the batch envelope size, and the rounds; each
#: round sets up afresh and gives each door and the batches an equal
#: share of the window
LOOKUP_SHAPE = (3000, 2000, 4)
LOOKUP_BATCH = 100
LOOKUP_ROUNDS = 10
DOORS = ("inproc", "threaded", "async")
#: file-to-answer: ~73k incidences (hubs * hub_size + tail * 5.5)
SKEW_SHAPE = dict(num_hubs=160, hub_size=420, num_tail=1100, num_nodes=512)
FTA_S = 2
FTA_S_HIGH = 4
FTA_PAIRS = 20
#: mixed: the dataset, the offered rate, and the slices of the window
MIXED_SHAPE = (300, 200, 4)
MIXED_RATE = 150.0
MIXED_ROUNDS = 6


@dataclass
class Result:
    """What one timed window produced."""

    setup_s: float
    p50_ms: float
    p90_ms: float
    throughput_per_s: float
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _registry_counts(registry) -> dict:
    """``{(name, sorted label items): value}`` for counters and gauges."""
    out = {}
    for rec in registry.snapshot():
        if rec["kind"] in ("counter", "gauge"):
            key = (rec["name"], tuple(sorted(rec["labels"].items())))
            out[key] = rec["value"]
    return out


def _registry_sum(counts: dict, name: str, **labels) -> float:
    total = 0.0
    for (n, lab), value in counts.items():
        if n == name and all(dict(lab).get(k) == v for k, v in labels.items()):
            total += value
    return total


def _counts(before: dict, after: dict) -> dict:
    """Window deltas of the counters the per-layer metrics read."""
    def delta(name, **labels):
        return (_registry_sum(after, name, **labels)
                - _registry_sum(before, name, **labels))

    return {
        # the "dispatch" pseudo-family repeats its chunks' totals
        "candidates": delta("linegraph_kernel_candidates_total")
        - delta("linegraph_kernel_candidates_total", kernel="dispatch"),
        "emitted": delta("linegraph_kernel_emitted_total")
        - delta("linegraph_kernel_emitted_total", kernel="dispatch"),
        "rows.bitset": delta("dispatch_rows_total", kernel="bitset"),
        "rows.hashmap": delta("dispatch_rows_total", kernel="hashmap"),
        "patched": delta("dynamic_cache_patches_total", outcome="patched"),
        "dropped": delta("dynamic_cache_patches_total", outcome="dropped"),
        "wal_bytes": delta("store.wal_bytes"),
    }


class HostSpeed:
    """Scales measured times to a nominal host speed.

    A shared host runs fast and slow spells of seconds to minutes; in
    one spell every path of ``lookup`` ran twice as fast for several
    runs in a row.  A fixed reference task is timed between the measured
    stretches; each stretch's times are scaled by the reference's
    nominal duration over the mean of its durations just before and
    after the stretch, so the spells cancel while a change to the
    program still moves the figures in proportion.  Raw times are kept
    in the detail line and in the per-layer ``e2e.*`` metrics.

    The request paths are interpreter-bound and follow an interpreter
    reference; the file-to-answer pipeline also spends much of its time
    in numpy array passes, which follow memory speed more than clock
    speed, so ``arrays=True`` adds array passes to the reference.  The
    reference is itself noisy: each timing is the median of ``repeats``
    runs, and a workload with few stretches uses more repeats.
    """

    def __init__(self, arrays: bool = False, repeats: int = 1) -> None:
        self._perm = (np.random.default_rng(0).permutation(1_000_000)
                      if arrays else None)
        self._repeats = repeats
        # the reference's duration on a quiet host of this kind
        self._nominal_s = 0.045 if arrays else 0.06
        self._last = self._reference()

    def _reference(self) -> float:
        times = []
        for _ in range(self._repeats):
            t0 = time.perf_counter()
            if self._perm is None:
                _interpreter_work(400_000)
            else:
                np.sort(self._perm)
                _interpreter_work(200_000)
                np.cumsum(self._perm)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def factor(self) -> float:
        """The scale for times measured since the previous call."""
        now = self._reference()
        scale = self._nominal_s * 2.0 / (self._last + now)
        self._last = now
        return scale


def _interpreter_work(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    table = {i: i for i in range(n // 2)}
    return total + len(table)


def _untraced_setup(rec, make):
    """Time ``make()`` with span recording paused: ``(seconds, state)``."""
    paused = rec is not None and rec.enabled
    if paused:
        rec.enabled = False
    try:
        t0 = time.perf_counter()
        state = make()
        return time.perf_counter() - t0, state
    finally:
        if paused:
            rec.enabled = True


def _median_setup(make, close):
    """Set up ``SETUPS`` times; keep the last; median wall time."""
    times, state = [], None
    for i in range(SETUPS):
        if state is not None:
            close(state)
        t0 = time.perf_counter()
        state = make(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def _serve_engine(registry):
    from repro.service import QueryEngine, SLineGraphCache

    return QueryEngine(
        cache=SLineGraphCache(budget_bytes=CACHE_BUDGET, metrics=registry),
        num_threads=SERVE_THREADS,
        metrics=registry,
        backend=SERVE_BACKEND,
        workers=None,
    )


def _canon(resp) -> str:
    """A response without its wall-clock field, as the wire would carry it."""
    if isinstance(resp, dict):
        resp = {k: v for k, v in resp.items() if k != "ms"}
    return json.dumps(resp)


# -- lookup -------------------------------------------------------------------

class _LookupState:
    def __init__(self, inputs, shape):
        from repro.obs import MetricsRegistry
        from repro.service import AnalyticsServer, AsyncAnalyticsServer
        from repro.structures.edgelist import BiEdgeList

        ne, nv, _ = shape
        self.part0, self.part1 = inputs
        self.num_edges, self.num_nodes = ne, nv
        self.registry = MetricsRegistry()
        self.engine = _serve_engine(self.registry)
        self.engine.store.register(
            "lookup", BiEdgeList(self.part0, self.part1, n0=ne, n1=nv)
        )
        warm = self.engine.execute(
            {"op": "warm", "dataset": "lookup", "s_values": [1]}
        )
        if not warm.get("ok"):
            raise RuntimeError(f"warm failed: {warm}")
        self.threaded = AnalyticsServer(self.engine, **SERVE_AT).start()
        self.aserver = AsyncAnalyticsServer(
            self.engine, max_inflight=ASYNC_INFLIGHT, **SERVE_AT
        ).start()

    def close(self):
        self.aserver.stop()
        self.threaded.stop()
        self.engine.close()


def _lookup_oracle(state):
    b = data.incidence(state.part0, state.part1, state.num_edges,
                       state.num_nodes)
    src, dst, _ = data.line_graph(b, 1)
    adj = data.adjacency(src, dst, state.num_edges)
    adj.sort_indices()
    return adj


def _lookup_expected(adj, payload):
    v = payload["v"]
    row = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
    if payload["op"] == "s_degree":
        return int(row.size)
    return [int(x) for x in row]


def lookup(seed, seconds, rec=None, shape=LOOKUP_SHAPE, workdir=".",
           corrupt=False):
    """Warm-cache point reads through each door in turn, then batches.

    Each of the ``LOOKUP_ROUNDS`` rounds sets the service up afresh
    (timed: ``setup_s`` is the median), so set-ups and fresh server
    threads are spread over the window, and gives every path an equal
    share of it.  Each round's times are scaled by :class:`HostSpeed`.
    A round's figures sum the three doors' figures (one read through
    each door in turn); the reported figures are their median over the
    rounds, so a spell of the host covering fewer than half the rounds
    does not move them.
    """
    budget = seconds / (4.0 * LOOKUP_ROUNDS)
    raw = {door: [] for door in DOORS}
    canon = {door: [] for door in DOORS}
    batch_s, rounds = [], []
    setups, batch_items, failed, counts = [], 0, 0, {}
    items = adj = None
    speed = HostSpeed(repeats=3)
    inputs = data.uniform_hypergraph(*shape, np.random.default_rng([seed, 1]))
    for _ in range(LOOKUP_ROUNDS):
        took, state = _untraced_setup(rec,
                                      lambda: _LookupState(inputs, shape))
        marks = {door: len(raw[door]) for door in DOORS}
        try:
            if adj is None:
                adj = _lookup_oracle(state)
                if corrupt:  # self-test: the oracle must catch a wrong answer
                    adj.indices[:] = (adj.indices + 1) % state.num_edges
                rng = np.random.default_rng([seed, 2])
                items = data.LookupItems(state.num_edges, 1_000_000, rng,
                                         "lookup")
                if rec is not None:
                    rec.start_window()
            before = _registry_counts(state.registry)
            for door in DOORS:
                failed += _closed_loop(state, door, items, adj, budget, rec,
                                       raw[door], canon[door])
            times, done, bad = _batches(state, items, batch_items, adj,
                                        budget, rec)
            batch_s += times
            batch_items += done
            failed += bad
            for k, v in _counts(before,
                                _registry_counts(state.registry)).items():
                counts[k] = counts.get(k, 0.0) + v
            cache_bytes = state.engine.cache.current_bytes
        finally:
            state.close()
        scale = speed.factor()
        setups.append(took * scale)
        lat = {door: raw[door][marks[door]:] for door in DOORS}
        rounds.append([scale * sum(_pct(lat[door], q) for door in DOORS)
                       for q in (50, 90)]
                      + [scale * sum(statistics.fmean(lat[door])
                                     for door in DOORS)])
    n = min(len(raw[door]) for door in DOORS)
    failed += sum(
        1 for i in range(n)
        if not canon["inproc"][i] == canon["threaded"][i]
        == canon["async"][i]
    )
    attempted = sum(len(raw[door]) for door in DOORS) + batch_items
    detail = {
        "inproc_p50_us": _pct(raw["inproc"], 50) * 1e6,
        "threaded_p50_us": _pct(raw["threaded"], 50) * 1e6,
        "threaded_p99_us": _pct(raw["threaded"], 99) * 1e6,
        "async_p50_us": _pct(raw["async"], 50) * 1e6,
        "async_p99_us": _pct(raw["async"], 99) * 1e6,
        "batch_items_per_s": LOOKUP_BATCH / statistics.median(batch_s),
        "rounds_ms": [[x * 1e3 for x in r] for r in rounds],
        "samples": {door: len(raw[door]) for door in DOORS},
        "batches": len(batch_s),
        "batch_items": batch_items,
    }
    layer = {"cache.bytes": cache_bytes}
    return Result(
        setup_s=statistics.median(setups),
        p50_ms=statistics.median(r[0] for r in rounds) * 1e3,
        p90_ms=statistics.median(r[1] for r in rounds) * 1e3,
        throughput_per_s=len(DOORS) / statistics.median(r[2] for r in rounds),
        attempted=attempted,
        failed=failed,
        detail=detail,
        layer=layer,
        counts=counts,
    )


def _closed_loop(state, door, items, adj, budget, rec, lat, canon):
    """One request at a time over one path until ``budget`` seconds pass.

    Continues ``items`` where this path's last call stopped, appending
    each latency to ``lat`` and each canonical response's hash to
    ``canon``; returns the number of wrong answers.
    """
    from repro.service import InProcessSession

    bad = 0
    perf = time.perf_counter
    deadline = perf() + budget
    start = len(lat)
    if door == "inproc":
        session = InProcessSession(state.engine, strict=False)
        for i in range(start, len(items)):
            if perf() >= deadline:
                break
            payload = items[i]
            if rec is not None:
                root = rec.push("client.request")
                frame = rec.push("door.inproc")
            t0 = perf()
            resp = session.request(payload)
            t1 = perf()
            if rec is not None:
                rec.pop(frame)
                rec.pop(root)
            lat.append(t1 - t0)
            canon.append(hash(_canon(resp)))
            bad += _check_point(resp, adj, payload)
        return bad
    server = state.threaded if door == "threaded" else state.aserver
    with LineClient(server.address) as client:
        for i in range(start, len(items)):
            if perf() >= deadline:
                break
            payload = items[i]
            resp, seconds = _round_trip(client, payload, f"door.{door}",
                                        rec)
            lat.append(seconds)
            canon.append(hash(_canon(resp)))
            bad += _check_point(resp, adj, payload)
    return bad


def _round_trip(client, payload, door, rec):
    """Send one request, wait for its response: ``(response, seconds)``.

    Traced, the request's root span is the client's: it covers encoding
    the request and decoding the response, outside every layer, and the
    round trip is its ``door`` child.
    """
    root = rec.open_root("client.request") if rec is not None else None
    line = json.dumps(payload).encode("utf-8")
    if root is not None:
        frame = rec.open_child(door, root)
        rec.expect_line(line, frame)
    t0 = time.perf_counter()
    client.send(line)
    raw = client.recv()
    seconds = time.perf_counter() - t0
    if root is not None:
        rec.close(frame, root)
    resp = json.loads(raw)
    if root is not None:
        rec.close(root)
    return resp, seconds


def _check_point(resp, adj, payload) -> int:
    if not isinstance(resp, dict) or resp.get("ok") is not True:
        return 1
    return int(resp.get("result") != _lookup_expected(adj, payload))


def _batches(state, items, first, adj, budget, rec):
    """The same items, from ``first`` on, as ``LOOKUP_BATCH``-item
    envelopes on the async door: ``(seconds each, items, wrong)``."""
    perf = time.perf_counter
    times, done, bad = [], 0, 0
    deadline = perf() + budget
    with LineClient(state.aserver.address) as client:
        for start in range(first, len(items) - LOOKUP_BATCH + 1,
                           LOOKUP_BATCH):
            if perf() >= deadline:
                break
            chunk = [items[i] for i in range(start, start + LOOKUP_BATCH)]
            resps, seconds = _round_trip(client, {"batch": chunk},
                                         "door.async", rec)
            times.append(seconds)
            done += len(chunk)
            if not isinstance(resps, list) or len(resps) != len(chunk):
                bad += len(chunk)
                continue
            bad += sum(_check_point(r, adj, p) for r, p in zip(resps, chunk))
    return times, done, bad


# -- file-to-answer -----------------------------------------------------------

class _FileInputs:
    """The seeded hub-and-tail incidence and the rng the oracle draws on."""

    def __init__(self, seed, shape):
        rng = np.random.default_rng([seed, 3])
        self.part0, self.part1 = data.skewed_hypergraph(rng=rng, **shape)
        self.num_edges = shape["num_hubs"] + shape["num_tail"]
        self.num_nodes = shape["num_nodes"]
        self.pairs_rng = rng


class _FileState:
    """The inputs written to a ``.mtx`` file by ``repro.io``'s writer."""

    def __init__(self, inputs, workdir, index):
        import repro.io.loader as loader
        from repro.structures.edgelist import BiEdgeList

        self.path = os.path.join(workdir, f"skewed-{index}.mtx")
        loader.write_any(self.path, BiEdgeList(
            inputs.part0, inputs.part1, n0=inputs.num_edges,
            n1=inputs.num_nodes))
        self.bytes = os.path.getsize(self.path)

    def close(self):
        os.remove(self.path)


class _FileOracle:
    def __init__(self, st):
        b = data.incidence(st.part0, st.part1, st.num_edges, st.num_nodes)
        self.incidences = int(b.nnz)
        self.lg = {s: data.line_graph(b, s) for s in (FTA_S, FTA_S_HIGH)}
        adj = {
            s: data.adjacency(src, dst, st.num_edges)
            for s, (src, dst, _) in self.lg.items()
        }
        self.cc = {s: data.components(a) for s, a in adj.items()}
        live = np.flatnonzero(np.diff(adj[FTA_S].indptr) > 0)
        rng = st.pairs_rng
        self.pairs = [
            (int(a), int(b_))
            for a, b_ in zip(rng.choice(live, FTA_PAIRS),
                             rng.choice(live, FTA_PAIRS))
        ]
        self.dist = data.distances(adj[FTA_S], self.pairs)
        bip, ne, _ = data.bipartite(b)
        _, labels = data.csgraph.connected_components(bip, directed=False)
        self.cc_labels = labels
        self.bfs_source = int(rng.integers(st.num_nodes))
        d = data.csgraph.shortest_path(
            bip, unweighted=True, indices=[ne + self.bfs_source]
        )[0]
        d[np.isinf(d)] = -1
        self.bfs = d.astype(np.int64)


def _same_partition(a, b) -> bool:
    """Two labelings describe the same partition."""
    pairs = np.unique(np.stack([a, b]), axis=1)
    return (np.unique(pairs[0]).size == pairs.shape[1]
            == np.unique(pairs[1]).size)


def file_to_answer(seed, seconds, rec=None, shape=SKEW_SHAPE, workdir=".",
                   corrupt=False):
    """A cold library pipeline from a ``.mtx`` path to the last answer.

    Set-up writes the generated input with ``repro.io``'s ``.mtx``
    writer, ``SETUPS`` times spread over the window (the median is
    ``setup_s``).  Times are scaled by :class:`HostSpeed`.
    """
    speed = HostSpeed(arrays=True)
    inputs = _FileInputs(seed, shape)
    setups = []

    def setup():
        took, state = _untraced_setup(
            rec, lambda: _FileState(inputs, workdir, len(setups)))
        setups.append(took * speed.factor())
        return state

    st = setup()
    try:
        oracle = _FileOracle(inputs)
        if corrupt:
            oracle.dist = [d + 1 for d in oracle.dist]
        if rec is not None:
            rec.start_window()
        times, scaled, failed, counts, last_bytes = [], [], 0, {}, 0
        start = time.perf_counter()
        while not times or time.perf_counter() < start + seconds:
            t, out, registry, cache = _pipeline(st.path, oracle.pairs,
                                                oracle.bfs_source, rec)
            times.append(t)
            scaled.append(t * speed.factor())
            failed += _check_pipeline(out, oracle)
            for k, v in _counts({}, _registry_counts(registry)).items():
                counts[k] = counts.get(k, 0.0) + v
            last_bytes = cache.current_bytes
            due = start + seconds * len(setups) / SETUPS
            if len(setups) < SETUPS and time.perf_counter() >= due:
                st.close()
                st = setup()
        detail = {
            "answer_s": statistics.median(times),
            "answer_p90_s": _pct(times, 90),
            "incidences": oracle.incidences,
            "file_bytes": st.bytes,
            "pipelines": len(times),
        }
        layer = {"cache.bytes": last_bytes, "io.bytes": st.bytes}
        return Result(
            setup_s=statistics.median(setups),
            p50_ms=statistics.median(scaled) * 1e3,
            p90_ms=_pct(scaled, 90) * 1e3,
            throughput_per_s=len(scaled) / sum(scaled),
            attempted=len(times),
            failed=failed,
            detail=detail,
            layer=layer,
            counts=counts,
        )
    finally:
        st.close()


def _pipeline(path, pairs, bfs_source, rec):
    import repro.algorithms as algorithms
    import repro.io.loader as loader
    from repro.obs import MetricsRegistry
    from repro.service import SLineGraphCache

    registry = MetricsRegistry()
    frame = rec.push("bench.pipeline") if rec is not None else None
    t0 = time.perf_counter()
    hg = loader.load_hypergraph(path)
    cache = SLineGraphCache(budget_bytes=CACHE_BUDGET, metrics=registry)
    lg2, how2 = cache.get_or_build("fta", FTA_S, hg)
    lg4, how4 = cache.get_or_build("fta", FTA_S_HIGH, hg)
    cc2 = lg2.s_connected_components()
    cc4 = lg4.s_connected_components()
    dist = [lg2.s_distance(a, b) for a, b in pairs]
    edge_labels, node_labels = algorithms.hypercc(hg.biadjacency)
    edge_dist, node_dist = algorithms.hyperbfs(hg.biadjacency, bfs_source)
    t = time.perf_counter() - t0
    if frame is not None:
        rec.pop(frame)
    out = {
        "how": (how2, how4),
        "lg": {FTA_S: lg2, FTA_S_HIGH: lg4},
        "cc": {FTA_S: cc2, FTA_S_HIGH: cc4},
        "dist": dist,
        "labels": np.concatenate([edge_labels, node_labels]),
        "bfs": np.concatenate([edge_dist, node_dist]),
    }
    return t, out, registry, cache


def _check_pipeline(out, oracle) -> int:
    ok = out["how"] == ("miss", "derive")
    for s, (src, dst, w) in oracle.lg.items():
        el = out["lg"][s].edgelist
        a, b = np.minimum(el.src, el.dst), np.maximum(el.src, el.dst)
        order = np.lexsort((b, a))
        ok = ok and np.array_equal(a[order], src) and np.array_equal(
            b[order], dst)
        ok = ok and el.weights is not None and np.array_equal(
            el.weights[order].astype(np.int64), w)
        got = {frozenset(c.tolist()) for c in out["cc"][s]}
        ok = ok and got == oracle.cc[s]
    ok = ok and out["dist"] == oracle.dist
    ok = ok and _same_partition(out["labels"], oracle.cc_labels)
    ok = ok and np.array_equal(out["bfs"], oracle.bfs)
    return 0 if ok else 1


# -- mixed --------------------------------------------------------------------

class _MixedState:
    def __init__(self, inputs, workdir, index, shape):
        from repro.obs import MetricsRegistry
        from repro.service import AsyncAnalyticsServer
        from repro.store import build_store
        from repro.structures.edgelist import BiEdgeList

        ne, nv, _ = shape
        part0, part1 = inputs
        self.directory = os.path.join(workdir, f"store-{index}")
        build_store(self.directory, BiEdgeList(part0, part1, n0=ne, n1=nv),
                    name="mixed", warm_s=(1,))
        self.registry = MetricsRegistry()
        self.engine = _serve_engine(self.registry)
        info = self.engine.register_store("mixed", self.directory)
        if not info["hydrated"]:
            raise RuntimeError("store opened without its s=1 line graph")
        self.server = AsyncAnalyticsServer(
            self.engine, max_inflight=ASYNC_INFLIGHT, **SERVE_AT
        ).start()

    def close(self):
        self.server.stop()
        self.engine.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def mixed(seed, seconds, rec=None, shape=MIXED_SHAPE, workdir=".",
          corrupt=False):
    """Open-loop Poisson traffic with update bursts on the async door.

    The window's schedule is played in ``MIXED_ROUNDS`` consecutive
    slices, each on a fresh connection to the same server and store.
    The reported latencies are the median over the slices of each
    slice's percentile, so a noisy spell of the host that covers fewer
    than half the slices does not move them; the pooled figures are in
    the detail line and the per-layer ``e2e.*`` metrics.
    """
    inputs = data.uniform_hypergraph(*shape, np.random.default_rng([seed, 4]))
    setup_s, st = _median_setup(
        lambda i: _MixedState(inputs, workdir, i, shape), lambda s: s.close()
    )
    try:
        rng = np.random.default_rng([seed, 5])
        schedule = data.mixed_schedule(MIXED_RATE, seconds, rng, "mixed",
                                       shape[0], shape[1])
        before = _registry_counts(st.registry)
        if rec is not None:
            rec.start_window()
        rows, lag, wall, errors, rounds = [], [], 0.0, [], []
        unanswered = 0
        span = seconds / MIXED_ROUNDS
        for r in range(MIXED_ROUNDS):
            part = [(t - r * span, p) for t, p in schedule
                    if r * span <= t < (r + 1) * span]
            got, late, took, transport = _open_loop(st.server.address, part,
                                                    rec)
            rows += got
            lag += late
            wall += took
            if len(got) < len(part):
                unanswered += len(part) - len(got)
                errors.append(f"{len(part) - len(got)} request(s) "
                              f"unanswered: {transport}")
            read_lat = [x[2] for x in got if x[0] != "update" and x[1]]
            if read_lat:
                rounds.append((_pct(read_lat, 50), _pct(read_lat, 90)))
        after = _registry_counts(st.registry)
        reads = [r for r in rows if r[0] != "update" and r[1]]
        updates = [r for r in rows if r[0] == "update" and r[1]]
        wrong = [f"{r[0]}: {r[3]}" for r in rows if not r[1]]
        if _check_final_state(st, corrupt):
            wrong.append("final s=1 line graph differs from a rebuild")
        failed = len(wrong) + unanswered
        errors += wrong
        stale = _stale_entries(st)
        read_lat = [r[2] for r in reads]
        update_lat = [r[2] for r in updates]
        detail = {
            "read_p50_ms": _pct(read_lat, 50) * 1e3,
            "read_p99_ms": _pct(read_lat, 99) * 1e3,
            "update_p50_ms": (_pct(update_lat, 50) * 1e3
                              if update_lat else 0.0),
            "goodput_rps": (len(reads) + len(updates)) / wall,
            "send_lag_p99_ms": _pct(lag, 99) * 1e3,
            "rounds_ms": [[p50 * 1e3, p90 * 1e3] for p50, p90 in rounds],
            "requests": len(schedule),
            "updates": len(update_lat),
            "final_version": st.engine.store.version("mixed"),
            "errors": errors[:10],
            "cache_keys": [k[0] for k in st.engine.cache.keys()],
        }
        layer = {
            "cache.bytes": st.engine.cache.current_bytes,
            "cache.stale_entries": stale,
        }
        return Result(
            setup_s=setup_s,
            p50_ms=statistics.median(p50 for p50, _ in rounds) * 1e3,
            p90_ms=statistics.median(p90 for _, p90 in rounds) * 1e3,
            throughput_per_s=detail["goodput_rps"],
            attempted=len(schedule) + 1,
            failed=failed,
            detail=detail,
            layer=layer,
            counts=_counts(before, after),
        )
    finally:
        st.close()


def _open_loop(address, schedule, rec):
    """Send on schedule from one thread, receive on another, one socket.

    Latency runs from each request's scheduled send time, so a stall
    also counts against the requests that should have been sent during
    it.  The receiver only reads and timestamps; responses are parsed
    after the stretch, so the client holds the interpreter as little as
    it can while the server runs.  Returns ``(rows, send lags, wall
    seconds, transport errors)`` with one ``(op, ok, latency, error)``
    row per response.
    """
    lines = [json.dumps(p).encode("utf-8") for _, p in schedule]
    frames: list = [None] * len(schedule)
    got, lag, errors = [], [], []
    perf = time.perf_counter
    with LineClient(address) as client:
        t0 = perf() + 0.05

        def sender():
            try:
                for i, (t, _) in enumerate(schedule):
                    due = t0 + t
                    delay = due - perf()
                    if delay > 0:
                        time.sleep(delay)
                    if rec is not None:
                        root = rec.open_root("client.request", start=due)
                        door = rec.open_child("door.async", root)
                        frames[i] = (root, door)
                        rec.expect_line(lines[i], door)
                    sent = perf()
                    client.send(lines[i])
                    lag.append(sent - due)
            except OSError as exc:
                errors.append(exc)

        def receiver():
            try:
                for i in range(len(schedule)):
                    raw = client.recv()
                    got.append((raw, perf()))
                    if rec is not None:
                        root, door = frames[i]
                        rec.close(door, root)
                        rec.close(root)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=sender, daemon=True),
                   threading.Thread(target=receiver, daemon=True)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=schedule[-1][0] + 120.0 if schedule else 120.0)
        wall = perf() - t0
        if any(th.is_alive() for th in threads):
            client.sock.close()
            for th in threads:
                th.join(timeout=5.0)
    rows = []
    for (t, payload), (raw, done) in zip(schedule, got):
        try:
            resp = json.loads(raw)
        except ValueError as exc:
            resp = str(exc)
        ok = isinstance(resp, dict) and resp.get("ok") is True
        why = None if ok else str(
            resp.get("error") if isinstance(resp, dict) else resp)[:200]
        rows.append((payload["op"], ok, done - (t0 + t), why))
    return rows, lag, wall, [str(exc) for exc in errors]


def _check_final_state(st, corrupt) -> int:
    """The cached s=1 line graph of the final version equals a rebuild."""
    engine = st.engine
    key = engine.store.versioned_name("mixed")
    lg, _ = engine.cache.get_or_build(key, 1, engine.store.get("mixed"))
    final = engine.store.get_dynamic("mixed").snapshot()
    b = data.incidence(np.asarray(final.row), np.asarray(final.col),
                       final.number_of_edges(), final.number_of_nodes())
    src, dst, w = data.line_graph(b, 1)
    if corrupt:
        w = w + 1
    el = lg.edgelist
    a, c = np.minimum(el.src, el.dst), np.maximum(el.src, el.dst)
    order = np.lexsort((c, a))
    same = (np.array_equal(a[order], src) and np.array_equal(c[order], dst)
            and el.weights is not None
            and np.array_equal(el.weights[order].astype(np.int64), w))
    return 0 if same else 1


def _stale_entries(st) -> int:
    """Cache entries keyed to an older version of the dataset."""
    current = st.engine.store.versioned_name("mixed")
    return sum(
        1 for d, _, _ in st.engine.cache.keys()
        if (d == "mixed" or d.startswith("mixed@")) and d != current
    )


WORKLOADS = {
    "lookup": lookup,
    "file-to-answer": file_to_answer,
    "mixed": mixed,
}
