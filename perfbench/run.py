"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

Workloads (inputs are made from ``--seed``; the program under test gets
only the generated hypergraphs, files and request lines):

* ``lookup`` -- warm-cache point reads (70% ``s_degree``, 30%
  ``s_neighbors``, Zipf keys) on the s=1 line graph of a uniform
  3000-edge hypergraph, closed loop over one connection: the same
  sequence through ``InProcessSession``, the threaded ``AnalyticsServer``
  and the ``AsyncAnalyticsServer``, then as 100-item batch envelopes on
  the async door.  Ten rounds, each with a fresh set-up and an equal
  share of the window for each path.
* ``file-to-answer`` -- a cold library pipeline on a skewed hub-and-tail
  hypergraph (~73k incidences) written to a ``.mtx`` file: load, build
  the s=2 line graph through ``SLineGraphCache`` (a miss), derive s=4,
  s-connected components of both, 20 s-distances, HyperCC and HyperBFS.
  Repeated until the window ends.
* ``mixed`` -- a durable store of a uniform 300-edge hypergraph
  (``build_store(warm_s=(1,))`` then ``register_store``) served by the
  async door, driven open loop at 150 Poisson arrivals per second over
  one connection with the load harness's default mix: point reads,
  components, distances, and 5% update bursts through the fsync'd WAL
  (each adds two hyperedges and removes the two added 16 bursts before).
  The schedule is played in six consecutive 5-second slices on one
  server and store, each on a fresh connection.

End-to-end metrics (``--trace 0``), the same names on every workload:

==================  =====================================================
``setup_s``         median of the set-ups (10 on ``lookup``, one per
                    round; 15 on the others), inputs made beforehand: on
                    ``lookup`` registration, s=1 warm-up and both
                    servers; on ``file-to-answer`` writing the input
                    with ``repro.io``'s ``.mtx`` writer; on ``mixed``
                    the store build, ``register_store`` and the server
``peak_rss_mb``     ``ru_maxrss`` of the benchmark process
``p50_ms``          median latency of the workload's operation: on
                    ``lookup`` a read through each of the three doors in
                    turn (the sum of the doors' medians); on
                    ``file-to-answer`` one pipeline, file path to last
                    answer; on ``mixed`` one read, from its scheduled
                    send.  On ``lookup`` and ``mixed`` the figure is the
                    median over the rounds (slices) of each one's figure
``p90_ms``          90th percentile of the same (on ``lookup`` the sum of
                    the doors' 90th percentiles)
``throughput_per_s`` ``lookup``: reads per second of the closed-loop client,
                    over the three doors (median over the rounds);
                    ``file-to-answer``: pipelines per second; ``mixed``:
                    successful requests per second at the offered rate
==================  =====================================================

On ``lookup`` and ``file-to-answer`` the times (and the throughputs
derived from them) are scaled to a nominal host speed by a reference
task timed between the measured stretches (``workloads.HostSpeed``):
this shared host runs fast and slow spells of up to minutes that
otherwise move those figures by 30% or more.  ``mixed`` is not scaled:
its tail grows faster than linearly with the host's slowdown (a slice's
p90 followed the CPU steal in it, correlation 0.85 over 24 slices,
while a reference task timed between slices followed it only at 0.3);
it reports the median over its slices instead, so a spell that covers
fewer than half of them does not move its figures.  The raw pooled
figures are in the detail line and in the ``e2e.*`` per-layer metrics.

Failed or wrong answers are counted in the result's ``failed`` (out of
``attempted``); a run with any is reported with ``"correct": false``.
The exit status is 0 whenever a result is printed, wrong answers
included: the ``correct`` field is the signal.  A run that cannot
produce a result (no sources, an unknown workload, an error) prints none
and exits non-zero.

``--trace 1`` spends the first half of the window untraced and the
second half with span wrappers installed (:mod:`spans`), and prints the
per-layer metrics: each layer's self time per operation
(``self_ms.<layer>``), the share of end-to-end time the layer spans
cover (``trace.coverage``), the traced/untraced ``p50_ms`` ratio minus
one (``tracing.overhead``), the layer metrics listed in ``PER_LAYER``,
and the untraced per-door and per-class figures (``e2e.*``).  Layers a
workload does not reach report 0.  Time metrics ending in ``_s`` are
mean seconds per call, ``_us`` median microseconds per call,
``self_ms.*`` milliseconds per operation; the ``linegraph`` counts are
per build, ``dynamic.patched``/``dropped`` and ``store.wal_bytes`` per
update.  Spans go to ``.perfbench/trace-<workload>-<seed>.jsonl``.

The environment is pinned: ``REPRO_BACKEND``, ``REPRO_WORKERS`` and
``REPRO_CHECK`` are cleared and every server setting is passed
explicitly, and the line before the result records the host's CPU
count, the Python/numpy/scipy versions and the source revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

for _var in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_CHECK"):
    os.environ.pop(_var, None)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"

E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
}

LAYERS = ("io", "core", "linegraph", "cache", "graph", "algorithms",
          "engine", "obs", "protocol", "door", "dynamic", "store")
OPS = ("s_degree", "s_neighbors", "s_connected_components", "s_distance",
       "update")

#: per-layer metric -> unit
PER_LAYER = {
    "io.read_s": "s",
    "io.bytes": "bytes",
    "core.hypergraph_s": "s",
    "linegraph.build_s": "s",
    "linegraph.candidates": "count",
    "linegraph.emitted": "count",
    "linegraph.useful_ratio": "ratio",
    "linegraph.rows.bitset": "count",
    "linegraph.rows.hashmap": "count",
    "linegraph.edges": "count",
    "cache.build_s": "s",
    "cache.derive_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "cache.stale_entries": "count",
    "graph.cc_s": "s",
    "graph.distance_s": "s",
    "algorithms.hypercc_s": "s",
    "algorithms.hyperbfs_s": "s",
    **{f"engine.execute_us.{op}": "us" for op in OPS},
    "engine.encode_us": "us",
    "engine.batch_item_us": "us",
    "obs.metrics_us": "us",
    "protocol.dispatch_us": "us",
    "door.inproc_us": "us",
    "door.threaded_us": "us",
    "door.async_us": "us",
    "dynamic.apply_s": "s",
    "dynamic.patch_s": "s",
    "dynamic.patched": "ratio",
    "dynamic.dropped": "ratio",
    "store.wal_append_s": "s",
    "store.wal_bytes": "bytes",
    "store.open_s": "s",
    "client.send_lag_ms": "ms",
    "tracing.overhead": "ratio",
    "trace.coverage": "ratio",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    "fail_ratio": "ratio",
    "e2e.inproc_p50_us": "us",
    "e2e.threaded_p50_us": "us",
    "e2e.threaded_p99_us": "us",
    "e2e.async_p50_us": "us",
    "e2e.async_p99_us": "us",
    "e2e.batch_items_per_s": "1/s",
    "e2e.answer_s": "s",
    "e2e.read_p50_ms": "ms",
    "e2e.read_p99_ms": "ms",
    "e2e.update_p50_ms": "ms",
    "e2e.goodput_rps": "1/s",
}


def environment() -> dict:
    """Host, interpreter and source revision recorded with each result."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def e2e_metrics(res) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": res.setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "p50_ms": res.p50_ms,
        "p90_ms": res.p90_ms,
        "throughput_per_s": res.throughput_per_s,
    }
    return {k: {"value": values[k], "unit": u} for k, u in E2E.items()}


def layer_metrics(rec, traced, untraced) -> dict:
    """Per-layer metrics of the traced window (see the module docstring)."""
    import numpy as np

    def mean_s(*names):
        n = sum(rec.count.get(x, 0) for x in names)
        return sum(rec.total.get(x, 0.0) for x in names) / n if n else 0.0

    def p50_us(name, own=False):
        vals = (rec.self_durations if own else rec.durations).get(name)
        return float(np.median(vals)) * 1e6 if vals else 0.0

    ops = max(1, traced.attempted)
    cache = {how: rec.count.get(f"cache.{how}", 0)
             for how in ("hit", "derive", "miss", "bypass")}
    lookups = sum(cache.values())
    executes = sum(c for n, c in rec.count.items()
                   if n.startswith("engine.execute."))
    obs_s = sum(t for n, t in rec.total.items() if n.startswith("obs."))
    batch_items = traced.detail.get("batch_items", 0)
    builds = rec.count.get("linegraph.build", 0)
    counts = traced.counts
    layer_self = rec.layer_self()
    covered = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    opens = rec.setup_count.get("store.open", 0)
    updates = traced.detail.get("updates", 0)

    def per_build(value):
        return value / builds if builds else 0.0

    cand = per_build(counts.get("candidates", 0.0))
    emitted = per_build(counts.get("emitted", 0.0))
    values = {
        "io.read_s": mean_s("io.read"),
        "io.bytes": traced.layer.get("io.bytes", 0),
        # per hypergraph constructed, its lazily built bi-adjacency included
        "core.hypergraph_s": ((rec.total.get("core.hypergraph", 0.0)
                               + rec.total.get("core.biadjacency", 0.0))
                              / rec.count["core.hypergraph"]
                              if rec.count.get("core.hypergraph") else 0.0),
        "linegraph.build_s": mean_s("linegraph.build"),
        "linegraph.candidates": cand,
        "linegraph.emitted": emitted,
        "linegraph.useful_ratio": emitted / cand if cand else 0.0,
        "linegraph.rows.bitset": per_build(counts.get("rows.bitset", 0.0)),
        "linegraph.rows.hashmap": per_build(counts.get("rows.hashmap", 0.0)),
        "linegraph.edges": (float(np.mean(rec.notes["linegraph.edges"]))
                            if rec.notes.get("linegraph.edges") else 0.0),
        "cache.build_s": mean_s("cache.miss", "cache.bypass"),
        "cache.derive_s": mean_s("cache.derive"),
        "cache.hit_ratio": cache["hit"] / lookups if lookups else 0.0,
        "cache.bytes": traced.layer.get("cache.bytes", 0),
        "cache.stale_entries": traced.layer.get("cache.stale_entries", 0),
        "graph.cc_s": mean_s("graph.cc"),
        "graph.distance_s": mean_s("graph.distance"),
        "algorithms.hypercc_s": mean_s("algorithms.hypercc"),
        "algorithms.hyperbfs_s": mean_s("algorithms.hyperbfs"),
        **{f"engine.execute_us.{op}": p50_us(f"engine.execute.{op}")
           for op in OPS},
        "engine.encode_us": p50_us("engine.encode"),
        "engine.batch_item_us": (rec.total.get("engine.batch", 0.0)
                                 / batch_items * 1e6 if batch_items else 0.0),
        "obs.metrics_us": obs_s / executes * 1e6 if executes else 0.0,
        "protocol.dispatch_us": p50_us("protocol.dispatch", own=True),
        "door.inproc_us": p50_us("door.inproc", own=True),
        "door.threaded_us": p50_us("door.threaded", own=True),
        "door.async_us": p50_us("door.async", own=True),
        "dynamic.apply_s": mean_s("dynamic.apply"),
        "dynamic.patch_s": mean_s("dynamic.patch"),
        "dynamic.patched": (counts.get("patched", 0.0) / updates
                            if updates else 0.0),
        "dynamic.dropped": (counts.get("dropped", 0.0) / updates
                            if updates else 0.0),
        "store.wal_append_s": mean_s("store.wal_append"),
        "store.wal_bytes": (counts.get("wal_bytes", 0.0) / updates
                            if updates else 0.0),
        "store.open_s": (rec.setup_total.get("store.open", 0.0) / opens
                         if opens else 0.0),
        "client.send_lag_ms": traced.detail.get("send_lag_p99_ms", 0.0),
        "tracing.overhead": traced.p50_ms / untraced.p50_ms - 1.0,
        "trace.coverage": (covered / rec.root_total
                           if rec.root_total else 0.0),
        **{f"self_ms.{layer}": layer_self.get(layer, 0.0) / ops * 1e3
           for layer in LAYERS},
        "fail_ratio": ((traced.failed + untraced.failed)
                       / (traced.attempted + untraced.attempted)),
    }
    for name in PER_LAYER:
        if name.startswith("e2e."):
            values[name] = untraced.detail.get(name[4:], 0.0)
    return {k: {"value": float(values[k]), "unit": u}
            for k, u in PER_LAYER.items()}


def measure(run, seed, seconds, workdir, rec=None, **overrides):
    """One run: ``(metrics, attempted, failed, detail)``.

    Untraced when ``rec`` is None.  Otherwise the first half of the
    window runs untraced and the second half with ``rec`` recording.
    """
    import spans

    if rec is None:
        res = run(seed, seconds, workdir=workdir, **overrides)
        return e2e_metrics(res), res.attempted, res.failed, res.detail
    half = seconds / 2.0
    untraced = run(seed, half, workdir=workdir, **overrides)
    spans.install(rec)
    rec.reset()
    rec.enabled = True
    try:
        traced = run(seed, half, rec=rec, workdir=workdir, **overrides)
    finally:
        rec.enabled = False
    return (
        layer_metrics(rec, traced, untraced),
        traced.attempted + untraced.attempted,
        traced.failed + untraced.failed,
        {"untraced": untraced.detail, "traced": traced.detail},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        rec = spans.SpanRecorder() if args.trace else None
        metrics, attempted, failed, detail = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, str(workdir),
            rec)
        if rec is not None:
            rec.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), "detail": detail},
                     default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
