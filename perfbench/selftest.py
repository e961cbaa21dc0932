"""Self-test of the benchmark on tiny inputs (about half a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, emits exactly the
metrics ``BENCHMARK.json`` declares, each with its declared unit and a
finite value (end-to-end values also positive); that every metric the
benchmark's specification names is among them; that correct runs report no
failures; that each traced workload reaches the layers it is meant to
load (their self time is above 0) and that its root spans are not all
covered by layers; and that a deliberately wrong oracle answer is
counted, so ``failed`` and ``fail_ratio`` rise.  Exits 1 on any failed
check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (pins the environment before repro is imported)
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "lookup": {"shape": (300, 200, 4)},
    "file-to-answer": {"shape": dict(num_hubs=12, hub_size=60, num_tail=150,
                                     num_nodes=80)},
    "mixed": {"shape": (300, 200, 4)},
}
SECONDS = 1.0

#: the layers each workload must reach: their traced self time is > 0,
#: so a wrapper that no longer binds (an import renamed in ``repro``)
#: fails here instead of reporting 0
REACHED = {
    "lookup": ("engine", "obs", "protocol", "door"),
    "file-to-answer": ("io", "core", "linegraph", "cache", "graph",
                       "algorithms"),
    "mixed": ("engine", "protocol", "door", "dynamic", "store"),
}

#: every metric the benchmark's specification names, by where it is printed
NAMED = {
    "e2e": ("setup_s", "peak_rss_mb"),
    "layer": (
        "fail_ratio",
        "e2e.inproc_p50_us", "e2e.threaded_p50_us", "e2e.threaded_p99_us",
        "e2e.async_p50_us", "e2e.async_p99_us", "e2e.batch_items_per_s",
        "e2e.answer_s", "e2e.read_p50_ms", "e2e.read_p99_ms",
        "e2e.update_p50_ms", "e2e.goodput_rps",
        "io.read_s", "io.bytes", "core.hypergraph_s", "linegraph.build_s",
        "linegraph.candidates", "linegraph.emitted", "linegraph.useful_ratio",
        "linegraph.rows.bitset", "linegraph.rows.hashmap", "linegraph.edges",
        "cache.build_s", "cache.derive_s", "cache.hit_ratio", "cache.bytes",
        "cache.stale_entries", "graph.cc_s", "graph.distance_s",
        "algorithms.hypercc_s", "algorithms.hyperbfs_s",
        "engine.execute_us.s_degree", "engine.execute_us.s_neighbors",
        "engine.encode_us", "engine.batch_item_us", "obs.metrics_us",
        "protocol.dispatch_us", "door.threaded_us", "door.async_us",
        "dynamic.apply_s", "dynamic.patch_s", "dynamic.patched",
        "dynamic.dropped", "store.wal_append_s", "store.wal_bytes",
        "store.open_s", "client.send_lag_ms", "tracing.overhead",
        "trace.coverage",
    ),
}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(cond, message):
        if not cond:
            problems.append(message)

    for kind, names in NAMED.items():
        for name in names:
            check(name in declared[kind], f"{name} not declared ({kind})")
    check(declared["e2e"] == run.E2E, "BENCHMARK.json end_to_end != run.E2E")
    check(declared["layer"] == run.PER_LAYER,
          "BENCHMARK.json per_layer != run.PER_LAYER")
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads != workloads.WORKLOADS")

    workdir = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    rec = spans.SpanRecorder()
    try:
        for name, tiny in TINY.items():
            fn = workloads.WORKLOADS[name]
            for trace in (0, 1):
                metrics, attempted, failed, _ = run.measure(
                    fn, 7, SECONDS, str(workdir), rec if trace else None,
                    **tiny)
                kind = "layer" if trace else "e2e"
                got = {k: v["unit"] for k, v in metrics.items()}
                check(got == declared[kind],
                      f"{name} trace={trace}: metric names or units differ: "
                      f"{sorted(set(got) ^ set(declared[kind]))}")
                for k, v in metrics.items():
                    ok = math.isfinite(v["value"]) and (
                        trace or v["value"] > 0)
                    check(ok, f"{name} trace={trace}: {k} = {v['value']}")
                check(attempted >= 1 and failed == 0,
                      f"{name} trace={trace}: {failed}/{attempted} failed")
                if trace:
                    for layer in REACHED[name]:
                        value = metrics[f"self_ms.{layer}"]["value"]
                        check(value > 0,
                              f"{name}: layer {layer} not reached "
                              f"(self_ms.{layer} = {value})")
                    coverage = metrics["trace.coverage"]["value"]
                    check(0 < coverage < 1,
                          f"{name}: trace.coverage = {coverage}")
            metrics, attempted, failed, _ = run.measure(
                fn, 7, SECONDS, str(workdir), rec, corrupt=True, **tiny)
            check(failed > 0 and metrics["fail_ratio"]["value"] > 0,
                  f"{name}: a wrong answer was not counted")
            print(f"{name}: ok" if not problems else f"{name}: checked",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in problems:
        print("FAIL", message)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
