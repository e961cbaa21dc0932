"""Span recording for the traced benchmark run.

Spans are recorded by wrappers that this package installs around the
public entry points of each layer of ``repro`` (see :data:`WRAPPED`);
no file of the package under test is changed.  A span has a name, a
start, an end, the span that caused it and the request it belongs to.
Its *self time* is its duration minus the time its child spans cover.

Spans nest through a per-thread stack.  A request that crosses a
socket is linked by its request line: the client registers the exact
bytes it sends under the request's root span, and the wrapper around
``dispatch_line`` on the server thread looks them up, so the server's
spans become children of the client's round-trip span.

Aggregates are kept per span name (count, inclusive and self time, and
every inclusive duration for percentiles); raw spans are kept only up
to :attr:`SpanRecorder.keep` so a long run stays small in memory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict, deque

class Frame:
    """One open span."""

    __slots__ = ("name", "start", "child", "span_id", "parent", "req")

    def __init__(self, name, start, span_id, parent, req):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent
        self.req = req


class SpanRecorder:
    """Collects spans from every thread of one benchmark process."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        #: wrappers record only while this is set
        self.enabled = False
        self.installed = False
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and aggregate."""
        self.spans: list[tuple] = []
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_durations: dict[str, list[float]] = defaultdict(list)
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.root_total = 0.0
        self.roots = 0
        self.setup_total: dict[str, float] = {}
        self.setup_count: dict[str, int] = {}
        self._by_line: dict[bytes, deque] = {}

    # -- span lifecycle ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open_root(self, name: str, start: float | None = None) -> Frame:
        """A request's root span; not pushed on any thread's stack."""
        span_id = next(self._ids)
        t = time.perf_counter() if start is None else start
        return Frame(name, t, span_id, 0, span_id)

    def open_child(self, name: str, parent: Frame) -> Frame:
        """A span caused by ``parent``, possibly on another thread."""
        return Frame(
            name, time.perf_counter(), next(self._ids), parent.span_id,
            parent.req,
        )

    def push(self, name: str) -> Frame:
        """Open a span under the current thread's innermost span."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            frame = Frame(
                name, time.perf_counter(), next(self._ids), top.span_id,
                top.req,
            )
        else:
            span_id = next(self._ids)
            frame = Frame(name, time.perf_counter(), span_id, 0, span_id)
        stack.append(frame)
        return frame

    def enter(self, frame: Frame) -> None:
        """Make ``frame`` the current thread's innermost span."""
        self._stack().append(frame)

    def pop(self, frame: Frame, parent: Frame | None = None) -> None:
        """Close the current thread's innermost span (``frame``)."""
        stack = self._stack()
        stack.pop()
        if parent is None and stack:
            parent = stack[-1]
        self.close(frame, parent)

    def close(self, frame: Frame, parent: Frame | None = None) -> float:
        end = time.perf_counter()
        dur = end - frame.start
        own = dur - frame.child
        if parent is not None:
            parent.child += dur
        name = frame.name
        with self._lock:
            self.count[name] += 1
            self.total[name] += dur
            self.self_total[name] += own
            self.durations[name].append(dur)
            self.self_durations[name].append(own)
            if frame.parent == 0:
                self.root_total += dur
                self.roots += 1
            if len(self.spans) < self.keep:
                self.spans.append(
                    (name, frame.start, end, frame.parent, frame.req,
                     frame.span_id)
                )
        return dur

    def note(self, name: str, value: float) -> None:
        """Record a value measured at a span boundary (a count, a size)."""
        with self._lock:
            self.notes[name].append(value)

    def start_window(self) -> None:
        """Set aside the set-up's spans; aggregate the timed window anew."""
        with self._lock:
            for name, t in self.total.items():
                self.setup_total[name] = self.setup_total.get(name, 0.0) + t
                self.setup_count[name] = (
                    self.setup_count.get(name, 0) + self.count[name]
                )
            for table in (self.count, self.total, self.self_total,
                          self.durations, self.self_durations, self.notes):
                table.clear()
            self.root_total = 0.0
            self.roots = 0
            self._by_line.clear()

    # -- cross-thread linking by request line --------------------------------
    def expect_line(self, line: bytes, frame: Frame) -> None:
        """Register the request line ``frame`` is about to send."""
        with self._lock:
            self._by_line.setdefault(line, deque()).append(frame)

    def claim_line(self, line: bytes) -> Frame | None:
        with self._lock:
            waiting = self._by_line.get(line)
            if not waiting:
                return None
            frame = waiting.popleft()
            if not waiting:
                del self._by_line[line]
            return frame

    def current(self) -> Frame | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- output --------------------------------------------------------------
    def layer_self(self) -> dict[str, float]:
        """Self time per layer (the span name's first component)."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for name, t in self.self_total.items():
                out[name.split(".", 1)[0]] += t
        return out

    def write(self, path) -> None:
        """Write the kept raw spans as JSON lines."""
        with self._lock:
            rows = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req, span_id in rows:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "id": span_id, "parent": parent, "request": req,
                }) + "\n")


# -- wrappers -----------------------------------------------------------------

def _plain(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.pop(frame)
    return wrapper


def _execute(rec: SpanRecorder, fn):
    """``QueryEngine.execute``: one span per op, named after the op."""
    @functools.wraps(fn)
    def wrapper(self, query, *args, **kwargs):
        if not rec.enabled:
            return fn(self, query, *args, **kwargs)
        op = query.get("op") if isinstance(query, dict) else None
        frame = rec.push(f"engine.execute.{op}")
        try:
            return fn(self, query, *args, **kwargs)
        finally:
            rec.pop(frame)
    return wrapper


def _get_or_build(rec: SpanRecorder, fn):
    """``SLineGraphCache.get_or_build``: named after how it was served."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.push("cache.get")
        how = "error"
        try:
            out = fn(*args, **kwargs)
            how = out[1]
            return out
        finally:
            frame.name = f"cache.{how}"
            rec.pop(frame)
    return wrapper


def _two_graph(rec: SpanRecorder, fn):
    """``to_two_graph``: also notes how many s-line edges it emitted."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = rec.push("linegraph.build")
        try:
            out = fn(*args, **kwargs)
            rec.note("linegraph.edges", len(out.src))
            return out
        finally:
            rec.pop(frame)
    return wrapper


def _dispatch(rec: SpanRecorder, fn):
    """``dispatch_line``/``dispatch``: the protocol layer.

    On a server thread the parent is the client's round-trip span,
    found by the request line; in-process the parent is on this
    thread's stack.
    """
    @functools.wraps(fn)
    def wrapper(engine, raw, *args, **kwargs):
        if not rec.enabled:
            return fn(engine, raw, *args, **kwargs)
        parent = rec.current()
        if parent is None and isinstance(raw, bytes):
            parent = rec.claim_line(raw)
        if parent is None:
            frame = rec.push("protocol.dispatch")
            try:
                return fn(engine, raw, *args, **kwargs)
            finally:
                rec.pop(frame)
        frame = rec.open_child("protocol.dispatch", parent)
        rec.enter(frame)
        try:
            return fn(engine, raw, *args, **kwargs)
        finally:
            rec.pop(frame, parent)
    return wrapper


#: (module, attribute path, span name or wrapper factory).  A function
#: imported by name into another module is wrapped at every binding the
#: request path reads.
WRAPPED = (
    ("repro.io.loader", "read_any", "io.read"),
    ("repro.core.hypergraph", "NWHypergraph.__init__", "core.hypergraph"),
    ("repro.structures.biadjacency", "BiAdjacency.from_biedgelist",
     "core.biadjacency"),
    ("repro.linegraph", "to_two_graph", _two_graph),
    ("repro.service.cache", "SLineGraphCache.get_or_build", _get_or_build),
    ("repro.core.slinegraph", "SLineGraph.s_connected_components",
     "graph.cc"),
    ("repro.core.slinegraph", "SLineGraph.s_distance", "graph.distance"),
    ("repro.algorithms", "hypercc", "algorithms.hypercc"),
    ("repro.algorithms", "hyperbfs", "algorithms.hyperbfs"),
    ("repro.service.engine", "QueryEngine.execute", _execute),
    ("repro.service.engine", "QueryEngine.execute_batch", "engine.batch"),
    ("repro.service.engine", "jsonify", "engine.encode"),
    ("repro.obs.metrics", "MetricsRegistry._get", "obs.lookup"),
    ("repro.obs.metrics", "Counter.inc", "obs.counter"),
    ("repro.obs.metrics", "Gauge.set", "obs.gauge"),
    ("repro.obs.metrics", "Gauge.inc", "obs.gauge"),
    ("repro.obs.metrics", "Gauge.dec", "obs.gauge"),
    ("repro.obs.metrics", "Histogram.observe", "obs.histogram"),
    ("repro.service.protocol", "dispatch_line", _dispatch),
    ("repro.service.server", "dispatch_line", _dispatch),
    ("repro.service.aserver", "dispatch_line", _dispatch),
    ("repro.service.session", "dispatch", _dispatch),
    ("repro.dynamic.hypergraph", "DynamicHypergraph.apply", "dynamic.apply"),
    ("repro.dynamic.incremental", "patch_linegraph", "dynamic.patch"),
    ("repro.store.wal", "WriteAheadLog.append", "store.wal_append"),
    ("repro.store", "open_store", "store.open"),
)


def install(rec: SpanRecorder) -> None:
    """Wrap every entry point in :data:`WRAPPED` for this process.

    The wrappers stay for the life of the process; they record into
    ``rec`` while ``rec.enabled`` is set and are a flag check otherwise.
    """
    if rec.installed:
        return
    rec.installed = True
    for module_name, path, how in WRAPPED:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        raw = owner.__dict__[attr] if isinstance(owner, type) else fn
        if isinstance(raw, classmethod):
            wrapped = classmethod(_plain(rec, how, raw.__func__))
        elif callable(how):
            wrapped = how(rec, fn)
        else:
            wrapped = _plain(rec, how, fn)
        setattr(owner, attr, wrapped)
