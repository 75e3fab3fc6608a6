"""In-memory spans around the public entry points of each layer.

The benchmark wraps, from its own side, the calls into each layer:

* ``core``  — ``repro.core.connected_components``;
* ``ff``    — every ``Method.make_rep_table`` implementation;
* ``mppdb`` — ``Engine.register_input / ctas / scalar / row / drop / rename
  / close``;
* ``spark`` — the pyspark calls the engine makes: ``SparkSession.sql``,
  ``DataFrameWriter.parquet``, ``DataFrameReader.parquet``,
  ``DataFrame.count`` and ``DataFrame.localCheckpoint``.

A span (name, layer, start, end, parent, request id) is recorded only while
the calling thread is inside a traced request; otherwise a wrapper costs one
thread-local lookup.  Each request also collects the :class:`Engine`
instances created on its thread, so the benchmark can read their metered
rows and bytes after ``connected_components`` has returned only the labels.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    req: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Request:
    """Per-request context: identity, tracing switch and engines seen."""

    req: str
    traced: bool
    engines: list = field(default_factory=list)
    stack: list = field(default_factory=list)


class Tracer:
    """Records spans of traced requests; patches are undone by :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- request context ---------------------------------------------

    def current(self) -> Request | None:
        return getattr(self._local, "request", None)

    def enter(self, req: str, traced: bool) -> Request:
        r = Request(req, traced)
        self._local.request = r
        return r

    def leave(self) -> None:
        self._local.request = None

    # --- spans -------------------------------------------------------

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span if the current request is traced."""
        r = self.current()
        if r is None or not r.traced:
            return fn(*args, **kwargs)
        s = Span(next(self._ids), name, layer, r.req,
                 r.stack[-1] if r.stack else None, time.perf_counter())
        r.stack.append(s.sid)
        try:
            return fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter()
            r.stack.pop()
            self.spans.append(s)  # list.append is atomic under the GIL

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span wrapper."""
        orig = vars(owner)[attr]
        name = f"spark.{owner.__name__}.{attr}" if layer == "spark" else f"{layer}.{attr}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, orig, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self, spark, *, spans: bool) -> None:
        """Collect engines per request; with ``spans``, wrap every layer entry point."""
        from repro.mppdb.engine import Engine

        self._wrap_engine_init(Engine)
        if spans:
            self._wrap_layers(spark)

    def _wrap_layers(self, spark) -> None:
        import repro.core
        from pyspark.sql import SparkSession
        from pyspark.sql.readwriter import DataFrameReader, DataFrameWriter
        from repro.ff.methods import Method
        from repro.mppdb.engine import Engine

        self.wrap(repro.core, "connected_components", "core")
        todo = list(Method.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "make_rep_table" in cls.__dict__:
                self.wrap(cls, "make_rep_table", "ff")
        for attr in ("register_input", "ctas", "scalar", "row", "drop", "rename", "close"):
            self.wrap(Engine, attr, "mppdb")
        self.wrap(SparkSession, "sql", "spark")
        self.wrap(DataFrameWriter, "parquet", "spark")
        self.wrap(DataFrameReader, "parquet", "spark")
        df_cls = type(spark.range(0))
        self.wrap(df_cls, "count", "spark")
        self.wrap(df_cls, "localCheckpoint", "spark")

    def _wrap_engine_init(self, engine_cls: type) -> None:
        orig = engine_cls.__dict__["__init__"]

        @functools.wraps(orig)
        def init(eng, *args, **kwargs):
            orig(eng, *args, **kwargs)
            r = self.current()
            if r is not None:
                r.engines.append(eng)

        engine_cls.__init__ = init
        self._patches.append((engine_cls, "__init__", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → its duration minus the time its direct children cover.

    Spans of one request run on one thread, so children nest inside their
    parent and never overlap one another.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return {s.sid: s.seconds - child[s.sid] for s in spans}


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Layer → summed self time over ``spans``."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.sid]
    return dict(out)


def span_cost(tracer: Tracer, n: int = 20000) -> float:
    """Seconds one recorded span adds, from a wrapped no-op called ``n`` times."""
    tracer.enter("calibrate", True)
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            tracer.call("calibrate", "calibrate", int)
        dt = time.perf_counter() - t0
    finally:
        tracer.leave()
    t0 = time.perf_counter()
    for _ in range(n):
        int()
    base = time.perf_counter() - t0
    tracer.spans = [s for s in tracer.spans if s.layer != "calibrate"]
    return max(dt - base, 0.0) / n
