"""Solve records, the correctness checks on them, and the metrics they yield.

Nothing here needs Spark: a :class:`Solve` carries the engine statistics
and spans of one request, so the checks and metric arithmetic can be tested
on hand-made records.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.union_find import assert_valid_labels

from tracing import Span, layer_self_seconds

LAYERS = ("core", "ff", "mppdb", "spark")

#: Units of the traced run's metrics, in report order.
PER_LAYER_UNITS = {
    "core.rounds": "count", "core.compose_s": "s", "core.compose_n": "count",
    "core.contract_s": "s", "core.contract_rows": "count", "core.shrink_mean": "ratio",
    "ff.reps_s": "s", "ff.reps_n": "count", "ff.reps_rows": "count",
    "mppdb.register_input_s": "s", "mppdb.ctas_n": "count", "mppdb.ctas_s": "s",
    "mppdb.s_per_ctas": "s", "mppdb.catalog_s": "s", "mppdb.bytes_written": "bytes",
    "mppdb.peak_live_bytes": "bytes",
    "spark.plan_s": "s", "spark.jobs": "count", "spark.jobs_per_ctas": "ratio",
    "spark.write_s": "s", "spark.readback_s": "s", "spark.checkpoint_s": "s",
    "self.core_s": "s", "self.ff_s": "s", "self.mppdb_s": "s", "self.spark_s": "s",
    "trace.solve_s": "s", "trace.spans": "count",
    "trace.unattributed_s": "s", "trace.attributed_frac": "ratio", "trace.span_cost_s": "s",
    "graphs.gen_s": "s", "graphs.load_s": "s", "setup.session_s": "s",
    "warmup_s": "s", "warmup.solves": "count", "analysis.verify_s": "s",
}


@dataclass
class Solve:
    """One request: which input, how long, what the engine metered."""

    req: str
    client: int
    graph: str
    rc_seed: int
    edges: int
    traced: bool = False
    start: float = 0.0
    end: float = 0.0
    stats: object | None = None  # repro.mppdb.EngineStats of the solve
    labels: object | None = None  # labels DataFrame (v, r), dropped once verified
    jobs: int | None = None  # Spark jobs of the solve's job group (traced only)
    spans: list[Span] = field(default_factory=list)
    error: str | None = None
    verify_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.error is None

    def counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for one (input, RC seed) pair."""
        out = {}
        if self.stats is not None:
            out = {
                "core.rounds": self.stats.rounds,
                "mppdb.ctas_n": self.stats.n_ctas,
                "mppdb.bytes_written": self.stats.total_bytes_written,
                "mppdb.peak_live_bytes": self.stats.peak_live_bytes,
            }
        if self.jobs is not None:
            out["spark.jobs"] = self.jobs
        return out


def verify(s: Solve, edges, clock) -> None:
    """Check ``s``'s labels against the union–find oracle; record a failure.

    Any exception counts as a failed solve, never as a dropped one.
    """
    t0 = clock()
    try:
        if s.ok:
            assert_valid_labels(s.labels, edges)
    except Exception as e:  # the oracle's verdict or a failed read-back
        s.error = f"oracle: {type(e).__name__}: {e}"[:500]
    finally:
        s.verify_s = clock() - t0
        s.labels = None


def count_mismatches(
    solves: list[Solve], previous: dict[str, dict] | None = None
) -> tuple[list[str], dict[str, dict]]:
    """Counts that differ between solves of one (input, RC seed) pair.

    ``previous`` maps ``input@rc_seed`` to the counts an earlier run with
    the same seed and code recorded; it is compared field by field as well.
    Returns the mismatches and the merged counts to keep for the next run.
    """
    seen: dict[str, dict] = {k: dict(v) for k, v in (previous or {}).items()}
    problems = []
    for s in solves:
        if s.stats is None:
            continue
        key = f"{s.graph}@{s.rc_seed}"
        ref = seen.setdefault(key, {})
        for k, v in s.counts().items():
            if ref.setdefault(k, v) != v:
                problems.append(f"{key} {k}: {v} != {ref[k]} ({s.req})")
    return problems, seen


def per_input(solves: list[Solve], value) -> list[float]:
    """The median of ``value(solve)`` for each input.

    Combining these, not the solves, weights every input once, so a mixed
    workload's figure does not depend on how many passes each client
    happened to finish.
    """
    groups = defaultdict(list)
    for s in solves:
        groups[s.graph].append(value(s))
    return [statistics.median(v) for v in groups.values()]


def end_to_end(solves: list[Solve], t_start: float, setup_s: float) -> dict[str, float]:
    """The user-visible numbers; ``failed_frac`` is the result's failed/attempted.

    Per-input medians are combined by their geometric mean, so each input's
    run-to-run variation averages out across the mix.  Throughput sums each
    client's verified edges over that client's own wall time (window start
    to its last reply), so a client that finished its last pass early
    leaves no idle time in the figure.  With no successful solve there is
    nothing to measure, and the result is empty.
    """
    good = [s for s in solves if s.ok]
    if not good:
        return {}
    per_client = defaultdict(list)
    for s in solves:
        per_client[s.client].append(s)
    throughput = sum(
        sum(s.edges for s in ss if s.ok) / (max(s.end for s in ss) - t_start)
        for ss in per_client.values()
    )
    out = {
        "solve_s": statistics.geometric_mean(per_input(good, lambda s: s.seconds)),
        "throughput_edges_per_s": throughput,
        "setup_s": setup_s,
    }
    metered = [s for s in good if s.stats is not None and s.stats.input_bytes > 0]
    if metered:
        out["peak_space_ratio"] = statistics.geometric_mean(per_input(
            metered, lambda s: s.stats.peak_live_bytes / s.stats.input_bytes))
        out["written_ratio"] = statistics.geometric_mean(per_input(
            metered, lambda s: s.stats.total_bytes_written / s.stats.input_bytes))
    return out


def _label_sum(stats, label: str, attr: str) -> float:
    return sum(getattr(q, attr) for q in stats.queries if q.label == label)


def _span_sum(spans: list[Span], *names: str) -> float:
    return sum(s.seconds for s in spans if s.name in names)


def shrink_mean(stats) -> float:
    """Mean ratio of ``reps`` rows, round i+1 over round i (theory: ≤ 3/4)."""
    rows = [q.rows for q in stats.queries if q.label == "reps"]
    ratios = [b / a for a, b in zip(rows, rows[1:]) if a]
    return statistics.fmean(ratios) if ratios else 0.0


def per_solve_layers(s: Solve) -> dict[str, float]:
    """Per-layer numbers of one traced solve."""
    st, sp = s.stats, s.spans
    own = layer_self_seconds(sp)
    ctas_n = st.n_ctas
    m = {
        "core.rounds": st.rounds,
        "core.compose_s": _label_sum(st, "compose", "seconds"),
        "core.compose_n": sum(1 for q in st.queries if q.label == "compose"),
        "core.contract_s": _label_sum(st, "contract", "seconds"),
        "core.contract_rows": _label_sum(st, "contract", "rows"),
        "core.shrink_mean": shrink_mean(st),
        "ff.reps_s": _span_sum(sp, "ff.make_rep_table"),
        "ff.reps_n": sum(1 for x in sp if x.name == "ff.make_rep_table"),
        "ff.reps_rows": _label_sum(st, "reps", "rows"),
        "mppdb.register_input_s": _span_sum(sp, "mppdb.register_input"),
        "mppdb.ctas_n": ctas_n,
        "mppdb.ctas_s": _span_sum(sp, "mppdb.ctas"),
        "mppdb.s_per_ctas": _span_sum(sp, "mppdb.ctas") / ctas_n,
        "mppdb.catalog_s": _span_sum(sp, "mppdb.drop", "mppdb.rename"),
        "mppdb.bytes_written": st.total_bytes_written,
        "mppdb.peak_live_bytes": st.peak_live_bytes,
        "spark.plan_s": _span_sum(sp, "spark.SparkSession.sql"),
        "spark.jobs": s.jobs,
        "spark.jobs_per_ctas": s.jobs / ctas_n,
        "spark.write_s": _span_sum(sp, "spark.DataFrameWriter.parquet"),
        "spark.readback_s": _span_sum(sp, "spark.DataFrameReader.parquet", "spark.DataFrame.count"),
        "spark.checkpoint_s": _span_sum(sp, "spark.DataFrame.localCheckpoint"),
        "trace.solve_s": s.seconds,
        "trace.spans": len(sp),
        "trace.unattributed_s": own.get("bench", 0.0),  # the root span's own time
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = own.get(layer, 0.0)
    return m


def per_layer(solves: list[Solve], extra: dict[str, float], span_cost_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric: the median over inputs of the
    per-input medians of :func:`per_solve_layers`, plus the set-up terms in
    ``extra``."""
    traced = [s for s in solves if s.ok and s.traced]
    rows = {id(s): per_solve_layers(s) for s in traced}
    out = {k: statistics.median(per_input(traced, lambda s, k=k: rows[id(s)][k]))
           for k in next(iter(rows.values()))} if rows else {}
    if rows:
        out["trace.attributed_frac"] = 1 - out["trace.unattributed_s"] / out["trace.solve_s"]
        out["trace.span_cost_s"] = out["trace.spans"] * span_cost_s
    out["analysis.verify_s"] = statistics.median(s.verify_s for s in solves)
    out.update(extra)
    return {k: out[k] for k in PER_LAYER_UNITS if k in out}
