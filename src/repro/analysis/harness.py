"""Experiment harness: run one (algorithm, dataset) cell, metered.

Produces the raw material for the paper's Tables III (runtime), IV (max
space) and V (total written), plus round/query counts (Table I's "number
of steps") and component counts (Table II).

The paper's "—" entries are algorithms that exhausted the cluster's
resources; here the engine enforces ``budget_factor ×`` the (doubled)
input edge count as a live-row budget, and a run that exceeds it or its
algorithm's round cap is recorded with ``aborted=True``.  Any other error
propagates.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.api import get_algorithm
from ..graphs import generators as G
from ..graphs.datasets import get_dataset
from ..mppdb import Engine, RoundLimitExceeded, SpaceBudgetExceeded
from .union_find import assert_valid_labels

@dataclass
class RunRecord:
    """Everything one cell of the experiment grid produces."""

    algo: str
    dataset: str
    profile: str
    seed: int
    seconds: float
    rounds: int
    n_queries: int
    input_rows: int
    input_bytes: int
    total_rows_written: int
    total_bytes_written: int
    peak_live_rows: int
    peak_live_bytes: int
    n_vertices: int
    n_components: int
    aborted: bool
    abort_reason: str | None

    def to_dict(self) -> dict:
        return asdict(self)


def run_algorithm(
    spark: SparkSession,
    algo: str,
    edges: DataFrame,
    *,
    dataset: str = "?",
    profile: str = "?",
    seed: int = 0,
    budget_factor: float | None = 25.0,
    verify_against: pd.DataFrame | None = None,
) -> RunRecord:
    """Run one algorithm on one edge DataFrame through a fresh engine.

    ``algo`` is a key of :data:`repro.core.api.ALGORITHMS`.
    """
    solve = get_algorithm(algo)
    n_input = edges.count()
    budget = (
        max(int(budget_factor * 2 * n_input), 50_000)
        if budget_factor is not None
        else None
    )
    t0 = time.perf_counter()
    aborted, reason, n_vertices, n_components = False, None, 0, 0
    with Engine(spark, max_live_rows=budget) as eng:
        try:
            res = solve(spark, edges, seed=seed, engine=eng)
            counts = res.result.selectExpr(
                "count(*) as nv", "count(distinct r) as nc"
            ).collect()[0]
            n_vertices, n_components = int(counts["nv"]), int(counts["nc"])
            if verify_against is not None:
                assert_valid_labels(res.result, verify_against)
        except SpaceBudgetExceeded as ex:
            aborted, reason = True, f"space budget: {ex}"
        except RoundLimitExceeded as ex:
            aborted, reason = True, str(ex)
        seconds = time.perf_counter() - t0
        st = eng.stats
        return RunRecord(
            algo=algo,
            dataset=dataset,
            profile=profile,
            seed=seed,
            seconds=seconds,
            rounds=st.rounds,
            n_queries=st.n_queries,
            input_rows=st.input_rows,
            input_bytes=st.input_bytes,
            total_rows_written=st.total_rows_written,
            total_bytes_written=st.total_bytes_written,
            peak_live_rows=st.peak_live_rows,
            peak_live_bytes=st.peak_live_bytes,
            n_vertices=n_vertices,
            n_components=n_components,
            aborted=aborted,
            abort_reason=reason,
        )


def run_cell(
    spark: SparkSession,
    algo: str,
    dataset: str,
    *,
    profile: str = "bench",
    seed: int = 0,
    budget_factor: float | None = 25.0,
    verify: bool = False,
) -> RunRecord:
    """Generate a registry dataset and run one algorithm on it."""
    spec = get_dataset(dataset)
    pdf = spec.build_pandas(profile, seed)
    edges = G.to_spark(spark, pdf)
    return run_algorithm(
        spark,
        algo,
        edges,
        dataset=dataset,
        profile=profile,
        seed=seed,
        budget_factor=budget_factor,
        verify_against=pdf if verify else None,
    )


def save_records(records: list[RunRecord], path: str | Path) -> None:
    """Merge records into a JSON artifact keyed by (dataset, algo, profile)."""
    path = Path(path)
    existing: dict[str, dict] = {}
    if path.exists():
        existing = {
            f"{r['dataset']}/{r['algo']}/{r['profile']}": r
            for r in json.loads(path.read_text())
        }
    for rec in records:
        d = rec.to_dict()
        existing[f"{d['dataset']}/{d['algo']}/{d['profile']}"] = d
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sorted(existing.values(), key=lambda r: (r["dataset"], r["algo"])), indent=1))


def load_records(path: str | Path) -> list[dict]:
    path = Path(path)
    return json.loads(path.read_text()) if path.exists() else []
