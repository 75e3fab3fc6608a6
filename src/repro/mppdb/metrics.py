"""Metric records for the in-Spark MPP-database emulation.

The paper reports three resource metrics per (algorithm, dataset) run:
wall time (Table III), maximum space used at any instant (Table IV), and
total bytes written across all CTAS statements (Table V — what a
transactional execution would have to retain).  The engine produces all
three from per-query records collected here.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryRecord:
    """One executed statement (CTAS or scalar read)."""

    label: str
    round: int
    rows: int
    bytes: int
    seconds: float
    kind: str  # "ctas" | "read" | "input"
    table: str | None = None


@dataclass
class EngineStats:
    """Aggregated statistics over an engine's lifetime."""

    queries: list[QueryRecord] = field(default_factory=list)
    rounds: int = 0  # advanced by Engine.next_round
    input_rows: int = 0
    input_bytes: int = 0
    peak_live_rows: int = 0
    peak_live_bytes: int = 0

    @property
    def n_queries(self) -> int:
        return sum(1 for q in self.queries if q.kind != "input")

    @property
    def n_ctas(self) -> int:
        return sum(1 for q in self.queries if q.kind == "ctas")

    @property
    def total_rows_written(self) -> int:
        return sum(q.rows for q in self.queries if q.kind == "ctas")

    @property
    def total_bytes_written(self) -> int:
        return sum(q.bytes for q in self.queries if q.kind == "ctas")
