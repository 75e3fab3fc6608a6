"""Shared pieces for the baseline connected-components algorithms."""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from ..mppdb import Engine, EngineStats


@dataclass
class AlgoResult:
    """Outcome of one baseline run (shape-compatible with RCResult)."""

    result: DataFrame  # columns (v, r)
    rounds: int
    stats: EngineStats
    algorithm: str


def setup_symmetric(eng: Engine, edges: DataFrame, *, loops: bool) -> int:
    """Register input G and create E = G ∪ reversed(G) (optionally loop-free).

    Also creates the vertex universe table ``V`` (one column ``v``) used to
    emit a label for isolated vertices, which leave the edge tables early.
    """
    eng.register_input("G", edges.select("v", "w"))
    g = eng.ref("G")
    where = "" if loops else " where v != w"
    n = eng.ctas(
        "E",
        f"select v, w from {g}{where} "
        f"union all select w as v, v as w from {g}{where}",
        label="setup",
    )
    eng.ctas(
        "V",
        f"select distinct v from (select v from {g} union all select w from {g})",
        label="setup_vertices",
    )
    return n


def sig(eng: Engine, table: str, cols: str = "v, w") -> tuple[int, int]:
    """Order-independent signature of a table, for fixpoint detection."""
    # decimal(38,0) sum: ANSI mode (Spark 4 default) would overflow a bigint.
    row = eng.row(
        f"select count(*) as c, "
        f"coalesce(sum(cast(xxhash64({cols}) as decimal(38, 0))), 0) as h "
        f"from {eng.ref(table)}",
        label="signature",
    )
    return int(row["c"]), int(row["h"])
