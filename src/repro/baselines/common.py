"""Shared statements of the connected-components algorithms (RC and baselines)."""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..mppdb import Engine


def setup_symmetric(eng: Engine, edges: DataFrame) -> int:
    """Register input G and create the symmetric edge table E = G ∪ reversed(G)."""
    eng.register_input("G", edges.select("v", "w"))
    g = eng.ref("G")
    return eng.ctas(
        "E",
        f"select v, w from {g} union all select w as v, v as w from {g}",
        label="setup",
    )


def setup_vertices(eng: Engine) -> int:
    """Create the vertex universe table ``V`` (one column ``v``) from input G.

    It gives a label to isolated vertices, which leave the edge tables early.
    """
    g = eng.ref("G")
    return eng.ctas(
        "V",
        f"select distinct v from (select v from {g} union all select w from {g})",
        label="setup_vertices",
    )


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
