"""Two-Phase / alternating star algorithm (Kiveris et al., SoCC 2014 [26]).

Alternates two edge-rewriting operations until fixpoint:

* **large-star(u)**: connect every *strictly larger* neighbour of u to
  ``m(u) = min(N[u] ∪ {u})``;
* **small-star(u)**: connect every neighbour ``≤ u`` (and u itself) to the
  minimum among them and u.

At the fixpoint the edge set is a union of stars whose centres are the
component minima.  O(log² |V|) rounds, linear space.

Storage convention (as in [26]): between rounds the edge table holds each
undirected edge **once**, canonically oriented ``v > w``.  Star outputs are
already canonical, so no symmetrisation table is ever materialised; the
large-star step expands both directions only inside its query.  This is
what makes Two-Phase the most space-frugal competitor in the paper's
Table IV (≤2× the input), which the engine metrics reproduce.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from ..mppdb import Engine, with_engine
from .common import setup_vertices, sig


@with_engine
def two_phase(
    spark: SparkSession,
    edges: DataFrame,
    *,
    seed: int = 0,  # unused: the algorithm draws nothing at random
    engine: Engine | None = None,
    max_rounds: int = 400,
) -> None:
    """Alternating large-star/small-star; leaves labels (v, r) in ``Result``."""
    eng = engine
    eng.register_input("G", edges.select("v", "w"))
    g = eng.ref("G")
    # Canonical loop-free edge table: each undirected edge once, v > w.
    eng.ctas(
        "E",
        f"select distinct greatest(v, w) as v, least(v, w) as w "
        f"from {g} where v != w",
        label="setup",
    )
    setup_vertices(eng)
    prev = sig(eng, "E")
    while True:
        # --- large-star ---
        eng.next_round(max_rounds)
        e = eng.ref("E")
        # Both directions are expanded inside the query only; the stored
        # output (w > m(v) always) is canonical again.
        nd = f"(select v, w from {e} union all select w as v, v as w from {e})"
        eng.ctas(
            "M",
            f"select v, least(v, min(w)) as m from {nd} group by v",
            label="large_star_min",
        )
        eng.ctas(
            "S",
            f"select distinct nd.w as v, m.m as w "
            f"from {nd} nd join {eng.ref('M')} m on nd.v = m.v "
            f"where nd.w > nd.v",
            label="large_star",
        )
        eng.drop("E", "M")
        eng.rename("S", "E")

        # --- small-star ---
        eng.next_round(max_rounds)
        e = eng.ref("E")
        # Stored orientation v > w means E *is* the smaller-neighbour list.
        eng.ctas(
            "M",
            f"select v, min(w) as m from {e} group by v",
            label="small_star_min",
        )
        m = eng.ref("M")
        eng.ctas(
            "S",
            "select distinct v, w from ("
            # every smaller neighbour joins the minimum ...
            f"select e.w as v, m.m as w from {e} e join {m} m on e.v = m.v "
            "union all "
            # ... and v itself joins the minimum.
            f"select v, m as w from {m}"
            ") where v != w",
            label="small_star",
        )
        eng.drop("E", "M")
        eng.rename("S", "E")

        cur = sig(eng, "E")
        if cur == prev:
            break
        prev = cur
    # At fixpoint E is a union of min-centred stars (leaf, centre).
    eng.ctas(
        "ML",
        f"select v, min(w) as r from {eng.ref('E')} group by v",
        label="star_labels",
    )
    eng.ctas(
        "Result",
        f"select V.v as v, coalesce(m.r, V.v) as r "
        f"from {eng.ref('V')} V left outer join {eng.ref('ML')} m on V.v = m.v",
        label="labels",
    )
    eng.drop("E", "ML", "V")
