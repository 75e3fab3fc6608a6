"""Cracker (Lulli et al., TPDS 2017 [27]) — vertex-pruning CC, SQL port.

Per iteration over the active graph (closed neighbourhoods via self loops):

1. every node u computes ``vmin(u) = min(N[u])`` and sends it to all of
   N[u] (including itself) — each node v collects a nomination set R(v);
2. nodes with ``v ∉ R(v)`` (nominated by nobody) are **pruned**: they leave
   the active graph, adding edge ``min(R(v)) → v`` to the propagation tree;
3. the next active graph connects ``min(R(v))`` to every other member of
   R(v).

When no active edges remain, each component has been reduced to one seed,
and seed labels are propagated down the tree, one tree level per query.
This is the paper's third competitor (originally in Spark; here the same
direct SQL translation used for the in-database comparison).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from ..mppdb import Engine, with_engine
from .common import setup_symmetric, setup_vertices


def _with_self_loops(eng: Engine, edge_table: str, out: str) -> int:
    """Symmetric closure plus a self loop per endpoint (closed neighbourhoods)."""
    e = eng.ref(edge_table)
    return eng.ctas(
        out,
        f"select u, w from {e} "
        f"union select w as u, u as w from {e} "
        f"union select u, u from "
        f"(select u from {e} union select w as u from {e})",
        label="close_neighbourhoods",
    )


@with_engine
def cracker(
    spark: SparkSession,
    edges: DataFrame,
    *,
    seed: int = 0,  # unused: the algorithm draws nothing at random
    engine: Engine | None = None,
    max_rounds: int = 200,
) -> None:
    """Cracker connected components; leaves labels (v, r) in ``Result``."""
    eng = engine
    setup_symmetric(eng, edges)
    setup_vertices(eng)
    eng.ctas(
        "G0",
        f"select v as u, w from {eng.ref('E')}",
        label="orient",
    )
    eng.drop("E")
    _with_self_loops(eng, "G0", "ES")
    eng.drop("G0")
    tree_tables: list[str] = []
    while True:
        rnd = eng.next_round(max_rounds)
        es = eng.ref("ES")
        eng.ctas(
            "MIN",
            f"select u, min(w) as vmin from {es} group by u",
            label="min_selection",
        )
        # R(v): the set of nominations v receives.
        eng.ctas(
            "R",
            f"select distinct g.w as v, m.vmin as x "
            f"from {es} g join {eng.ref('MIN')} m on g.u = m.u",
            label="nominations",
        )
        eng.ctas(
            "RMIN",
            f"select v, min(x) as rmin from {eng.ref('R')} group by v",
            label="nomination_min",
        )
        r, rmin = eng.ref("R"), eng.ref("RMIN")
        # Pruned nodes: never nominated (v ∉ R(v)); they hang off min(R(v)).
        t = f"T{rnd}"
        eng.ctas(
            t,
            f"select rm.rmin as parent, rm.v as child from {rmin} rm "
            f"left anti join (select v from {r} where v = x) s on rm.v = s.v",
            label="prune",
        )
        tree_tables.append(t)
        n_active = eng.ctas(
            "G2",
            f"select distinct rm.rmin as u, r.x as w "
            f"from {r} r join {rmin} rm on r.v = rm.v where r.x != rm.rmin",
            label="contract",
        )
        eng.drop("ES", "MIN", "R", "RMIN")
        if n_active == 0:
            eng.drop("G2")
            break
        _with_self_loops(eng, "G2", "ES")
        eng.drop("G2")

    # Propagation phase: seeds keep their own ID; labels flow down the tree.
    union_sql = " union all ".join(
        f"select parent, child from {eng.ref(t)}" for t in tree_tables
    )
    eng.ctas("TREE", f"select parent, child from ({union_sql})", label="tree")
    eng.drop(*tree_tables)
    n_vertices = eng.rows("V")
    eng.ctas(
        "L",
        f"select v, v as r from {eng.ref('V')} "
        f"left anti join (select child from {eng.ref('TREE')}) t on v = t.child",
        label="seeds",
    )
    while eng.rows("L") < n_vertices:
        eng.next_round(max_rounds)
        n_before = eng.rows("L")
        eng.ctas(
            "L2",
            f"select v, r from {eng.ref('L')} "
            f"union select t.child as v, l.r as r "
            f"from {eng.ref('TREE')} t join {eng.ref('L')} l on t.parent = l.v",
            label="propagate",
        )
        n_after = eng.rows("L2")
        eng.drop("L")
        eng.rename("L2", "L")
        if n_after == n_before:
            raise RuntimeError("propagation made no progress (broken tree)")
    eng.drop("TREE", "V")
    eng.rename("L", "Result")
