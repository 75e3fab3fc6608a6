"""Hash-to-Min (Rastogi et al., ICDE 2013 [25]) as a direct SQL translation.

Every vertex v maintains a cluster C(v), initialised to its closed
neighbourhood.  Per round, v sends ``min C(v)`` to every member of C(v)
(and itself) and sends C(v) to the min member; the new C(v) is the union
of everything received.  Converges in O(log |V|) rounds, but the cluster
table can blow up to O(|V|²) rows — the paper exploits this with the
sequentially numbered Path100M dataset, where Hash-to-Min exhausts
resources (reproduced here through the engine's row budget).

The MapReduce "map" becomes a CTAS of a message table keyed by the
destination vertex; the "reduce" is the ``union``/``distinct`` building the
next cluster table — the same one-to-one translation the paper describes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from ..mppdb import Engine, with_engine
from .common import setup_symmetric, setup_vertices, sig


@with_engine
def hash_to_min(
    spark: SparkSession,
    edges: DataFrame,
    *,
    seed: int = 0,  # unused: the algorithm draws nothing at random
    engine: Engine | None = None,
    max_rounds: int = 200,
) -> None:
    """Hash-to-Min connected components; leaves labels (v, r) in ``Result``."""
    eng = engine
    setup_symmetric(eng, edges)
    setup_vertices(eng)
    # C(v) = N[v]: neighbours plus self.
    eng.ctas(
        "C",
        f"select v, w as u from {eng.ref('E')} "
        f"union select v, v as u from {eng.ref('V')}",
        label="init_clusters",
    )
    eng.drop("E")
    prev = sig(eng, "C", "v, u")
    while True:
        eng.next_round(max_rounds)
        eng.ctas(
            "M",
            f"select v, min(u) as m from {eng.ref('C')} group by v",
            label="mins",
        )
        c, m = eng.ref("C"), eng.ref("M")
        eng.ctas(
            "C2",
            "select distinct v, u from ("
            # min C(v) → every member of C(v) ...
            f"select c.u as v, m.m as u from {c} c join {m} m on c.v = m.v "
            "union all "
            # ... and to v itself (keeps every vertex present), ...
            f"select v, m as u from {m} "
            "union all "
            # ... C(v) → the min member.
            f"select m.m as v, c.u as u from {c} c join {m} m on c.v = m.v"
            ")",
            label="exchange",
        )
        cur = sig(eng, "C2", "v, u")
        eng.drop("C", "M")
        eng.rename("C2", "C")
        if cur == prev:
            break
        prev = cur
    eng.ctas(
        "Result",
        f"select v, min(u) as r from {eng.ref('C')} group by v",
        label="labels",
    )
    eng.drop("C", "V")
