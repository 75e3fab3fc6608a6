"""Naive "Breadth First Search" min-label propagation (paper §IV).

This is the strategy used by Apache MADlib's connected-components: every
vertex repeatedly adopts the minimum label in its closed neighbourhood.
Correct, but needs O(diameter) rounds — the paper's motivating example of
an algorithm that is unusable on Big Data (a sequentially numbered path of
n vertices takes n−1 steps).  Included as a baseline and for the Table I
round-count demonstration.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from ..mppdb import Engine, with_engine
from .common import setup_symmetric, setup_vertices


@with_engine
def bfs_cc(
    spark: SparkSession,
    edges: DataFrame,
    *,
    seed: int = 0,  # unused: the algorithm draws nothing at random
    engine: Engine | None = None,
    max_rounds: int = 2000,
) -> None:
    """Min-label propagation until fixpoint; leaves labels (v, r) in ``Result``."""
    eng = engine
    setup_symmetric(eng, edges)
    setup_vertices(eng)
    # ES = symmetric edges plus a self loop per vertex, so a vertex's own
    # label participates in each min.
    eng.ctas(
        "ES",
        f"select v, w from {eng.ref('E')} union select v, v from {eng.ref('V')}",
        label="setup_self",
    )
    eng.drop("E")
    eng.ctas(
        "L",
        f"select v, min(w) as r from {eng.ref('ES')} group by v",
        label="init_labels",
    )
    while True:
        eng.next_round(max_rounds)
        eng.ctas(
            "L2",
            f"select e.v as v, min(l.r) as r "
            f"from {eng.ref('ES')} e join {eng.ref('L')} l on e.w = l.v "
            f"group by e.v",
            label="propagate",
        )
        changed = eng.scalar(
            f"select count(*) from {eng.ref('L2')} a join {eng.ref('L')} b "
            f"on a.v = b.v and a.r != b.r",
            label="changed",
        )
        eng.drop("L")
        eng.rename("L2", "L")
        if changed == 0:
            break
    eng.drop("ES", "V")
    eng.rename("L", "Result")
