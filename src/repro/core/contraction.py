"""Randomised Contraction — the paper's core algorithm (Figs 3, 4, 8).

Both variants take an edge DataFrame with columns ``v, w`` (bigint; each row
one undirected edge, loop edges allowed to represent isolated vertices) and
produce a table ``Result(v, r)`` assigning every vertex a label unique to
its connected component.

* :func:`randomised_contraction` — Fig 3: composes the running label table
  ``L`` with each round's representative table ``R`` immediately.
  Deterministic linear space (L never grows).
* :func:`randomised_contraction_fast` — Fig 4: keeps all per-round tables
  ``R_i`` and composes them back-to-front (small-to-large joins), carrying
  the method's accumulated relabelling: the affine ``(A, B)`` for
  finite-field methods, the identity for argmin methods.
  Faster; space linear in expectation only.

Both figures share one per-round step (draw, representatives, contract,
E := T) and one compose statement, and differ only in their bookkeeping of
the per-round tables.  The SQL emitted matches the paper's pseudocode line
for line; it executes through :class:`repro.mppdb.Engine` so rounds, rows
and bytes are metered.
"""
from __future__ import annotations

import random

from pyspark.sql import DataFrame, SparkSession

from ..baselines.common import setup_symmetric
from ..ff.methods import Method, get_method
from ..mppdb import Engine, with_engine


def _contract_round(eng: Engine, m: Method, rng: random.Random, r: str) -> tuple[object, int]:
    """One round, shared by Figs 3 and 4: contract E through a new table ``r``.

    Draws the round's parameters, builds the representative table ``r`` for
    E, maps both edge endpoints through it (dropping loops and duplicates)
    and makes the contracted graph the new E.  Returns the parameters and
    the contracted edge count, which is 0 once every component is a vertex.
    """
    params = m.draw(rng)
    m.make_rep_table(eng, "E", r, params)
    rowcount = eng.ctas(
        "T",
        f"select distinct V.r as v, W.r as w "
        f"from {eng.ref('E')} as E, {eng.ref(r)} as V, {eng.ref(r)} as W "
        f"where E.v = V.v and E.w = W.v and V.r != W.r",
        label="contract",
    )
    eng.drop("E")
    eng.rename("T", "E")
    return params, rowcount


def _compose(eng: Engine, left: str, right: str, miss: str) -> None:
    """Compose label table ``left`` with the next round's ``right``, into ``left``.

    Each label ``L.r`` becomes its representative in ``right``; a label
    missing from ``right`` is patched with the SQL expression ``miss``.
    Both inputs are dropped and the composition takes ``left``'s name.
    """
    eng.ctas(
        "T",
        f"select L.v as v, coalesce(R.r, {miss}) as r "
        f"from {eng.ref(left)} as L left outer join {eng.ref(right)} as R "
        f"on (L.r = R.v)",
        label="compose",
    )
    eng.drop(left, right)
    eng.rename("T", left)


@with_engine
def randomised_contraction(
    spark: SparkSession,
    edges: DataFrame,
    *,
    method: str | Method = "gfp",
    seed: int = 0,
    engine: Engine | None = None,
    max_rounds: int = 512,
) -> None:
    """Fig 3 variant: deterministic linear space."""
    m = get_method(method)
    m.prepare(spark)
    rng = random.Random(seed)
    eng = engine
    setup_symmetric(eng, edges)
    while True:
        rnd = eng.next_round(max_rounds)
        params, rowcount = _contract_round(eng, m, rng, "R")
        if rnd == 1:
            eng.rename("R", "L")
        else:
            _compose(eng, "L", "R", m.missing_sql(params, "L.r"))
        if rowcount == 0:
            break
    eng.rename("L", "Result")


@with_engine
def randomised_contraction_fast(
    spark: SparkSession,
    edges: DataFrame,
    *,
    method: str | Method = "gfp",
    seed: int = 0,
    engine: Engine | None = None,
    max_rounds: int = 512,
) -> None:
    """Fig 4 variant: small-to-large composition, stochastic linear space."""
    m = get_method(method)
    m.prepare(spark)
    rng = random.Random(seed)
    eng = engine
    setup_symmetric(eng, edges)
    stack: list = []
    while True:
        i = eng.next_round(max_rounds)
        params, rowcount = _contract_round(eng, m, rng, f"R{i}")
        stack.append(params)
        if rowcount == 0:
            break
    eng.drop("E")  # empty by termination; the paper drops ccgraph too
    acc = m.identity_params
    while i > 1:
        i -= 1
        acc = m.compose_params(acc, stack.pop())  # with round i+1's parameters
        _compose(eng, f"R{i}", f"R{i + 1}", m.missing_sql(acc, "L.r"))
    eng.rename("R1", "Result")
