"""DataFrame-in → DataFrame-out front end for all algorithms.

``connected_components(spark, edges)`` runs the paper's Randomised
Contraction by default and returns a labels DataFrame ``(v, r)``.  Pass
``normalize=True`` to map the arbitrary unique labels to the minimum
vertex ID of each component (handy for comparisons; the paper requires
only uniqueness).
"""
from __future__ import annotations

from functools import partial
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..baselines import bfs_cc, cracker, hash_to_min, two_phase
from ..mppdb import SolveResult
from .contraction import randomised_contraction, randomised_contraction_fast

#: The algorithm registry: name → ``solve(spark, edges, *, seed=0,
#: engine=None, **kwargs) -> SolveResult``.  An RC name fixes its figure and
#: randomisation method (``rc`` is Fig 4 over GF(p)).  These names key the
#: harness's records, the report tables and the jobs' ``--algos``.
ALGORITHMS: dict[str, Callable[..., SolveResult]] = {
    "rc": partial(randomised_contraction_fast, method="gfp"),
    "rc_fig3": partial(randomised_contraction, method="gfp"),
    "rc_gf64": partial(randomised_contraction_fast, method="gf64"),
    "rc_feistel": partial(randomised_contraction_fast, method="feistel"),
    "rc_reals": partial(randomised_contraction_fast, method="reals"),
    "hm": hash_to_min,
    "tp": two_phase,
    "cr": cracker,
    "bfs": bfs_cc,
}


def get_algorithm(name: str) -> Callable[..., SolveResult]:
    """Resolve an algorithm by its registry name (see :data:`ALGORITHMS`)."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"choose from {sorted(ALGORITHMS)}") from None


def normalize_labels(result: DataFrame) -> DataFrame:
    """Relabel (v, r) so each component's label is its minimum vertex ID."""
    mins = result.groupBy("r").agg(F.min("v").alias("c"))
    return result.join(mins, "r").select("v", F.col("c").alias("r"))


def connected_components(
    spark: SparkSession,
    edges: DataFrame,
    *,
    algorithm: str = "rc",
    seed: int = 0,
    normalize: bool = False,
    **kwargs,
) -> DataFrame:
    """Compute connected-component labels (v, r) for an edge DataFrame.

    ``algorithm`` is a key of :data:`ALGORITHMS`; other keyword arguments
    (such as ``max_rounds``) go to its solver.  A keyword that the entry
    already fixes, such as ``method`` for any RC name, raises ``TypeError``:
    the name says what runs.
    """
    solve = get_algorithm(algorithm)
    fixed = sorted(solve.keywords.keys() & kwargs.keys()) if isinstance(solve, partial) else []
    if fixed:
        raise TypeError(f"algorithm {algorithm!r} fixes {', '.join(fixed)}; "
                        "choose the registry name of the variant to run")
    out = solve(spark, edges, seed=seed, **kwargs).result
    return normalize_labels(out) if normalize else out
