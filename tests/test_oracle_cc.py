"""SQL-result equality against DuckDB: the required oracle checks.

Connected-component labels are arbitrary-but-unique, so both sides are
normalised to (v, c) with c = the minimum original vertex ID in the
component: Spark via ``normalize_labels``, DuckDB via a recursive-CTE
transitive closure.  ``assert_equivalent`` then diffs the sorted rows.
"""
import pytest

from repro.core import connected_components
from repro.graphs import generators as G
from repro.oracle import assert_equivalent

from tests.graph_cases import small_graphs

#: DuckDB recursive-CTE connected components over an `edges(v, w)` table,
#: projecting (v, c) with c = min vertex ID reachable from v.
DUCKDB_CC_SQL = """
WITH RECURSIVE
sym AS (
  SELECT v, w FROM edges UNION SELECT w, v FROM edges
),
reach(v, u) AS (
  SELECT v, v FROM (SELECT DISTINCT v FROM sym)
  UNION
  SELECT r.v, s.w FROM reach r JOIN sym s ON s.v = r.u
)
SELECT v, min(u) AS c FROM reach GROUP BY v
"""

SMALL_FOR_ORACLE = [
    "single_edge",
    "loop_only",
    "loops_and_edge",
    "path10_sequential",
    "cycle12",
    "star15",
    "two_cliques",
    "bridge",
    "duplicates",
    "bipartite",
    "grid4x5",
    "path_union_zigzag",
]


# A baseline's test id is its function's name, as in test_baselines.py.
@pytest.mark.parametrize("name", SMALL_FOR_ORACLE)
@pytest.mark.parametrize(
    "algorithm", ["rc", "rc_fig3", pytest.param("tp", id="two_phase")]
)
def test_cc_matches_duckdb_transitive_closure(spark, name, algorithm):
    pdf = small_graphs()[name]
    edges = G.to_spark(spark, pdf)
    labels = connected_components(
        spark, edges, algorithm=algorithm, seed=13, normalize=True
    )
    got = labels.selectExpr("v", "r as c")
    assert_equivalent(got, DUCKDB_CC_SQL, edges=pdf)


@pytest.mark.parametrize(
    "algorithm",
    [pytest.param("hm", id="hash_to_min"), pytest.param("cr", id="cracker"), "bfs"],
)
def test_all_algorithms_against_duckdb_on_random_graph(spark, algorithm):
    pdf = G.random_edges(40, 55, seed=21)
    edges = G.to_spark(spark, pdf)
    labels = connected_components(spark, edges, algorithm=algorithm, normalize=True)
    got = labels.selectExpr("v", "r as c")
    assert_equivalent(got, DUCKDB_CC_SQL, edges=pdf)


def test_component_count_query_equivalence(spark):
    """Aggregate-level check: number of components via SQL on both sides."""
    pdf = G.random_edges(60, 70, seed=5)
    edges = G.to_spark(spark, pdf)
    labels = connected_components(spark, edges, algorithm="rc", seed=2)
    got = labels.selectExpr("count(distinct r) as n_components")
    sql = f"SELECT count(DISTINCT c) AS n_components FROM ({DUCKDB_CC_SQL})"
    assert_equivalent(got, sql, edges=pdf)


def test_component_size_histogram_equivalence(spark):
    """Fig 5-style size distribution matches the oracle's."""
    pdf = G.random_edges(80, 60, seed=6)
    edges = G.to_spark(spark, pdf)
    labels = connected_components(spark, edges, algorithm="rc", seed=3)
    got = labels.selectExpr("r").groupBy("r").count() \
        .selectExpr("count as size").groupBy("size").count() \
        .selectExpr("size", "count as n")
    sql = f"""
    SELECT size, count(*) AS n FROM (
      SELECT c, count(*) AS size FROM ({DUCKDB_CC_SQL}) GROUP BY c
    ) GROUP BY size
    """
    assert_equivalent(got, sql, edges=pdf)
