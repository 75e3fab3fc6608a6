"""The DataFrame-in/out front end `connected_components` and its registry."""
import ast
import json
from pathlib import Path

import pytest

from repro.analysis import report
from repro.analysis.harness import run_algorithm
from repro.analysis.union_find import assert_valid_labels
from repro.core import ALGORITHMS, connected_components, normalize_labels
from repro.graphs import generators as G
from repro.mppdb import RoundLimitExceeded

from tests.graph_cases import small_graphs
from tests.residue import added_since, snapshot


ALGOS = sorted(ALGORITHMS)
ROOT = Path(__file__).resolve().parents[1]


def _spelled_out_algos(directory: str) -> set[str]:
    """Algorithm names the scripts in ``directory`` spell out as literals.

    These are ``parametrize("algo", ...)`` lists (inline or a module-level
    name), ``--algos`` defaults and ``for algo in (...)`` loops.
    """
    names: set[str] = set()
    for path in sorted((ROOT / directory).glob("*.py")):
        tree = ast.parse(path.read_text())
        assigned = {
            t.id: n.value for n in tree.body if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and ast.unparse(node.target) == "algo":
                if isinstance(node.iter, (ast.List, ast.Tuple)):
                    names |= set(ast.literal_eval(node.iter))
            elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                func, first = ast.unparse(node.func), node.args[0].value
                if func.endswith("parametrize") and first == "algo":
                    value = node.args[1]
                    if isinstance(value, ast.Name):
                        value = assigned[value.id]
                    names |= set(ast.literal_eval(value))
                elif func.endswith("add_argument") and first == "--algos":
                    default = next(k.value for k in node.keywords if k.arg == "default")
                    names |= set(ast.literal_eval(default).split(","))
    return names


#: Every place outside ``core.api`` that names algorithms by registry key.
NAME_SOURCES = {
    "results": lambda: {
        r["algo"] for f in sorted((ROOT / "results").glob("*.json"))
        for r in json.loads(f.read_text()) if "algo" in r
    },
    "report": lambda: set(report.GRID_ALGOS),
    "jobs": lambda: _spelled_out_algos("jobs"),
    "benchmarks": lambda: _spelled_out_algos("benchmarks"),
}


@pytest.mark.parametrize("source", sorted(NAME_SOURCES))
def test_algorithm_names_are_registered(source):
    names = NAME_SOURCES[source]()
    assert names, source
    assert names <= set(ALGORITHMS), names - set(ALGORITHMS)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_api_dispatch(spark, algorithm):
    pdf = small_graphs()["bridge"]
    before = snapshot(spark)
    out = connected_components(spark, G.to_spark(spark, pdf), algorithm=algorithm)
    # The owned engine is closed: no view is left, and only the labels stay cached.
    assert added_since(spark, before) == (1, set())
    assert_valid_labels(out, pdf)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_api_max_rounds_leaves_no_residue(spark, algorithm):
    df = G.to_spark(spark, small_graphs()["bridge"])
    before = snapshot(spark)
    with pytest.raises(RoundLimitExceeded):
        connected_components(spark, df, algorithm=algorithm, max_rounds=0)
    assert added_since(spark, before) == (0, set())


def test_unknown_algorithm_raises(spark):
    df = G.to_spark(spark, small_graphs()["single_edge"])
    with pytest.raises(ValueError, match="unknown algorithm 'magic'; choose from") as api:
        connected_components(spark, df, algorithm="magic")
    with pytest.raises(ValueError) as harness:
        run_algorithm(spark, "magic", df)
    assert str(harness.value) == str(api.value)


def test_registry_fixed_keywords_cannot_be_overridden(spark):
    """A name says what runs: no RC name ever runs another method."""
    df = G.to_spark(spark, small_graphs()["single_edge"])
    for algorithm in ("rc", "rc_fig3", "rc_gf64", "rc_feistel", "rc_reals"):
        with pytest.raises(TypeError, match=f"^algorithm '{algorithm}' fixes method;"):
            connected_components(spark, df, algorithm=algorithm, method="feistel")


def test_normalize_maps_to_min_vertex(spark):
    pdf = small_graphs()["two_cliques"]
    out = connected_components(
        spark, G.to_spark(spark, pdf), algorithm="rc", seed=1, normalize=True
    )
    labels = {r["v"]: r["r"] for r in out.collect()}
    assert all(labels[v] == 0 for v in range(5))
    assert all(labels[v + 100] == 100 for v in range(5))


def test_normalize_labels_standalone(spark):
    df = spark.createDataFrame([(1, 77), (2, 77), (9, 5)], "v long, r long")
    got = {r["v"]: r["r"] for r in normalize_labels(df).collect()}
    assert got == {1: 1, 2: 1, 9: 9}


def test_all_algorithms_agree_after_normalisation(spark):
    pdf = G.random_edges(50, 70, seed=17)
    df = G.to_spark(spark, pdf)
    results = []
    for algorithm in ["rc", "tp", "hm", "cr"]:
        out = connected_components(spark, df, algorithm=algorithm, normalize=True)
        results.append(sorted(map(tuple, out.collect())))
    assert all(r == results[0] for r in results[1:])
