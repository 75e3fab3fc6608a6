"""The DataFrame-in/out front end `connected_components`."""
import pytest

from repro.analysis.union_find import assert_valid_labels
from repro.core import connected_components, normalize_labels
from repro.graphs import generators as G
from repro.mppdb import RoundLimitExceeded

from tests.graph_cases import small_graphs
from tests.residue import added_since, snapshot


ALGOS = ["rc", "rc_fast", "rc_deterministic", "bfs", "hash_to_min", "two_phase", "cracker"]


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
    with pytest.raises(ValueError):
        connected_components(spark, df, algorithm="magic")


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


def test_method_passthrough(spark):
    pdf = small_graphs()["bridge"]
    out = connected_components(
        spark, G.to_spark(spark, pdf), algorithm="rc", method="feistel", seed=2
    )
    assert_valid_labels(out, pdf)


def test_all_algorithms_agree_after_normalisation(spark):
    pdf = G.random_edges(50, 70, seed=17)
    df = G.to_spark(spark, pdf)
    results = []
    for algorithm in ["rc", "two_phase", "hash_to_min", "cracker"]:
        out = connected_components(spark, df, algorithm=algorithm, normalize=True)
        results.append(sorted(map(tuple, out.collect())))
    assert all(r == results[0] for r in results[1:])
