"""Correctness battery for the four baseline algorithms."""
import math

import pytest

from repro.analysis.union_find import assert_valid_labels
from repro.baselines import bfs_cc, cracker, hash_to_min, two_phase
from repro.graphs import generators as G
from repro.mppdb import Engine, RoundLimitExceeded, SpaceBudgetExceeded

from tests.graph_cases import SMALL_GRAPH_NAMES, small_graphs

BASELINES = {
    "bfs": bfs_cc,
    "hash_to_min": hash_to_min,
    "two_phase": two_phase,
    "cracker": cracker,
}


@pytest.fixture(scope="module")
def graphs():
    return small_graphs()


@pytest.mark.parametrize("algo", sorted(BASELINES))
@pytest.mark.parametrize("name", SMALL_GRAPH_NAMES)
def test_baseline_battery(spark, graphs, algo, name):
    pdf = graphs[name]
    res = BASELINES[algo](spark, G.to_spark(spark, pdf))
    assert_valid_labels(res.result, pdf)


class TestBfs:
    def test_path_rounds_linear_in_diameter(self, spark):
        """§IV: BFS needs ~n rounds on the sequentially numbered path."""
        n = 40
        pdf = G.path(n, numbering="sequential")
        res = bfs_cc(spark, G.to_spark(spark, pdf))
        assert res.rounds >= n - 2  # the motivating worst case

    def test_star_converges_fast(self, spark):
        pdf = small_graphs()["star15"]
        res = bfs_cc(spark, G.to_spark(spark, pdf))
        assert res.rounds <= 3


class TestHashToMin:
    def test_logarithmic_rounds_on_random_path(self, spark):
        pdf = G.path(256, numbering="random", seed=0)
        res = hash_to_min(spark, G.to_spark(spark, pdf))
        assert res.rounds <= 4 * math.log2(256)

    def test_space_blowup_on_sequential_path(self, spark):
        """The paper's Path100M failure: quadratic cluster growth hits the budget."""
        pdf = G.path(3000, numbering="sequential")
        with Engine(spark, max_live_rows=25 * 2 * len(pdf)) as eng:
            with pytest.raises(SpaceBudgetExceeded):
                hash_to_min(spark, G.to_spark(spark, pdf), engine=eng)

    def test_min_vertex_holds_cluster(self, spark):
        pdf = small_graphs()["bridge"]
        res = hash_to_min(spark, G.to_spark(spark, pdf))
        labels = {r["v"]: r["r"] for r in res.result.collect()}
        # labels are minimum vertex IDs under Hash-to-Min
        assert labels == {0: 0, 1: 0, 2: 0, 3: 0, 10: 0, 11: 0, 12: 0}


class TestTwoPhase:
    def test_labels_are_component_minima(self, spark):
        pdf = small_graphs()["two_cliques"]
        res = two_phase(spark, G.to_spark(spark, pdf))
        labels = {r["v"]: r["r"] for r in res.result.collect()}
        assert all(labels[v] == 0 for v in range(5))
        assert all(labels[v + 100] == 100 for v in range(5))

    def test_zigzag_pathunion_needs_more_rounds_than_random(self, spark):
        """Our PathUnion10 reconstruction really does slow Two-Phase down."""
        zig = G.path_union(total=600, n_paths=4, numbering="zigzag")
        rnd = G.path_union(total=600, n_paths=4, numbering="random", seed=1)
        r_zig = two_phase(spark, G.to_spark(spark, zig))
        r_rnd = two_phase(spark, G.to_spark(spark, rnd))
        assert r_zig.rounds >= r_rnd.rounds

    def test_space_stays_linear(self, spark):
        pdf = G.path(2000, numbering="sequential")
        with Engine(spark) as eng:
            two_phase(spark, G.to_spark(spark, pdf), engine=eng)
            assert eng.stats.peak_live_rows <= 12 * len(pdf)

    def test_small_star_counts_against_the_cap(self, spark):
        """One large-star plus one small-star round is 2 rounds: a cap of 1 stops it."""
        df = G.to_spark(spark, small_graphs()["single_edge"])
        with pytest.raises(RoundLimitExceeded, match="after 1 rounds"):
            two_phase(spark, df, max_rounds=1)


class TestCracker:
    def test_rounds_logarithmic(self, spark):
        pdf = G.path(512, numbering="random", seed=2)
        res = cracker(spark, G.to_spark(spark, pdf))
        assert res.rounds <= 6 * math.log2(512)

    def test_seeds_label_their_trees(self, spark):
        pdf = small_graphs()["star15"]
        res = cracker(spark, G.to_spark(spark, pdf))
        labels = {r["v"]: r["r"] for r in res.result.collect()}
        assert len(set(labels.values())) == 1
