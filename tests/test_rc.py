"""Randomised Contraction correctness battery (both variants, all methods)."""
import dataclasses

import pandas as pd
import pytest

from repro.analysis.union_find import assert_valid_labels
from repro.core.contraction import (
    randomised_contraction,
    randomised_contraction_fast,
)
from repro.ff import gfp
from repro.graphs import generators as G
from repro.mppdb import Engine, RoundLimitExceeded, SolveResult

from tests.graph_cases import SMALL_GRAPH_NAMES, small_graphs
from tests.residue import added_since, snapshot

VARIANTS = {
    "fig3": randomised_contraction,
    "fig4": randomised_contraction_fast,
}


@pytest.fixture(scope="module")
def graphs():
    return small_graphs()


# Full battery with the default (pure-SQL) method, both variants.
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", SMALL_GRAPH_NAMES)
def test_rc_gfp_battery(spark, graphs, variant, name):
    pdf = graphs[name]
    res = VARIANTS[variant](spark, G.to_spark(spark, pdf), method="gfp", seed=11)
    assert_valid_labels(res.result, pdf)


# Other methods on a representative subset (UDF methods are slower).
SUBSET = ["path10_sequential", "two_cliques", "random_multi", "loops_and_edge", "star15"]


@pytest.mark.parametrize("method", ["gf64", "feistel", "reals"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", SUBSET)
def test_rc_methods_battery(spark, graphs, method, variant, name):
    pdf = graphs[name]
    res = VARIANTS[variant](spark, G.to_spark(spark, pdf), method=method, seed=5)
    assert_valid_labels(res.result, pdf)


class TestLabelProperties:
    def test_labels_unique_per_component(self, spark, graphs):
        pdf = graphs["two_cliques"]
        res = randomised_contraction_fast(spark, G.to_spark(spark, pdf), seed=0)
        rows = res.result.collect()
        labels = {r["v"]: r["r"] for r in rows}
        assert len({labels[v] for v in range(5)}) == 1
        assert len({labels[v + 100] for v in range(5)}) == 1
        assert labels[0] != labels[100]

    def test_deterministic_given_seed(self, spark, graphs):
        pdf = graphs["random_multi"]
        df = G.to_spark(spark, pdf)
        a = sorted(map(tuple, randomised_contraction_fast(spark, df, seed=9).result.collect()))
        b = sorted(map(tuple, randomised_contraction_fast(spark, df, seed=9).result.collect()))
        assert a == b

    def test_variants_agree_given_seed(self, spark, graphs):
        """Fig 3 and Fig 4 compose the same maps → identical labels."""
        pdf = graphs["bridge"]
        df = G.to_spark(spark, pdf)
        a = sorted(map(tuple, randomised_contraction(spark, df, method="gfp", seed=4).result.collect()))
        b = sorted(map(tuple, randomised_contraction_fast(spark, df, method="gfp", seed=4).result.collect()))
        assert a == b

    def test_empty_input(self, spark):
        df = spark.createDataFrame([], "v long, w long")
        res = randomised_contraction_fast(spark, df, seed=0)
        assert res.result.count() == 0
        assert res.rounds == 1

    def test_single_vertex_loop(self, spark):
        df = spark.createDataFrame([(42, 42)], "v long, w long")
        res = randomised_contraction_fast(spark, df, seed=0)
        rows = res.result.collect()
        assert len(rows) == 1 and rows[0]["v"] == 42


class TestRounds:
    def test_sequential_path_needs_few_rounds(self, spark):
        """The headline claim: O(log n) rounds on the adversarial path."""
        import math

        pdf = G.path(2000, numbering="sequential")
        res = randomised_contraction_fast(spark, G.to_spark(spark, pdf), seed=1)
        assert_valid_labels(res.result, pdf)
        assert res.rounds <= 6 * math.log2(2000)  # ~ log_{4/3} n with slack

    def test_round_count_grows_logarithmically(self, spark):
        rounds = {}
        for n in [100, 1600]:
            pdf = G.path(n, numbering="sequential")
            res = randomised_contraction_fast(spark, G.to_spark(spark, pdf), seed=2)
            rounds[n] = res.rounds
        # 16× more vertices should cost only ~log(16)/log(4/3) ≈ 10 extra rounds.
        assert rounds[1600] - rounds[100] <= 14

    def test_max_rounds_guard(self, spark):
        df = spark.createDataFrame([(1, 2), (2, 3)], "v long, w long")
        with pytest.raises(RoundLimitExceeded):
            randomised_contraction_fast(spark, df, seed=0, max_rounds=0)


class TestGFPDomain:
    """GF(p) maps x and x + p to the same value: IDs outside [0, p) are rejected."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize(
        "pairs", [[(0, 1), (gfp.P, gfp.P + 1)], [(-1, 3)]], ids=["above_p", "negative"]
    )
    def test_out_of_domain_ids_raise(self, spark, variant, pairs):
        df = spark.createDataFrame(pairs, "v long, w long")
        before = snapshot(spark)
        with pytest.raises(Exception, match=rf"outside the GF\(p\) domain \[0, {gfp.P}\)"):
            VARIANTS[variant](spark, df, method="gfp", seed=0)
        assert added_since(spark, before) == (0, set())

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_largest_id_in_domain(self, spark, variant):
        pdf = pd.DataFrame({"v": [0, gfp.P - 1, 5], "w": [gfp.P - 1, gfp.P - 2, 6]})
        res = VARIANTS[variant](spark, G.to_spark(spark, pdf), method="gfp", seed=0)
        assert_valid_labels(res.result, pdf)


class TestEngineIntegration:
    def test_external_engine_left_open_with_result(self, spark, graphs):
        pdf = graphs["bridge"]
        with Engine(spark) as eng:
            res = randomised_contraction_fast(
                spark, G.to_spark(spark, pdf), seed=3, engine=eng
            )
            assert "Result" in eng.tables()
            assert eng.rows("Result") == res.result.count()
            assert eng.stats.total_rows_written > 0

    def test_fig3_space_is_deterministic_shape(self, spark):
        """Fig 3 keeps exactly E/T/R/L live → peak ≈ small multiple of input."""
        pdf = G.path(500, numbering="random", seed=1)
        with Engine(spark) as eng:
            randomised_contraction(spark, G.to_spark(spark, pdf), seed=1, engine=eng)
            # peak live rows bounded by ~4×|E_sym| + 2×|V| (paper §VI-B)
            assert eng.stats.peak_live_rows <= 4 * 2 * len(pdf) + 2 * 501

    def test_result_dataclass_fields(self, spark, graphs):
        res = randomised_contraction_fast(
            spark, G.to_spark(spark, graphs["single_edge"]), method="gfp", seed=0
        )
        assert isinstance(res, SolveResult)
        assert [f.name for f in dataclasses.fields(res)] == [
            "result", "rounds", "stats"
        ]
        assert res.rounds == res.stats.rounds >= 1 and res.stats.n_ctas > 0
