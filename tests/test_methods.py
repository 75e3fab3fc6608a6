"""Randomisation methods: representative tables and composition hooks."""
import random

import pytest

from repro.ff import get_method
from repro.ff.methods import Method
from repro.mppdb import Engine

ALL_METHODS = ["gfp", "gf64", "feistel", "reals"]


class TestRegistry:
    def test_get_by_name(self):
        for name in ALL_METHODS:
            m = get_method(name)
            assert isinstance(m, Method) and m.name == name

    def test_get_by_instance_passthrough(self):
        m = get_method("gfp")
        assert get_method(m) is m

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_method("nope")


class TestDraw:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_deterministic_in_seed(self, name):
        m = get_method(name)
        a = [m.draw(random.Random(7)) for _ in range(3)]
        b = [m.draw(random.Random(7)) for _ in range(3)]
        assert a == b

    def test_gfp_domain(self):
        from repro.ff import gfp

        m = get_method("gfp")
        rng = random.Random(0)
        for _ in range(100):
            a, b = m.draw(rng)
            assert 1 <= a < gfp.P and 0 <= b < gfp.P

    def test_gf64_a_nonzero(self):
        m = get_method("gf64")
        rng = random.Random(0)
        for _ in range(100):
            a, _ = m.draw(rng)
            assert a != 0


class TestComposition:
    @pytest.mark.parametrize("name", ["gfp", "gf64"])
    def test_compose_matches_function_composition(self, name):
        m = get_method(name)
        rng = random.Random(3)
        f = m.draw(rng)  # applied second
        g = m.draw(rng)  # applied first
        acc = m.compose_params(f, g)
        for x in [0, 1, 17, 123456]:
            assert m.h_scalar(acc, x) == m.h_scalar(f, m.h_scalar(g, x))

    @pytest.mark.parametrize("name", ["gfp", "gf64"])
    def test_identity_params(self, name):
        m = get_method(name)
        for x in [0, 5, 999]:
            assert m.h_scalar(m.identity_params, x) == x

    @pytest.mark.parametrize("name", ["feistel", "reals"])
    def test_argmin_methods_compose_to_identity(self, name):
        """Fig 4's accumulator stays the identity, and a missing label keeps its ID."""
        m = get_method(name)
        rng = random.Random(4)
        acc = m.identity_params
        for _ in range(3):
            acc = m.compose_params(acc, m.draw(rng))
        assert acc == m.identity_params
        assert m.missing_sql(acc, "L.r") == "L.r"

    @pytest.mark.parametrize("name", ["gfp", "gf64"])
    def test_missing_sql_is_h(self, name, spark):
        m = get_method(name)
        m.prepare(spark)
        params = m.draw(random.Random(1))
        sql = m.missing_sql(params, "id")
        rows = spark.range(0, 20).selectExpr("id", f"{sql} as y").collect()
        for r in rows:
            assert r["y"] == m.h_scalar(params, r["id"])

    def test_missing_sql_identity_for_argmin_methods(self):
        for name in ["feistel", "reals"]:
            assert get_method(name).missing_sql(123, "L.r") == "L.r"


class TestRepTables:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_rep_table_shape_and_closure(self, name, spark):
        """R(v, r): one row per vertex; r ∈ h(N[v]) (relabel) or N[v] (argmin)."""
        m = get_method(name)
        m.prepare(spark)
        with Engine(spark) as eng:
            df = spark.createDataFrame(
                [(1, 2), (2, 3), (3, 4), (9, 9)], "v long, w long"
            )
            eng.register_input("G", df)
            g = eng.ref("G")
            eng.ctas("E", f"select v, w from {g} union all select w as v, v as w from {g}")
            params = m.draw(random.Random(2))
            n = m.make_rep_table(eng, "E", "R", params)
            assert n == 5  # vertices 1..4 and 9
            rows = {r["v"]: r["r"] for r in eng.table("R").collect()}
            assert set(rows) == {1, 2, 3, 4, 9}
            nbhd = {1: {1, 2}, 2: {1, 2, 3}, 3: {2, 3, 4}, 4: {3, 4}, 9: {9}}
            for v, r in rows.items():
                if name in ("gfp", "gf64"):
                    hs = {m.h_scalar(params, u) for u in nbhd[v]}
                    assert r == min(hs)
                else:
                    assert r in nbhd[v]

    @pytest.mark.parametrize("name", ["gfp", "gf64", "feistel"])
    def test_rep_consistency_same_params(self, name, spark):
        """Same params ⇒ same representative table (pure function of E)."""
        m = get_method(name)
        m.prepare(spark)
        with Engine(spark) as eng:
            df = spark.createDataFrame([(i, i + 1) for i in range(30)], "v long, w long")
            eng.register_input("G", df)
            g = eng.ref("G")
            eng.ctas("E", f"select v, w from {g} union all select w as v, v as w from {g}")
            params = m.draw(random.Random(5))
            m.make_rep_table(eng, "E", "Ra", params)
            m.make_rep_table(eng, "E", "Rb", params)
            a = sorted(map(tuple, eng.table("Ra").collect()))
            b = sorted(map(tuple, eng.table("Rb").collect()))
            assert a == b
