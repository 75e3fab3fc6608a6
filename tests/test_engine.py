"""The mppdb Engine: catalog semantics, metering, budgets."""
import sys
import threading

import pytest

from repro.mppdb import Engine, SpaceBudgetExceeded


@pytest.fixture()
def eng(spark):
    with Engine(spark, shuffle_partitions=4) as e:
        yield e


class TestCatalog:
    def test_ctas_and_table(self, eng):
        n = eng.ctas("t", "select id as v from range(10)")
        assert n == 10
        assert eng.rows("t") == 10
        assert eng.table("t").count() == 10
        assert "t" in eng.tables()

    def test_ref_is_queryable(self, eng, spark):
        eng.ctas("a", "select id from range(5)")
        got = spark.sql(f"select count(*) as c from {eng.ref('a')}").collect()[0]["c"]
        assert got == 5

    def test_drop(self, eng, spark):
        eng.ctas("a", "select id from range(5)")
        ref = eng.ref("a")
        eng.drop("a")
        assert "a" not in eng.tables()
        with pytest.raises(Exception):
            spark.sql(f"select * from {ref}").collect()

    def test_rename(self, eng, spark):
        eng.ctas("a", "select id from range(7)")
        eng.rename("a", "b")
        assert eng.rows("b") == 7
        assert "a" not in eng.tables()
        assert spark.sql(f"select count(*) c from {eng.ref('b')}").collect()[0]["c"] == 7

    def test_rename_onto_existing_fails(self, eng):
        eng.ctas("a", "select id from range(1)")
        eng.ctas("b", "select id from range(1)")
        with pytest.raises(ValueError):
            eng.rename("a", "b")

    def test_rename_missing_fails(self, eng):
        with pytest.raises(ValueError):
            eng.rename("nope", "b")
        assert eng.tables() == []

    def test_drop_missing_leaves_catalog_intact(self, eng, spark):
        eng.ctas("a", "select id from range(3)")
        with pytest.raises(ValueError):
            eng.drop("a", "nope")
        assert eng.tables() == ["a"] and eng.rows("a") == 3
        assert spark.sql(f"select count(*) c from {eng.ref('a')}").collect()[0]["c"] == 3

    def test_duplicate_ctas_fails(self, eng):
        eng.ctas("a", "select id from range(1)")
        with pytest.raises(ValueError):
            eng.ctas("a", "select id from range(1)")

    def test_two_engines_do_not_collide(self, spark):
        with Engine(spark) as e1, Engine(spark) as e2:
            e1.ctas("t", "select id from range(3)")
            e2.ctas("t", "select id from range(8)")
            assert e1.rows("t") == 3
            assert e2.rows("t") == 8
            assert e1.ref("t") != e2.ref("t")

    def test_register_input(self, eng, spark):
        df = spark.range(12).selectExpr("id as v", "id + 1 as w")
        n = eng.register_input("G", df)
        assert n == 12
        assert eng.stats.input_rows == 12
        assert eng.stats.input_bytes == 12 * 16  # two bigints


class TestMetering:
    def test_rows_and_bytes_written(self, eng):
        eng.ctas("a", "select id from range(100)")
        eng.ctas("b", "select id, id as j from range(50)")
        st = eng.stats
        assert st.total_rows_written == 150
        assert st.total_bytes_written == 100 * 8 + 50 * 16
        assert st.n_ctas == 2

    def test_peak_tracks_drops(self, eng):
        eng.ctas("a", "select id from range(100)")
        eng.drop("a")
        eng.ctas("b", "select id from range(10)")
        assert eng.stats.peak_live_rows == 100
        assert eng.live_rows == 10

    def test_rounds(self, eng):
        assert eng.round == 0
        eng.next_round()
        eng.ctas("a", "select id from range(1)")
        eng.next_round()
        eng.ctas("b", "select id from range(1)")
        assert eng.stats.rounds == 2

    def test_scalar_and_row(self, eng):
        eng.ctas("a", "select id from range(9)")
        assert eng.scalar(f"select count(*) from {eng.ref('a')}") == 9
        r = eng.row(f"select count(*) as c, sum(id) as s from {eng.ref('a')}")
        assert r["c"] == 9 and r["s"] == 36
        # reads are recorded but do not count as writes
        assert eng.stats.total_rows_written == 9
        assert eng.stats.n_queries == 3

    def test_query_records_have_timing(self, eng):
        eng.ctas("a", "select id from range(4)", label="mylabel")
        rec = [q for q in eng.stats.queries if q.label == "mylabel"][0]
        assert rec.rows == 4 and rec.seconds > 0 and rec.kind == "ctas"

    def test_summary_keys(self, eng):
        eng.ctas("a", "select id from range(4)")
        s = eng.stats.summary()
        for k in ["n_queries", "rounds", "total_rows_written", "peak_live_bytes"]:
            assert k in s


def _run_with_timeout(fn, seconds=120):
    """``fn()`` on a thread joined with a timeout: a hang fails, not blocks."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as e:  # re-raised on the test's thread below
            out["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"no result within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestMaterialise:
    """One write with an observed row count, then a schema-given read-back."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select id from range(10) where false",
            "select id from range(0)",
            None,  # the contraction step of RC's last round: every edge is a loop
        ],
    )
    def test_empty_result_returns_zero(self, eng, sql):
        if sql is None:
            eng.ctas("E", "select id as v, id + 1 as w from range(4)")
            eng.ctas("R", "select id as v, 0L as r from range(5)")
            e, r = eng.ref("E"), eng.ref("R")
            sql = (
                f"select distinct V.r as v, W.r as w from {e} as E, {r} as V, {r} as W "
                f"where E.v = V.v and E.w = W.v and V.r != W.r"
            )
        assert _run_with_timeout(lambda: eng.ctas("T", sql)) == 0
        assert eng.rows("T") == 0
        assert eng.table("T").count() == 0

    def test_schema_and_metering_match_inferred_read(self, eng, spark):
        n = eng.ctas(
            "t",
            "select id, cast(id as double) as d, cast(id as int) as i, "
            "id % 2 = 0 as b from range(6)",
        )
        inferred = spark.read.parquet(str(eng._paths["t"])).schema
        got = eng.table("t").schema
        assert [(f.name, f.dataType.simpleString()) for f in got] == [
            (f.name, f.dataType.simpleString()) for f in inferred
        ]
        assert [f.dataType.simpleString() for f in got] == ["bigint", "double", "int", "boolean"]
        width = 8 + 8 + 4 + 1
        assert n == eng.rows("t") == 6
        assert eng.live_bytes == 6 * width
        assert eng.stats.total_bytes_written == 6 * width
        assert eng.stats.peak_live_bytes == 6 * width
        assert sorted(r["i"] for r in eng.table("t").collect()) == list(range(6))

    def test_ctas_without_shuffle_runs_one_job(self, eng, spark):
        sc = spark.sparkContext
        group = f"one-job-{eng.ref('t')}"
        sc.setJobGroup(group, "CTAS job-count guard")
        try:
            eng.ctas("t", "select id as v from range(10)")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1

    def test_concurrent_engines_count_their_own_rows(self, spark):
        sizes = {k: 10 * k + 3 for k in range(1, 5)}
        got, errors = {}, []

        def client(k):
            try:
                with Engine(spark) as e:
                    got[k] = [e.ctas(f"t{j}", f"select id from range({sizes[k] + j})")
                              for j in range(3)]
                    got[k].append(e.table("t2").count())
            except Exception as exc:  # reported on the test's thread below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,), daemon=True) for k in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == {k: [n, n + 1, n + 2, n + 2] for k, n in sizes.items()}


class TestBudget:
    def test_budget_exceeded(self, spark):
        with Engine(spark, max_live_rows=100) as e:
            e.ctas("a", "select id from range(50)")
            with pytest.raises(SpaceBudgetExceeded) as ei:
                e.ctas("b", "select id from range(80)")
            assert ei.value.live_rows == 130

    def test_budget_respects_drops(self, spark):
        with Engine(spark, max_live_rows=100) as e:
            e.ctas("a", "select id from range(90)")
            e.drop("a")
            e.ctas("b", "select id from range(90)")  # fine after drop


class TestLifecycle:
    def test_close_drops_views(self, spark):
        e = Engine(spark)
        e.ctas("a", "select id from range(2)")
        ref = e.ref("a")
        e.close()
        with pytest.raises(Exception):
            spark.sql(f"select * from {ref}").collect()

    def test_closed_engine_rejects_ctas(self, spark):
        e = Engine(spark)
        e.close()
        with pytest.raises(RuntimeError):
            e.ctas("a", "select 1")

    def test_shuffle_partitions_restored(self, spark):
        before = spark.conf.get("spark.sql.shuffle.partitions")
        with Engine(spark, shuffle_partitions=3):
            assert spark.conf.get("spark.sql.shuffle.partitions") == "3"
        assert spark.conf.get("spark.sql.shuffle.partitions") == before

    def test_shuffle_partitions_held_until_last_engine_closes(self, spark):
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        e1 = Engine(spark, shuffle_partitions=5)
        e2 = Engine(spark, shuffle_partitions=5)
        try:
            e1.close()  # the first engine closes while the second is live
            assert spark.conf.get(key) == "5"
        finally:
            e2.close()
        assert spark.conf.get(key) == before

    def test_conflicting_shuffle_partitions_rejected(self, spark):
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        with Engine(spark, shuffle_partitions=5):
            with pytest.raises(ValueError):
                Engine(spark, shuffle_partitions=6)
            with Engine(spark, shuffle_partitions=None):
                assert spark.conf.get(key) == "5"
        assert spark.conf.get(key) == before

    def test_shuffle_partitions_hold_under_thread_churn(self, spark):
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        seen, errors = [], []

        def churn():
            try:
                for _ in range(25):
                    with Engine(spark, shuffle_partitions=7):
                        seen.append(spark.conf.get(key))
            except Exception as exc:  # reported on the test's thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen == ["7"] * 200
        assert spark.conf.get(key) == before
