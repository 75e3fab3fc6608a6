"""The mppdb Engine: catalog semantics, metering, budgets."""
import threading
import uuid

import pytest
from pyspark.sql.catalog import Catalog
from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

from repro.core import connected_components, get_algorithm, randomised_contraction_fast
from repro.graphs import generators as G
from repro.mppdb import Engine, RoundLimitExceeded, SpaceBudgetExceeded

from tests.residue import added_since, cached_rdds, snapshot


@pytest.fixture()
def eng(spark):
    with Engine(spark) as e:
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
        with pytest.raises(ValueError):
            eng.ref("a")

    def test_rename(self, eng, spark):
        eng.ctas("a", "select id from range(7)")
        view = eng.ref("a")
        eng.rename("a", "b")
        assert eng.rows("b") == 7
        assert "a" not in eng.tables()
        assert spark.sql(f"select count(*) c from {eng.ref('b')}").collect()[0]["c"] == 7
        with pytest.raises(ValueError):
            eng.ref("a")
        assert eng.ref("b") == view

    def test_interrupted_rename_completes(self, spark, monkeypatch):
        # A RENAME makes no catalog call, so an interrupt that would strike
        # one cannot lose the table between its old and its new name.
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        before = snapshot(spark)
        e = Engine(spark)
        e.ctas("T", "select id from range(3)")
        with monkeypatch.context() as m:
            m.setattr(Catalog, "dropTempView", interrupt)
            m.setattr(ClassicDataFrame, "createOrReplaceTempView", interrupt)
            try:
                e.rename("T", "E")
            except KeyboardInterrupt:
                pytest.fail("rename was interrupted inside a catalog call")
        assert e.tables() == ["E"] and e.rows("E") == 3
        e.close()
        assert added_since(spark, before) == (0, set())

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
        assert eng.stats.rounds == 0
        assert eng.next_round(2) == 1
        # A round counts from its start, even if its first statement fails.
        assert eng.stats.rounds == 1
        eng.ctas("a", "select id from range(1)")
        assert eng.next_round(2) == 2
        eng.ctas("b", "select id from range(1)")
        assert [q.round for q in eng.stats.queries] == [1, 2]
        # The cap is checked before the counter moves, so an abort leaves the
        # engine at the last round that ran.
        with pytest.raises(RoundLimitExceeded, match="no convergence after 2 rounds"):
            eng.next_round(2)
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
    """One counting job over lineage-cut rows, kept in memory under a fresh leaf."""

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
        sql = ("select id, cast(id as double) as d, cast(id as int) as i, "
               "id % 2 = 0 as b from range(6)")
        n = eng.ctas("t", sql)
        inferred = spark.sql(sql).schema
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
        group = f"one-job-{uuid.uuid4()}"
        sc.setJobGroup(group, "CTAS job-count guard")
        try:
            eng.ctas("t", "select id as v from range(10)")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1

    def test_statistics_do_not_compound_across_rounds(self, eng):
        # RC's contraction shape (a 3-way self-join) then a group-by, iterated.
        # An engine that carries each plan's size estimate into the stored
        # table multiplies estimates every round: thousands of digits by
        # round 9, and minutes of BigInteger arithmetic in the planner later.
        eng.ctas("E", "select id as v, (id * 5 + 1) % 64 as w from range(64)")
        for rnd in range(16):
            e = eng.ref("E")
            eng.ctas("T", f"select distinct V.v as v, W.w as w from {e} as E, {e} as V, "
                          f"{e} as W where E.v = V.w and E.w = W.v")
            eng.drop("E")
            eng.ctas("E", f"select v, min(w) as w from {eng.ref('T')} group by v")
            eng.drop("T")
            size = eng.table("E")._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()
            assert len(str(size)) < 25, f"round {rnd}: sizeInBytes {str(size)[:40]}…"
        assert eng.rows("E") > 0

    def test_stored_tables_report_exact_row_counts(self, eng, spark):
        eng.register_input("G", spark.range(12).selectExpr("id as v", "id + 1 as w"))
        eng.ctas("t", "select id from range(10) where id % 3 = 0")
        eng.ctas("empty", "select id from range(0)")
        # The plan estimates 500 rows here; the sample keeps another number.
        eng.ctas("k", "select id from range(1000)")
        eng.ctas("sample", f"select * from {eng.ref('k')} tablesample (50 percent) repeatable (5)")
        assert eng.rows("sample") != 500
        for name in ("G", "t", "empty", "sample"):
            stats = eng.table(name)._jdf.queryExecution().optimizedPlan().stats()
            assert stats.rowCount().get() == eng.rows(name), name
            assert 0 < stats.sizeInBytes() <= max(1, 64 * eng.rows(name)), name

    def test_tables_too_large_for_a_limit_report_no_row_count(self, eng, monkeypatch):
        # A limit is an Int, so a table of Int.MaxValue rows or more gets
        # Spark's default estimate, not the producing plan's.
        monkeypatch.setattr("repro.mppdb.engine._INT_MAX", 5)
        assert eng.ctas("t", "select id from range(10)") == 10
        stats = eng.table("t")._jdf.queryExecution().optimizedPlan().stats()
        assert not stats.rowCount().isDefined()
        assert stats.sizeInBytes() == 2**63 - 1

    def test_failed_store_step_leaves_no_storage(self, spark, monkeypatch):
        # The counting job has run and the rows are persisted when the step
        # that builds the stored leaf fails.
        def fail(self, leaf, n):
            raise RuntimeError("leaf failed")

        monkeypatch.setattr(Engine, "_leaf", fail)
        before = snapshot(spark)
        with Engine(spark) as e:
            with pytest.raises(RuntimeError, match="leaf failed"):
                e.ctas("a", "select id from range(3)")
            assert e.tables() == []
            assert added_since(spark, before) == (0, set())
        assert added_since(spark, before) == (0, set())

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


class TestDetach:
    """``detach`` hands a table's blocks to the caller without copying them."""

    def test_detach_hands_over_storage(self, spark):
        start = cached_rdds(spark)
        e = Engine(spark)
        e.ctas("a", "select id from range(6)")
        e.ctas("b", "select id from range(2)")
        ref, held = e.ref("a"), cached_rdds(spark) - start
        assert e.live_rows == 8
        df = e.detach("a")
        assert e.tables() == ["b"]
        assert e.live_rows == 2
        with pytest.raises(Exception):
            spark.sql(f"select * from {ref}").collect()
        assert cached_rdds(spark) - start == held
        e.close()
        assert df.count() == 6
        assert df.count() == 6
        assert len(cached_rdds(spark) - start) == 1

    def test_detach_missing_leaves_catalog_intact(self, eng, spark):
        eng.ctas("a", "select id from range(3)")
        with pytest.raises(ValueError):
            eng.detach("nope")
        assert eng.tables() == ["a"] and eng.rows("a") == 3
        assert spark.sql(f"select count(*) c from {eng.ref('a')}").collect()[0]["c"] == 3

    def test_detach_runs_no_job(self, eng, spark):
        eng.ctas("t", "select id as v from range(10)")
        sc = spark.sparkContext
        group = f"no-job-{eng.ref('t')}"
        sc.setJobGroup(group, "detach job-count guard")
        try:
            eng.detach("t")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 0


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

    def test_closed_engine_rejects_register_input(self, spark):
        before = snapshot(spark)
        e = Engine(spark)
        e.close()
        with pytest.raises(RuntimeError):
            e.register_input("G", spark.range(3).selectExpr("id as v", "id as w"))
        assert added_since(spark, before) == (0, set())

    def test_interrupted_close_releases_every_table(self, spark, monkeypatch):
        # An interrupt on the first view drop must not strand the other
        # tables: every table's blocks are released and every view drop is
        # tried before the interrupt propagates.
        before = snapshot(spark)
        e = Engine(spark)
        e.ctas("a", "select id from range(2)")
        e.ctas("b", "select id from range(3)")
        view_a, view_b = e.ref("a"), e.ref("b")
        drop, calls = Catalog.dropTempView, []

        def interrupt_once(self, name):
            calls.append(name)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return drop(self, name)

        with monkeypatch.context() as m:
            m.setattr(Catalog, "dropTempView", interrupt_once)
            with pytest.raises(KeyboardInterrupt):
                e.close()
        left = added_since(spark, before)
        spark.catalog.dropTempView(view_a)  # the one drop the interrupt cut short
        assert calls == [view_a, view_b]
        assert left == (0, {view_a})

    def test_storage_freed_by_drop_rename_and_close(self, spark):
        start = cached_rdds(spark)

        def added():
            return len(cached_rdds(spark) - start)

        e = Engine(spark)
        e.register_input("G", spark.range(3).selectExpr("id as v", "id as w"))
        e.ctas("a", "select id from range(4)")
        e.ctas("b", "select id % 2 as g, count(*) as c from range(9) group by id % 2")
        assert added() == 3
        e.drop("a")
        assert added() == 2
        e.rename("b", "c")
        assert added() == 2
        e.drop("c")
        assert added() == 1
        e.ctas("d", "select id from range(5)")
        assert added() == 2
        e.close()
        assert added() == 0

    def test_storage_freed_after_budget_exceeded(self, spark):
        start = cached_rdds(spark)
        with pytest.raises(SpaceBudgetExceeded):
            with Engine(spark, max_live_rows=10) as e:
                e.ctas("a", "select id from range(5)")
                assert len(cached_rdds(spark) - start) == 1
                e.ctas("b", "select id from range(50)")
        assert cached_rdds(spark) <= start

    def test_failed_ctas_leaves_no_storage(self, spark):
        # raise_error fails inside the counting job, after the rows' RDD has
        # been marked for a local checkpoint (and so persisted).
        before = snapshot(spark)
        e = Engine(spark)
        with pytest.raises(Exception, match="boom"):
            e.ctas("a", "select raise_error('boom') as x from range(3)")
        assert added_since(spark, before) == (0, set())
        assert e.tables() == []
        e.close()
        assert added_since(spark, before) == (0, set())

    def test_labels_outlive_their_engine(self, spark):
        pdf = G.path(20, numbering="sequential")
        start = cached_rdds(spark)
        labels = connected_components(spark, G.to_spark(spark, pdf), seed=3)
        # The owned engine is closed; only the detached labels stay cached.
        assert len(cached_rdds(spark) - start) == 1
        assert labels.count() == 20
        assert labels.count() == 20
        assert labels.select("r").distinct().count() == 1

    def test_duplicate_register_input_fails(self, eng, spark):
        eng.register_input("G", spark.range(5).selectExpr("id as v", "id as w"))
        with pytest.raises(ValueError):
            eng.register_input("G", spark.range(9).selectExpr("id as v", "id as w"))
        assert eng.rows("G") == 5
        assert spark.sql(f"select count(*) c from {eng.ref('G')}").collect()[0]["c"] == 5
        assert eng.stats.input_rows == 5


@pytest.mark.parametrize("algorithm", ["rc", "rc_fig3"])
def test_one_view_per_stored_table(spark, monkeypatch, algorithm):
    # Each stored table is registered once, whatever renames it goes
    # through, and every registered view is dropped again.
    created, dropped = [], []
    create, drop = ClassicDataFrame.createOrReplaceTempView, Catalog.dropTempView

    def spy_create(self, name):
        created.append(name)
        return create(self, name)

    def spy_drop(self, name):
        dropped.append(name)
        return drop(self, name)

    monkeypatch.setattr(ClassicDataFrame, "createOrReplaceTempView", spy_create)
    monkeypatch.setattr(Catalog, "dropTempView", spy_drop)
    pdf = G.path(16, numbering="sequential")
    res = get_algorithm(algorithm)(spark, G.to_spark(spark, pdf), seed=5)
    assert res.stats.n_ctas > 0
    assert len(created) == len(set(created)) == res.stats.n_ctas + 1  # + the input
    assert sorted(dropped) == sorted(created)


class TestSessionSettings:
    def test_engines_leave_shuffle_partitions_alone(self, spark):
        key = "spark.sql.shuffle.partitions"
        original = spark.conf.get(key)
        spark.conf.set(key, "11")
        try:
            seen, errors = [], []
            started = threading.Barrier(2)

            def client(k):
                try:
                    with Engine(spark) as e:
                        started.wait(60)  # both engines are live from here on
                        e.ctas("t", f"select id % {k + 2} as g, count(*) as c "
                                    f"from range(20) group by id % {k + 2}")
                        seen.append(spark.conf.get(key))
                        started.wait(60)
                except Exception as exc:  # reported on the test's thread below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(k,), daemon=True)
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert seen == ["11", "11"]
            assert spark.conf.get(key) == "11"
        finally:
            spark.conf.set(key, original)


class TestJoinPlanning:
    """The stored tables' exact sizes decide between a broadcast and a shuffle join."""

    @staticmethod
    def contract_plans(spark, monkeypatch) -> list[str]:
        """The physical plan of every contract statement of a small RC solve."""
        plans, ctas = [], Engine.ctas

        def spy(self, name, sql, *, label=None):
            if label == "contract":
                plans.append(self.spark.sql(sql)._jdf.queryExecution().executedPlan().toString())
            return ctas(self, name, sql, label=label)

        monkeypatch.setattr(Engine, "ctas", spy)
        pdf = G.path(16, numbering="random", seed=1)
        randomised_contraction_fast(spark, G.to_spark(spark, pdf), seed=1)
        assert plans
        return plans

    def test_small_tables_are_broadcast(self, spark, monkeypatch):
        for plan in self.contract_plans(spark, monkeypatch):
            assert "BroadcastHashJoin" in plan and "SortMergeJoin" not in plan, plan

    def test_stored_partitioning_matches_the_rows(self, eng, spark):
        # A leaf that claimed a partitioning its rows lack (say, the query's
        # hash partitioning over AQE-coalesced partitions) would let a
        # shuffle join skip an exchange and pair the wrong partitions.
        src = "select id % 13 as v, id as w from range(200)"
        eng.ctas("E", src)
        for name, agg in (("lo", "min"), ("hi", "max")):
            eng.ctas(name, f"select v, {agg}(w) as w from {eng.ref('E')} group by v")
            leaf = eng.table(name)._jdf.queryExecution().analyzed()
            part = leaf.outputPartitioning()
            assert (part.getClass().getSimpleName() == "UnknownPartitioning"
                    or part.numPartitions() == leaf.rdd().getNumPartitions()), part.toString()
        join = "select L.v, L.w as lo, H.w as hi from {} as L join {} as H on L.v = H.v"
        plain = [f"(select v, {agg}(w) as w from ({src}) group by v)" for agg in ("min", "max")]
        key = "spark.sql.autoBroadcastJoinThreshold"
        original = spark.conf.get(key)
        spark.conf.set(key, "-1")
        try:
            got = sorted(spark.sql(join.format(eng.ref("lo"), eng.ref("hi"))).collect())
            want = sorted(spark.sql(join.format(*plain)).collect())
        finally:
            spark.conf.set(key, original)
        assert got == want and len(got) == 13

    def test_tables_above_the_threshold_are_shuffled(self, spark, monkeypatch):
        key = "spark.sql.autoBroadcastJoinThreshold"
        original = spark.conf.get(key)
        spark.conf.set(key, "1")  # bytes: below every non-empty table
        try:
            plans = self.contract_plans(spark, monkeypatch)
        finally:
            spark.conf.set(key, original)
        for plan in plans:
            assert "SortMergeJoin" in plan and "BroadcastHashJoin" not in plan, plan
