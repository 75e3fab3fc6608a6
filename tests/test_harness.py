"""Experiment harness: metrics plausibility, aborts, faults, persistence."""
import json
import threading
from functools import partial

import pytest

from repro.analysis.harness import (
    RunRecord,
    load_records,
    run_algorithm,
    run_cell,
    save_records,
)
from repro.baselines import bfs_cc
from repro.core import ALGORITHMS
from repro.graphs import generators as G
from repro.mppdb import Engine, SpaceBudgetExceeded

from tests.residue import added_since, snapshot

#: (rounds, n_queries, total_rows_written, peak_live_rows) of each registered
#: algorithm on ``G.random_edges(30, 40, seed=2)``: the statement sequence
#: every change to the solvers must keep.  ``rc_reals`` is left out: its
#: ``rand(seed)`` draws depend on how rows are partitioned and ordered after a
#: shuffle, which nothing in the session fixes.
PINNED = {
    "rc": (4, 12, 234, 187),
    "rc_fig3": (4, 12, 273, 187),
    "rc_gf64": (6, 18, 264, 189),
    "rc_feistel": (5, 15, 236, 187),
    "hm": (5, 20, 878, 393),
    "tp": (8, 25, 584, 174),
    "cr": (5, 25, 726, 353),
    "bfs": (5, 14, 388, 254),
}


class TestRunAlgorithm:
    def test_rc_record_fields(self, spark):
        pdf = G.path(200, numbering="random", seed=0)
        rec = run_algorithm(
            spark, "rc", G.to_spark(spark, pdf), dataset="p200",
            profile="test", verify_against=pdf,
        )
        assert not rec.aborted
        assert rec.n_vertices == 200
        assert rec.n_components == 1
        assert rec.rounds >= 2
        assert rec.seconds > 0
        assert rec.input_rows == 199
        assert rec.total_rows_written > rec.input_rows
        assert rec.peak_live_bytes > 0

    def test_all_registered_algorithms_run(self, spark):
        pdf = G.random_edges(30, 40, seed=2)
        df = G.to_spark(spark, pdf)
        for algo in ALGORITHMS:
            rec = run_algorithm(
                spark, algo, df, dataset="rand", profile="test",
                verify_against=pdf,
            )
            assert not rec.aborted, (algo, rec.abort_reason)
            assert rec.algo == algo
            if algo in PINNED:
                got = (rec.rounds, rec.n_queries, rec.total_rows_written, rec.peak_live_rows)
                assert got == PINNED[algo], algo

    def test_budget_abort_recorded(self, spark):
        pdf = G.path(2500, numbering="sequential")
        df = G.to_spark(spark, pdf)
        before = snapshot(spark)
        rec = run_algorithm(
            spark, "hm", df, dataset="path", profile="test", budget_factor=10.0,
        )
        assert rec.aborted
        assert "budget" in rec.abort_reason
        assert rec.total_rows_written > 0  # partial work still metered
        assert added_since(spark, before) == (0, set())

    def test_round_limit_abort_recorded(self, spark, monkeypatch):
        monkeypatch.setitem(ALGORITHMS, "bfs", partial(bfs_cc, max_rounds=1))
        df = G.to_spark(spark, G.path(10, numbering="sequential"))
        before = snapshot(spark)
        rec = run_algorithm(spark, "bfs", df, dataset="path", profile="test")
        assert rec.aborted
        assert rec.abort_reason == "no convergence after 1 rounds"
        assert rec.rounds == 1
        assert added_since(spark, before) == (0, set())

    def test_program_error_propagates(self, spark, monkeypatch):
        """Only resource limits are recorded as aborts; a fault is raised."""

        def boom(spark, edges, *, seed=0, engine=None):
            engine.register_input("G", edges)
            engine.ctas("E", f"select v, w from {engine.ref('G')}")
            raise RuntimeError("boom")

        monkeypatch.setitem(ALGORITHMS, "boom", boom)
        df = G.to_spark(spark, G.path(10, numbering="sequential"))
        before = snapshot(spark)
        with pytest.raises(RuntimeError, match="boom"):
            run_algorithm(spark, "boom", df, dataset="path", profile="test")
        assert added_since(spark, before) == (0, set())

    def test_no_budget(self, spark):
        pdf = G.path(50, numbering="sequential")
        rec = run_algorithm(
            spark, "rc", G.to_spark(spark, pdf), budget_factor=None
        )
        assert not rec.aborted


class _InjectedFault(RuntimeError):
    """The error a fault-injection test makes one statement raise."""


class TestFaultInjection:
    """A solve whose k-th CTAS fails, for every k, with a healthy solve beside it."""

    @pytest.mark.parametrize(
        "algo, n, fault",
        # Figs 4 and 3: 3 rounds, 9 CTAS each; hash-to-min: 3 rounds, 10 CTAS.
        # Besides a program error: the space budget (recorded as an abort)
        # and an interrupted client (propagates).
        [
            pytest.param("rc", 5, _InjectedFault, id="rc-5"),
            pytest.param("rc_fig3", 5, _InjectedFault, id="rc_fig3-5"),
            pytest.param("hm", 3, _InjectedFault, id="hm-3"),
            pytest.param("rc", 5, SpaceBudgetExceeded, id="rc-5-space_budget"),
            pytest.param("rc", 5, KeyboardInterrupt, id="rc-5-interrupt"),
        ],
    )
    def test_every_failed_statement_leaves_no_residue(
        self, spark, monkeypatch, algo, n, fault
    ):
        pdf = G.path(n, numbering="sequential")
        edges = G.to_spark(spark, pdf)
        healthy_pdf = G.path(6, numbering="random", seed=1)
        healthy_edges = G.to_spark(spark, healthy_pdf)
        faulty_thread = threading.get_ident()
        ctas, calls, fail_at = Engine.ctas, [0], [None]

        def faulty_ctas(self, *args, **kwargs):
            if threading.get_ident() == faulty_thread:
                calls[0] += 1
                if calls[0] == fail_at[0]:
                    if fault is SpaceBudgetExceeded:
                        raise SpaceBudgetExceeded(calls[0], 0)
                    raise fault(f"CTAS {calls[0]}")
            return ctas(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "ctas", faulty_ctas)
        rec = run_algorithm(spark, algo, edges, verify_against=pdf)
        assert not rec.aborted and rec.rounds <= 3
        n_ctas = calls[0]
        assert n_ctas > 0

        for k in range(1, n_ctas + 1):
            calls[0], fail_at[0] = 0, k
            before = snapshot(spark)
            healthy, errors = [], []

            def client():
                try:
                    healthy.append(
                        run_algorithm(spark, "rc", healthy_edges, verify_against=healthy_pdf)
                    )
                except Exception as exc:  # reported on the test's thread below
                    errors.append(exc)

            t = threading.Thread(target=client, daemon=True)
            t.start()
            if fault is SpaceBudgetExceeded:
                rec = run_algorithm(spark, algo, edges, verify_against=pdf)
                assert rec.aborted, k
                assert rec.abort_reason == f"space budget: live rows {k} exceed budget 0", k
            else:
                with pytest.raises(fault, match=f"CTAS {k}$"):
                    run_algorithm(spark, algo, edges, verify_against=pdf)
            t.join(300)
            assert not t.is_alive(), k
            assert errors == [], k
            assert not healthy[0].aborted and healthy[0].n_components == 1, k
            assert added_since(spark, before) == (0, set()), k


class TestRunCell:
    def test_cell_on_registry_dataset(self, spark):
        rec = run_cell(spark, "rc", "pathunion10", profile="test", verify=True)
        assert not rec.aborted
        assert rec.n_components == 10
        assert rec.dataset == "pathunion10" and rec.profile == "test"


class TestPersistence:
    def test_save_and_load_merge(self, tmp_path):
        p = tmp_path / "grid.json"
        r1 = RunRecord("rc", "d1", "test", 0, 1.0, 3, 10, 5, 80, 50, 800, 20, 320,
                       5, 1, False, None)
        r2 = RunRecord("hm", "d1", "test", 0, 2.0, 4, 12, 5, 80, 99, 1600, 60, 960,
                       5, 1, True, "space budget")
        save_records([r1], p)
        save_records([r2], p)
        recs = load_records(p)
        assert len(recs) == 2
        # overwrite same key
        r1b = RunRecord("rc", "d1", "test", 0, 9.0, 3, 10, 5, 80, 50, 800, 20, 320,
                        5, 1, False, None)
        save_records([r1b], p)
        recs = load_records(p)
        assert len(recs) == 2
        assert [r for r in recs if r["algo"] == "rc"][0]["seconds"] == 9.0

    def test_load_missing_is_empty(self, tmp_path):
        assert load_records(tmp_path / "none.json") == []

    def test_json_is_valid(self, tmp_path):
        p = tmp_path / "grid.json"
        r = RunRecord("rc", "d", "test", 0, 1.0, 1, 1, 1, 16, 1, 16, 1, 16,
                      1, 1, False, None)
        save_records([r], p)
        json.loads(p.read_text())


class TestMetricsShape:
    def test_rc_space_linear_hm_superlinear_on_path(self, spark):
        """Table IV's shape at test scale: HM peak ≫ RC peak on a path."""
        pdf = G.path(1200, numbering="sequential")
        df = G.to_spark(spark, pdf)
        rc = run_algorithm(spark, "rc", df, budget_factor=None)
        hm = run_algorithm(spark, "hm", df, budget_factor=None)
        assert rc.peak_live_rows < 10 * rc.input_rows
        assert hm.peak_live_rows > 3 * rc.peak_live_rows

    def test_two_phase_most_space_frugal_on_path(self, spark):
        """Table IV on Path100M: TP 5 GB < RC 13 GB (input 3 GB) — same
        ordering here on a path, where RC's doubled+relabelled edge tables
        dominate TP's star edges."""
        pdf = G.path(1500, numbering="sequential")
        df = G.to_spark(spark, pdf)
        rc = run_algorithm(spark, "rc", df, budget_factor=None)
        tp = run_algorithm(spark, "tp", df, budget_factor=None)
        assert tp.peak_live_rows <= rc.peak_live_rows
        # and both stay a small multiple of the input (linear space)
        assert rc.peak_live_rows <= 8 * rc.input_rows
        assert tp.peak_live_rows <= 8 * tp.input_rows
