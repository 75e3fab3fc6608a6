"""Self-tests of the benchmark's checks and arithmetic (no Spark needed).

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pandas as pd
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from report import (  # noqa: E402
    PER_LAYER_UNITS,
    Solve,
    count_mismatches,
    end_to_end,
    per_layer,
    verify,
)
from run import Bench  # noqa: E402
from tracing import Span, Tracer, layer_self_seconds, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Two components: {1, 2, 3} and {7, 8}.
EDGES = pd.DataFrame({"v": [1, 2, 7], "w": [2, 3, 8]})


def _solve(labels: pd.DataFrame) -> Solve:
    s = Solve("r0", 0, "g", 1, len(EDGES))
    s.labels = labels
    return s


def test_oracle_accepts_a_correct_labelling():
    s = _solve(pd.DataFrame({"v": [1, 2, 3, 7, 8], "r": [9, 9, 9, 4, 4]}))
    verify(s, EDGES, time.perf_counter)
    assert s.ok and s.labels is None


@pytest.mark.parametrize("labels", [
    {"v": [1, 2, 3, 7, 8], "r": [9, 9, 9, 9, 9]},  # two components merged
    {"v": [1, 2, 3, 7, 8], "r": [9, 9, 5, 4, 4]},  # one component split
    {"v": [1, 2, 3, 7], "r": [9, 9, 9, 4]},  # a vertex missing
    {"v": [1, 2, 3, 7, 8, 8], "r": [9, 9, 9, 4, 4, 4]},  # a vertex twice
])
def test_oracle_rejects_a_corrupted_labelling(labels):
    s = _solve(pd.DataFrame(labels))
    verify(s, EDGES, time.perf_counter)
    assert not s.ok and s.error.startswith("oracle:")


def test_a_failed_solve_stays_failed_and_counted():
    s = _solve(None)
    s.error = "RuntimeError: boom"
    verify(s, EDGES, time.perf_counter)
    assert s.error == "RuntimeError: boom"


def _stats(rounds=3, n_ctas=9, written=800, peak=400, input_bytes=100):
    return SimpleNamespace(rounds=rounds, n_ctas=n_ctas, total_bytes_written=written,
                           peak_live_bytes=peak, input_bytes=input_bytes, queries=[])


def _metered(req, graph="g", seed=1, jobs=None, **kw) -> Solve:
    s = Solve(req, 0, graph, seed, 10)
    s.stats, s.jobs = _stats(**kw), jobs
    return s


def test_count_repeat_passes_when_counts_repeat():
    problems, merged = count_mismatches([_metered("a", jobs=50), _metered("b", jobs=50)])
    assert problems == []
    assert merged["g@1"]["spark.jobs"] == 50


def test_count_repeat_flags_a_mismatch_within_a_run():
    problems, _ = count_mismatches([_metered("a"), _metered("b", written=801)])
    assert len(problems) == 1 and "mppdb.bytes_written" in problems[0]


def test_count_repeat_flags_a_mismatch_against_an_earlier_run():
    _, merged = count_mismatches([_metered("a", jobs=50)])
    problems, _ = count_mismatches([_metered("b", jobs=51)], merged)
    assert len(problems) == 1 and "spark.jobs" in problems[0]


def test_count_repeat_keeps_rc_seeds_apart():
    problems, _ = count_mismatches([_metered("a", seed=1), _metered("b", seed=2, rounds=4)])
    assert problems == []


def test_end_to_end_weights_each_input_once_and_sums_client_rates():
    def s(client, graph, start, end, edges):
        x = Solve(f"{client}{start}", client, graph, 1, edges)
        x.start, x.end, x.stats = start, end, _stats()
        return x

    solves = [s(0, "a", 0, 1, 10), s(0, "a", 1, 2, 10), s(0, "a", 2, 3, 10),
              s(1, "b", 0, 4, 40)]
    m = end_to_end(solves, 0.0, 5.0)
    assert m["solve_s"] == pytest.approx(2.0)  # geometric mean of a's 1 s and b's 4 s
    assert m["throughput_edges_per_s"] == pytest.approx(30 / 3 + 40 / 4)
    assert m["peak_space_ratio"] == pytest.approx(4.0)
    assert m["written_ratio"] == pytest.approx(8.0)
    assert m["setup_s"] == 5.0


def test_a_run_where_every_solve_fails_reports_no_metrics():
    solves = [_metered(f"r{i}", input_bytes=0) for i in range(3)]
    for i, s in enumerate(solves):
        s.start, s.end, s.error = float(i), i + 1.0, "RuntimeError: boom"
    assert end_to_end(solves, 0.0, 5.0) == {}
    extra = {"graphs.gen_s": 1.0}
    assert per_layer(solves, extra, span_cost_s=1e-6) == {"analysis.verify_s": 0.0, **extra}


def test_timed_window_keeps_passes_whole_and_makes_the_minimum(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])

    def fake_solve(req, client, graph, path, rc_seed, edges, traced):
        clock[0] += 4.0  # every solve takes 4 s
        return Solve(req, client, graph, rc_seed, edges)

    def run(min_passes):
        bench = Bench.__new__(Bench)
        bench.args, bench.solves, bench._solve = SimpleNamespace(seconds=9, trace=0), [], fake_solve
        clock[0] = 0.0
        bench.timed(Workload("w", {"g": EDGES}, [["g"]], 0, min_passes), {"g": None})
        return [s.req for s in bench.solves]

    # Passes start at 0 and 4 s; 8 s is past 9 - 4/2, so no third unless forced.
    assert run(1) == ["c0-p0-0", "c0-p1-0"]
    assert run(3) == ["c0-p0-0", "c0-p1-0", "c0-p2-0"]


def test_self_times_subtract_direct_children():
    spans = [
        Span(0, "bench.solve", "bench", "r", None, 0.0, 10.0),
        Span(1, "core.connected_components", "core", "r", 0, 1.0, 9.0),
        Span(2, "mppdb.ctas", "mppdb", "r", 1, 2.0, 8.0),
        Span(3, "spark.SparkSession.sql", "spark", "r", 2, 3.0, 4.0),
        Span(4, "spark.DataFrameWriter.parquet", "spark", "r", 2, 4.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 3.0})
    layers = layer_self_seconds(spans)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["spark"] == pytest.approx(4.0)


def test_tracer_records_only_traced_requests_and_uninstalls():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    tracer.wrap(Layer, "work", "core")
    tracer.enter("plain", False)
    assert Layer().work(1) == 2
    tracer.enter("traced", True)
    assert tracer.call("bench.solve", "bench", Layer().work, 2) == 3
    tracer.leave()
    assert [(s.name, s.req) for s in tracer.spans] == [("core.work", "traced"),
                                                        ("bench.solve", "traced")]
    assert tracer.spans[0].parent == tracer.spans[1].sid
    tracer.uninstall()
    assert "wrapper" not in Layer.work.__qualname__


def test_per_layer_reports_every_listed_metric():
    q = [SimpleNamespace(label=lb, rows=r, seconds=0.5)
         for lb, r in (("reps", 8), ("contract", 4), ("reps", 4), ("contract", 0),
                       ("compose", 8))]
    s = Solve("r", 0, "g", 1, 10, traced=True)
    s.start, s.end, s.jobs = 0.0, 3.0, 20
    s.stats = _stats(rounds=2, n_ctas=5)
    s.stats.queries = q
    s.spans = [Span(0, "bench.solve", "bench", "r", None, 0.0, 3.0),
               Span(1, "core.connected_components", "core", "r", 0, 0.0, 3.0)]
    extra = {k: 1.0 for k in ("graphs.gen_s", "graphs.load_s", "setup.session_s",
                               "warmup_s", "warmup.solves")}
    m = per_layer([s], extra, span_cost_s=1e-6)
    assert list(m) == list(PER_LAYER_UNITS)
    assert m["core.shrink_mean"] == pytest.approx(0.5)
    assert m["spark.jobs_per_ctas"] == pytest.approx(4.0)
    assert m["trace.attributed_frac"] == pytest.approx(1.0)


def test_workloads_are_a_function_of_the_seed():
    a, b = WORKLOADS["small_concurrent"](3, 4), WORKLOADS["small_concurrent"](3, 4)
    assert a.schedule == b.schedule
    for name in a.graphs:
        pd.testing.assert_frame_equal(a.graphs[name], b.graphs[name])
    assert a.rc_seed("friendster") == b.rc_seed("friendster") != a.rc_seed("andromeda")
    assert a.rc_seed("friendster") != WORKLOADS["small_concurrent"](4, 4).rc_seed("friendster")
    # path_seq's input and RC seed do not depend on the workload seed.
    assert WORKLOADS["path_seq"](1, 4).rc_seed("path") == WORKLOADS["path_seq"](2, 4).rc_seed("path")
    assert WORKLOADS["small_concurrent"](3, 2).clients == 2


def test_listed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path_seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
    assert not (tmp_path / ".perfbench_out").exists()
