"""Benchmark of ``repro.core.connected_components``: time-to-labels, space, throughput.

    python3 perfbench/run.py --workload path_seq --seed 1 --seconds 20 --trace 0

Sets up one SparkSession with the jobs' production config, writes the
workload's inputs to parquet, warms up, then lets the workload's clients
solve until ``--seconds`` have passed.  Every timed solve is checked against
the union–find oracle afterwards.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
#: Files the benchmark needs from the program under test.
PROGRAM = ("src/repro/core/__init__.py", "jobs/common.py")

#: Input generation and parquet load are repeated this often in set-up;
#: their medians enter ``setup_s``.
SETUP_REPS = 3
#: Warm-up stops once a solve is no faster than this share of the one
#: before it, or after ``WARMUP_MAX`` solves.
WARMUP_LEVEL = 0.9
WARMUP_MAX = 4

UNITS = {
    "solve_s": "s",
    "throughput_edges_per_s": "edges/s",
    "setup_s": "s",
    "peak_space_ratio": "ratio",
    "written_ratio": "ratio",
}


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def isolate(work: Path) -> None:
    """Keep every file Spark, the JVM and Python write inside ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    (work / "spark-local").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_<user>.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        os.environ.get("JAVA_TOOL_OPTIONS", "") + f" -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    ).strip()
    os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    os.environ.setdefault("SPARK_MASTER", f"local[{min(4, os.cpu_count() or 1)}]")
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    os.chdir(work)  # spark-warehouse, derby.log and the like land here
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources (which make the
    inputs), keying the count-repeat record."""
    h = hashlib.sha256()
    for base in ("src", "jobs", BENCH.name):
        for p in sorted((ROOT / base).rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(spark) -> dict:
    sc = spark.sparkContext
    return {
        "spark_version": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory", os.environ["SPARK_DRIVER_MEM"]),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


class Bench:
    """One benchmark run: session, inputs, warm-up, timed clients, checks."""

    def __init__(self, spark, args, work: Path):
        from tracing import Tracer

        self.spark = spark
        self.args = args
        self.work = work
        self.tracer = Tracer()
        self.tracer.install(spark, spans=bool(args.trace))
        self.solves: list = []  # timed solves
        self.warmup: list = []

    # --- set-up --------------------------------------------------------

    def load(self, graphs: dict) -> tuple[dict, float]:
        """Write each input to parquet ``SETUP_REPS`` times; median seconds."""
        from repro.graphs.generators import to_spark

        times, paths = [], {}
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            for name, edges in graphs.items():
                paths[name] = self.work / "inputs" / f"{rep}" / name
                to_spark(self.spark, edges).write.parquet(str(paths[name]))
            times.append(time.perf_counter() - t0)
        return paths, statistics.median(times)

    def warm_up(self, path: Path) -> tuple[float, int]:
        """Solve the warm-up input until solve time levels off; seconds, solves.

        A failed warm-up solve ends the warm-up; :func:`run` reports it.
        """
        t0 = time.perf_counter()
        while len(self.warmup) < WARMUP_MAX:
            s = self._solve(f"warm{len(self.warmup)}", 0, "warmup", path, 0, 0, False)
            self.warmup.append(s)
            w = self.warmup
            if not s.ok or len(w) >= 2 and w[-1].seconds > WARMUP_LEVEL * w[-2].seconds:
                break
        print("perfbench: warm-up solves "
              f"{[round(s.seconds, 2) for s in self.warmup]}", file=sys.stderr)
        return time.perf_counter() - t0, len(self.warmup)

    # --- timed section --------------------------------------------------

    def timed(self, wl, paths: dict) -> float:
        """Clients run whole passes while the next one should end by ``--seconds``.

        A pass starts if the clock is at most ``--seconds`` minus half the
        client's previous pass, so the window ends within half a pass of the
        deadline and every pass is whole.  The first ``wl.min_passes`` passes
        start whatever the clock says.  Returns the window's start time.
        """
        t_start = time.perf_counter()

        def client(c: int) -> list:
            out, k, last = [], 0, 0.0
            while (k < wl.min_passes
                   or time.perf_counter() - t_start <= self.args.seconds - last / 2):
                t0 = time.perf_counter()
                for i, g in enumerate(wl.schedule[c]):
                    out.append(self._solve(f"c{c}-p{k}-{i}", c, g, paths[g],
                                           wl.rc_seed(g), wl.edges(g),
                                           bool(self.args.trace)))
                last, k = time.perf_counter() - t0, k + 1
            return out

        for ss in self._concurrently(wl.clients, client):
            self.solves.extend(ss)
        return t_start

    def _solve(self, req, client, graph, path, rc_seed, edges, traced):
        """One request: read the input table, label it, materialise the labels."""
        import repro.core
        from report import Solve

        s = Solve(req, client, graph, rc_seed, edges, traced)
        sc = self.spark.sparkContext
        if traced:
            sc.setJobGroup(req, req)
        ctx = self.tracer.enter(req, traced)
        s.start = time.perf_counter()
        try:
            def body():
                labels = repro.core.connected_components(
                    self.spark, self.spark.read.parquet(str(path)), seed=rc_seed)
                labels.count()
                return labels

            s.labels = self.tracer.call("bench.solve", "bench", body)
        except Exception as e:  # a failed solve is counted, never dropped
            s.error = f"{type(e).__name__}: {e}"[:500]
        finally:
            s.end = time.perf_counter()
            self.tracer.leave()
        s.stats = ctx.engines[0].stats if ctx.engines else None
        if traced:
            s.jobs = self._settled_jobs(req)
            sc.setLocalProperty("spark.jobGroup.id", None)
            s.spans = [x for x in self.tracer.spans if x.req == req]
        return s

    def _settled_jobs(self, group: str) -> int:
        """Job count of ``group`` once the status store has caught up."""
        tracker = self.spark.sparkContext.statusTracker()
        n = len(tracker.getJobIdsForGroup(group))
        for _ in range(40):
            time.sleep(0.05)
            m = len(tracker.getJobIdsForGroup(group))
            if m == n:
                break
            n = m
        return n

    @staticmethod
    def _concurrently(n: int, fn) -> list[list]:
        """Run ``fn(c)`` for c < n on n threads; re-raise the first error."""
        results: list = [None] * n
        errors: list = []

        def run(c):
            try:
                results[c] = fn(c)
            except BaseException as e:  # handed to the main thread below
                errors.append(e)

        threads = [threading.Thread(target=run, args=(c,)) for c in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return results


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway server exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def run(args, work: Path) -> dict:
    from report import PER_LAYER_UNITS, end_to_end, per_layer, verify
    from tracing import span_cost
    from workloads import WORKLOADS, warmup_graph

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    t0 = time.perf_counter()
    from common import get_spark

    spark = get_spark("perfbench")
    session_s = time.perf_counter() - t0
    try:
        env = environment(spark)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        bench = Bench(spark, args, work)
        build = WORKLOADS[args.workload]
        gen = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            wl = build(args.seed, os.cpu_count() or 1)
            gen.append(time.perf_counter() - t)
        paths, load_s = bench.load({**wl.graphs, "warmup": warmup_graph()})
        warmup_s, warmup_n = bench.warm_up(paths["warmup"])
        setup_s = session_s + statistics.median(gen) + load_s + warmup_s

        t_start = bench.timed(wl, paths)
        t_end = time.perf_counter()
        for s in bench.solves:
            verify(s, wl.graphs[s.graph], time.perf_counter)

        problems = repeat_check(args, [s for s in bench.warmup + bench.solves if s.ok])
        for p in problems:
            print(f"perfbench: count mismatch (nondeterministic program): {p}", file=sys.stderr)
        for s in bench.warmup + bench.solves:
            if not s.ok:
                print(f"perfbench: {s.req} {s.graph} failed: {s.error}", file=sys.stderr)

        failed = sum(1 for s in bench.solves if not s.ok)
        warm_ok = all(s.ok for s in bench.warmup)
        e2e = end_to_end(bench.solves, t_start, setup_s)
        if args.trace:
            metrics = per_layer(bench.solves, {
                "graphs.gen_s": statistics.median(gen),
                "graphs.load_s": load_s,
                "setup.session_s": session_s,
                "warmup_s": warmup_s,
                "warmup.solves": warmup_n,
            }, span_cost(bench.tracer))
            units = PER_LAYER_UNITS
        else:
            metrics, units = e2e, UNITS
        result = {
            "correct": failed == 0 and warm_ok and not problems,
            "attempted": len(bench.solves),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        summary(args, bench.solves, e2e, failed, t_end - t_start, problems)
        if args.trace:
            overhead(args, metrics)
        write_out(args, env, result, bench)
        return result
    finally:
        stop_spark(spark)


def repeat_check(args, solves) -> list[str]:
    """Compare the solves' counts with each other and with earlier runs of
    this seed and source digest, kept in ``.perfbench_out/counts.json``."""
    from report import count_mismatches

    record = OUT / "counts.json"
    key = f"{code_digest()}/{args.workload}/{args.seed}"
    known = json.loads(record.read_text()) if record.is_file() else {}
    problems, known[key] = count_mismatches(solves, known.get(key))
    OUT.mkdir(exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(record)
    return problems


def summary(args, solves, e2e, failed, wall, problems) -> None:
    """Human-readable report; the JSON result line follows it."""
    n = len(solves)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"solves={n} failed={failed} failed_frac={failed / n:.4f} timed_wall_s={wall:.2f} "
          f"count_repeat={'ok' if not problems else 'MISMATCH'}")
    for k, v in e2e.items():
        print(f"  {k:24s} {v:14.6g} {UNITS[k]}")
    print(f"  ({sum(s.ok for s in solves)} verified solves over {len({s.graph for s in solves})} "
          "inputs; per-input medians, geometric mean over inputs; no tail percentile, "
          "fewer than 10 samples lie beyond p90)")


def overhead(args, metrics) -> None:
    """Traced minus untraced solve time, if this seed's untraced run is on record."""
    plain = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    if not plain.is_file() or "trace.solve_s" not in metrics:
        return
    rec = json.loads(plain.read_text())
    if rec.get("code") != code_digest() or "solve_s" not in rec["result"]["metrics"]:
        return
    untraced = rec["result"]["metrics"]["solve_s"]["value"]
    print(f"  tracing overhead: trace.solve_s - solve_s = "
          f"{metrics['trace.solve_s'] - untraced:+.3f} s (untraced run of this seed: {untraced:.3f} s); "
          f"span cost estimate {metrics['trace.span_cost_s']:.5f} s; "
          f"unattributed {metrics['trace.unattributed_s']:.5f} s")


def write_out(args, env, result, bench) -> None:
    """Result, environment, per-solve records and spans, beside each other."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    solves = [{
        "req": s.req, "client": s.client, "graph": s.graph, "rc_seed": s.rc_seed,
        "edges": s.edges, "traced": s.traced, "seconds": s.seconds,
        "verify_s": s.verify_s, "error": s.error, "counts": s.counts(),
    } for s in bench.solves]
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "code": code_digest(), "args": vars(args), "result": result,
         "solves": solves}, indent=1))
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for sp in bench.tracer.spans:
                f.write(json.dumps(vars(sp)) + "\n")


def main(argv=None) -> int:
    args = parse(argv)
    missing = [p for p in PROGRAM if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program sources not found under {ROOT}: {missing}", file=sys.stderr)
        return 2
    if not __debug__:
        print("perfbench: the union-find oracle asserts; run without -O", file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    isolate(work)
    try:
        result = run(args, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
