"""An in-Spark "MPP database": CTAS / DROP / RENAME with resource metering.

The paper's algorithms are Python drivers issuing SQL statements
(``CREATE TABLE … AS SELECT``, ``DROP TABLE``, ``ALTER TABLE … RENAME``)
against Apache HAWQ.  :class:`Engine` reproduces that execution model on a
SparkSession:

* every logical table is **materialised in memory** — the analogue of the
  database writing each table to storage.  A CTAS runs its query once, as
  one ``count()`` over the query's rows, local-checkpointed by Spark's own
  ``Dataset.localCheckpoint`` (blocks kept MEMORY_AND_DISK); the table is
  the checkpoint's ``LogicalRDD`` leaf, whose lineage is cut.  The leaf's
  statistics are replaced by the table's *exact* ones (the counted rows),
  so Spark's planner can broadcast a small table into a join, as an MPP
  database's planner picks a broadcast motion from its table sizes.  (The
  checkpoint's own statistics are the origin plan's *estimate*; kept, the
  estimates multiply at every self-join round, and after ~12 rounds the
  planner spends minutes multiplying million-digit BigIntegers in
  ``SizeInBytesOnlyStatsPlanVisitor``.)
* each stored table keeps one temp view, named once; :meth:`ref` gives its
  name for SQL strings, and a RENAME is bookkeeping that touches no catalog;
* the engine numbers the rounds of a solve and enforces its round cap:
  :meth:`next_round` raises :class:`RoundLimitExceeded` past ``max_rounds``;
* per-statement metrics (rows, bytes, seconds, round number) feed the
  reproduction of the paper's Tables III–V;
* the engine changes no session setting: the session's owner configures it;
* an optional **row budget** emulates a cluster running out of resources:
  exceeding it raises :class:`SpaceBudgetExceeded`, which the harness
  renders as the paper's "—" entries.

Byte metrics use logical row width (8 bytes per bigint/double column) so
space ratios are deterministic and comparable across algorithms, mirroring
the fixed-width row accounting of the paper's database tables.
"""
from __future__ import annotations

import functools
import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass

from py4j.java_gateway import JavaClass, JavaObject
from pyspark.sql import DataFrame, SparkSession

from .metrics import EngineStats, QueryRecord

_engine_ids = itertools.count()

#: Estimated storage width in bytes per Spark SQL type name.
_WIDTHS = {"bigint": 8, "double": 8, "int": 4, "float": 4, "boolean": 1}

#: ``Int.MaxValue``: the largest row count a ``limit`` can express.
_INT_MAX = 2**31 - 1


class SpaceBudgetExceeded(RuntimeError):
    """Raised when live rows exceed the engine's budget (paper's "—" case)."""

    def __init__(self, live_rows: int, budget: int):
        super().__init__(f"live rows {live_rows} exceed budget {budget}")
        self.live_rows = live_rows
        self.budget = budget


class RoundLimitExceeded(RuntimeError):
    """Raised when a solve would start a round past its ``max_rounds`` cap."""

    def __init__(self, max_rounds: int):
        super().__init__(f"no convergence after {max_rounds} rounds")
        self.max_rounds = max_rounds


@dataclass
class SolveResult:
    """Outcome of one connected-components solve, for every algorithm."""

    result: DataFrame  # columns (v, r)
    rounds: int
    stats: EngineStats


@dataclass
class _Table:
    """One catalog entry: the stored DataFrame, its checkpointed rows and its size."""

    df: DataFrame
    view: str  # its one temp view, "mpp<engine>_t<serial>", kept through renames
    jrdd: JavaObject  # the leaf's RDD[InternalRow], holding the table's blocks
    rows: int
    bytes: int

    def free(self) -> None:
        """Release the table's blocks (where a database would delete its files)."""
        self.jrdd.unpersist(False)


@dataclass(frozen=True)
class _Jvm:
    """The JVM handles of the store step, looked up once per engine.

    Each py4j class lookup is a round trip to the JVM (about 2 ms on a
    4-vCPU host), which a CTAS would otherwise pay several times.
    """

    session: JavaObject  # the classic SparkSession
    some: JavaClass  # scala.Some
    none: JavaObject  # scala.None
    limit: JavaObject  # catalyst's Limit companion object
    literal: JavaObject  # catalyst's Literal companion object
    dataset: JavaClass  # classic.Dataset, for Dataset.ofRows

    @classmethod
    def of(cls, spark: SparkSession) -> "_Jvm":
        jvm = spark._jvm
        catalyst = jvm.org.apache.spark.sql.catalyst
        return cls(
            spark._jsparkSession,
            jvm.scala.Some,
            jvm.scala.Option.empty(),
            getattr(getattr(catalyst.plans.logical, "Limit$"), "MODULE$"),
            getattr(getattr(catalyst.expressions, "Literal$"), "MODULE$"),
            jvm.org.apache.spark.sql.classic.Dataset,
        )


def _row_width(df: DataFrame) -> int:
    return sum(_WIDTHS.get(f.dataType.simpleString(), 16) for f in df.schema.fields)


class Engine:
    """A metered SQL execution context for one solve. Use as a context manager.

    The engine is the only owner of the solve's round number: algorithms
    start each round with :meth:`next_round`, which also enforces their
    round cap and advances ``stats.rounds``, the rounds they ran.
    """

    def __init__(self, spark: SparkSession, *, max_live_rows: int | None = None):
        self.spark = spark
        self.stats = EngineStats()
        self.max_live_rows = max_live_rows
        self._views = map(f"mpp{next(_engine_ids)}_t{{}}".format, itertools.count())
        self._jvm = _Jvm.of(spark)
        self._tables: dict[str, _Table] = {}
        self._closed = False

    # --- catalog -----------------------------------------------------

    def ref(self, name: str) -> str:
        """Temp-view name of existing table ``name`` for SQL strings."""
        self._check_exists(name)
        return self._tables[name].view

    def table(self, name: str) -> DataFrame:
        """The DataFrame behind logical table ``name``."""
        return self._tables[name].df

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def rows(self, name: str) -> int:
        return self._tables[name].rows

    @property
    def live_rows(self) -> int:
        return sum(t.rows for t in self._tables.values())

    @property
    def live_bytes(self) -> int:
        return sum(t.bytes for t in self._tables.values())

    # --- rounds ------------------------------------------------------

    def next_round(self, max_rounds: int) -> int:
        """Start the next round (one paper-algorithm iteration) and return its number.

        Raises :class:`RoundLimitExceeded` instead when ``max_rounds`` rounds
        have already run.  The cap is checked before the counter moves, so an
        aborted solve's ``stats.rounds`` is the number of rounds it ran.
        """
        if self.stats.rounds >= max_rounds:
            raise RoundLimitExceeded(max_rounds)
        self.stats.rounds += 1
        return self.stats.rounds

    # --- statements --------------------------------------------------

    def register_input(self, name: str, df: DataFrame) -> int:
        """Register the input table. Counts toward input size, not writes."""
        t = self._store(name, lambda: df, "input", "input")
        self.stats.input_rows += t.rows
        self.stats.input_bytes += t.bytes
        return t.rows

    def ctas(self, name: str, sql: str, *, label: str | None = None) -> int:
        """``CREATE TABLE name AS <sql>`` — materialise, meter, budget-check."""
        t = self._store(name, lambda: self.spark.sql(sql), "ctas", label or name)
        if self.max_live_rows is not None and self.live_rows > self.max_live_rows:
            raise SpaceBudgetExceeded(self.live_rows, self.max_live_rows)
        return t.rows

    def scalar(self, sql: str, *, label: str = "read"):
        """Run a read-only query, return the single value of its single row."""
        return self.row(sql, label=label)[0]

    def row(self, sql: str, *, label: str = "read"):
        """Run a read-only query, return its single Row."""
        self._check_open()
        t0 = time.perf_counter()
        row = self.spark.sql(sql).collect()[0]
        dt = time.perf_counter() - t0
        self.stats.queries.append(QueryRecord(label, self.stats.rounds, 0, 0, dt, "read"))
        return row

    def drop(self, *names: str) -> None:
        """``DROP TABLE name[, ...]`` — frees the space in the live accounting.

        Every name is checked before any is dropped.
        """
        self._check_exists(*names)
        for name in names:
            self.spark.catalog.dropTempView(self.ref(name))
            self._tables.pop(name).free()

    def detach(self, name: str) -> DataFrame:
        """Remove ``name`` from the catalog and hand its rows to the caller.

        The table's blocks are not freed: from now on they belong to the
        returned DataFrame, and Spark's ContextCleaner releases them once it
        is garbage-collected.  Runs no Spark job.
        """
        self._check_exists(name)
        self.spark.catalog.dropTempView(self.ref(name))
        return self._tables.pop(name).df

    def rename(self, old: str, new: str) -> None:
        """``ALTER TABLE old RENAME TO new`` (old must exist, new must not); keeps the view."""
        self._check_exists(old)
        if new in self._tables:
            raise ValueError(f"table {new!r} already exists")
        self._tables[new] = self._tables.pop(old)

    # --- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Drop every table's view and release its blocks.

        An interrupt while a view is dropped does not strand the other
        tables: it is re-raised once every table has been released.
        """
        if self._closed:
            return
        self._closed = True
        tables, self._tables = self._tables, {}
        interrupt = None
        for t in tables.values():
            try:
                self.spark.catalog.dropTempView(t.view)
            except Exception:
                pass
            except BaseException as e:
                interrupt = interrupt or e
            t.free()
        if interrupt is not None:
            raise interrupt

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- internals ---------------------------------------------------

    def _store(
        self, name: str, query: Callable[[], DataFrame], kind: str, label: str
    ) -> _Table:
        """Store the rows of ``query()`` as new table ``name``, timed and recorded.

        The one store path of :meth:`register_input` and :meth:`ctas`; the
        recorded time includes building the query's DataFrame.
        """
        self._check_new(name)
        t0 = time.perf_counter()
        t = self._materialise(query())
        dt = time.perf_counter() - t0
        self._install(name, t)
        self.stats.queries.append(
            QueryRecord(label, self.stats.rounds, t.rows, t.bytes, dt, kind, name)
        )
        return t

    def _materialise(self, df: DataFrame) -> _Table:
        """Run ``df`` once and keep its rows in memory (the CTAS storage step).

        ``Dataset.localCheckpoint`` marks the query's rows for a local
        checkpoint, so lineage is cut at their first action: the ``count()``
        that both materialises and counts the table (one Spark job when the
        query has no shuffle).  The stored DataFrame is the checkpoint's leaf
        with the counted rows' exact statistics (:meth:`_leaf`).  If the
        query or the store step fails, the marked rows are unpersisted before
        the error propagates.
        """
        leaf = df._jdf.localCheckpoint(False).queryExecution().analyzed()
        rdd = leaf.rdd()
        try:
            n = rdd.count()
            stored = self._leaf(leaf, n)
        except BaseException:
            rdd.unpersist(False)
            raise
        return _Table(stored, next(self._views), rdd, n, n * _row_width(stored))

    def _leaf(self, leaf: JavaObject, n: int) -> DataFrame:
        """The ``LogicalRDD`` ``leaf`` over ``n`` stored rows, reporting their exact size.

        ``rowCount`` is ``n`` and ``sizeInBytes`` is Spark's own row-size
        estimate times ``n``, read off a ``Limit(n)`` over the leaf once its
        origin estimate is stripped (a limit keeps a smaller child count):
        py4j turns a Scala ``BigInt`` into a Python ``int``, so the
        ``Statistics`` must be built on the JVM side.  The figures come from
        the rows, never from the plan that produced them, so they cannot
        compound over rounds.  A table of ``Int.MaxValue`` rows or more gets
        no statistics, since a limit is an ``Int``: Spark's default estimate
        is far above any broadcast threshold either way.
        """
        j = self._jvm
        args = (leaf.output(), leaf.rdd(), leaf.outputPartitioning(), leaf.outputOrdering(),
                leaf.isStreaming(), leaf.stream(), j.session)
        bare = leaf.copy(*args, j.none, j.none)
        stats = j.some(j.limit.apply(j.literal.apply(n), bare).stats()) if n < _INT_MAX else j.none
        return DataFrame(j.dataset.ofRows(j.session, leaf.copy(*args, stats, j.none)), self.spark)

    def _install(self, name: str, t: _Table) -> None:
        self._tables[name] = t
        t.df.createOrReplaceTempView(t.view)
        self.stats.peak_live_rows = max(self.stats.peak_live_rows, self.live_rows)
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes, self.live_bytes)

    def _check_new(self, name: str) -> None:
        self._check_open()
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists; drop or rename first")

    def _check_exists(self, *names: str) -> None:
        missing = [n for n in names if n not in self._tables]
        if missing:
            raise ValueError(f"no such table(s): {', '.join(map(repr, missing))}")

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")


def with_engine(solve):
    """Run ``solve(spark, ..., engine=...)`` on the caller's engine or on its own.

    ``solve`` leaves its labels in the engine's ``Result`` table; the
    returned :class:`SolveResult` holds that table and the engine's round
    number and statistics.  With ``engine=`` given, ``Result`` stays in that
    engine's catalog.  Otherwise ``solve`` gets a fresh engine that is
    closed however it ends; on success the engine first hands its ``Result``
    table to the returned result with :meth:`Engine.detach`.
    """

    @functools.wraps(solve)
    def run(spark: SparkSession, *args, engine: Engine | None = None, **kwargs) -> SolveResult:
        if engine is not None:
            solve(spark, *args, engine=engine, **kwargs)
            return SolveResult(engine.table("Result"), engine.stats.rounds, engine.stats)
        with Engine(spark) as eng:
            solve(spark, *args, engine=eng, **kwargs)
            return SolveResult(eng.detach("Result"), eng.stats.rounds, eng.stats)

    return run
