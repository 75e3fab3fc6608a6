"""An in-Spark "MPP database": CTAS / DROP / RENAME with resource metering.

The paper's algorithms are Python drivers issuing SQL statements
(``CREATE TABLE … AS SELECT``, ``DROP TABLE``, ``ALTER TABLE … RENAME``)
against Apache HAWQ.  :class:`Engine` reproduces that execution model on a
SparkSession:

* every logical table is **materialised to parquet** and re-read — the
  direct analogue of the database writing each table to storage.  A CTAS is
  one write whose rows are counted as they are written, through an attached
  :class:`~pyspark.sql.Observation`, and a read-back given the schema the
  engine already knows, so no further Spark job infers it or counts the
  table.  The round-trip severs Catalyst lineage *and statistics* between
  rounds.  (Materialising via ``localCheckpoint`` instead is a known trap
  for iterative SQL: Spark carries the origin plan's size estimate into the
  checkpointed relation, the estimates multiply at every self-join round,
  and after ~12 rounds the planner spends minutes multiplying million-digit
  BigIntegers in ``SizeInBytesOnlyStatsPlanVisitor``.)
* :meth:`ref` resolves logical → run-unique temp-view names so algorithm
  code can embed table names in SQL strings;
* per-statement metrics (rows, bytes, seconds, round number) feed the
  reproduction of the paper's Tables III–V;
* ``spark.sql.shuffle.partitions`` is session-global, so engines sharing a
  session share one setting: the first live engine saves and sets it, later
  engines must ask for the same value, and the last to close restores it;
* an optional **row budget** emulates a cluster running out of resources:
  exceeding it raises :class:`SpaceBudgetExceeded`, which the harness
  renders as the paper's "—" entries.

Byte metrics use logical row width (8 bytes per bigint/double column) so
space ratios are deterministic and comparable across algorithms, mirroring
the fixed-width row accounting of the paper's database tables.
"""
from __future__ import annotations

import itertools
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from .metrics import EngineStats, QueryRecord

_engine_ids = itertools.count()

#: Estimated storage width in bytes per Spark SQL type name.
_WIDTHS = {"bigint": 8, "double": 8, "int": 4, "float": 4, "boolean": 1}


class SpaceBudgetExceeded(RuntimeError):
    """Raised when live rows exceed the engine's budget (paper's "—" case)."""

    def __init__(self, live_rows: int, budget: int):
        super().__init__(f"live rows {live_rows} exceed budget {budget}")
        self.live_rows = live_rows
        self.budget = budget


_SHUFFLE_KEY = "spark.sql.shuffle.partitions"


@dataclass
class _ShuffleHold:
    """The live engines' hold on one session's shuffle-partitions setting."""

    saved: str  # the session's value before the first engine set it
    value: str
    engines: int


# Module-level because the setting they guard is process-wide: one
# SparkSession (keyed by id; a live engine keeps it alive) is shared by every
# engine and thread that uses it.
_shuffle_lock = threading.Lock()
_shuffle_holds: dict[int, _ShuffleHold] = {}


def _hold_shuffle(spark: SparkSession, value: str) -> None:
    with _shuffle_lock:
        hold = _shuffle_holds.get(id(spark))
        if hold is None:
            _shuffle_holds[id(spark)] = _ShuffleHold(spark.conf.get(_SHUFFLE_KEY), value, 1)
            spark.conf.set(_SHUFFLE_KEY, value)
        elif hold.value != value:
            raise ValueError(
                f"shuffle_partitions={value} conflicts with {hold.value} "
                f"held by {hold.engines} live engine(s) on this session"
            )
        else:
            hold.engines += 1


def _release_shuffle(spark: SparkSession) -> None:
    with _shuffle_lock:
        hold = _shuffle_holds[id(spark)]
        hold.engines -= 1
        if hold.engines == 0:
            del _shuffle_holds[id(spark)]
            spark.conf.set(_SHUFFLE_KEY, hold.saved)


def _row_width(df: DataFrame) -> int:
    return sum(_WIDTHS.get(f.dataType.simpleString(), 16) for f in df.schema.fields)


class Engine:
    """A metered SQL execution context. Use as a context manager."""

    def __init__(
        self,
        spark: SparkSession,
        *,
        max_live_rows: int | None = None,
        shuffle_partitions: int | None = 8,
    ):
        self._shuffle = None if shuffle_partitions is None else str(shuffle_partitions)
        if self._shuffle is not None:
            _hold_shuffle(spark, self._shuffle)
        self.spark = spark
        self.stats = EngineStats()
        self.max_live_rows = max_live_rows
        self._prefix = f"mpp{next(_engine_ids)}"
        self._dir = Path(tempfile.mkdtemp(prefix=f"{self._prefix}_"))
        self._tables: dict[str, DataFrame] = {}
        self._paths: dict[str, Path] = {}
        self._rows: dict[str, int] = {}
        self._bytes: dict[str, int] = {}
        self._seq = itertools.count()
        self._round = 0
        self._closed = False

    # --- catalog -----------------------------------------------------

    def ref(self, name: str) -> str:
        """Physical (temp-view) name of logical table ``name`` for SQL strings."""
        return f"{self._prefix}_{name}"

    def table(self, name: str) -> DataFrame:
        """The DataFrame behind logical table ``name``."""
        return self._tables[name]

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def rows(self, name: str) -> int:
        return self._rows[name]

    @property
    def live_rows(self) -> int:
        return sum(self._rows.values())

    @property
    def live_bytes(self) -> int:
        return sum(self._bytes.values())

    # --- rounds ------------------------------------------------------

    def next_round(self) -> int:
        """Advance the round counter (one paper-algorithm iteration)."""
        self._round += 1
        return self._round

    @property
    def round(self) -> int:
        return self._round

    # --- statements --------------------------------------------------

    def register_input(self, name: str, df: DataFrame) -> int:
        """Register the input table. Counts toward input size, not writes."""
        t0 = time.perf_counter()
        stored, n = self._materialise(name, df)
        dt = time.perf_counter() - t0
        self._install(name, stored, n)
        b = self._bytes[name]
        self.stats.input_rows += n
        self.stats.input_bytes += b
        self.stats.queries.append(
            QueryRecord("input", self._round, n, b, dt, "input", name)
        )
        return n

    def ctas(self, name: str, sql: str, *, label: str | None = None) -> int:
        """``CREATE TABLE name AS <sql>`` — materialise, meter, budget-check."""
        self._check_open()
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists; drop or rename first")
        t0 = time.perf_counter()
        stored, n = self._materialise(name, self.spark.sql(sql))
        dt = time.perf_counter() - t0
        self._install(name, stored, n)
        b = self._bytes[name]
        self.stats.queries.append(
            QueryRecord(label or name, self._round, n, b, dt, "ctas", name)
        )
        if self.max_live_rows is not None and self.live_rows > self.max_live_rows:
            raise SpaceBudgetExceeded(self.live_rows, self.max_live_rows)
        return n

    def scalar(self, sql: str, *, label: str = "read"):
        """Run a read-only query, return the single value of its single row."""
        return self.row(sql, label=label)[0]

    def row(self, sql: str, *, label: str = "read"):
        """Run a read-only query, return its single Row."""
        self._check_open()
        t0 = time.perf_counter()
        row = self.spark.sql(sql).collect()[0]
        dt = time.perf_counter() - t0
        self.stats.queries.append(QueryRecord(label, self._round, 0, 0, dt, "read"))
        return row

    def drop(self, *names: str) -> None:
        """``DROP TABLE name[, ...]`` — frees the space in the live accounting.

        Every name is checked before any is dropped.
        """
        self._check_exists(*names)
        for name in names:
            self.spark.catalog.dropTempView(self.ref(name))
            shutil.rmtree(self._paths.pop(name), ignore_errors=True)
            del self._tables[name], self._rows[name], self._bytes[name]

    def rename(self, old: str, new: str) -> None:
        """``ALTER TABLE old RENAME TO new`` (old must exist, new must not)."""
        self._check_exists(old)
        if new in self._tables:
            raise ValueError(f"table {new!r} already exists")
        df = self._tables.pop(old)
        self.spark.catalog.dropTempView(self.ref(old))
        self._paths[new] = self._paths.pop(old)
        self._rows[new] = self._rows.pop(old)
        self._bytes[new] = self._bytes.pop(old)
        self._tables[new] = df
        df.createOrReplaceTempView(self.ref(new))

    # --- lifecycle ---------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        for name in list(self._tables):
            try:
                self.spark.catalog.dropTempView(self.ref(name))
            except Exception:
                pass
        self._tables.clear()
        self._paths.clear()
        self._rows.clear()
        self._bytes.clear()
        shutil.rmtree(self._dir, ignore_errors=True)
        if self._shuffle is not None:
            _release_shuffle(self.spark)
        self._closed = True

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- internals ---------------------------------------------------

    def _materialise(self, name: str, df: DataFrame) -> tuple[DataFrame, int]:
        """Write ``df`` to parquet and read it back (the CTAS storage step).

        The write's own jobs count its rows through an Observation, and the
        read-back is given ``df``'s schema, so no schema-inference job and no
        ``count()`` runs.
        """
        path = self._dir / f"{name}_{next(self._seq)}"
        obs = Observation()
        observed = df.observe(obs, F.count(F.lit(1)).alias("n"))
        observed.write.mode("overwrite").parquet(str(path))
        n = obs.get["n"]
        stored = self.spark.read.schema(df.schema).parquet(str(path))
        self._paths[name] = path
        return stored, n

    def _install(self, name: str, df: DataFrame, n: int) -> None:
        self._tables[name] = df
        self._rows[name] = n
        self._bytes[name] = n * _row_width(df)
        df.createOrReplaceTempView(self.ref(name))
        self.stats.peak_live_rows = max(self.stats.peak_live_rows, self.live_rows)
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes, self.live_bytes)

    def _check_exists(self, *names: str) -> None:
        missing = [n for n in names if n not in self._tables]
        if missing:
            raise ValueError(f"no such table(s): {', '.join(map(repr, missing))}")

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")
