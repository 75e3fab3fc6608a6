import importlib.util
import os
import sys

import pytest
from pyspark.sql import SparkSession


def _get_spark():
    """``jobs/common.get_spark``, loaded by path (``jobs/`` is no package)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "jobs", "common.py")
    spec = importlib.util.spec_from_file_location("jobs_common", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    The session is built by the jobs' own ``get_spark``, which also sets the
    master and driver memory before the JVM starts, so tests run with the
    settings the jobs and the benchmark use (shuffle partitions, Arrow,
    Spark's default broadcast threshold).
    """
    s = _get_spark()("repro")
    # One line in test_output.txt with the driver memory the JVM was given
    # (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={s.sparkContext.getConf().get('spark.driver.memory')} "
        "(src=conf) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
