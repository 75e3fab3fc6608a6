"""Shared SparkSession bootstrap for the spark-submit job entrypoints.

Jobs run standalone under spark-submit / plain python; the tests' session
fixture (conftest.py) and the benchmark build their session here too, so all
three run with the same settings.
"""
from __future__ import annotations

import os
import sys

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def results_path(name: str) -> str:
    d = os.path.join(repo_root(), "results")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)
