"""Generic entrypoint: connected components of an arbitrary edge list.

Usage:
  python jobs/run_cc.py --input edges.parquet --output labels.parquet \
      [--algorithm rc] [--seed 0] [--normalize]

``--algorithm`` is a key of ``repro.core.api.ALGORITHMS``; an RC name
carries its randomisation method (``rc`` is GF(p), ``rc_feistel`` the cipher).

The input must have two integer columns (taken as v, w).  CSV inputs are
read with a header.
"""
from __future__ import annotations

import argparse
import sys


def main(spark, input_path: str, output_path: str | None, *, algorithm="rc",
         seed=0, normalize=False):
    from pyspark.sql import functions as F

    from repro.core import connected_components

    reader = spark.read
    if input_path.endswith(".csv"):
        df = reader.option("header", True).option("inferSchema", True).csv(input_path)
    else:
        df = reader.parquet(input_path)
    c0, c1 = df.columns[:2]
    edges = df.select(
        F.col(c0).cast("long").alias("v"), F.col(c1).cast("long").alias("w")
    )
    labels = connected_components(
        spark, edges, algorithm=algorithm, seed=seed, normalize=normalize
    )
    if output_path:
        labels.write.mode("overwrite").parquet(output_path)
    return labels


if __name__ == "__main__":
    sys.path.insert(0, ".")
    from common import get_spark

    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", default=None)
    ap.add_argument("--algorithm", default="rc")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--normalize", action="store_true")
    args = ap.parse_args()
    spark = get_spark("run_cc")
    labels = main(
        spark, args.input, args.output, algorithm=args.algorithm,
        seed=args.seed, normalize=args.normalize,
    )
    n = labels.count()
    k = labels.select("r").distinct().count()
    print(f"{n} vertices, {k} connected components")
