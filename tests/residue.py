"""What a piece of code leaves behind in a SparkSession: persisted RDDs and temp views."""


def cached_rdds(spark) -> set[int]:
    """IDs of the RDDs the session currently keeps persisted."""
    return set(spark.sparkContext._jsc.getPersistentRDDs())


def temp_views(spark) -> set[str]:
    """Names of the session's temp views."""
    return {t.name for t in spark.catalog.listTables() if t.isTemporary}


def snapshot(spark) -> tuple[set[int], set[str]]:
    return cached_rdds(spark), temp_views(spark)


def added_since(spark, snap) -> tuple[int, set[str]]:
    """How many persisted RDDs and which temp views were added since ``snap``.

    RDDs are counted by set difference, so older RDDs that Spark's cleaner
    unpersists in the meantime do not mask an addition.
    """
    rdds, views = snap
    return len(cached_rdds(spark) - rdds), temp_views(spark) - views
