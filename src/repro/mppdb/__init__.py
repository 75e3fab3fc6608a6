"""In-Spark MPP-database emulation (CTAS/DROP/RENAME with metering)."""
from .engine import Engine, RoundLimitExceeded, SolveResult, SpaceBudgetExceeded, with_engine
from .metrics import EngineStats, QueryRecord

__all__ = [
    "Engine",
    "RoundLimitExceeded",
    "SolveResult",
    "SpaceBudgetExceeded",
    "EngineStats",
    "QueryRecord",
    "with_engine",
]
