"""Baseline connected-components algorithms the paper compares against."""
from ..mppdb import SolveResult
from .bfs import bfs_cc
from .cracker import cracker
from .hash_to_min import hash_to_min
from .two_phase import two_phase

__all__ = ["SolveResult", "bfs_cc", "cracker", "hash_to_min", "two_phase"]
