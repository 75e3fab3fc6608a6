"""The paper's contribution: Randomised Contraction."""
from ..mppdb import SolveResult
from .api import ALGORITHMS, connected_components, get_algorithm, normalize_labels
from .contraction import randomised_contraction, randomised_contraction_fast

__all__ = [
    "ALGORITHMS",
    "SolveResult",
    "connected_components",
    "get_algorithm",
    "normalize_labels",
    "randomised_contraction",
    "randomised_contraction_fast",
]
