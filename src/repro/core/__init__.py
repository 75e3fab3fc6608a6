"""The paper's contribution: Randomised Contraction."""
from ..mppdb import SolveResult
from .api import connected_components, normalize_labels
from .contraction import randomised_contraction, randomised_contraction_fast

__all__ = [
    "SolveResult",
    "connected_components",
    "normalize_labels",
    "randomised_contraction",
    "randomised_contraction_fast",
]
