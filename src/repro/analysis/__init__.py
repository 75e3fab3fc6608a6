"""Experiment harness, oracles and report formatting."""
from .harness import RunRecord, load_records, run_algorithm, run_cell, save_records
from .union_find import assert_valid_labels, components, components_pandas, n_components

__all__ = [
    "RunRecord",
    "run_algorithm",
    "run_cell",
    "save_records",
    "load_records",
    "assert_valid_labels",
    "components",
    "components_pandas",
    "n_components",
]
