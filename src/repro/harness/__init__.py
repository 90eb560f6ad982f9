"""Experiment harness: regenerate every table and figure of the paper."""

from .runner import ExperimentConfig, load_suite_graph, pick_roots
from .tables import format_kv, format_series, format_table

__all__ = [
    "ExperimentConfig",
    "load_suite_graph",
    "pick_roots",
    "format_table",
    "format_kv",
    "format_series",
]
