"""Measurement utilities: correlations and frontier evolution."""

from .correlation import FrontierCorrelation, frontier_time_correlations, pearson
from .frontier import FrontierEvolution, classify_frontier_shape, frontier_evolution

__all__ = [
    "pearson",
    "FrontierCorrelation",
    "frontier_time_correlations",
    "FrontierEvolution",
    "frontier_evolution",
    "classify_frontier_shape",
]
