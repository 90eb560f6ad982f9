"""Real (process-level) parallel execution of BC over roots."""

from .pool import parallel_betweenness_centrality

__all__ = ["parallel_betweenness_centrality"]
