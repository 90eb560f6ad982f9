"""Copying-model web graph (stand-in for the ``cnr-2000`` web crawl).

Web graphs combine a power-law degree distribution with strong local
clustering.  The linear-time *copying model* (Kumar et al.) captures
both: each new page picks a random "prototype" page and copies each of
the prototype's links with probability ``1 - beta``, otherwise links to
a uniformly random page.  With out-degree ~8 and beta ~0.3 the result
matches cnr-2000's shape (n=325k, m=2.7M, max degree in the ten
thousands, diameter in the low tens).
"""

from __future__ import annotations

import numpy as np

from ..build import from_edges
from ..csr import CSRGraph

__all__ = ["copying_web_graph"]


def copying_web_graph(
    n: int,
    out_degree: int = 8,
    beta: float = 0.3,
    locality: float = 0.1,
    seed: int = 0,
    name: str = "",
) -> CSRGraph:
    """Generate a copying-model web graph with ``n`` pages.

    ``locality`` restricts prototypes and random targets to a sliding
    window of the last ``locality * n`` pages: crawls visit sites
    contiguously, so most links stay within a neighbourhood of the
    crawl order.  This is what gives real web crawls like cnr-2000
    their surprisingly large diameter (33 at n = 325k) despite their
    power-law hubs — the hubs are site-local, not global.

    The graph is returned undirected (symmetrised), matching how the
    paper's BC computation treats the web crawl.
    """
    if out_degree < 1:
        raise ValueError("out_degree must be >= 1")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if not 0.0 < locality <= 1.0:
        raise ValueError("locality must be in (0, 1]")
    if n <= 1:
        return CSRGraph(np.zeros(max(n, 0) + 1 if n > 0 else 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64), name=name or "web_empty")
    rng = np.random.default_rng(seed)
    k = out_degree
    window = max(k + 1, int(locality * n))
    seed_n = min(n, k + 1)
    # Dense seed so prototypes always have links to copy.
    idx = np.arange(seed_n)
    src_parts = [np.repeat(idx, seed_n - 1)]
    dst_parts = [np.concatenate([np.delete(idx, i) for i in range(seed_n)])]
    # Link table: links[v] holds vertex v's chosen targets.
    links = np.zeros((n, k), dtype=np.int64)
    links[:seed_n] = np.array(
        [np.resize(np.delete(idx, i), k) for i in range(seed_n)], dtype=np.int64
    )
    # Pre-draw all randomness in bulk; the per-page loop only assembles.
    protos_u = rng.random(n)
    copy_masks = rng.random((n, k)) >= beta
    random_u = rng.random((n, k))
    for v in range(seed_n, n):
        lo = max(0, v - window)
        proto = lo + int(protos_u[v] * (v - lo))
        row = np.where(copy_masks[v], links[proto],
                       lo + (random_u[v] * (v - lo)).astype(np.int64))
        row[row == v] = proto
        links[v] = row
        src_parts.append(np.full(k, v, dtype=np.int64))
        dst_parts.append(row.copy())
    edges = np.column_stack([np.concatenate(src_parts), np.concatenate(dst_parts)])
    return from_edges(edges, num_vertices=n, undirected=True,
                      name=name or f"web_{n}")
