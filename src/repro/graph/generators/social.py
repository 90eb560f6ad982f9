"""Social-network stand-ins: geosocial (loc-gowalla) and co-purchase
(com-amazon) graphs.

* ``loc-gowalla`` is a geosocial friendship network: heavy-tailed
  degrees (max 29,460 at n=196k) with small diameter.  We use a
  Chung-Lu draw from a power-law expected-degree sequence whose tail is
  calibrated to produce comparable hubs.
* ``com-amazon`` is a product co-purchasing network: modest max degree
  (549), strong community structure, diameter in the tens.  We build a
  planted-community graph: power-law community sizes, dense random
  intra-community edges, sparse inter-community edges along a
  preferential backbone.
"""

from __future__ import annotations

import numpy as np

from ..build import from_edges
from ..csr import CSRGraph
from .scalefree import chung_lu, powerlaw_degree_sequence

__all__ = ["geosocial_graph", "community_graph"]


def geosocial_graph(
    n: int,
    exponent: float = 2.2,
    min_degree: int = 2,
    hub_fraction_of_n: float = 0.1,
    locality: float = 0.0,
    locality_window: float = 0.02,
    seed: int = 0,
    name: str = "",
) -> CSRGraph:
    """Power-law graph with hubs up to ``hub_fraction_of_n * n``.

    ``locality`` is the fraction of edge endpoints rewired to land near
    their partner on a ring of vertex ids (within ``locality_window * n``)
    — friendships in geosocial networks are mostly geographic, which is
    why loc-gowalla's diameter (15) is far above the pure-configuration-
    model value.  ``locality=0`` is a plain Chung-Lu draw.
    """
    if n <= 1:
        return CSRGraph(np.zeros(max(n, 0) + 1 if n > 0 else 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64), name=name or "geosocial_empty")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    max_degree = max(min_degree + 1, int(hub_fraction_of_n * n))
    w = powerlaw_degree_sequence(
        n, exponent=exponent, min_degree=min_degree,
        max_degree=max_degree, seed=seed,
    )
    if locality == 0.0:
        return chung_lu(w, seed=seed + 1, name=name or f"geosocial_{n}")
    rng = np.random.default_rng(seed + 1)
    total = w.sum()
    num_pairs = int(total // 2)
    p = w / total
    src = rng.choice(n, size=num_pairs, p=p)
    dst = rng.choice(n, size=num_pairs, p=p)
    # Rewire a fraction of endpoints to be geographically local: a
    # signed offset within the window, wrapped on the id ring.
    window = max(2, int(locality_window * n))
    local = rng.random(num_pairs) < locality
    offsets = rng.integers(1, window + 1, size=num_pairs)
    signs = rng.choice((-1, 1), size=num_pairs)
    dst = np.where(local, (src + signs * offsets) % n, dst)
    edges = np.column_stack([src, dst]).astype(np.int64)
    return from_edges(edges, num_vertices=n, undirected=True,
                      name=name or f"geosocial_{n}")


def community_graph(
    n: int,
    mean_community: int = 40,
    intra_degree: float = 4.0,
    inter_degree: float = 1.5,
    seed: int = 0,
    name: str = "",
) -> CSRGraph:
    """Planted-community graph (communities of geometric-ish sizes,
    Erdős–Rényi-style intra edges, random inter edges)."""
    if n <= 1:
        return CSRGraph(np.zeros(max(n, 0) + 1 if n > 0 else 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64), name=name or "community_empty")
    rng = np.random.default_rng(seed)
    # Community sizes: geometric with the requested mean, truncated >= 2.
    sizes = []
    remaining = n
    while remaining > 0:
        s = int(min(remaining, max(2, rng.geometric(1.0 / mean_community))))
        sizes.append(s)
        remaining -= s
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    src_parts, dst_parts = [], []
    # Intra-community edges: each member draws ~intra_degree partners
    # inside its community.
    for ci in range(len(sizes)):
        lo, hi = int(bounds[ci]), int(bounds[ci + 1])
        s = hi - lo
        if s < 2:
            continue
        cnt = int(intra_degree * s / 2) + 1
        a = rng.integers(lo, hi, size=cnt)
        b = rng.integers(lo, hi, size=cnt)
        src_parts.append(a)
        dst_parts.append(b)
        # A Hamiltonian-ish path keeps each community connected.
        src_parts.append(np.arange(lo, hi - 1, dtype=np.int64))
        dst_parts.append(np.arange(lo + 1, hi, dtype=np.int64))
    # Inter-community edges: uniform endpoint pairs (sparse glue).
    cnt = int(inter_degree * len(sizes))
    if cnt:
        src_parts.append(rng.integers(0, n, size=cnt))
        dst_parts.append(rng.integers(0, n, size=cnt))
    # Backbone path over community representatives keeps the graph connected
    # and gives it the moderate diameter co-purchase networks show.
    reps = bounds[:-1].astype(np.int64)
    if reps.size > 1:
        perm = rng.permutation(reps.size)
        reps = reps[perm]
        src_parts.append(reps[:-1])
        dst_parts.append(reps[1:])
    edges = np.column_stack([np.concatenate(src_parts), np.concatenate(dst_parts)])
    return from_edges(edges, num_vertices=n, undirected=True,
                      name=name or f"community_{n}")
