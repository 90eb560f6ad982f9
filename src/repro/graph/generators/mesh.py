"""Finite-element-style mesh stand-in for ``af_shell9``.

``af_shell9`` (sheet-metal-forming FEM, UFL collection) is a
quasi-regular mesh: 505k vertices, 8.5M edges (average degree ~34, max
39) and diameter 497.  We model it as a 2-D grid where every vertex
connects to all neighbours within Chebyshev radius ``r`` — radius 3
gives 48 neighbours in the interior (close to af_shell9's 33.8 average
once boundary effects are included at these aspect ratios, and capped
uniformly like a FEM stencil).  The key structural properties the BC
algorithms care about — near-uniform degree, gradual linear frontier
growth, large diameter — match by construction.
"""

from __future__ import annotations

import math

import numpy as np

from ..build import from_edges
from ..csr import CSRGraph

__all__ = ["stencil_mesh"]


def stencil_mesh(
    n: int, radius: int = 2, aspect: float = 1.0, seed: int = 0, name: str = ""
) -> CSRGraph:
    """A ``w x h`` grid with edges to every vertex within Chebyshev
    distance ``radius`` (a (2r+1)^2 - 1 point FEM-like stencil).

    ``aspect`` stretches the grid (w/h ratio); af_shell-style shells are
    long and thin, which raises the diameter for a given vertex count.
    """
    if radius < 1:
        raise ValueError("stencil radius must be >= 1")
    if n <= 1:
        return CSRGraph(np.zeros(max(n, 0) + 1 if n > 0 else 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64), name=name or "mesh_empty")
    aspect = max(aspect, 1e-3)
    w = max(2, int(math.sqrt(n * aspect)))
    h = max(2, (n + w - 1) // w)
    ids = np.arange(w * h, dtype=np.int64).reshape(h, w)
    src_parts, dst_parts = [], []
    for dy in range(0, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy == 0 and dx <= 0:
                continue  # keep one direction of each offset pair
            ys = slice(0, h - dy)
            yd = slice(dy, h)
            if dx >= 0:
                xs = slice(0, w - dx)
                xd = slice(dx, w)
            else:
                xs = slice(-dx, w)
                xd = slice(0, w + dx)
            src_parts.append(ids[ys, xs].ravel())
            dst_parts.append(ids[yd, xd].ravel())
    edges = np.column_stack([np.concatenate(src_parts), np.concatenate(dst_parts)])
    return from_edges(edges, num_vertices=w * h, undirected=True,
                      name=name or f"mesh_{w}x{h}_r{radius}")
