"""Router-level Internet topology stand-in for ``caidaRouterLevel``.

Router-level topologies are scale-free but with a much flatter tail
than AS-level graphs (caidaRouterLevel: n=192k, m=609k, max degree
1,071, diameter 25).  Preferential attachment with a small attachment
count reproduces that: heavy tail bounded well below the hub sizes of
social networks, small diameter, average degree ~6.
"""

from __future__ import annotations

from ..csr import CSRGraph
from .scalefree import barabasi_albert

__all__ = ["router_topology"]


def router_topology(n: int, attach: int = 3, seed: int = 0, name: str = "") -> CSRGraph:
    """Preferential-attachment router topology with ``attach`` links per
    new router."""
    g = barabasi_albert(n, m=attach, seed=seed)
    return g.with_name(name or f"router_{n}")
