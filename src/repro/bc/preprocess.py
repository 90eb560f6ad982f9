"""Degree-1 folding: peel pendant vertices before any traversal runs.

Scale-free and road graphs carry large pendant fringes (degree-1
vertices and the trees hanging off them).  Every shortest path through
such a tree is forced — there is nothing to search — so the traversal
work they cost can be replaced by a closed-form correction, as in
Vella et al. (arXiv:1602.00963).  This module implements the iterative
peel: each round removes every current-degree-1 vertex, folding its
accumulated subtree weight into its sole surviving neighbour, until the
residual **core** has no pendant vertices left.  Every strategy then
traverses the (often dramatically smaller) core.

Exactness is restored with two ingredients, both in *ordered-pair*
units (the Brandes sum over ordered ``(s, t)`` pairs; callers halve for
undirected graphs exactly as they do today):

* **Peel credits.**  When pendant ``u`` carrying subtree weight ``w``
  is peeled into neighbour ``v`` inside a component of ``N`` vertices,
  every path between the ``w`` vertices behind ``u`` and the ``N - w``
  vertices beyond runs through ``u`` and ``v``::

      credit[u] += (w - 1) * (N - w)        # u interior: behind-u <-> beyond
      credit[v] += w * (N - w - 1)          # v interior: subtree <-> beyond-v

  After the peel converges, each residual vertex ``r`` that absorbed a
  subtree settles the same identity once more::

      credit[r] += (w[r] - 1) * (N - w[r])

* **Weighted core traversal.**  A core vertex stands for itself plus
  its absorbed subtree, so dependency accumulation must weight each
  *target* by its absorbed count: ``delta_s(x) = sum over successors t
  of sigma_sx / sigma_st * (w[t] + delta_s(t))`` — and each *source*
  contributes ``w[s]`` traversals' worth, so the full-graph sum is
  ``sum over core s of w[s] * delta^w_s``.  Then::

      BC_ordered = expand(sum_s w[s] * delta^w_s) + credit

  where ``expand`` scatters a core-space vector back to original ids
  (folded vertices receive only their credit).

For a *single* original root ``a`` (explicit-root runs), one weighted
traversal from ``a``'s residual host plus a per-vertex correction
reproduces ``delta_a`` exactly — see :func:`per_root_correction`.

:func:`root_plan` is the one place that mapping is written: it turns
an original root set into the traversals every entry point runs (the
graph, roots and weights) and its :meth:`RootPlan.finish` turns their
core-space sum back into original-id scores.

Directed graphs fold to the identity (pendant peeling is only exact
under the undirected path symmetry), as do graphs with no pendant
vertices; identity folds let callers keep their legacy code path
byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .._util import as_index_array, concat_ranges
from ..graph.csr import CSRGraph

__all__ = [
    "FOLD_SCHEMA",
    "FoldResult",
    "fold_degree_one",
    "per_root_correction",
    "RootPlan",
    "root_set",
    "root_plan",
    "folded_betweenness_centrality",
]

FOLD_SCHEMA = "repro.fold/v1"


@dataclass(frozen=True)
class FoldResult:
    """Outcome of one degree-1 folding pass.

    All arrays are indexed by *original* vertex id unless noted.

    Attributes
    ----------
    original: the graph that was folded.
    core: residual graph (original ids relabelled to ``0..k-1`` in
        sorted order); equal to ``original`` for identity folds.
    core_vertices: original ids of the residual vertices (sorted).
    core_index: original-id -> core-id map (-1 for folded vertices).
    weights: subtree weight each vertex carried when it left the peel —
        for residual vertices the final absorbed count (>= 1), for
        folded vertices their weight at peel time.
    parent: the neighbour each folded vertex was peeled into (-1 for
        residual vertices).
    host: residual representative of every vertex (original id); a
        residual vertex hosts itself.
    comp_label: connected-component label per vertex (original graph).
    comp_size: size of each vertex's connected component in the
        original graph (float64, ready for the credit formulas).
    credit: closed-form ordered-pair BC contributions restored by the
        fold (includes the residual settlement term).
    rounds: peel rounds until convergence.
    """

    original: CSRGraph
    core: CSRGraph
    core_vertices: np.ndarray
    core_index: np.ndarray
    weights: np.ndarray
    parent: np.ndarray
    host: np.ndarray
    comp_label: np.ndarray
    comp_size: np.ndarray
    credit: np.ndarray
    rounds: int = 0
    _digest: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Shared by every caller of the graph's cached fold.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def num_folded(self) -> int:
        return int(self.original.num_vertices - self.core_vertices.size)

    @property
    def is_identity(self) -> bool:
        """True when folding removed nothing — callers should take
        their unfolded code path (identical work, zero overhead)."""
        return self.num_folded == 0

    @property
    def core_weights(self) -> np.ndarray:
        """Per-core-vertex absorbed weights — the target-weight vector
        handed to weighted dependency accumulation."""
        return self.weights[self.core_vertices]

    def expand(self, core_values: np.ndarray) -> np.ndarray:
        """Scatter a core-space vector back to original vertex ids
        (folded vertices get 0)."""
        out = np.zeros(self.original.num_vertices, dtype=np.float64)
        out[self.core_vertices] = np.asarray(core_values, dtype=np.float64)
        return out

    def digest(self) -> str:
        """Byte-deterministic SHA-256 over the fold's full output.

        Two graphs fold identically iff their digests match; the
        service layer mixes this into result-cache keys so folded and
        unfolded results of the same query never collide.
        """
        cached = self._digest.get("value")
        if cached is None:
            h = hashlib.sha256()
            h.update(FOLD_SCHEMA.encode("utf-8"))
            h.update(self.original.digest().encode("utf-8"))
            h.update(self.core.digest().encode("utf-8"))
            h.update(np.ascontiguousarray(self.core_vertices,
                                          dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.parent,
                                          dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.weights,
                                          dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(self.credit,
                                          dtype=np.float64).tobytes())
            cached = self._digest["value"] = h.hexdigest()
        return cached


def _identity_fold(g: CSRGraph) -> FoldResult:
    n = g.num_vertices
    return FoldResult(
        original=g, core=g,
        core_vertices=np.arange(n, dtype=np.int64),
        core_index=np.arange(n, dtype=np.int64),
        weights=np.ones(n, dtype=np.float64),
        parent=np.full(n, -1, dtype=np.int64),
        host=np.arange(n, dtype=np.int64),
        comp_label=np.arange(n, dtype=np.int64),
        comp_size=np.ones(n, dtype=np.float64),
        credit=np.zeros(n, dtype=np.float64),
        rounds=0,
    )


def _components(g: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex component label and component size (original graph)."""
    from ..graph.build import _component_labels

    labels = _component_labels(g)
    sizes = np.bincount(labels).astype(np.float64)[labels]
    return labels, sizes


def fold_degree_one(g: CSRGraph) -> FoldResult:
    """Iteratively peel pendant vertices; exact by construction.

    The fold is a function of the immutable graph, so it is computed
    once per :class:`~repro.graph.csr.CSRGraph` instance and cached on
    it (like :meth:`~repro.graph.csr.CSRGraph.digest`); its arrays are
    read-only.

    Each round removes every vertex with exactly one surviving
    neighbour (self-loops ignored — they never carry a shortest path).
    Two adjacent pendants (a residual ``K2``) are resolved
    deterministically: the higher id folds into the lower, which then
    stays as an isolated residual vertex.  Trees therefore fold to one
    residual vertex per component.

    Directed graphs return the identity fold.
    """
    cached = g.__dict__.get("_fold")
    if cached is None:
        cached = _fold(g)
        object.__setattr__(g, "_fold", cached)
    return cached


def _fold(g: CSRGraph) -> FoldResult:
    n = g.num_vertices
    if n == 0 or not g.undirected:
        return _identity_fold(g)

    indptr, adj = g.indptr, g.adj
    # Degree excluding self-loops: a self-loop never changes distances
    # or path counts, so it must not block (or cause) a peel.
    deg = (indptr[1:] - indptr[:-1]).astype(np.int64)
    if adj.size:
        self_loops = np.bincount(
            g.edge_sources()[adj == g.edge_sources()], minlength=n)
        deg -= self_loops.astype(np.int64)

    alive = np.ones(n, dtype=bool)
    w = np.ones(n, dtype=np.float64)
    weights = np.ones(n, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    credit = np.zeros(n, dtype=np.float64)
    labels, comp = _components(g)
    rounds = 0

    while True:
        pend = np.flatnonzero(alive & (deg == 1))
        if pend.size == 0:
            break
        # Sole surviving non-self neighbour of each pendant.
        starts = indptr[pend]
        counts = indptr[pend + 1] - starts
        nbrs = adj[concat_ranges(starts, counts)]
        owner = np.repeat(pend, counts)
        keep = alive[nbrs] & (nbrs != owner)
        nbrs, owner = nbrs[keep], owner[keep]
        into = np.full(n, -1, dtype=np.int64)
        into[owner] = nbrs  # deg == 1 => exactly one survivor per pendant
        targets = into[pend]
        # K2 pairs (both endpoints pendant): peel the higher id into the
        # lower; the lower skips this round and ends as an isolated
        # residual vertex.
        is_pend = np.zeros(n, dtype=bool)
        is_pend[pend] = True
        take = ~(is_pend[targets] & (targets > pend))
        peel, hosts = pend[take], targets[take]
        if peel.size == 0:
            break
        rounds += 1
        wu = w[peel]
        N = comp[peel]
        weights[peel] = wu
        credit[peel] += (wu - 1.0) * (N - wu)
        np.add.at(credit, hosts, wu * (N - wu - 1.0))
        np.add.at(w, hosts, wu)
        parent[peel] = hosts
        alive[peel] = False
        deg[peel] = 0
        np.add.at(deg, hosts, -1)

    if rounds == 0:
        return _identity_fold(g)

    core_vertices = np.flatnonzero(alive).astype(np.int64)
    weights[core_vertices] = w[core_vertices]
    # Residual settlement: a residual vertex is interior to every path
    # between its absorbed subtree and the rest of its component.
    credit[core_vertices] += ((w[core_vertices] - 1.0)
                              * (comp[core_vertices] - w[core_vertices]))
    core_index = np.full(n, -1, dtype=np.int64)
    core_index[core_vertices] = np.arange(core_vertices.size)
    # Residual host of every vertex: follow parents until a survivor.
    host = np.arange(n, dtype=np.int64)
    folded = np.flatnonzero(~alive)
    host[folded] = parent[folded]
    while True:
        unresolved = ~alive[host]
        if not np.any(unresolved):
            break
        host[unresolved] = parent[host[unresolved]]

    from ..graph.build import induced_subgraph

    core = induced_subgraph(g, core_vertices)
    return FoldResult(
        original=g, core=core, core_vertices=core_vertices,
        core_index=core_index, weights=weights, parent=parent, host=host,
        comp_label=labels.astype(np.int64), comp_size=comp, credit=credit,
        rounds=rounds,
    )


def per_root_correction(fold: FoldResult, root: int) -> tuple[int, np.ndarray]:
    """Core root + additive correction reproducing one original root.

    Returns ``(core_root, corr)`` such that the original graph's
    dependency vector for ``root`` equals ``expand(delta^w) + corr``,
    where ``delta^w`` is one *weighted* accumulation (target weights
    :attr:`FoldResult.core_weights`) from ``core_root`` on the core.

    The correction closes the fold in ordered units: every vertex ``v``
    in the root's component is interior to the paths between its
    absorbed subtree and the root (``weights[v] - 1`` of them), except
    along the root's own peel path, where the far side of each hop —
    ``N - weights[p] - 1`` targets — is what the root's paths cross.
    """
    root = int(root)
    sub, parent, comp = fold.weights, fold.parent, fold.comp_size
    n = fold.original.num_vertices
    if not 0 <= root < n:
        raise IndexError(f"root {root} out of range [0, {n})")
    corr = np.zeros(n, dtype=np.float64)
    if fold.is_identity:
        return root, corr
    in_comp = fold.comp_label == fold.comp_label[root]
    corr[in_comp] = sub[in_comp] - 1.0
    corr[root] = 0.0
    N = comp[root]
    p = root
    while parent[p] != -1:
        q = int(parent[p])
        corr[q] = N - sub[p] - 1.0
        p = q
    core_root = int(fold.core_index[fold.host[root]])
    return core_root, corr


def root_set(g: CSRGraph, sources=None) -> np.ndarray:
    """The original roots a query names: every vertex for ``None``,
    else ``sources`` as int64 ids, raising ``IndexError`` up front on
    any out-of-range root."""
    if sources is None:
        return np.arange(g.num_vertices, dtype=np.int64)
    return as_index_array(sources, g.num_vertices, "roots")


@dataclass(frozen=True)
class RootPlan:
    """How one root set becomes weighted traversals, and back.

    Attributes
    ----------
    graph: the graph the traversals run on — the fold's core, or the
        input graph when there is no (non-identity) fold.
    roots: the validated original roots.
    run_roots: one traversal root on ``graph`` per traversal.
    target_weights: per-``graph``-vertex target weights, or ``None``.
    source_weights: per-``graph``-vertex source weights (a full folded
        run counts each core root with its absorbed subtree), or
        ``None``.
    fold: the non-identity fold, or ``None``.
    extra: the additive ordered-pair term in original ids — the fold's
        credit for a full run, the summed per-root corrections for
        explicit roots — or ``None`` without a fold.
    """

    graph: CSRGraph
    roots: np.ndarray
    run_roots: np.ndarray
    target_weights: np.ndarray | None = None
    source_weights: np.ndarray | None = None
    fold: FoldResult | None = None
    extra: np.ndarray | None = None

    def finish(self, acc: np.ndarray, divisor: float = 1.0) -> np.ndarray:
        """Original-id scores from the traversals' sum ``acc``.

        ``acc`` is the sum over ``run_roots`` of each traversal's
        dependencies (scaled by ``source_weights``), already divided by
        ``divisor``; the additive term gets the same division.  Without
        a fold ``acc`` itself is returned.
        """
        if self.fold is None:
            return acc
        return self.fold.expand(acc) + self.extra / divisor


def root_plan(g: CSRGraph, sources=None,
              fold: bool | FoldResult = True) -> RootPlan:
    """Map the root set ``sources`` (``None``: every vertex) of ``g``
    onto the traversals that compute it.

    ``fold`` is ``True`` (fold ``g``), ``False`` (traverse ``g``) or a
    precomputed :class:`FoldResult` for ``g``.  An identity fold plans
    the unfolded traversals.  With a fold, a full run traverses every
    core vertex once, weighted by its absorbed subtree, and adds the
    credit; explicit roots each traverse from their residual host and
    add their :func:`per_root_correction`.
    """
    roots = root_set(g, sources)
    if not isinstance(fold, FoldResult):
        fold = fold_degree_one(g) if fold else None
    if fold is None or fold.is_identity:
        return RootPlan(graph=g, roots=roots, run_roots=roots)
    tw = fold.core_weights
    if sources is None:
        return RootPlan(graph=fold.core, roots=roots,
                        run_roots=np.arange(fold.core.num_vertices,
                                            dtype=np.int64),
                        target_weights=tw, source_weights=tw, fold=fold,
                        extra=fold.credit)
    run_roots = np.empty(roots.size, dtype=np.int64)
    extra = np.zeros(g.num_vertices, dtype=np.float64)
    for i, a in enumerate(roots.tolist()):
        run_roots[i], corr = per_root_correction(fold, a)
        extra += corr
    return RootPlan(graph=fold.core, roots=roots, run_roots=run_roots,
                    target_weights=tw, fold=fold, extra=extra)


def folded_betweenness_centrality(fold: FoldResult,
                                  dependencies) -> np.ndarray:
    """Assemble full ordered-pair BC from weighted core traversals.

    ``dependencies(core, core_root, target_weights) -> delta`` runs one
    weighted accumulation on the core; this helper sums
    ``w[s] * delta^w_s`` over every core root and finishes the full-run
    :func:`root_plan`.  The caller halves for undirected graphs,
    exactly as on the unfolded path.
    """
    plan = root_plan(fold.original, fold=fold)
    ones = np.ones(plan.graph.num_vertices, dtype=np.float64)
    tw = ones if plan.target_weights is None else plan.target_weights
    sw = ones if plan.source_weights is None else plan.source_weights
    acc = np.zeros(plan.graph.num_vertices, dtype=np.float64)
    for cs in plan.run_roots.tolist():
        acc += sw[cs] * dependencies(plan.graph, cs, tw)
    return plan.finish(acc)
