"""Cheap ABFT invariant checkers for one Brandes root.

Brandes's two stages leave enough algebraic structure behind that a
corrupted run can be caught without recomputing it (the classic
algorithm-based-fault-tolerance move, applied per root because BC's
per-root independence makes the root the natural quarantine unit):

* **Range/structure (B1)** — ``dist`` values lie in ``{-1} U [0, n)``
  with ``dist[root] == 0``; ``sigma`` is finite, positive exactly on
  reached vertices (``sigma[root]`` consistent with its level scale);
  ``delta`` is finite, non-negative, zero on unreached vertices and at
  the root.
* **BFS level consistency (B2)** — every reached non-root vertex has a
  parent at depth ``d - 1``; on undirected graphs neighbouring depths
  differ by at most 1 and no reached vertex has an unreached
  neighbour.
* **Sigma multiplicativity (B3)** — shortest-path counts satisfy
  ``sigma[v] == sum(sigma[u] for u in pred(v))`` over tree edges
  (skipped, and counted as skipped, when per-level sigma rescaling is
  active — the identity then holds only across scale factors).
* **Dependency checksum (B4)** — summing Brandes's accumulation over
  all vertices telescopes into a distance identity:
  ``sum(delta) == sum(dist[reached]) - (reached - 1)``
  (each shortest s-t path contributes ``d(s,t) - 1`` interior hops).
  One O(n) reduction cross-checks *both* stages: it moves if ``delta``
  is corrupted and (through the right-hand side) if ``dist`` is.

``paranoid`` policies run B2/B3 vectorised over every edge; ``sampled``
policies spot-check a deterministic vertex sample.  B1 and B4 are O(n)
and run for every checked root in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import concat_ranges
from ..bc.frontier import ForwardResult
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY
from .policy import VerificationPolicy

__all__ = ["Violation", "RootChecker", "expected_delta_checksum"]

UNREACHED = -1

#: Invariant identifiers carried on :class:`Violation` records.
RANGE = "range"
LEVEL = "level"
SIGMA = "sigma"
CHECKSUM = "checksum"
PARTIAL = "partial"
REDUCE = "reduce"


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    invariant: str
    root: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}@root {self.root}] {self.detail}"


@dataclass
class _Sample:
    """Sampled B2/B3 state of some rows (:meth:`RootChecker._sample`).

    ``sample`` holds the sampled vertex ids row after row and ``row``
    the row of each; ``owner`` maps each gathered edge to its sampled
    vertex, ``dn``/``dv`` are the edge's head and tail depths.
    Undirected graphs also get ``has_parent`` and the B3 predecessor
    sums ``expect`` with their verdict ``sigma_bad``, per sampled
    vertex.
    """

    sample: np.ndarray
    row: np.ndarray
    owner: np.ndarray
    dn: np.ndarray
    dv: np.ndarray
    directed: bool
    has_parent: np.ndarray | None = None
    expect: np.ndarray | None = None
    sigma_bad: np.ndarray | None = None

    def edge_bad(self) -> np.ndarray:
        """Edges that break B2: out of the reachable cone (directed), or
        to an unreached vertex or more than one level away."""
        if self.directed:
            return (self.dn < 0) | (self.dn > self.dv + 1)
        return (self.dn < 0) | (np.abs(self.dn - self.dv) > 1)


def expected_delta_checksum(distances: np.ndarray,
                            target_weights: np.ndarray | None = None,
                            source_weight: float = 1.0) -> float:
    """Right-hand side of the B4 identity: ``sum(d) - (reached - 1)``
    over reached vertices (0.0 when only the root is reached).

    With ``target_weights`` (the degree-1 folding transform's weighted
    accumulation, see :mod:`repro.bc.preprocess`), each target ``t``
    contributes ``w[t] * (d(s, t) - 1)`` interior hops and the identity
    generalises to ``sum(w * d) - (sum(w) - w[source])`` over reached
    vertices.  ``source_weight`` scales the whole expectation when the
    checked ``delta`` was pre-multiplied by the root's own weight.
    """
    reached = distances >= 0
    count = int(reached.sum())
    if count <= 1:
        return 0.0
    if target_weights is None:
        base = float(distances[reached].sum()) - (count - 1)
    else:
        w = target_weights[reached]
        src = int(np.flatnonzero(reached & (distances == 0))[0])
        base = float((w * distances[reached]).sum()) \
            - (float(w.sum()) - float(target_weights[src]))
    return base * source_weight


class RootChecker:
    """Applies a :class:`~repro.verify.VerificationPolicy`'s invariant
    suite to per-root state; stateless apart from metrics counters."""

    def __init__(self, policy: VerificationPolicy, metrics=None):
        self.policy = policy
        self.metrics = NULL_REGISTRY if metrics is None else metrics

    # ------------------------------------------------------------------
    def _close(self, got: float, expect: float) -> bool:
        tol = self.policy.rtol * max(1.0, abs(expect)) + self.policy.atol
        return abs(got - expect) <= tol

    def _record(self, violations: list, invariant: str, root: int,
                detail: str) -> None:
        violations.append(Violation(invariant, int(root), detail))
        self.metrics.inc("verify.violations", invariant=invariant)

    # ------------------------------------------------------------------
    def check_root(self, g: CSRGraph, fwd: ForwardResult,
                   delta: np.ndarray,
                   target_weights: np.ndarray | None = None,
                   source_weight: float = 1.0) -> list:
        """Run the per-root suite; returns the (possibly empty) list of
        :class:`Violation` records.

        ``target_weights``/``source_weight`` describe a weighted (folded
        core) traversal so B4's distance identity stays exact — B1-B3
        are weight-independent and run unchanged.
        """
        violations: list = []
        self.metrics.inc("verify.checks", invariant="root")
        self._check_ranges(g, fwd, delta, violations)
        scales_active = (fwd.level_scales is not None
                         and bool((fwd.level_scales != 1.0).any()))
        if self.policy.paranoid:
            self._check_structure_full(g, fwd, scales_active, violations)
        else:
            self._check_structure_sampled(g, fwd, scales_active, violations)
        self._check_checksum(fwd, delta, violations,
                             target_weights=target_weights,
                             source_weight=source_weight)
        return violations

    # -- all checks of a group's rows at once ---------------------------
    def rows_pass(self, g: CSRGraph, grp, delta: np.ndarray, rows,
                  target_weights: np.ndarray | None = None,
                  source_weights: np.ndarray | None = None) -> dict:
        """Check ``rows`` of a lockstep group in one vectorised pass.

        ``grp`` is a :class:`~repro.bc.frontier.ForwardGroup` and
        ``delta`` its ``(k, n)`` dependencies (``source_weights`` per
        vertex id, as in :meth:`check_root`).  Returns ``{row:
        counters}`` for every row on which :meth:`check_root` would
        record no violation, ``counters`` being the ``verify.checks`` /
        ``verify.skipped`` series it would increment (replay them with
        :meth:`count`).  A row missing from the result may or may not
        pass: run :meth:`check_root` on it for the verdict and the
        diagnosis.  Only the sampled suite is batched; a paranoid
        policy returns ``{}``.
        """
        rows = [int(r) for r in rows]
        if self.policy.paranoid or not rows:
            return {}
        n = g.num_vertices
        k = len(rows)
        d = grp.distances.reshape(-1, n)[rows]
        sigma = grp.sigma.reshape(-1, n)[rows]
        roots = grp.sources[rows]
        ok = self._ranges_hold(n, d, sigma, delta[rows], roots)
        # B4 per row, on the same vectors check_root would sum.
        for i, r in enumerate(rows):
            if ok[i]:
                sw = (1.0 if source_weights is None
                      else float(source_weights[roots[i]]))
                ok[i] = self._close(
                    float(delta[r].sum()),
                    expected_delta_checksum(d[i], target_weights, sw))
        # B2/B3 on every passing row's vertex sample, all rows at once.
        scaled = (grp.level_scales[rows] != 1.0).any(axis=1)
        live = np.flatnonzero(ok)
        smp = self._sample(g, d[live], sigma[live], roots[live])
        failed = np.zeros(k, dtype=bool)
        failed[live[smp.row[smp.owner[smp.edge_bad()]]]] = True
        if g.undirected:
            vertex_bad = ~smp.has_parent | (smp.sigma_bad
                                            & ~scaled[live][smp.row])
            failed[live[smp.row[vertex_bad]]] = True
        sampled = np.zeros(k, dtype=bool)
        sampled[live[smp.row]] = True
        out = {}
        for i in live[~failed[live]].tolist():
            counters = [("verify.checks", "root")]
            if sampled[i]:
                counters.append(("verify.checks", LEVEL))
                if g.undirected:
                    counters.append(("verify.skipped", SIGMA) if scaled[i]
                                    else ("verify.checks", SIGMA))
            counters.append(("verify.checks", CHECKSUM))
            out[rows[i]] = tuple(counters)
        return out

    def count(self, counters) -> None:
        """Record the check counters :meth:`rows_pass` returned."""
        for name, invariant in counters:
            self.metrics.inc(name, invariant=invariant)

    # -- B1: ranges ----------------------------------------------------
    def _ranges_hold(self, n, d, sigma, delta, roots) -> np.ndarray:
        """Every B1 condition of :meth:`_check_ranges` as one elementwise
        mask, for ``(k, n)`` rows with roots ``roots``: True exactly on
        the rows where it would record nothing."""
        atol = self.policy.atol
        reached = d >= 0
        ok = (d >= UNREACHED) & (d < n)
        ok &= np.isfinite(sigma)
        ok &= np.where(reached, sigma > 0.0, sigma == 0.0)
        ok &= np.isfinite(delta)
        ok &= delta >= -atol
        ok &= reached | (np.abs(delta) <= atol)
        pos = np.arange(len(roots))
        return (ok.all(axis=1) & (d[pos, roots] == 0)
                & (np.abs(delta[pos, roots]) <= atol))

    def _check_ranges(self, g, fwd, delta, violations) -> None:
        n = g.num_vertices
        d, sigma, root = fwd.distances, fwd.sigma, fwd.source
        if self._ranges_hold(n, d[None], sigma[None], delta[None], [root])[0]:
            return
        bad = (d < UNREACHED) | (d >= n)
        if np.any(bad):
            v = int(np.flatnonzero(bad)[0])
            self._record(violations, RANGE, root,
                         f"dist[{v}] = {int(d[v])} outside {{-1}} U [0, {n})")
        elif d[root] != 0:
            self._record(violations, RANGE, root,
                         f"dist[root] = {int(d[root])}, expected 0")
        reached = d >= 0
        if not np.all(np.isfinite(sigma)):
            v = int(np.flatnonzero(~np.isfinite(sigma))[0])
            self._record(violations, RANGE, root, f"sigma[{v}] is not finite")
        else:
            bad = reached & (sigma <= 0.0)
            if np.any(bad):
                v = int(np.flatnonzero(bad)[0])
                self._record(violations, RANGE, root,
                             f"sigma[{v}] = {sigma[v]!r} for reached vertex")
            bad = ~reached & (sigma != 0.0)
            if np.any(bad):
                v = int(np.flatnonzero(bad)[0])
                self._record(violations, RANGE, root,
                             f"sigma[{v}] = {sigma[v]!r} for unreached vertex")
        if not np.all(np.isfinite(delta)):
            v = int(np.flatnonzero(~np.isfinite(delta))[0])
            self._record(violations, RANGE, root, f"delta[{v}] is not finite")
        else:
            bad = delta < -self.policy.atol
            if np.any(bad):
                v = int(np.flatnonzero(bad)[0])
                self._record(violations, RANGE, root,
                             f"delta[{v}] = {delta[v]!r} is negative")
            bad = ~reached & (np.abs(delta) > self.policy.atol)
            if np.any(bad):
                v = int(np.flatnonzero(bad)[0])
                self._record(violations, RANGE, root,
                             f"delta[{v}] = {delta[v]!r} for unreached vertex")
            if abs(float(delta[root])) > self.policy.atol:
                self._record(violations, RANGE, root,
                             f"delta[root] = {delta[root]!r}, expected 0")

    # -- B2 + B3, vectorised over every edge (paranoid) ----------------
    def _check_structure_full(self, g, fwd, scales_active, violations) -> None:
        n = g.num_vertices
        d, sigma, root = fwd.distances, fwd.sigma, fwd.source
        self.metrics.inc("verify.checks", invariant=LEVEL)
        src = g.edge_sources()
        adj = g.adj
        src_reached = d[src] >= 0
        if g.undirected:
            # A reached vertex cannot have an unreached neighbour, and
            # adjacent depths differ by at most one.
            bad = src_reached & (d[adj] < 0)
            if np.any(bad):
                e = int(np.flatnonzero(bad)[0])
                self._record(violations, LEVEL, root,
                             f"reached vertex {int(src[e])} has unreached "
                             f"neighbour {int(adj[e])}")
            both = src_reached & (d[adj] >= 0)
            gap = np.abs(d[src] - d[adj])
            bad = both & (gap > 1)
            if np.any(bad):
                e = int(np.flatnonzero(bad)[0])
                self._record(violations, LEVEL, root,
                             f"neighbour depths {int(d[src[e]])} and "
                             f"{int(d[adj[e]])} differ by more than 1 on "
                             f"edge ({int(src[e])}, {int(adj[e])})")
        # Parent existence: every reached non-root vertex is the head of
        # at least one tree edge (works for directed graphs too — the
        # CSR stores exactly the in-edges seen from each source u).
        tree = src_reached & (d[adj] == d[src] + 1)
        has_parent = np.zeros(n, dtype=bool)
        has_parent[adj[tree]] = True
        bad = (d >= 1) & ~has_parent
        if np.any(bad):
            v = int(np.flatnonzero(bad)[0])
            self._record(violations, LEVEL, root,
                         f"vertex {v} at depth {int(d[v])} has no parent "
                         f"at depth {int(d[v]) - 1}")
        # B3: sigma over tree edges.
        if scales_active:
            self.metrics.inc("verify.skipped", invariant=SIGMA)
            return
        self.metrics.inc("verify.checks", invariant=SIGMA)
        expected = np.zeros(n, dtype=np.float64)
        np.add.at(expected, adj[tree], sigma[src[tree]])
        check = (d >= 1)
        tol = self.policy.rtol * np.maximum(1.0, np.abs(expected)) \
            + self.policy.atol
        bad = check & (np.abs(sigma - expected) > tol)
        if np.any(bad):
            v = int(np.flatnonzero(bad)[0])
            self._record(violations, SIGMA, root,
                         f"sigma[{v}] = {sigma[v]!r}, predecessors sum to "
                         f"{expected[v]!r}")
        if sigma[root] != 0.0 and not self._close(float(sigma[root]), 1.0):
            self._record(violations, SIGMA, root,
                         f"sigma[root] = {sigma[root]!r}, expected 1")

    # -- B2 + B3 on a deterministic vertex sample (sampled) ------------
    def _sample(self, g, d, sigma, roots) -> _Sample:
        """B2/B3 on a deterministic vertex sample of each ``(k, n)`` row
        (``sample_vertices`` reached non-root vertices, drawn by a
        generator seeded with the policy seed and the row's root), with
        every sampled vertex's CSR row gathered for all rows in one
        shot: a fixed handful of vectorised ops, not a Python loop per
        vertex or per row."""
        n = g.num_vertices
        picks, row = [], []
        for i, root in enumerate(roots.tolist()):
            reached = np.flatnonzero(d[i] >= 1)
            if reached.size:
                rng = np.random.default_rng([self.policy.seed, root])
                size = min(self.policy.sample_vertices, reached.size)
                picks.append(rng.choice(reached, size=size, replace=False))
                row.append(i)
        sizes = [p.size for p in picks]
        sample = (np.concatenate(picks) if picks
                  else np.empty(0, dtype=np.int64))
        row = np.repeat(np.asarray(row, dtype=np.int64), sizes)
        # Key of sampled vertex v of row i: i * n + v.
        key = sample + row * n
        starts = g.indptr[sample]
        counts = g.indptr[sample + 1] - starts
        owner = np.arange(sample.size).repeat(counts)
        nbrs = g.adj[concat_ranges(starts, counts)] + (row * n)[owner]
        d, sigma = d.ravel(), sigma.ravel()
        smp = _Sample(sample=sample, row=row, owner=owner, dn=d[nbrs],
                      dv=d[key][owner], directed=not g.undirected)
        if g.undirected:
            tree = smp.dn == smp.dv - 1
            tree_owner = owner[tree]
            smp.has_parent = np.bincount(tree_owner,
                                         minlength=sample.size) > 0
            smp.expect = np.bincount(tree_owner, weights=sigma[nbrs[tree]],
                                     minlength=sample.size)
            tol = self.policy.rtol * np.maximum(1.0, np.abs(smp.expect)) \
                + self.policy.atol
            smp.sigma_bad = np.abs(sigma[key] - smp.expect) > tol
        return smp

    def _check_structure_sampled(self, g, fwd, scales_active,
                                 violations) -> None:
        d, sigma, root = fwd.distances, fwd.sigma, fwd.source
        smp = self._sample(g, d[None], sigma[None], np.array([root]))
        if smp.sample.size == 0:
            return
        self.metrics.inc("verify.checks", invariant=LEVEL)
        if smp.directed:
            # Directed CSR rows are out-edges; the reachable cone
            # invariant is d[successor] <= d[v] + 1 and reached.
            checks = ((smp.edge_bad(), "vertex {v}: successor outside "
                       "the reachable cone"),)
        else:
            checks = ((smp.dn < 0, "reached vertex {v} has an unreached "
                       "neighbour"),
                      (np.abs(smp.dn - smp.dv) > 1,
                       "vertex {v}: neighbour depth gap > 1"))
        for bad, detail in checks:
            if bad.any():
                v = int(smp.sample[smp.owner[np.flatnonzero(bad)[0]]])
                self._record(violations, LEVEL, root, detail.format(v=v))
                return
        if smp.directed:
            return
        if not smp.has_parent.all():
            v = int(smp.sample[np.flatnonzero(~smp.has_parent)[0]])
            self._record(violations, LEVEL, root,
                         f"vertex {v} at depth {int(d[v])} has no "
                         f"parent at depth {int(d[v]) - 1}")
            return
        if scales_active:
            self.metrics.inc("verify.skipped", invariant=SIGMA)
            return
        self.metrics.inc("verify.checks", invariant=SIGMA)
        if smp.sigma_bad.any():
            i = int(np.flatnonzero(smp.sigma_bad)[0])
            v = int(smp.sample[i])
            self._record(violations, SIGMA, root,
                         f"sigma[{v}] = {sigma[v]!r}, predecessors sum "
                         f"to {smp.expect[i]!r}")

    # -- B4: dependency checksum ---------------------------------------
    def _check_checksum(self, fwd, delta, violations,
                        target_weights=None, source_weight=1.0) -> None:
        self.metrics.inc("verify.checks", invariant=CHECKSUM)
        expect = expected_delta_checksum(fwd.distances, target_weights,
                                         source_weight)
        got = float(delta.sum())
        if not self._close(got, expect):
            self._record(violations, CHECKSUM, fwd.source,
                         f"sum(delta) = {got!r}, distance identity "
                         f"expects {expect!r}")

    # -- unit / reduce checksums ---------------------------------------
    def check_partial(self, partial: np.ndarray, expected_sum: float,
                      rank: int = -1) -> list:
        """Validate a rank's per-unit partial BC vector against the sum
        of its verified per-root contributions."""
        violations: list = []
        self.metrics.inc("verify.checks", invariant=PARTIAL)
        if not np.all(np.isfinite(partial)):
            self._record(violations, PARTIAL, rank,
                         "partial BC vector contains non-finite values")
        elif not self._close(float(partial.sum()), expected_sum):
            self._record(violations, PARTIAL, rank,
                         f"sum(partial) = {float(partial.sum())!r}, "
                         f"committed roots sum to {expected_sum!r}")
        return violations

    def reduce_ok(self, total: np.ndarray, expected_sum: float) -> bool:
        """Checksummed reduce: does the reduced vector's sum match the
        independently-summed per-rank checksums?"""
        self.metrics.inc("verify.checks", invariant=REDUCE)
        if not np.all(np.isfinite(total)):
            self.metrics.inc("verify.violations", invariant=REDUCE)
            return False
        if not self._close(float(total.sum()), expected_sum):
            self.metrics.inc("verify.violations", invariant=REDUCE)
            return False
        return True
