"""The one SDC-injection / ABFT observer of the executor's root loop
(:func:`repro.bc.accumulation.root_dependencies`), shared by
:meth:`repro.gpusim.Device.run_bc` and
:func:`repro.resilience.resilient_distributed_bc`."""

from __future__ import annotations

import time

import numpy as np

from ..errors import SilentCorruptionError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY
from .invariants import RootChecker
from .policy import VerificationPolicy

__all__ = ["RootObserver"]


class RootObserver:
    """Threads SDC injection and ABFT verification through one run of
    roots.

    Immediately after a root's forward sweep it fires any planned
    ``sigma``/``dist`` bit-flips for the current root position, after
    accumulation any ``delta`` flips — corruption strikes the
    *intermediate* arrays, exactly where a resident-memory upset would —
    then runs the policy's per-root invariant suite.  The suite runs
    for all of a group's checked roots at once
    (:meth:`~repro.verify.RootChecker.rows_pass`); a root that does not
    pass there, or was struck by a bit-flip, gets the per-root
    :meth:`~repro.verify.RootChecker.check_root` and its diagnosis.  A
    violation raises :class:`~repro.errors.SilentCorruptionError` naming
    the root, before the root's dependencies reach the caller; what a
    detection means (the device fails the run, the driver quarantines)
    is the caller's, so the caller counts it.  :meth:`finish` injects
    and checksums the run's partial BC vector.

    Parameters
    ----------
    faults, rank:
        The planned faults (:class:`~repro.resilience.faults.ActiveFaults`,
        or ``None``) and the rank whose ``sdc`` events strike this run;
        the partial-vector check names that rank in its violations.
    target_weights / source_weights:
        Weighted-traversal context for degree-1 folded runs: the core's
        target-weight vector and the per-vertex source weights the
        root loop pre-scales each root's dependencies by (``None``:
        unit weights).
    """

    def __init__(self, g: CSRGraph, policy: VerificationPolicy,
                 metrics=None, *, faults=None, rank: int = -1,
                 target_weights: np.ndarray | None = None,
                 source_weights: np.ndarray | None = None):
        self.g = g
        self.policy = policy
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.checker = (RootChecker(policy, self.metrics)
                        if policy.enabled else None)
        self.faults = faults
        self.rank = rank
        self.target_weights = target_weights
        self.source_weights = source_weights
        #: Roots seen so far, the one that raised included; the next
        #: root's position in the fault plan.
        self.position = 0
        #: Sum of every accepted root's dependencies — the reference the
        #: final partial-BC checksum is validated against.
        self.expected_sum = 0.0
        self._events: list = []
        self._group = None
        self._checked: list = []
        self._sums: list = []
        self._passed: dict | None = None

    def _apply(self, events, site: str, arr: np.ndarray) -> None:
        hits = [ev for ev in events if ev.site == site]
        if not hits:
            return
        from ..resilience.faults import apply_sdc  # resilience imports us

        for ev in hits:
            apply_sdc(ev, arr, seed=self.faults.seed)
            self.metrics.inc("verify.faults_injected", site=site)

    def after_forward(self, grp, r: int) -> None:
        if self.faults is not None:
            self._events = self.faults.sdc_for_root(self.rank, self.position)
        if self._events:
            fwd = grp.row(r)
            self._apply(self._events, "sigma", fwd.sigma)
            self._apply(self._events, "dist", fwd.distances)

    def _new_group(self, grp, delta: np.ndarray) -> None:
        """Per-group state, once per group: which rows the policy
        checks and every row's dependency sum."""
        self._group = grp
        self._checked = (self.policy.checks_roots(grp.sources.tolist())
                         if self.checker is not None else [False] * grp.size)
        self._sums = delta.sum(axis=1).tolist()
        self._passed = None

    def _group_passed(self, grp, delta: np.ndarray) -> dict:
        """:meth:`RootChecker.rows_pass` over the group's checked rows,
        once per group."""
        if self._passed is None:
            rows = [r for r, checked in enumerate(self._checked) if checked]
            self._passed = self.checker.rows_pass(
                self.g, grp, delta, rows, self.target_weights,
                self.source_weights)
        return self._passed

    def after_accumulation(self, grp, r: int, delta: np.ndarray) -> None:
        if grp is not self._group:
            self._new_group(grp, delta)
        events, self._events = self._events, []
        if events:
            self._apply(events, "delta", delta[r])
        self.position += 1
        if self._checked[r]:
            t0 = time.perf_counter()
            passed = None if events else self._group_passed(grp, delta).get(r)
            if passed is not None:
                self.checker.count(passed)
                violations = []
            else:
                root = int(grp.sources[r])
                sw = (1.0 if self.source_weights is None
                      else float(self.source_weights[root]))
                violations = self.checker.check_root(
                    self.g, grp.row(r), delta[r],
                    target_weights=self.target_weights, source_weight=sw)
            self.metrics.inc("verify.overhead_seconds",
                             time.perf_counter() - t0)
            if violations:
                raise SilentCorruptionError(violations,
                                            root=int(grp.sources[r]))
        # A bit-flip struck this row after the group's sums were taken.
        self.expected_sum += float(delta[r].sum()) if events else self._sums[r]

    def finish(self, partial: np.ndarray) -> None:
        """Partial-BC injection + unit checksum, once per run, over the
        sum of the accepted roots' dependencies (before any halving, so
        the checksum reference and the vector are in the same units)."""
        if self.faults is not None:
            self._apply(self.faults.sdc_for_partial(self.rank), "partial",
                        partial)
        if self.checker is not None:
            t0 = time.perf_counter()
            violations = self.checker.check_partial(
                partial, self.expected_sum, self.rank)
            self.metrics.inc("verify.overhead_seconds",
                             time.perf_counter() - t0)
            if violations:
                raise SilentCorruptionError(violations)
