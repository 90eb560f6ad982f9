"""Per-iteration parallelisation-strategy policies.

A policy decides, for every BFS iteration of every root, whether the
level is processed with the work-efficient, edge-parallel or
vertex-parallel thread assignment.  Its rule is a function of the
current strategy and the current and next frontier sizes — exactly the
information Algorithm 4 uses — and each policy states it twice:

* :meth:`Policy.decide` takes one decision and returns it as an
  auditable :class:`Decision`: the chosen strategy *plus* the exact
  inputs and threshold comparison that produced it — what the
  decision-trace subsystem (``repro.trace/v1``) serialises so a run can
  later answer "why edge-parallel at depth 3?".  This is the one place
  each rule's audit text is defined.
* :meth:`Policy.decide_levels` returns the strategy of every depth of
  a root from its whole frontier-size series in one array pass — what
  :func:`repro.gpusim.charge.charge_rows` costs.  Level ``d + 1`` runs
  ``decide(strategy[d], sizes[d], sizes[d + 1]).strategy``, so
  replaying :meth:`decide` over the series gives the same strategies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..errors import StrategyError

__all__ = [
    "WORK_EFFICIENT",
    "EDGE_PARALLEL",
    "VERTEX_PARALLEL",
    "GPU_FAN",
    "BATCHED",
    "Decision",
    "Policy",
    "FixedPolicy",
    "HybridPolicy",
    "FrontierGuardPolicy",
    "BatchedPolicy",
    "ALPHA",
    "BETA",
    "MIN_FRONTIER",
]

WORK_EFFICIENT = "work-efficient"
EDGE_PARALLEL = "edge-parallel"
VERTEX_PARALLEL = "vertex-parallel"
GPU_FAN = "gpu-fan"
BATCHED = "batched"

#: Algorithm 4's thresholds (paper Section IV-B: "we found the values of
#: 768 and 512 were the best choices for alpha and beta").
ALPHA = 768
BETA = 512
#: Algorithm 5's per-iteration edge-parallel guard (paper Section IV-C:
#: a 512-element frontier "designed to scale with the architecture").
MIN_FRONTIER = 512

_KNOWN = {WORK_EFFICIENT, EDGE_PARALLEL, VERTEX_PARALLEL, GPU_FAN}

#: Code 0/1 -> strategy, for the two-way adaptive rules.
_WE_EP = np.array([WORK_EFFICIENT, EDGE_PARALLEL])


@dataclass(frozen=True)
class Decision:
    """One strategy decision with its full audit context.

    ``inputs`` holds every quantity the rule compared (frontier
    lengths, thresholds); ``rule`` spells the comparison out in the
    exact form the ``repro trace explain`` audit prints.
    """

    strategy: str
    policy: str  # "fixed" | "hybrid" | "frontier-guard" | "batched"
    rule: str
    inputs: dict = field(default_factory=dict)


class Policy(ABC):
    """Strategy-selection protocol used by the per-root engine."""

    #: Trace label for this policy's decisions.
    kind: str = "policy"

    @abstractmethod
    def initial(self) -> str:
        """Strategy for the first iteration (frontier = the root)."""

    @abstractmethod
    def decide(self, current: str, q_curr_len: int, q_next_len: int) -> Decision:
        """The next iteration's strategy as an auditable
        :class:`Decision`, given the just-finished level's frontier
        length and the upcoming frontier length."""

    @abstractmethod
    def decide_levels(self, sizes) -> np.ndarray:
        """The strategy of every depth of a root whose frontier sizes
        are ``sizes`` (one per depth): :meth:`initial` at depth 0, and
        at depth ``d + 1`` the strategy :meth:`decide` picks after
        depth ``d``.  A string array, one entry per depth."""

    def initial_decision(self) -> Decision:
        """The first iteration's strategy as an auditable record."""
        return Decision(strategy=self.initial(), policy=self.kind,
                        rule=f"initial: {self.initial()}")

    def next_strategy(self, current: str, q_curr_len: int, q_next_len: int) -> str:
        """Strategy for the next iteration (the :class:`Decision`'s
        ``strategy`` field, for callers that don't need the audit)."""
        return self.decide(current, q_curr_len, q_next_len).strategy


class FixedPolicy(Policy):
    """Always use one strategy (the non-adaptive baselines)."""

    kind = "fixed"

    def __init__(self, strategy: str):
        if strategy not in _KNOWN:
            raise StrategyError(f"unknown strategy {strategy!r}; known: {sorted(_KNOWN)}")
        self.strategy = strategy

    def initial(self) -> str:
        return self.strategy

    def decide(self, current: str, q_curr_len: int, q_next_len: int) -> Decision:
        return Decision(
            strategy=self.strategy, policy=self.kind,
            rule=f"fixed: {self.strategy}",
            inputs={"q_curr": int(q_curr_len), "q_next": int(q_next_len)},
        )

    def decide_levels(self, sizes) -> np.ndarray:
        return np.full(len(sizes), self.strategy)


class HybridPolicy(Policy):
    """Algorithm 4: reconsider only when the frontier size *changes*
    substantially.

    If ``|Q_next - Q_curr| <= alpha`` the current strategy is kept;
    otherwise edge-parallel is selected when the upcoming frontier
    exceeds ``beta``, else work-efficient.  The paper found
    :data:`ALPHA` and :data:`BETA` best on its hardware, and starts
    work-efficient because a mistaken edge-parallel start costs far
    more (>10x) than a mistaken work-efficient one (2.2x).
    """

    kind = "hybrid"

    def __init__(self, alpha: int = ALPHA, beta: int = BETA):
        if alpha < 0 or beta < 0:
            raise StrategyError("alpha and beta must be non-negative")
        self.alpha = int(alpha)
        self.beta = int(beta)

    def initial(self) -> str:
        return WORK_EFFICIENT

    def initial_decision(self) -> Decision:
        return Decision(
            strategy=WORK_EFFICIENT, policy=self.kind,
            rule="initial: work-efficient (a mistaken edge-parallel start "
                 "costs >10x, a mistaken work-efficient one 2.2x)",
            inputs={"alpha": self.alpha, "beta": self.beta},
        )

    def decide(self, current: str, q_curr_len: int, q_next_len: int) -> Decision:
        """Algorithm 4's selection, with the α/β comparison it took.

        >>> HybridPolicy().decide("work-efficient", 10, 20).strategy
        'work-efficient'
        >>> HybridPolicy().decide("edge-parallel", 5000, 100).strategy
        'work-efficient'
        >>> HybridPolicy().decide("work-efficient", 10, 2000).rule
        '|Δfrontier|=1990 > alpha=768 and q_next=2000 > beta=512: edge-parallel'
        """
        q_curr, q_next = int(q_curr_len), int(q_next_len)
        q_change = abs(q_next - q_curr)
        inputs = {"q_curr": q_curr, "q_next": q_next,
                  "delta_frontier": q_change,
                  "alpha": self.alpha, "beta": self.beta}
        if q_change <= self.alpha:
            return Decision(
                strategy=current, policy=self.kind, inputs=inputs,
                rule=f"|Δfrontier|={q_change} <= alpha={self.alpha}: "
                     f"keep {current}",
            )
        if q_next > self.beta:
            return Decision(
                strategy=EDGE_PARALLEL, policy=self.kind, inputs=inputs,
                rule=f"|Δfrontier|={q_change} > alpha={self.alpha} and "
                     f"q_next={q_next} > beta={self.beta}: edge-parallel",
            )
        return Decision(
            strategy=WORK_EFFICIENT, policy=self.kind, inputs=inputs,
            rule=f"|Δfrontier|={q_change} > alpha={self.alpha} and "
                 f"q_next={q_next} <= beta={self.beta}: work-efficient",
        )

    def decide_levels(self, sizes) -> np.ndarray:
        # Level d + 1 takes the choice of the last switch (a change
        # beyond alpha) at or before level d; none yet keeps the start.
        sizes = np.asarray(sizes, dtype=np.int64)
        nxt = sizes[1:]
        switch = np.abs(nxt - sizes[:-1]) > self.alpha
        last = np.maximum.accumulate(
            np.where(switch, np.arange(nxt.size), -1))
        codes = np.zeros(sizes.size, dtype=np.intp)
        codes[1:] = np.where(last >= 0, (nxt > self.beta)[last], 0)
        return _WE_EP[codes]


class FrontierGuardPolicy(Policy):
    """Edge-parallel with the sampling method's per-iteration guard.

    When Algorithm 5 selects the edge-parallel method for a graph, the
    paper still refuses to use it on iterations with trivial work: the
    vertex frontier must hold at least ``min_frontier``
    (:data:`MIN_FRONTIER`) elements,
    a parameter "designed to scale with the architecture rather than
    the size or structure of the graph".
    """

    kind = "frontier-guard"

    def __init__(self, min_frontier: int = MIN_FRONTIER):
        if min_frontier < 0:
            raise StrategyError("min_frontier must be non-negative")
        self.min_frontier = int(min_frontier)

    def initial(self) -> str:
        return WORK_EFFICIENT  # the first frontier is just the root

    def initial_decision(self) -> Decision:
        return Decision(
            strategy=WORK_EFFICIENT, policy=self.kind,
            rule="initial: work-efficient (the first frontier is just "
                 "the root)",
            inputs={"min_frontier": self.min_frontier},
        )

    def decide(self, current: str, q_curr_len: int, q_next_len: int) -> Decision:
        q_next = int(q_next_len)
        inputs = {"q_curr": int(q_curr_len), "q_next": q_next,
                  "min_frontier": self.min_frontier}
        if q_next >= self.min_frontier:
            return Decision(
                strategy=EDGE_PARALLEL, policy=self.kind, inputs=inputs,
                rule=f"q_next={q_next} >= min_frontier="
                     f"{self.min_frontier}: edge-parallel",
            )
        return Decision(
            strategy=WORK_EFFICIENT, policy=self.kind, inputs=inputs,
            rule=f"q_next={q_next} < min_frontier="
                 f"{self.min_frontier}: work-efficient",
        )

    def decide_levels(self, sizes) -> np.ndarray:
        guarded = np.asarray(sizes, dtype=np.int64) >= self.min_frontier
        guarded[:1] = False  # the first frontier is just the root
        return _WE_EP[guarded.astype(np.intp)]


class BatchedPolicy(Policy):
    """One frontier-matrix batch of the ``batched`` device strategy: it
    never switches, but lets a batch be charged and audited like a root,
    with the depth classification that routed it as initial inputs."""

    kind = "batched"

    def __init__(self, batch_roots: int, median_depth, depth_cutoff):
        self.batch_roots = int(batch_roots)
        self.median_depth = median_depth
        self.depth_cutoff = depth_cutoff

    def initial(self) -> str:
        return BATCHED

    def initial_decision(self) -> Decision:
        return Decision(
            strategy=BATCHED, policy=self.kind,
            rule=f"sampled median depth {self.median_depth} <= cutoff — "
                 f"{self.batch_roots} roots per frontier-matrix step",
            inputs={"batch_roots": self.batch_roots,
                    "median_depth": self.median_depth,
                    "depth_cutoff": self.depth_cutoff},
        )

    def decide(self, current: str, q_curr_len: int, q_next_len: int) -> Decision:
        return Decision(strategy=BATCHED, policy=self.kind,
                        rule="batch advances one frontier-matrix step",
                        inputs={"batch_roots": self.batch_roots})

    def decide_levels(self, sizes) -> np.ndarray:
        return np.full(len(sizes), BATCHED)
