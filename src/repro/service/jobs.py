"""Job model for the BC service: specs, states, and legal transitions.

A **job** is one BC query: a named dataset (generated deterministically
from ``(graph, scale_factor, graph_seed)``), a device strategy, and a
root sample drawn from ``seed``.  The service executes it on a simulated
device and materialises the values into the content-addressed result
cache.

States form a small machine (``repro.job/v1`` journal semantics)::

    PENDING ──start──▶ RUNNING ──done──▶ DONE
       ▲                  │ │
       └────requeue───────┘ └──fail──▶ FAILED
    PENDING ──cancel──▶ CANCELLED
    (admission) ──shed──▶ SHED          # never entered the queue

``DONE``/``FAILED``/``CANCELLED``/``SHED`` are terminal.  A crash while
``RUNNING`` is repaired at replay time: the journal shows a ``start``
with no terminal record, so the job is requeued (its ``done`` record was
never written, hence its result was never *observed* — the cache write
may or may not have landed, and either way recomputation is idempotent
because results are content-addressed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from ..errors import FaultSpecError, JobSpecError

__all__ = [
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "SHED",
    "STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "legal_transition",
    "canonical_json",
]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
SHED = "shed"
STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED, SHED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED, SHED)


def canonical_json(payload) -> str:
    """The service's one canonical JSON text: sorted keys, no spaces.

    Content keys, result-cache entries and journal records are all
    hashed or checksummed over this text, so their bytes are fixed by
    the payload alone.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Legal state transitions (from -> allowed targets).  ``SHED`` has no
#: incoming edge here because shed jobs are refused at admission and
#: journalled directly in that state.
_TRANSITIONS = {
    PENDING: (RUNNING, CANCELLED, FAILED),
    RUNNING: (PENDING, DONE, FAILED),  # PENDING = requeue (crash/retry)
    DONE: (),
    FAILED: (),
    CANCELLED: (),
    SHED: (),
}


def legal_transition(old: str, new: str) -> bool:
    """Whether ``old -> new`` is a legal job-state transition."""
    return new in _TRANSITIONS.get(old, ())


@dataclass(frozen=True)
class JobSpec:
    """One submitted BC query (immutable, JSON-round-trippable).

    Parameters
    ----------
    job_id:
        Unique id; the daemon assigns ``j%06d`` ids when empty.
    graph:
        Table II dataset name (``repro.graph.generators.make_dataset``).
    scale_factor, graph_seed:
        Dataset sizing/seed — together with ``graph`` they identify the
        input graph; the service loads each distinct triple once.
    strategy:
        Device strategy (``work-efficient``/``edge-parallel``/
        ``vertex-parallel``/``hybrid``/``sampling``).
    roots:
        How many BC roots to run (sampled without replacement from
        ``seed``; capped at the graph order).
    seed:
        Seed for the root sample, fault-injection salt, and the
        degraded-estimate sampler.
    tenant:
        Quota bucket for admission control.
    deadline_seconds:
        Cap on the job's *simulated* compute seconds; a run that needs
        more either degrades to a sampled estimate (when
        ``allow_degrade``) or fails with a deadline error.
    allow_degrade:
        Whether the service may return a flagged (``exact=False``)
        sampled estimate under deadline pressure or overload.
    fold:
        Degree-1 folding (:mod:`repro.bc.preprocess`; default on).  A
        folded job traverses the reduced core; its result values are
        identical to the unfolded job's, but the two are **distinct
        cache artifacts** — the result key includes the fold digest so
        a preprocessing change can never serve stale bytes.
    faults:
        Optional :class:`repro.resilience.FaultPlan` spec string — the
        deterministic chaos hook the scheduler tests (and the CI smoke
        job) inject fail-stop/OOM/straggler/SDC faults through.
    """

    job_id: str = ""
    graph: str = "smallworld"
    scale_factor: int = 1024
    graph_seed: int = 0
    strategy: str = "sampling"
    roots: int = 8
    seed: int = 0
    tenant: str = "default"
    deadline_seconds: float | None = None
    allow_degrade: bool = True
    fold: bool = True
    faults: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.graph, str) or not self.graph:
            raise JobSpecError("graph must be a non-empty dataset name")
        if int(self.scale_factor) < 1:
            raise JobSpecError("scale_factor must be >= 1")
        if int(self.roots) < 1:
            raise JobSpecError("roots must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise JobSpecError("deadline_seconds must be positive")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise JobSpecError("tenant must be a non-empty string")
        if self.faults:
            # Validate eagerly so a bad chaos spec is rejected at submit
            # time, not mid-run.
            from ..resilience import FaultPlan

            try:
                FaultPlan.parse(self.faults)
            except FaultSpecError as exc:
                raise JobSpecError(f"bad faults spec: {exc}") from exc

    def with_id(self, job_id: str) -> "JobSpec":
        spec = replace(self, job_id=str(job_id))
        # job_id is not part of the content key, so the memo carries.
        if "_content_key" in self.__dict__:
            object.__setattr__(spec, "_content_key",
                               self.__dict__["_content_key"])
        return spec

    def content_key(self) -> str:
        """SHA-256 of the fields that determine what the job *computes*.

        Excludes ``job_id`` (an alias, not a determinant) and ``tenant``
        (a billing label).  Two submissions with equal content keys
        would run the identical query and materialise the identical
        result bytes — which is why admission dedupes on this key and
        the client derives idempotent job ids from it: a retried submit
        can never enqueue the same work twice.  Computed once per spec
        (the spec is frozen) and memoised outside its fields.
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            payload = {k: v for k, v in self.to_dict().items()
                       if k not in ("job_id", "tenant")}
            key = hashlib.sha256(
                canonical_json(payload).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_key", key)
        return key

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "graph": self.graph,
            "scale_factor": int(self.scale_factor),
            "graph_seed": int(self.graph_seed),
            "strategy": self.strategy,
            "roots": int(self.roots),
            "seed": int(self.seed),
            "tenant": self.tenant,
            "deadline_seconds": self.deadline_seconds,
            "allow_degrade": bool(self.allow_degrade),
            "fold": bool(self.fold),
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        if not isinstance(d, dict):
            raise JobSpecError(f"job spec must be a dict, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise JobSpecError(f"unknown job spec field(s): {unknown}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise JobSpecError(str(exc)) from exc


@dataclass
class JobRecord:
    """Mutable service-side view of one job's progress."""

    spec: JobSpec
    state: str = PENDING
    #: Completed execution attempts (incremented at each ``start``).
    attempt: int = 0
    #: Journal sequence number of the ``submit`` record (FIFO order key).
    submit_seq: int = 0
    #: True when admission downgraded the job to a sampled estimate
    #: (overload mode) — recorded at submit so the decision survives a
    #: crash between admission and execution.
    admit_degraded: bool = False
    device: str | None = None
    result_key: str | None = None
    #: True when the result covers every requested root exactly.
    exact: bool | None = None
    #: Why the result is inexact (``"overload"``/``"deadline"``/
    #: ``"retries-exhausted"``) — never unset when ``exact`` is False.
    degraded_reason: str | None = None
    error: str | None = None
    #: Simulated compute seconds charged to the job (set at ``done``).
    sim_seconds: float = 0.0
    #: Roots actually computed (the sample size when degraded); lets a
    #: lost result be re-materialised byte-identically.
    samples: int | None = None
    #: Set during replay when the job was found RUNNING (daemon crashed
    #: mid-job) and had to be requeued.
    recovered: bool = False
    #: Backoff delays charged so far (deterministic; audit trail).
    backoff_delays: list = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self) -> dict:
        """JSON-ready status row (what ``repro service status`` prints)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "tenant": self.spec.tenant,
            "graph": self.spec.graph,
            "strategy": self.spec.strategy,
            "roots": int(self.spec.roots),
            "attempt": int(self.attempt),
            "device": self.device,
            "exact": self.exact,
            "degraded_reason": self.degraded_reason,
            "error": self.error,
            "result_key": self.result_key,
            "sim_seconds": self.sim_seconds,
            "recovered": self.recovered,
        }
