"""Exception hierarchy for the ``repro`` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "GraphStructureError",
    "DeviceOutOfMemoryError",
    "DeviceConfigurationError",
    "StrategyError",
    "ClusterConfigurationError",
    "CommunicatorError",
    "FaultSpecError",
    "TraceFormatError",
    "BenchFormatError",
    "RankFailure",
    "RetryExhaustedError",
    "SilentCorruptionError",
    "WorkerPoolError",
    "ServiceError",
    "JobSpecError",
    "JobNotFoundError",
    "JournalCorruptionError",
    "ServiceOverloadError",
    "StorageFullError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """A graph file or edge list could not be parsed."""


class GraphStructureError(ReproError):
    """A graph violates a structural requirement (e.g. bad CSR arrays)."""


class DeviceOutOfMemoryError(ReproError):
    """A simulated device allocation exceeded the device memory capacity.

    Mirrors the behaviour the paper reports for GPU-FAN, whose
    O(n^2) predecessor structure exhausts the 6 GB of a GTX Titan for
    graphs beyond a modest scale (Section V-B, Figure 5).
    """

    def __init__(self, requested: int, in_use: int, capacity: int, what: str = ""):
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        self.what = what
        super().__init__(
            f"device OOM allocating {requested} bytes"
            + (f" for {what!r}" if what else "")
            + f": {in_use} bytes already in use of {capacity} capacity"
        )


class DeviceConfigurationError(ReproError):
    """A simulated device/GPU specification is invalid."""


class StrategyError(ReproError):
    """An unknown or misconfigured BC parallelisation strategy."""


class ClusterConfigurationError(ReproError):
    """A simulated cluster/topology specification is invalid."""


class CommunicatorError(ReproError):
    """Misuse of the in-process MPI-like communicator."""


class FaultSpecError(ReproError):
    """An invalid fault-injection plan or fault spec string."""


class TraceFormatError(ReproError):
    """A decision-trace file is not a valid ``repro.trace/v1`` document."""


class BenchFormatError(ReproError):
    """A benchmark-results file is not a valid ``repro.bench/v1``
    document (or two documents being diffed are incomparable)."""


class RankFailure(ReproError):
    """A simulated rank fail-stopped.

    Raised by the fault-injection layer (:mod:`repro.resilience`) when a
    rank dies at a collective or mid-compute.  Carries enough context
    for the resilient driver to re-partition the rank's orphaned roots.
    """

    def __init__(self, rank: int, where: str = "compute", roots_done: int = 0):
        self.rank = int(rank)
        self.where = str(where)
        self.roots_done = int(roots_done)
        super().__init__(
            f"rank {self.rank} fail-stopped at {self.where!r}"
            + (f" after {self.roots_done} roots" if self.roots_done else "")
        )


class RetryExhaustedError(ReproError):
    """Recovery retries ran out before every root partition completed.

    The resilient driver only raises this when graceful degradation is
    explicitly disabled; the default policy degrades to a sampled
    estimate instead of raising.
    """

    def __init__(self, pending_roots: int, retries: int):
        self.pending_roots = int(pending_roots)
        self.retries = int(retries)
        super().__init__(
            f"{self.pending_roots} roots still pending after "
            f"{self.retries} retries"
        )


class SilentCorruptionError(ReproError):
    """An ABFT invariant check caught silently corrupted data.

    Raised by the verification layer (:mod:`repro.verify`) when a BC
    run's intermediate state (``dist``/``sigma``/``delta``/partial BC)
    violates an algorithmic invariant and no recovery path is
    available.  The resilient driver never lets this escape — it
    quarantines and recomputes the corrupted roots instead — but the
    bare device path raises it so a poisoned result cannot be returned
    as if it were healthy.
    """

    def __init__(self, violations, root: int | None = None):
        self.violations = list(violations)
        self.root = root
        head = "; ".join(str(v) for v in self.violations[:3])
        more = len(self.violations) - 3
        super().__init__(
            f"{len(self.violations)} invariant violation(s)"
            + (f" at root {root}" if root is not None else "")
            + (f": {head}" if head else "")
            + (f" (+{more} more)" if more > 0 else "")
        )


class WorkerPoolError(ReproError):
    """A process-pool worker crashed and serial recovery also failed."""


class ServiceError(ReproError):
    """Base class for errors raised by the BC service (:mod:`repro.service`)."""


class JobSpecError(ServiceError):
    """A submitted job specification is invalid."""


class JobNotFoundError(ServiceError):
    """A job id is unknown to the service."""

    def __init__(self, job_id: str):
        self.job_id = str(job_id)
        super().__init__(f"unknown job {self.job_id!r}")


class JournalCorruptionError(ServiceError):
    """A job-journal record *before the tail* failed its checksum or
    cannot be parsed.

    A corrupt/truncated **tail** record is a torn write (the expected
    outcome of ``kill -9`` mid-append) and is silently dropped on
    replay; corruption anywhere else means the journal file itself was
    damaged and recovery must not guess.
    """

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = int(line_no)
        self.reason = str(reason)
        super().__init__(f"{self.path}:{self.line_no}: {self.reason}")


class ServiceOverloadError(ServiceError):
    """The service shed a job at admission (backpressure).

    Raised instead of queueing when the bounded queue is full or the
    tenant's quota is exhausted — the typed error load generators and
    clients key retry/"try later" behaviour on.  ``retry_after`` is the
    admission controller's hint (simulated seconds) for how long the
    client should wait before re-offering the job; :class:`BCClient
    <repro.client.BCClient>` uses it as the floor of its exponential
    backoff.
    """

    def __init__(self, reason: str, *, tenant: str = "", depth: int = 0,
                 limit: int = 0, retry_after: float | None = None):
        self.reason = str(reason)
        self.tenant = str(tenant)
        self.depth = int(depth)
        self.limit = int(limit)
        self.retry_after = None if retry_after is None else float(retry_after)
        detail = f" ({self.depth}/{self.limit})" if limit else ""
        who = f" for tenant {self.tenant!r}" if tenant else ""
        hint = (f"; retry after {self.retry_after:.3f}s"
                if self.retry_after is not None else "")
        super().__init__(f"job shed: {self.reason}{who}{detail}{hint}")


class StorageFullError(ServiceError):
    """A durable service write could not complete because the disk is
    full (``ENOSPC``), even after the service reclaimed space by
    compacting the journal and evicting unpinned cache entries.

    The write it reports was **not** acknowledged: the journal/cache
    were restored to their pre-write state, so nothing was half-done.
    Clients should treat it like overload — back off and retry.
    """

    def __init__(self, path: str, op: str, attempts: int = 1):
        self.path = str(path)
        self.op = str(op)
        self.attempts = int(attempts)
        super().__init__(
            f"disk full: {self.op} to {self.path!r} failed with ENOSPC "
            f"after {self.attempts} attempt(s) (space reclaim did not "
            f"free enough)"
        )

