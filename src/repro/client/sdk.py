"""``BCClient``: retrying, idempotent, hedging client for the BC service.

The service side already refuses overload with a typed
:class:`~repro.errors.ServiceOverloadError` carrying a ``retry_after``
hint, and refuses a full disk with a typed
:class:`~repro.errors.StorageFullError`.  This module is the client
half of that contract:

* **Typed backoff.**  Only those two errors are retried; everything
  else is a real error and propagates immediately.  The delay before
  retry ``n`` is ``max(server hint, backoff_delay(n))`` — the same
  deterministic capped-exponential-with-jitter the scheduler uses
  (seeded per client, salted per job id), so a retry storm from many
  clients decorrelates instead of thundering back in lockstep, and a
  test can replay the exact delay sequence from the seed.

* **Idempotent submits.**  A spec submitted without a job id gets one
  *derived from its content hash* (:func:`derive_job_id`), and the
  service dedupes on content at admission — so a client that times
  out, crashes, or double-sends can never enqueue the same work twice.
  The submit that "fails" after a lost ack and the retry that follows
  land on the same job.

* **Hedged status.**  ``status()`` asks the primary transport first
  and, if that fails (daemon dead, mid-restart), falls back to reading
  the journal offline — which is valid at every instant by the
  service's durability contract.  The caller gets an answer whenever
  one is knowable.

Sleeping is injected (``sleep=`` callable) and defaults to *simulated*
time — the client just accumulates the delay into ``slept_seconds`` —
so soak schedules with hundreds of retries run in milliseconds.  Pass
``time.sleep`` for a live daemon.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .._util import backoff_delay
from ..errors import (
    JobNotFoundError,
    ServiceOverloadError,
    StorageFullError,
)
from ..observability.registry import NULL_REGISTRY
from ..telemetry import trace_id_for
from ..service.jobs import JobSpec, TERMINAL_STATES
from ..service.journal import read_journal_chain, replay_state
from ..service.storage import ServiceStorage

__all__ = [
    "BCClient",
    "InProcessTransport",
    "RetryPolicy",
    "SpoolTransport",
    "derive_job_id",
]

#: Errors the client treats as "try again later".  Everything else is
#: a real failure and propagates on the first throw.
RETRYABLE = (ServiceOverloadError, StorageFullError)


def derive_job_id(spec: JobSpec) -> str:
    """Deterministic job id from the spec's content hash.

    Two submissions of the same query derive the same id, which makes
    retries idempotent end-to-end: even if the service's content-dedupe
    index were lost, a duplicate id for identical content folds into
    the existing job rather than erroring.
    """
    return f"c{spec.content_key()[:12]}"


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry tunables.

    ``base``/``cap`` feed the shared
    :func:`~repro._util.backoff_delay`; ``max_retries``
    bounds how many times a retryable error is absorbed before it is
    re-raised to the caller (the original typed error, not a wrapper).
    """

    max_retries: int = 8
    base: float = 0.05
    cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base <= 0 or self.cap < self.base:
            raise ValueError("need 0 < base <= cap")


class InProcessTransport:
    """Direct calls into a live :class:`~repro.service.daemon.BCService`
    instance (the soak harness's transport)."""

    def __init__(self, service):
        self.service = service

    @property
    def journal_path(self) -> str:
        return self.service.journal.path

    def submit(self, spec: JobSpec) -> str:
        return self.service.submit(spec).job_id

    def status(self, job_id: str) -> dict:
        return self.service.status(job_id)

    def result(self, job_id: str):
        return self.service.result(job_id)


class SpoolTransport:
    """Cross-process transport: submits are spool tickets, status is an
    offline journal read — exactly what the CLI does, minus a process.

    ``storage`` routes the ticket write, so spool-targeted storage
    faults strike it.
    """

    def __init__(self, root, storage: ServiceStorage | None = None):
        self.root = str(root)
        self.storage = storage if storage is not None else ServiceStorage()
        self.spool_dir = os.path.join(self.root, "spool")
        self._journal = os.path.join(self.root, "journal.jsonl")
        self._ticket_n = 0

    @property
    def journal_path(self) -> str:
        return self._journal

    def submit(self, spec: JobSpec) -> str:
        os.makedirs(self.spool_dir, exist_ok=True)
        self._ticket_n += 1
        name = f"t{self._ticket_n:06d}-{spec.job_id}.json"
        body = (json.dumps({"op": "submit", "job": spec.to_dict()},
                           sort_keys=True) + "\n").encode("utf-8")
        self.storage.replace_atomic(os.path.join(self.spool_dir, name),
                                    body, "spool")
        return spec.job_id

    def status(self, job_id: str) -> dict:
        records, _ = read_journal_chain(self._journal)
        state = replay_state(records, self._journal)
        job = state.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job.status_dict()

    def result(self, job_id: str):
        raise JobNotFoundError(job_id)  # results need a live service


class BCClient:
    """See the module docstring.  ``seed`` makes every backoff sequence
    a pure function of ``(seed, job_id, attempt)``."""

    def __init__(self, transport, *, policy: RetryPolicy | None = None,
                 seed: int = 0, sleep=None, metrics=None):
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._sleep_hook = sleep
        #: Simulated seconds spent backing off (when no sleep hook).
        self.slept_seconds = 0.0
        #: Client-side audit counters.
        self.report = {"submits": 0, "retries": 0, "hedged_polls": 0,
                       "delays": []}
        #: job id -> trace id, learned at submit.  The id is derived
        #: from the spec's content key (:func:`trace_id_for`), so it
        #: matches what the daemon's event stream records without any
        #: id riding the wire — a lost-ack resubmit joins the same
        #: trace by construction.
        self.traces: dict = {}

    # -- internals -----------------------------------------------------
    def _sleep(self, delay: float) -> None:
        self.report["delays"].append(float(delay))
        if self._sleep_hook is not None:
            self._sleep_hook(delay)
        else:
            self.slept_seconds += float(delay)

    def retry_delay(self, attempt: int, job_id: str,
                    hint: float | None) -> float:
        """The delay before retry ``attempt``: deterministic jittered
        backoff, floored at the server's hint (never retry sooner than
        the server asked)."""
        delay = backoff_delay(attempt, base=self.policy.base,
                              cap=self.policy.cap, seed=self.seed,
                              token=str(job_id))
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    def _with_retries(self, job_id: str, call):
        attempt = 0
        while True:
            try:
                return call()
            except RETRYABLE as exc:
                attempt += 1
                if attempt > self.policy.max_retries:
                    raise
                hint = getattr(exc, "retry_after", None)
                delay = self.retry_delay(attempt, job_id, hint)
                self.report["retries"] += 1
                self.metrics.inc("client.retries",
                                 kind=type(exc).__name__)
                self.metrics.record(
                    "client.retry", job_id=job_id,
                    trace_id=self.traces.get(job_id), attempt=attempt,
                    kind=type(exc).__name__, delay=float(delay))
                self._sleep(delay)

    # -- API -----------------------------------------------------------
    def submit(self, spec) -> str:
        """Submit (idempotently) with retries; returns the job id.

        The job's trace id — the key into the daemon's
        ``repro.events/v1`` stream — is recorded in :attr:`traces`
        (and as a ``client.submit`` metric event) before the first
        send, so the caller can follow the trace even if every send
        is shed."""
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if not spec.job_id:
            spec = spec.with_id(derive_job_id(spec))
        trace = trace_id_for(spec)
        self.traces[spec.job_id] = trace
        self.report["submits"] += 1
        self.metrics.record("client.submit", job_id=spec.job_id,
                            trace_id=trace, tenant=spec.tenant)
        return self._with_retries(spec.job_id,
                                  lambda: self.transport.submit(spec))

    def trace_id(self, job_id: str) -> str | None:
        """The trace id of a job this client submitted (or ``None``)."""
        return self.traces.get(job_id)

    def status(self, job_id: str) -> dict:
        """Hedged status: primary transport first, offline journal
        replay when the primary cannot answer."""
        try:
            return self.transport.status(job_id)
        except JobNotFoundError:
            raise
        except Exception:
            self.report["hedged_polls"] += 1
            self.metrics.inc("client.hedged_polls")
            records, _ = read_journal_chain(self.transport.journal_path)
            state = replay_state(records, self.transport.journal_path)
            job = state.jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(job_id)
            return job.status_dict()

    def result(self, job_id: str):
        """A DONE job's ``(values, meta)``, with overload retries."""
        return self._with_retries(job_id,
                                  lambda: self.transport.result(job_id))

    def wait(self, job_id: str, *, poll_delay: float = 0.05,
             max_polls: int = 200) -> dict:
        """Poll (hedged) until the job is terminal; returns its status.

        Raises ``TimeoutError`` after ``max_polls`` — a starved job is
        a bug the soak harness must see, not wait out."""
        for _ in range(int(max_polls)):
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            self._sleep(float(poll_delay))
        raise TimeoutError(
            f"job {job_id!r} not terminal after {max_polls} polls")
