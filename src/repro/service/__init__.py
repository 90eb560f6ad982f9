"""BC-as-a-service: a crash-safe daemon over the simulated device pool.

The paper's harness answers one query per process; this package turns
it into a *service*: graphs load once, jobs arrive continuously, and
the process is allowed to die at any instant without losing or
duplicating work.  Layers, bottom up:

* :mod:`~repro.service.jobs` — job specs and the PENDING→…→terminal
  state machine;
* :mod:`~repro.service.journal` — the checksummed write-ahead journal
  (``repro.job/v1``) and its crash-replay semantics;
* :mod:`~repro.service.cache` — content-addressed, checksum-verified
  result materialisation (``repro.result/v2``: a JSON header, then the
  values as raw float64);
* :mod:`~repro.service.admission` — bounded queue, tenant quotas,
  load-shedding and overload degradation policy;
* :mod:`~repro.service.scheduler` — fault-hardened execution: retries
  with deterministic backoff, circuit breaker, straggler re-dispatch,
  deadlines, and :class:`~repro.resilience.FaultPlan` chaos injection;
* :mod:`~repro.service.daemon` — :class:`BCService`, tying the above
  into the ``repro service`` CLI verbs;
* :mod:`~repro.service.loadgen` — deterministic Poisson load scenarios
  whose latency/shed-rate rows ride the bench grid's perf gate.

:func:`backoff_delay` (from :mod:`repro._util`, shared with the client
SDK and the resilient driver) is re-exported here as the service's
retry policy.
"""

from .._util import backoff_delay
from .admission import AdmissionController, AdmissionPolicy
from .cache import RESULT_SCHEMA, ResultCache, result_key
from .daemon import BCService
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    SHED,
    STATES,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    legal_transition,
)
from .journal import (
    JOURNAL_SCHEMA,
    RECORD_KINDS,
    JobJournal,
    ReplayedState,
    decode_line,
    encode_record,
    journal_inventory,
    read_journal,
    read_journal_chain,
    replay_journal,
    replay_state,
    verify_journal,
)
from .loadgen import (
    SCENARIOS,
    LoadScenario,
    run_load_scenario,
    service_bench_rows,
)
from .soak import SoakConfig, run_soak
from .storage import ServiceStorage, SimulatedCrash
from .scheduler import (
    CircuitBreaker,
    JobOutcome,
    Scheduler,
    SimDevice,
    sample_roots,
)

__all__ = [
    "PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED", "SHED",
    "STATES", "TERMINAL_STATES",
    "JobSpec", "JobRecord", "legal_transition",
    "JOURNAL_SCHEMA", "RECORD_KINDS", "JobJournal", "ReplayedState",
    "encode_record", "decode_line", "read_journal", "replay_state",
    "replay_journal",
    "journal_inventory", "read_journal_chain", "verify_journal",
    "ServiceStorage", "SimulatedCrash",
    "SoakConfig", "run_soak",
    "RESULT_SCHEMA", "ResultCache", "result_key",
    "AdmissionPolicy", "AdmissionController",
    "CircuitBreaker", "SimDevice", "JobOutcome", "Scheduler",
    "backoff_delay", "sample_roots",
    "BCService",
    "LoadScenario", "SCENARIOS", "run_load_scenario",
    "service_bench_rows",
]
