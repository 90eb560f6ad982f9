"""Seeded chaos soak for the BC service: kills, disk faults, retry storms.

``run_soak(root, seed=7)`` drives one service root through a schedule of
rounds derived deterministically from the seed.  Each round:

1. opens the service with *small* disk budgets (journal segments rotate,
   the cache evicts) and a seeded storage-fault plan — ``enospc``,
   ``torn``, ``fsync-lie`` anywhere; ``rot`` only at the cache and the
   spool (journal rot is deliberately unsurvivable: the journal detects
   it and refuses to guess, so the soak never injects it);
2. may arm a **kill**: after a seeded number of storage operations the
   next one raises :class:`~repro.service.storage.SimulatedCrash` and
   the harness abandons the instance and reopens it cold — the
   SIGKILL-at-any-write model;
3. throws a **retry storm** at it: several :class:`~repro.client.BCClient`
   instances (distinct backoff seeds) submitting overlapping specs into
   a deliberately tiny admission queue, so sheds, ``retry_after`` hints,
   and content-dedupe all fire;
4. drains on a healthy reopen and asserts the standing invariants.

Invariants checked after **every** round (any failure is recorded as a
violation, and ``report["ok"]`` is False):

* **terminal exactly-once** — every submitted piece of content maps to
  exactly one job, and every job is terminal after the drain;
* **never silently wrong** — every inexact DONE result carries a
  ``degraded_reason``; every DONE result's blob passes its content
  hash; a sampled job's values match an independent recompute in a
  pristine service;
* **bounded disk** — journal + cache + spool bytes stay under their
  budgets (with the documented slack for the active segment);
* **no starvation** — every job reaches a terminal state within the
  round's poll budget (``wait`` timing out is a violation, not a wait);
* **honest journal** — ``verify_journal`` reports ok and a full replay
  sees zero illegal transitions.

The report is JSON-serialisable; the CLI (``repro service soak``) prints
it and exits non-zero on any violation.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from ..errors import ServiceOverloadError, StorageFullError
from ..observability.registry import NULL_REGISTRY
from ..resilience.faults import ActiveFaults, FaultPlan
from .admission import AdmissionPolicy
from .daemon import BCService
from .jobs import DONE, TERMINAL_STATES, JobSpec
from .journal import read_journal_chain, replay_state, verify_journal
from .storage import ServiceStorage, SimulatedCrash

__all__ = ["SoakConfig", "run_soak"]

#: Storage-fault spec templates the schedule draws from.  ``{n}`` is the
#: unharmed-write count before the event fires.  Journal rot is absent
#: by design (see module docstring).
_FAULT_MENU = (
    "enospc:{n}@journal",
    "enospc:{n}@journalx2",
    "enospc:{n}@cache",
    "torn:{n}@journal",
    "fsync-lie:{n}@journal",
    "fsync-lie:{n}@any",
    "rot:{n}@cache",
    "rot:{n}@spool",
)


@dataclass(frozen=True)
class SoakConfig:
    """Soak tunables; the defaults are the CI profile."""

    rounds: int = 4
    jobs_per_round: int = 7
    clients: int = 3
    scale_factor: int = 256
    max_queue: int = 3
    tenant_quota: int = 8
    journal_max_segment_bytes: int = 4096
    journal_keep_terminal: int = 4
    #: About nine results at ``scale_factor=256`` (3,453-byte
    #: entries), so a default run evicts.
    cache_max_bytes: int = 32768
    max_retries: int = 6
    kill_every_round: bool = False

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.jobs_per_round < 1 or self.clients < 1:
            raise ValueError("rounds, jobs_per_round, clients must be >= 1")


def _spec(seed: int, cfg: SoakConfig, *, strategy: str = "sampling",
          tenant: str = "soak") -> JobSpec:
    return JobSpec(graph="smallworld", scale_factor=cfg.scale_factor,
                   strategy=strategy, roots=4, seed=seed, tenant=tenant)


def _fault_plan(rng: random.Random) -> FaultPlan | None:
    """0–2 storage events drawn from the menu, seeded."""
    picks = rng.randint(0, 2)
    if not picks:
        return None
    specs = [rng.choice(_FAULT_MENU).format(n=rng.randint(0, 8))
             for _ in range(picks)]
    return FaultPlan.parse(";".join(specs))


def _open(root, cfg: SoakConfig, storage: ServiceStorage | None,
          metrics) -> BCService:
    return BCService(
        root,
        policy=AdmissionPolicy(max_queue=cfg.max_queue,
                               tenant_quota=cfg.tenant_quota),
        metrics=metrics,
        storage=storage,
        journal_max_segment_bytes=cfg.journal_max_segment_bytes,
        journal_keep_terminal=cfg.journal_keep_terminal,
        cache_max_bytes=cfg.cache_max_bytes,
    )


def run_soak(root, seed: int = 7, config: SoakConfig | None = None,
             metrics=None, log=None) -> dict:
    """Run the full soak; returns the (JSON-serialisable) report."""
    # Imported here, not at module top: repro.client itself imports
    # repro.service, and this module is part of repro.service's public
    # surface — a top-level import would be circular.
    from ..client import (BCClient, InProcessTransport, RetryPolicy,
                          SpoolTransport)

    cfg = config if config is not None else SoakConfig()
    metrics = metrics if metrics is not None else NULL_REGISTRY
    say = log if log is not None else (lambda msg: None)
    root = str(root)
    os.makedirs(root, exist_ok=True)

    report = {
        "seed": int(seed),
        "rounds": [],
        "violations": [],
        "kills": 0,
        "faults_injected": 0,
        "client_retries": 0,
        "deduped": 0,
        "shed_gave_up": 0,
        "ok": True,
    }

    def violate(round_no, what):
        report["violations"].append({"round": round_no, "invariant": what})
        report["ok"] = False

    # Cumulative content pool for duplicate-submit pressure.  Jobs from
    # old rounds may be GC'd from the journal (that is the point of
    # `keep_terminal`), so liveness is only asserted per round.
    spec_pool: list[JobSpec] = []

    for round_no in range(1, cfg.rounds + 1):
        rng = random.Random((int(seed) << 8) ^ round_no)
        plan = _fault_plan(rng)
        # A kill strikes after a seeded number of storage ops.  The op
        # counter starts at this instance's open, so small numbers land
        # inside recovery/submit paths and larger ones mid-execution.
        kill_at = None
        if cfg.kill_every_round or rng.random() < 0.5:
            kill_at = rng.randint(3, 60)
        faults = ActiveFaults(plan, seed=seed) if plan is not None else None
        storage = ServiceStorage(faults=faults, metrics=metrics,
                                 crash_after=kill_at)
        if plan is not None:
            report["faults_injected"] += len(plan.events)
        say(f"round {round_no}: faults={str(plan) if plan else '-'} "
            f"kill_at={kill_at if kill_at is not None else '-'}")

        round_row = {
            "round": round_no,
            "faults": str(plan) if plan is not None else None,
            "kill_at": kill_at,
            "killed": False,
            "submits": 0,
            "sheds": 0,
        }

        # Seeded workload: fresh specs plus deliberate duplicates of
        # earlier content (idempotency pressure) and one spool ticket.
        specs = []
        for j in range(cfg.jobs_per_round):
            if spec_pool and rng.random() < 0.3:
                specs.append(rng.choice(spec_pool))
            else:
                job_seed = rng.randint(0, 2 ** 16)
                strategy = rng.choice(("sampling", "sampling", "hybrid"))
                specs.append(_spec(job_seed, cfg, strategy=strategy))

        svc = None
        try:
            svc = _open(root, cfg, storage, metrics)
            clients = [BCClient(InProcessTransport(svc),
                                policy=RetryPolicy(
                                    max_retries=cfg.max_retries),
                                seed=seed * 100 + c, metrics=metrics)
                       for c in range(cfg.clients)]
            spool_cli = BCClient(SpoolTransport(root, storage=storage),
                                 policy=RetryPolicy(
                                     max_retries=cfg.max_retries),
                                 seed=seed * 100 + 99, metrics=metrics)
            for j, spec in enumerate(specs):
                if j == 0:
                    # One submission per round goes through the spool,
                    # so spool-targeted faults (rot, enospc) strike a
                    # real ticket.  A corrupt ticket is dropped by the
                    # daemon; the drain below resubmits the content.
                    try:
                        spool_cli.submit(spec)
                    except StorageFullError:
                        pass
                    continue
                cli = clients[j % len(clients)]
                try:
                    cli.submit(spec)
                    round_row["submits"] += 1
                except ServiceOverloadError:
                    # The storm lost: queue never drained under it.
                    # The spec is resubmitted after the drain below —
                    # idempotently, so nothing is ever double-run.
                    report["shed_gave_up"] += 1
                    round_row["sheds"] += 1
                except StorageFullError:
                    pass
                # Interleave a little execution so the storm sees a
                # moving queue (and storage faults strike mid-run
                # writes) — but not enough to relieve the pressure that
                # makes sheds and retries fire.
                if rng.random() < 0.25:
                    svc.run_pending(max_jobs=1)
            for cli in clients:
                report["client_retries"] += cli.report["retries"]
            svc.run_pending()
            svc.poll_spool()
            svc.run_pending()
        except SimulatedCrash:
            report["kills"] += 1
            round_row["killed"] = True
            if svc is not None:
                svc.abandon()
        finally:
            if svc is not None and not svc._stop:
                svc.close()

        # Healthy reopen: recovery + drain.  Everything the round ever
        # wanted is (re)submitted here — content dedupe folds the ones
        # that already landed.
        with _open(root, cfg, ServiceStorage(metrics=metrics),
                   metrics) as svc:
            cli = BCClient(InProcessTransport(svc),
                           policy=RetryPolicy(max_retries=cfg.max_retries),
                           seed=seed, metrics=metrics)
            svc.run_pending()
            svc.poll_spool()
            round_ids: dict[str, JobSpec] = {}
            for spec in specs:
                try:
                    round_ids[cli.submit(spec)] = spec
                except ServiceOverloadError:
                    violate(round_no, "drain submit shed")
                    continue
                svc.run_pending()
            svc.run_pending()
            spec_pool.extend(s for s in specs if s not in spec_pool)

            _check_round(svc, cli, round_ids, cfg, round_no, violate, rng)
            round_row["jobs_total"] = len(svc.jobs)
            round_row["disk"] = svc.disk_usage()

        report["deduped"] = _deduped_total(metrics)
        report["rounds"].append(round_row)
        say(f"round {round_no}: jobs={round_row.get('jobs_total')} "
            f"violations={len(report['violations'])}")

    # Final honesty pass over the whole root.
    verify = verify_journal(os.path.join(root, "journal.jsonl"))
    report["journal"] = {"ok": verify["ok"], "records":
                         verify["total_records"],
                         "problems": verify["problems"]}
    if not verify["ok"]:
        violate(cfg.rounds, "journal verify failed")
    return report


def _deduped_total(metrics) -> int:
    counters = getattr(metrics, "counters", None)
    if counters is None:
        return 0
    return int(sum(c.value for c in counters()
                   if c.name == "service.deduped"))


def _check_round(svc: BCService, cli: BCClient, round_ids, cfg: SoakConfig,
                 round_no: int, violate, rng: random.Random) -> None:
    """The standing invariants, asserted on a drained healthy service."""
    # terminal exactly-once: every job terminal, one job per content key
    content_seen: dict[str, str] = {}
    for job_id, rec in svc.jobs.items():
        if rec.state not in TERMINAL_STATES:
            violate(round_no, f"job {job_id} not terminal ({rec.state})")
        ck = rec.spec.content_key()
        if ck in content_seen:
            violate(round_no,
                    f"content duplicated: {content_seen[ck]} vs {job_id}")
        content_seen[ck] = job_id

    # no starvation: every job this round submitted answers `wait` at once
    for job_id in round_ids:
        if job_id not in svc.jobs:
            violate(round_no, f"submitted job {job_id} vanished")
            continue
        try:
            cli.wait(job_id, max_polls=4)
        except TimeoutError:
            violate(round_no, f"job {job_id} starved")

    # never silently wrong: blobs verify, inexact results are flagged
    done = [j for j, r in svc.jobs.items() if r.state == DONE]
    for job_id in done:
        rec = svc.jobs[job_id]
        try:
            values, meta = svc.result(job_id)
        except Exception as exc:  # noqa: BLE001 - any failure is a finding
            violate(round_no, f"result({job_id}) raised {exc!r}")
            continue
        if not svc.cache.verify(rec.result_key):
            violate(round_no, f"cache blob for {job_id} fails its hash")
        if not meta["exact"] and not meta["degraded_reason"]:
            violate(round_no, f"job {job_id} inexact but unflagged")

    # sampled recompute, two flavours:
    # (a) evict one DONE job's blob and read through `result()` — the
    #     self-heal must *recompute* the identical values from the
    #     journalled determinants, never resurrect corrupt bytes;
    # (b) if the probe ran exact, re-run it in a pristine service (no
    #     overload, no faults) and demand byte-identical values — an
    #     end-to-end independence check on the whole storage stack.
    if done:
        probe_id = rng.choice(sorted(done))
        probe = svc.jobs[probe_id]
        values, meta = svc.result(probe_id)
        try:
            os.remove(svc.cache.path(probe.result_key))
        except OSError:
            pass
        svc.cache._sizes.pop(probe.result_key, None)
        healed, healed_meta = svc.result(probe_id)
        if (healed.tolist() != values.tolist()
                or healed_meta["exact"] != meta["exact"]):
            violate(round_no,
                    f"evicted {probe_id} recomputed to different bytes")
        if meta["exact"]:
            import tempfile

            with tempfile.TemporaryDirectory() as tmp:
                with BCService(os.path.join(tmp, "ref")) as ref:
                    ref_rec = ref.submit(probe.spec.with_id(""))
                    ref.run_pending()
                    if ref.jobs[ref_rec.job_id].state != DONE:
                        violate(round_no,
                                f"recompute of {probe_id} diverged in state")
                    else:
                        ref_values, ref_meta = ref.result(ref_rec.job_id)
                        if (ref_values.tolist() != values.tolist()
                                or ref_meta["exact"] is not True):
                            violate(round_no,
                                    f"recompute of {probe_id} diverged")

    # bounded disk: cache under budget, journal within segment slack
    usage = svc.disk_usage()
    if cfg.cache_max_bytes and usage["cache"] > cfg.cache_max_bytes:
        violate(round_no,
                f"cache over budget ({usage['cache']} > "
                f"{cfg.cache_max_bytes})")
    journal_cap = 6 * cfg.journal_max_segment_bytes
    if usage["journal"] > journal_cap:
        violate(round_no,
                f"journal over budget ({usage['journal']} > {journal_cap})")
    if usage["spool"]:
        violate(round_no, f"spool not drained ({usage['spool']} bytes)")

    # honest journal: verify + replay with zero illegal transitions
    verify = verify_journal(svc.journal.path)
    if not verify["ok"]:
        violate(round_no, f"journal verify: {verify['problems']}")
    records, _ = read_journal_chain(svc.journal.path)
    state = replay_state(records, svc.journal.path)
    if state.illegal_transitions:
        violate(round_no,
                f"illegal transitions: {state.illegal_transitions}")
