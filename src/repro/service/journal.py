"""Durable job journal: a segmented, checksummed write-ahead log.

Format (``repro.job/v1``) — one record per line::

    <crc32 hex, 8 chars> <canonical single-line JSON body>\\n

The body always carries ``kind`` (record type), ``seq`` (strictly
increasing **across every file** of the journal) and ``t`` (simulated
seconds on the scheduler clock, never wall time, so seeded runs write
identical bytes).  Every record is written before
:meth:`JobJournal.append` returns, so it survives ``kill -9`` of the
daemon.  State records are also fsynced before it returns; narration
(:data:`NARRATION_KINDS`) is not, and becomes durable with the file's
next fsync — the next state record, the fsync that precedes a
rotation, or :meth:`JobJournal.close`.  A power loss can therefore
damage only bytes after the active segment's last state record, never
a state record, and a sealed segment never holds an unsynced byte.
The journal is the single source of truth for job state: ``status``
reads it, recovery replays it, the telemetry views are derived from
it, and the CI smoke job uploads it as an artifact.

Disk layout (all next to each other; ``journal.jsonl`` is the path the
daemon is given)::

    journal.jsonl                     active segment (append target)
    journal-<firstseq:08d>.jsonl      sealed segments (read-only)
    journal-<through:08d>.compact.jsonl   compaction output

* **Rotation** seals the active segment by atomically renaming it to
  ``journal-<first seq it holds>.jsonl`` — the next append recreates a
  fresh active file.  A crash between the two steps is recoverable:
  opening with no active file just starts a new one.
* **Compaction** folds the sealed segments (and any previous compact
  output) into one ``.compact`` file named by the highest sequence
  number it *covers* — not necessarily one it contains, since covered
  records may have been dropped.  On read, the compact file with the
  largest ``through`` wins; sealed segments whose first seq is within
  its coverage are superseded (crash debris from an interrupted
  cleanup) and deleted at next open.  Compaction only ever **drops**
  records, never rewrites them, and preserves original seqs, so replay
  after compaction is replay of a sub-history:

  - terminal jobs wholly inside the sealed range are slimmed to a
    minimal legal chain (``submit`` + last ``start`` + terminal record,
    without their ``sched``/``dedupe`` narration) and, beyond the
    ``keep_terminal`` most recent, garbage-collected entirely;
  - jobs that are live — or have *any* record newer than the sealed
    range — keep every sealed record, so no replay transition is ever
    made illegal by compaction;
  - only the last ``breaker`` record per (graph, strategy) survives,
    and ``open`` markers are dropped.

* **Reclaim** is the ``ENOSPC`` path: rotate, compact with
  ``keep_terminal=0``, run the owner's ``on_reclaim`` hook (the daemon
  wires cache eviction here), retry the append once — and only then
  raise a typed :class:`~repro.errors.StorageFullError`, with the
  journal exactly as it was before the failed append.

Crash semantics on read:

* A corrupt line of the **active** segment that no state record
  follows is a *torn tail* — what a SIGKILL mid-``write(2)`` leaves
  (a bad last line), or a power cut (pages of unsynced narration need
  not reach the disk in order, so a hole of zeros can sit before
  complete narration lines).  It is dropped with every line after it,
  reported via ``torn_tail``, and truncated away when the journal is
  reopened for appending: none of it was a state record (a state
  record's fsync would have made every earlier byte durable), so
  dropping it loses no acknowledged change.
* A corrupt line anywhere else — before a state record, or *any* line
  of a sealed/compact file — raises
  :class:`~repro.errors.JournalCorruptionError`: the file was damaged
  at rest and recovery must not guess around the hole.
  ``repro service journal verify`` classifies the two cases offline.

:func:`replay_state` folds a record list into per-job
:class:`~repro.service.jobs.JobRecord` state: jobs found ``RUNNING``
(a ``start`` with no terminal record — the daemon died mid-job) are
requeued as ``PENDING`` with their attempt count preserved, which is
what makes restart-after-crash converge to the same terminal states a
crash-free run reaches.
"""

from __future__ import annotations

import errno
import json
import os
import re
import zlib

from ..errors import JournalCorruptionError, StorageFullError
from ..observability.clock import SpanClock
from ..observability.registry import NULL_REGISTRY
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    SHED,
    JobRecord,
    JobSpec,
    canonical_json,
    legal_transition,
)
from .storage import ServiceStorage

__all__ = [
    "JOURNAL_SCHEMA",
    "NARRATION_KINDS",
    "RECORD_KINDS",
    "TERMINAL_STATES",
    "JobJournal",
    "ReplayedState",
    "encode_record",
    "decode_line",
    "read_journal",
    "journal_inventory",
    "read_journal_chain",
    "verify_journal",
    "replay_state",
]

JOURNAL_SCHEMA = "repro.job/v1"

#: Record kinds that narrate rather than decide: ``sched`` is one
#: scheduler decision (``decision`` plus its fields), ``dedupe`` one
#: resubmission folded into an existing job.  Replay ignores them; the
#: ``repro.events/v1`` view (:func:`repro.telemetry.read_events`) is
#: derived from them and the state records alike.
NARRATION_KINDS = ("sched", "dedupe")

#: Record kinds the replayer understands.  ``open`` marks (re)openings
#: of the journal, ``breaker`` persists circuit-breaker transitions so a
#: quarantined (graph, strategy) pair stays quarantined across restarts.
RECORD_KINDS = ("open", "submit", "start", "requeue", "done", "fail",
                "cancel", "shed", "breaker") + NARRATION_KINDS

#: Job states compaction may garbage-collect (nothing further can
#: happen to these jobs).
TERMINAL_STATES = (DONE, FAILED, CANCELLED, SHED)


def encode_record(record: dict) -> str:
    """One journal line: crc32 of the canonical JSON body, then the body."""
    body = canonical_json(record)
    if "\n" in body:
        raise ValueError("journal record bodies must be single-line")
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}\n"


def decode_line(line: str) -> dict:
    """Inverse of :func:`encode_record`; raises ``ValueError`` on any
    checksum/framing problem (the caller decides torn-tail vs corrupt)."""
    if not line.endswith("\n"):
        raise ValueError("record not newline-terminated (torn write)")
    raw = line[:-1]
    if len(raw) < 10 or raw[8] != " ":
        raise ValueError("bad framing: expected '<crc8> <json>'")
    crc_hex, body = raw[:8], raw[9:]
    try:
        crc = int(crc_hex, 16)
    except ValueError:
        raise ValueError(f"bad checksum field {crc_hex!r}")
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if crc != actual:
        raise ValueError(
            f"checksum mismatch: recorded {crc_hex}, actual {actual:08x}"
        )
    try:
        record = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"checksummed body is not JSON: {exc}")
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError("record body must be an object with a 'kind'")
    return record


def _decode_raw(line: bytes) -> dict:
    """:func:`decode_line` on raw file bytes (bad UTF-8 is a
    ``ValueError`` too)."""
    return decode_line(line.decode("utf-8"))


def _is_state_line(line: bytes) -> bool:
    try:
        return _decode_raw(line)["kind"] not in NARRATION_KINDS
    except ValueError:
        return False


def _scan(path):
    """Decode one journal file: ``(records, bad)``, where ``bad`` is
    ``None`` or ``(line_no, message, torn)`` for the first line that
    does not decode; ``torn`` says no state record follows it, only
    narration or more bad lines.  A missing file reads as empty."""
    if not os.path.exists(path):
        return [], None
    with open(path, "rb") as fh:
        lines = fh.readlines()
    records = []
    for i, line in enumerate(lines):
        try:
            records.append(_decode_raw(line))
        except ValueError as exc:
            torn = not any(map(_is_state_line, lines[i + 1:]))
            return records, (i + 1, str(exc), torn)
    return records, None


def _read_files(files) -> list:
    """Read ``(role, path)`` files in order; returns ``[(role, path,
    records, torn_tail)]``.

    The one rule for damage: a corrupt line of the **active** segment
    that no state record follows is a torn tail (dropped with the lines
    after it, flagged); anything else raises
    :class:`JournalCorruptionError`.
    """
    out = []
    for role, path in files:
        records, bad = _scan(path)
        if bad is not None:
            line, message, torn = bad
            if not torn:
                raise JournalCorruptionError(path, line, message)
            if role != "active":
                raise JournalCorruptionError(
                    path, line, f"torn tail in sealed {role} file (only "
                                f"the active segment may be torn)")
        out.append((role, path, records, bad is not None))
    return out


def read_journal(path):
    """Read every intact record of **one** journal file; returns
    ``(records, torn_tail)``.

    A torn tail is dropped (``torn_tail=True``); corruption before a
    state record raises :class:`JournalCorruptionError`.  A missing
    file reads as empty.  For the full multi-segment history use
    :func:`read_journal_chain`.
    """
    [(_role, _path, records, torn)] = _read_files([("active", str(path))])
    return records, torn


# ----------------------------------------------------------------------
# Segment layout
# ----------------------------------------------------------------------

def _stem(path: str) -> str:
    base = os.path.basename(str(path))
    return base[:-6] if base.endswith(".jsonl") else base


def journal_inventory(path) -> dict:
    """Enumerate every file of the journal rooted at ``path``.

    Returns ``{"active", "segments", "compacts", "through",
    "superseded", "strays"}`` where ``segments`` is ``[(first_seq,
    path)]`` sorted, ``compacts`` is ``[(through, path)]`` sorted,
    ``through`` is the best compact's coverage (0 if none), and
    ``superseded``/``strays`` are crash debris a clean open deletes
    (segments covered by the best compact, older compacts, ``.tmp``
    files).
    """
    path = str(path)
    parent = os.path.dirname(path) or "."
    stem = _stem(path)
    seg_re = re.compile(re.escape(stem) + r"-(\d{8})\.jsonl$")
    com_re = re.compile(re.escape(stem) + r"-(\d{8})\.compact\.jsonl$")
    segments, compacts, strays = [], [], []
    if os.path.isdir(parent):
        for name in sorted(os.listdir(parent)):
            full = os.path.join(parent, name)
            if name.endswith(".tmp") and name.startswith(stem):
                strays.append(full)
                continue
            m = com_re.match(name)
            if m:
                compacts.append((int(m.group(1)), full))
                continue
            m = seg_re.match(name)
            if m:
                segments.append((int(m.group(1)), full))
    segments.sort()
    compacts.sort()
    through = compacts[-1][0] if compacts else 0
    superseded = [p for _, p in compacts[:-1]]
    superseded += [p for first, p in segments if first <= through]
    return {
        "active": path,
        "segments": segments,
        "compacts": compacts,
        "through": through,
        "superseded": superseded,
        "strays": strays,
    }


def _chain_files(inv: dict) -> list:
    """The ``(role, path)`` list whose concatenation is the history."""
    files = []
    if inv["compacts"]:
        files.append(("compact", inv["compacts"][-1][1]))
    files += [("segment", p) for first, p in inv["segments"]
              if first > inv["through"]]
    files.append(("active", inv["active"]))
    return files


def read_journal_chain(path):
    """Read the full multi-segment history; returns ``(records,
    torn_tail)``.

    Concatenates best compact + uncovered sealed segments + active.  A
    torn tail is only tolerated on the active segment; any damage to a
    sealed or compact file raises :class:`JournalCorruptionError`.
    """
    records, torn = [], False
    for _role, _path, recs, file_torn in _read_files(
            _chain_files(journal_inventory(path))):
        records += recs
        torn = torn or file_torn
    return records, torn


def verify_journal(path) -> dict:
    """Offline integrity scan of every journal file (never mutates).

    Returns a report dict: ``files`` (one entry per file with
    ``role``/``records``/``first_seq``/``last_seq``/``bytes``/
    ``status`` of ``ok``|``torn-tail``|``corrupt`` and a one-line
    ``error``), ``problems`` (fatal findings), ``notes`` (benign crash
    debris), and ``ok``.  A torn tail on the active segment is a note —
    it is what SIGKILL mid-append leaves and the next open truncates
    it; the same damage anywhere else, or an interior checksum
    mismatch, is classified as at-rest corruption and fails the scan.
    """
    inv = journal_inventory(path)
    report = {"root": os.path.dirname(str(path)) or ".", "files": [],
              "problems": [], "notes": [], "ok": True, "total_records": 0}
    last_seq = 0
    for role, fpath in _chain_files(inv):
        entry = {"path": fpath, "role": role, "records": 0,
                 "first_seq": None, "last_seq": None, "bytes": 0,
                 "status": "ok", "error": None}
        if not os.path.exists(fpath):
            if role == "active":
                entry["status"] = "missing"
                entry["error"] = "no active segment (fresh after rotation)"
                report["files"].append(entry)
            continue
        entry["bytes"] = os.path.getsize(fpath)
        records, bad = _scan(fpath)
        for i, record in enumerate(records):
            seq = int(record.get("seq", 0))
            if entry["first_seq"] is None:
                entry["first_seq"] = seq
            if seq <= last_seq:
                entry["status"] = "corrupt"
                entry["error"] = (f"line {i + 1}: seq {seq} not above "
                                  f"previous {last_seq} — mixed or "
                                  f"rewound history")
                report["problems"].append(
                    f"{fpath}:{i + 1}: non-monotonic seq {seq}")
                bad = None
                break
            last_seq = seq
            entry["last_seq"] = seq
            entry["records"] += 1
        if bad is not None:
            line, message, torn = bad
            if torn and role == "active":
                entry["status"] = "torn-tail"
                entry["error"] = (f"line {line}: {message} — crash "
                                  f"debris; truncated at next open")
                report["notes"].append(
                    f"{fpath}: torn tail from line {line} (safe)")
            else:
                entry["status"] = "corrupt"
                entry["error"] = (f"line {line}: {message} — at-rest "
                                  f"corruption; recovery will not "
                                  f"guess, restore this file")
                report["problems"].append(f"{fpath}:{line}: {message}")
        report["total_records"] += entry["records"]
        report["files"].append(entry)
    for p in inv["superseded"]:
        report["notes"].append(f"{p}: superseded by newer compact (crash "
                               f"debris; deleted at next open)")
    for p in inv["strays"]:
        report["notes"].append(f"{p}: stray temp file (deleted at next open)")
    report["ok"] = not report["problems"]
    return report


class JobJournal:
    """Append-side handle on one (possibly segmented) journal.

    Opening replays the existing history (validating it), deletes
    crash debris from interrupted rotations/compactions, truncates a
    torn tail on the active segment, and appends an ``open`` record —
    so every daemon start is itself journalled and the sequence counter
    continues from the last durable record.

    ``max_segment_bytes=None`` (the default) disables rotation — the
    journal behaves exactly like the original single-file log.  With a
    budget set, every append that leaves the active segment over the
    limit rotates and compacts, so total disk stays bounded as terminal
    jobs age out.

    The journal keeps no records in memory: the owner replays the
    history the open scan read once (:meth:`take_history`), and
    compaction reads what it folds from disk.
    """

    def __init__(self, path, metrics=None, storage=None,
                 max_segment_bytes: int | None = None,
                 keep_terminal: int = 8, on_reclaim=None,
                 clock: SpanClock | None = None):
        self.path = str(path)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.storage = storage if storage is not None else ServiceStorage()
        self.max_segment_bytes = (None if max_segment_bytes is None
                                  else int(max_segment_bytes))
        self.keep_terminal = int(keep_terminal)
        #: Called during :meth:`reclaim` so the owner can free space
        #: outside the journal (the daemon hooks cache eviction here).
        self.on_reclaim = on_reclaim
        #: Stamps every record's ``t``; only its deterministic
        #: ``sim_seconds`` is read (the daemon passes the scheduler's).
        self.clock = clock if clock is not None else SpanClock()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._closed = False

        # Clean up crash debris from an interrupted rotate/compact and
        # validate + load the full history.
        inv = journal_inventory(self.path)
        for stray in inv["superseded"] + inv["strays"]:
            try:
                os.remove(stray)
            except OSError:
                pass
        self._history = []
        self._active_first_seq = None
        self.torn_tail_truncated = False
        for role, fpath, recs, torn in _read_files(_chain_files(inv)):
            self._history += recs
            if role == "active":
                if recs:
                    self._active_first_seq = recs[0]["seq"]
                if torn:
                    self._truncate_torn(fpath, recs)
                    self.torn_tail_truncated = True
                    self.metrics.inc("service.journal.torn_tail_truncated")
        self._seq = max([inv["through"]]
                        + [r.get("seq", 0) for r in self._history])
        self.append("open", schema=JOURNAL_SCHEMA)

    def take_history(self) -> list:
        """The records the open scan read, handed over once for the
        owner to replay; the journal keeps none of them afterwards."""
        history, self._history = self._history, []
        return history

    @staticmethod
    def _truncate_torn(path: str, good_records: list) -> None:
        """Drop the unacknowledged torn record so the next append
        starts on a clean line boundary.  The good lines are kept
        byte-for-byte (a truncate, not a rewrite — this must succeed
        even on a full disk)."""
        good_bytes = sum(
            len(encode_record(r).encode("utf-8")) for r in good_records)
        with open(path, "r+b") as fh:
            fh.truncate(good_bytes)
            fh.flush()
            os.fsync(fh.fileno())

    def append(self, kind: str, **fields) -> dict:
        """Append one record; returns it (with its ``seq``).

        A state record is fsynced before this returns; a narration
        record is written but not fsynced (see the module docs).

        On ``ENOSPC`` the journal reclaims space (rotate + aggressive
        compact + the owner's ``on_reclaim`` hook) and retries once;
        if the disk is still full it raises
        :class:`~repro.errors.StorageFullError` with nothing appended.
        """
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        if self._closed:
            raise ValueError("journal is closed")
        record = {"kind": kind, "seq": self._seq + 1,
                  "t": round(float(self.clock.sim_seconds), 9), **fields}
        line = encode_record(record)
        sync = kind not in NARRATION_KINDS
        try:
            self.storage.append_line(self.path, line, "journal", sync=sync)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            self.metrics.inc("service.journal.enospc")
            self.reclaim()
            try:
                self.storage.append_line(self.path, line, "journal",
                                         sync=sync)
            except OSError as exc2:
                if exc2.errno != errno.ENOSPC:
                    raise
                raise StorageFullError(self.path, f"append {kind!r}",
                                       attempts=2) from exc2
        self._seq = record["seq"]
        if self._active_first_seq is None:
            self._active_first_seq = record["seq"]
        self.metrics.inc("service.journal.records", kind=kind)
        if (self.max_segment_bytes is not None
                and os.path.getsize(self.path) >= self.max_segment_bytes):
            # Opportunistic: the record above is already durable, so a
            # full disk here is not this append's failure — the next
            # ENOSPC append will reclaim harder.
            self.rotate()
            try:
                self.compact()
            except OSError as exc:
                if exc.errno != errno.ENOSPC:
                    raise
                self.metrics.inc("service.journal.enospc")
        return record

    # -- rotation / compaction -----------------------------------------
    def rotate(self) -> str | None:
        """Seal the active segment; returns the sealed path (or
        ``None`` if the active segment is empty).

        One atomic rename: a crash before it changes nothing, a crash
        after it leaves no active file — which the next open treats as
        an empty active segment.  The segment is fsynced first: a
        sealed file may not hold unsynced narration a power loss could
        tear."""
        if self._active_first_seq is None or not os.path.exists(self.path):
            return None
        sealed = os.path.join(
            os.path.dirname(self.path) or ".",
            f"{_stem(self.path)}-{self._active_first_seq:08d}.jsonl")
        self.storage.sync(self.path)
        self.storage.rename(self.path, sealed, "journal")
        self._active_first_seq = None
        self.metrics.inc("service.journal.rotations")
        return sealed

    def compact(self, keep_terminal: int | None = None) -> dict:
        """Fold sealed segments (+ any previous compact) into one file,
        dropping what replay no longer needs; returns stats.

        Reads the active segment (empty right after :meth:`rotate`) but
        never writes it.  Crash-safe at every step:
        the new compact lands by atomic replace *before* superseded
        files are deleted, and open() finishes an interrupted cleanup.
        """
        keep = self.keep_terminal if keep_terminal is None else int(
            keep_terminal)
        inv = journal_inventory(self.path)
        plain = [(first, p) for first, p in inv["segments"]
                 if first > inv["through"]]
        if not plain and not inv["compacts"]:
            return {"retained": 0, "dropped": 0, "gc_jobs": 0, "through": 0}
        sealed_max = inv["through"]
        records, sealed_records = [], []
        for role, _p, recs, _torn in _read_files(_chain_files(inv)):
            records += recs
            if role != "active":
                sealed_records += recs
            if role == "segment" and recs:
                sealed_max = max(sealed_max, recs[-1].get("seq", 0))
        retained, gc_jobs = self._retain(records, sealed_records,
                                         sealed_max, keep)
        new_path = os.path.join(
            os.path.dirname(self.path) or ".",
            f"{_stem(self.path)}-{sealed_max:08d}.compact.jsonl")
        body = "".join(encode_record(r) for r in retained).encode("utf-8")
        self.storage.replace_atomic(new_path, body, "journal")
        # New compact is durable; everything it covers is now debris.
        for _key, p in plain + inv["compacts"]:
            if os.path.abspath(p) != os.path.abspath(new_path):
                self.storage.remove(p, "journal")
        self.metrics.inc("service.journal.compactions")
        return {"retained": len(retained),
                "dropped": len(sealed_records) - len(retained),
                "gc_jobs": gc_jobs, "through": sealed_max}

    def _retain(self, records: list, sealed_records: list,
                sealed_max: int, keep_terminal: int):
        """Pick which sealed records survive compaction; ``records`` is
        the whole chain on disk, ``sealed_records`` its sealed part.

        The rule that keeps replay legal: a job may only be slimmed or
        dropped if **every** one of its records is inside the sealed
        range — a job with newer records (in the active segment) keeps
        all its sealed history, because those newer records' legality
        depends on it.
        """
        per_job = {}       # job_id -> its records, any file
        breaker_last = {}  # (graph_key, strategy) -> last sealed record
        for r in records:
            kind = r.get("kind")
            if kind in ("open", None):
                continue
            if kind == "breaker":
                if r.get("seq", 0) <= sealed_max:
                    breaker_last[(r.get("graph_key", ""),
                                  r.get("strategy", ""))] = r
                continue
            jid = (r["job"]["job_id"] if kind in ("submit", "shed")
                   else r.get("job_id"))
            per_job.setdefault(jid, []).append(r)
        # Each job's newest seq, narration included.
        last_seq = {jid: max(r.get("seq", 0) for r in recs)
                    for jid, recs in per_job.items()}
        state = replay_state(records, self.path)
        collectable = sorted(
            (seq, jid) for jid, seq in last_seq.items()
            if seq <= sealed_max and jid in state.jobs
            and state.jobs[jid].state in TERMINAL_STATES)
        drop = {jid for _seq, jid in
                collectable[:max(0, len(collectable) - keep_terminal)]}
        slim = {jid for _seq, jid in collectable} - drop
        gc = len(drop)
        # Narration of a job an earlier compaction already collected (a
        # dedupe the live process journalled afterwards) goes too.
        drop |= {jid for jid in last_seq if jid not in state.jobs}

        # Minimal legal chain for each slimmed job, identified by seq.
        keep_seqs = set()
        for jid in slim:
            recs = per_job[jid]
            final_state = state.jobs[jid].state
            # Chain head: the *last* submit/shed record — a job that was
            # shed (or failed) and then resubmitted is governed by its
            # newest admission, and replaying the stale one first would
            # make the final run's records illegal.
            chain = [r for r in recs if r["kind"] in ("submit", "shed")][-1:]
            if final_state in (DONE, FAILED):
                starts = [r for r in recs if r["kind"] == "start"]
                if starts:
                    chain.append(starts[-1])
            # The chain ends on the last *state* record; narration
            # (sched/dedupe) of a slimmed job is dropped.
            chain.append([r for r in recs
                          if r["kind"] not in NARRATION_KINDS][-1])
            keep_seqs.update(r["seq"] for r in chain)
        breaker_seqs = {r.get("seq") for r in breaker_last.values()}

        retained = []
        for r in sealed_records:
            kind = r.get("kind")
            if kind in ("open", None):
                continue
            if kind == "breaker":
                if r.get("seq") in breaker_seqs:
                    retained.append(r)
                continue
            jid = (r["job"]["job_id"] if kind in ("submit", "shed")
                   else r.get("job_id"))
            if jid in drop:
                continue
            if jid in slim and r["seq"] not in keep_seqs:
                continue
            retained.append(r)
        return retained, gc

    def reclaim(self) -> None:
        """Free disk space: rotate, compact aggressively (GC every
        fully-sealed terminal job), then let the owner free more.

        Each step is best-effort under ``ENOSPC`` — compaction itself
        needs room for its output, so a still-full disk skips it and
        relies on the owner's hook (cache eviction frees space without
        writing)."""
        self.rotate()
        try:
            self.compact(keep_terminal=0)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
        if self.on_reclaim is not None:
            self.on_reclaim()
        self.metrics.inc("service.journal.reclaims")

    def total_bytes(self) -> int:
        """Bytes on disk across every journal file."""
        inv = journal_inventory(self.path)
        total = 0
        for _role, p in _chain_files(inv):
            if os.path.exists(p):
                total += os.path.getsize(p)
        return total

    def close(self) -> None:
        """Make trailing narration durable (one fsync of the active
        segment) and refuse further appends."""
        if not self._closed and os.path.exists(self.path):
            self.storage.sync(self.path)
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ReplayedState:
    """Outcome of folding a journal: jobs, breaker state, statistics."""

    def __init__(self):
        self.jobs: dict = {}            # job_id -> JobRecord
        #: (graph_key, strategy) -> last journalled breaker snapshot.
        self.breakers: dict = {}
        #: Jobs found RUNNING and requeued (daemon died mid-job).
        self.interrupted: list = []
        self.illegal_transitions: list = []

    def pending_ids(self) -> list:
        """PENDING job ids in submit order (the recovered queue)."""
        pend = [j for j in self.jobs.values() if j.state == PENDING]
        return [j.job_id for j in sorted(pend, key=lambda j: j.submit_seq)]


def replay_state(records, path: str = "<journal>") -> ReplayedState:
    """Fold journal ``records`` into the service state they describe."""
    state = ReplayedState()
    for record in records:
        kind = record.get("kind")
        if kind in ("open", None) or kind in NARRATION_KINDS:
            continue
        if kind == "breaker":
            key = (record.get("graph_key", ""), record.get("strategy", ""))
            state.breakers[key] = {
                "state": record.get("state", "closed"),
                "failures": int(record.get("failures", 0)),
            }
            continue
        if kind == "submit":
            spec = JobSpec.from_dict(record["job"])
            job = JobRecord(spec=spec, state=PENDING,
                            submit_seq=int(record.get("seq", 0)),
                            admit_degraded=(record.get("mode")
                                            == "degrade"))
            state.jobs[spec.job_id] = job
            continue
        if kind == "shed":
            spec = JobSpec.from_dict(record["job"])
            job = JobRecord(spec=spec, state=SHED,
                            submit_seq=int(record.get("seq", 0)),
                            error=record.get("reason"))
            state.jobs[spec.job_id] = job
            continue
        job = state.jobs.get(record.get("job_id"))
        if job is None:
            raise JournalCorruptionError(
                path, int(record.get("seq", 0)),
                f"{kind} record for never-submitted job "
                f"{record.get('job_id')!r}",
            )
        new_state = {"start": RUNNING, "requeue": PENDING, "done": DONE,
                     "fail": FAILED, "cancel": CANCELLED}[kind]
        if not legal_transition(job.state, new_state):
            state.illegal_transitions.append(
                (job.job_id, job.state, new_state))
            continue
        job.state = new_state
        if kind == "start":
            job.attempt = int(record.get("attempt", job.attempt + 1))
            job.device = record.get("device")
        elif kind == "requeue":
            if "delay" in record:
                job.backoff_delays.append(float(record["delay"]))
        elif kind == "done":
            job.result_key = record.get("result_key")
            job.exact = bool(record.get("exact", True))
            job.degraded_reason = record.get("degraded_reason")
            job.sim_seconds = float(record.get("sim_seconds", 0.0))
            job.device = record.get("device", job.device)
            if record.get("samples") is not None:
                job.samples = int(record["samples"])
        elif kind == "fail":
            job.error = record.get("error")
        elif kind == "cancel":
            job.error = record.get("reason")
    # A job still RUNNING after the fold means the daemon died mid-job:
    # its done/fail record never made it to stable storage, so the only
    # correct recovery is to run it again (results are content-addressed
    # and written before `done`, so recomputation is idempotent).
    for job in state.jobs.values():
        if job.state == RUNNING:
            job.state = PENDING
            job.recovered = True
            state.interrupted.append(job.job_id)
    return state
