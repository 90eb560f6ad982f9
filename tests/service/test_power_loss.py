"""Power loss just before every fsync: unsynced narration is the only
thing a power cut can take from the journal.

State records are fsynced before ``JobJournal.append`` returns;
``sched``/``dedupe`` narration is written but left for the next fsync
of its file to cover.  This grid runs a workload with rotation,
compaction and dedupe reads live.  Just before every fsync it copies
the service directory twice: as written, which is what ``kill -9`` at
that instant leaves, and with every journal file cut to the length its
last fsync covered, which is what a power cut leaves when writeback
went in file order.  Writeback need not go in order, so a third copy
zeroes one page in the middle of the unsynced tail and keeps the bytes
after it.  The model covers file data only: renames and new files are
taken as durable.

Every cut or holed copy must open without a
``JournalCorruptionError``, lose only narration lines of the active
segment, and recover the same job states and result bytes as the
``kill -9`` copy; a cut copy, driven to completion, reaches the
crash-free run's terminal states."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.service import (
    DONE,
    BCService,
    JobSpec,
    decode_line,
    read_journal_chain,
)
from repro.service.journal import NARRATION_KINDS
from repro.service.storage import ServiceStorage

pytestmark = pytest.mark.service

# Small enough that narration appends, too, cross the rotation budget.
SEGMENT_BYTES = 700
KEEP_TERMINAL = 1
#: Writeback granularity of the hole model; small, so that unsynced
#: tails span several pages.
PAGE = 64


def specs():
    return [JobSpec(job_id=f"j{i:06d}", graph="smallworld",
                    scale_factor=512, strategy="sampling", roots=4,
                    seed=i) for i in range(1, 5)]


def open_service(root, storage=None):
    return BCService(root, storage=storage,
                     journal_max_segment_bytes=SEGMENT_BYTES,
                     journal_keep_terminal=KEEP_TERMINAL)


def drive(svc):
    """Each job runs, then every finished job is read again (a
    ``dedupe`` narration record plus a cache read)."""
    done = []
    for sp in specs():
        svc.submit(sp)
        svc.run_pending()
        done.append(sp)
        for again in done:
            job = svc.submit(again)
            if job.state == DONE:
                svc.result(job.job_id)


def harvest(svc):
    states = {j: (r.state, r.result_key) for j, r in svc.jobs.items()}
    blobs = {j: svc.result(j)[0].tobytes() for j, r in svc.jobs.items()
             if r.state == DONE}
    return states, blobs


class PowerCutStorage(ServiceStorage):
    """A healthy storage that knows how much of each file an fsync has
    covered, and copies the service directory just before each fsync."""

    def __init__(self, root, out):
        super().__init__()
        self.root = str(root)
        self.out = str(out)
        #: Root-relative path -> bytes covered by the file's last fsync.
        self.synced = {}
        #: (copy of the directory, ``synced`` at that instant).
        self.points = []

    def _rel(self, path):
        return os.path.relpath(str(path), self.root)

    def _point(self):
        snap = os.path.join(self.out, f"p{len(self.points):04d}")
        shutil.copytree(self.root, snap)
        self.points.append((snap, dict(self.synced)))

    def append_line(self, path, text, target="any", sync=True):
        if sync:
            self._point()
        attempts = super().append_line(path, text, target, sync)
        if sync:
            self.synced[self._rel(path)] = os.path.getsize(path)
        return attempts

    def sync(self, path):
        self._point()
        super().sync(path)
        self.synced[self._rel(path)] = os.path.getsize(path)

    def replace_atomic(self, path, data, target="any"):
        self._point()
        attempts = super().replace_atomic(path, data, target)
        self.synced[self._rel(path)] = len(data)
        return attempts

    def rename(self, src, dst, target="any"):
        super().rename(src, dst, target)
        self.synced[self._rel(dst)] = self.synced.pop(self._rel(src), 0)

    def remove(self, path, target="any"):
        existed = super().remove(path, target)
        self.synced.pop(self._rel(path), None)
        return existed


def cut_to_synced(snap, synced):
    """Cut every journal file of ``snap`` to its fsynced length; returns
    ``{file name: the lines cut}``."""
    lost = {}
    for name in sorted(os.listdir(snap)):
        if not (name.startswith("journal") and name.endswith(".jsonl")):
            continue
        path = os.path.join(snap, name)
        with open(path, "rb") as fh:
            data = fh.read()
        keep = synced.get(name, 0)
        if len(data) > keep:
            lost[name] = data[keep:].decode("utf-8").splitlines(keepends=True)
            with open(path, "r+b") as fh:
                fh.truncate(keep)
    return lost


def punch_hole(snap, synced):
    """Zero one page in the middle of the active segment's unsynced
    tail, keeping every byte after it: writeback wrote a later page but
    not this one.  Returns whether a complete line survives after the
    hole, or ``None`` when the tail spans fewer than two pages."""
    path = os.path.join(snap, "journal.jsonl")
    if not os.path.exists(path):
        return None
    keep = synced.get("journal.jsonl", 0)
    first, last = keep // PAGE, (os.path.getsize(path) - 1) // PAGE
    if last <= first:
        return None
    page = (first + last) // 2
    start, end = max(keep, page * PAGE), (page + 1) * PAGE
    with open(path, "r+b") as fh:
        fh.seek(start)
        fh.write(b"\0" * (end - start))
        fh.seek(end)
        after = fh.read()
    return b"\n" in after[:-1]


def state_records(snap):
    records, torn = read_journal_chain(os.path.join(snap, "journal.jsonl"))
    return [r for r in records if r["kind"] not in NARRATION_KINDS], torn


def test_power_loss_before_every_fsync_loses_only_narration(tmp_path):
    with open_service(tmp_path / "ref") as svc:
        drive(svc)
        ref_states, ref_blobs = harvest(svc)
    assert all(state == DONE for state, _key in ref_states.values())

    root = tmp_path / "live"
    storage = PowerCutStorage(root, tmp_path / "points")
    with open_service(root, storage) as svc:
        drive(svc)
    assert len(storage.points) > 20
    assert any(name.endswith(".compact.jsonl")
               for snap, _ in storage.points for name in os.listdir(snap)), \
        "segment budget too loose: nothing compacted"

    lost_kinds = set()
    holes = []
    for snap, synced in storage.points:
        killed, holed = snap + "-kill9", snap + "-hole"
        shutil.copytree(snap, killed)
        shutil.copytree(snap, holed)
        lost = cut_to_synced(snap, synced)
        # Only the active segment's narration tail is ever unsynced.
        assert set(lost) <= {"journal.jsonl"}, (snap, lost)
        for line in lost.get("journal.jsonl", []):
            kind = decode_line(line)["kind"]
            assert kind in NARRATION_KINDS, (snap, line)
            lost_kinds.add(kind)
        # Reopening raises no JournalCorruptionError, and the power cut
        # recovers what kill -9 at the same instant recovers.
        survived, _torn = state_records(killed)
        with open_service(killed) as svc:
            want = harvest(svc)
        # A hole before complete narration lines is a torn tail too:
        # everything from it on is dropped, and it held no state record.
        intact_after = punch_hole(holed, synced)
        if intact_after is not None:
            holes.append(intact_after)
            kept, torn = state_records(holed)
            assert torn and kept == survived, holed
            with open_service(holed) as svc:
                assert harvest(svc) == want, holed
        with open_service(snap) as svc:
            assert harvest(svc) == want, snap
            drive(svc)
            assert harvest(svc) == (ref_states, ref_blobs), snap
    assert lost_kinds == set(NARRATION_KINDS)
    assert any(holes), "no hole was followed by a complete line"
