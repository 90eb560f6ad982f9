"""ServiceStorage: each fault kind's durable-write semantics, and the
crash_after op counter the storage crash grid walks."""

from __future__ import annotations

import errno
import os

import pytest

from repro.observability import MetricsRegistry
from repro.resilience import ActiveFaults, FaultPlan
from repro.service.storage import ServiceStorage, SimulatedCrash

pytestmark = pytest.mark.service


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def storage_for(spec: str) -> ServiceStorage:
    return ServiceStorage(faults=ActiveFaults(FaultPlan.parse(spec), seed=0))


def test_append_line_plain(tmp_path):
    st = ServiceStorage()
    p = tmp_path / "j.jsonl"
    assert st.append_line(str(p), "a\n", "journal") == 1
    st.append_line(str(p), "b\n", "journal")
    assert _read(p) == b"a\nb\n"


def test_enospc_raises_untouched(tmp_path):
    import errno

    st = storage_for("enospc:0@journal")
    p = tmp_path / "j.jsonl"
    st_plain = ServiceStorage()
    st_plain.append_line(str(p), "a\n", "journal")
    with pytest.raises(OSError) as exc:
        st.append_line(str(p), "b\n", "journal")
    assert exc.value.errno == errno.ENOSPC
    assert _read(p) == b"a\n"            # nothing half-written


def test_torn_write_truncates_back_and_retries(tmp_path):
    st = storage_for("torn:0@journal")
    p = tmp_path / "j.jsonl"
    attempts = st.append_line(str(p), "hello-world\n", "journal")
    assert attempts == 2                 # torn, then clean retry
    assert _read(p) == b"hello-world\n"


def test_fsync_lie_detected_by_readback(tmp_path):
    st = storage_for("fsync-lie:0@journal")
    p = tmp_path / "j.jsonl"
    attempts = st.append_line(str(p), "line\n", "journal")
    assert attempts == 2
    assert _read(p) == b"line\n"


def test_rot_flips_one_bit_in_place(tmp_path):
    st = storage_for("rot:0@cache")
    p = tmp_path / "blob"
    st.append_line(str(p), "AAAAAAAA\n", "cache")
    data = _read(p)
    clean = b"AAAAAAAA\n"
    assert len(data) == len(clean)
    diff = [i for i in range(len(data)) if data[i] != clean[i]]
    assert len(diff) == 1
    assert bin(data[diff[0]] ^ clean[diff[0]]).count("1") == 1


def test_replace_atomic_plain_and_enospc(tmp_path):
    import errno

    st = ServiceStorage()
    p = tmp_path / "f.json"
    st.replace_atomic(str(p), b"v1", "cache")
    assert _read(p) == b"v1"
    bad = storage_for("enospc:0@cache")
    with pytest.raises(OSError) as exc:
        bad.replace_atomic(str(p), b"v2", "cache")
    assert exc.value.errno == errno.ENOSPC
    assert _read(p) == b"v1"             # old value intact


def test_wrong_target_faults_never_fire(tmp_path):
    st = storage_for("enospc:0@cache")
    p = tmp_path / "j.jsonl"
    assert st.append_line(str(p), "x\n", "journal") == 1


def test_crash_after_walks_ops(tmp_path):
    st = ServiceStorage(crash_after=1)
    p = tmp_path / "j.jsonl"
    st.append_line(str(p), "a\n", "journal")
    assert st.ops == 1
    with pytest.raises(SimulatedCrash) as exc:
        st.append_line(str(p), "b\n", "journal")
    assert exc.value.op_index == 1
    assert _read(p) == b"a\n"           # the crashed op never executed
    # a crash is a BaseException: `except Exception` cannot swallow it
    assert not isinstance(exc.value, Exception)


def test_bad_target_rejected(tmp_path):
    st = storage_for("enospc:0")
    with pytest.raises(ValueError):
        st.append_line(str(tmp_path / "x"), "a\n", "floppy")


# -- unsynced appends (the journal's narration) ---------------------------
@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` the write path issues while the test runs (not
    the one the fault injector makes after a ``rot`` flip)."""
    calls, rotting = [], []
    real_fsync, real_rot = os.fsync, ServiceStorage._rot_file

    def fsync(fd):
        if not rotting:
            calls.append(fd)
        return real_fsync(fd)

    def rot(*args):
        rotting.append(True)
        try:
            return real_rot(*args)
        finally:
            rotting.pop()

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(ServiceStorage, "_rot_file", staticmethod(rot))
    return calls


def _append_after_preface(path, spec, sync):
    """One ``append_line`` under ``spec`` onto a file that already holds
    a line; returns (attempts or errno, ops, bytes, counters)."""
    with open(path, "wb") as fh:
        fh.write(b"preface\n")
    metrics = MetricsRegistry()
    st = ServiceStorage(faults=ActiveFaults(FaultPlan.parse(spec), seed=0),
                        metrics=metrics)
    try:
        out = st.append_line(str(path), "hello-world\n", "journal", sync=sync)
    except OSError as exc:
        out = exc.errno
    counters = sorted((c.name, tuple(sorted(c.labels.items())), c.value)
                      for c in metrics.counters())
    return out, st.ops, _read(path), counters


@pytest.mark.parametrize("spec, result, ops", [
    ("none", 1, {"append": 1}),
    ("enospc:0@journal", errno.ENOSPC, {"append": 1}),
    ("torn:0@journal", 2, {"append": 2, "truncate": 1}),
    ("fsync-lie:0@journal", 2, {"append": 2}),
    ("rot:0@journal", 1, {"append": 1}),
])
def test_unsynced_append_is_the_synced_one_without_fsync(
        tmp_path, fsyncs, spec, result, ops):
    spec = "" if spec == "none" else spec
    synced = _append_after_preface(tmp_path / "s", spec, True)
    n = len(fsyncs)
    assert (n > 0) == (not spec.startswith("enospc"))
    unsynced = _append_after_preface(tmp_path / "u", spec, False)
    assert len(fsyncs) == n                  # not one fsync
    assert unsynced == synced                # same faults, ticks, bytes
    out, n_ops, data, counters = unsynced
    assert out == result
    # Each attempt is one tick (a torn one also ticks its repair).
    assert {dict(lbl)["op"]: v for name, lbl, v in counters
            if name == "service.storage.ops"} == ops
    assert n_ops == sum(ops.values())
    clean = b"preface\nhello-world\n"
    if spec.startswith("enospc"):
        assert data == b"preface\n"         # the file is unchanged
    elif spec.startswith("rot"):
        assert len(data) == len(clean)
        flips = [i for i in range(len(data)) if data[i] != clean[i]]
        assert len(flips) == 1 and flips[0] >= len(b"preface\n")
    else:
        assert data == clean                 # torn repaired, lie caught
    names = {name for name, _lbl, _v in counters}
    assert ("service.storage.torn_repaired" in names) == \
        spec.startswith("torn")
    assert ("service.storage.lies_detected" in names) == \
        spec.startswith("fsync-lie")


def test_unsynced_append_is_a_crash_boundary(tmp_path):
    st = ServiceStorage(crash_after=0)
    p = tmp_path / "j.jsonl"
    with pytest.raises(SimulatedCrash):
        st.append_line(str(p), "a\n", "journal", sync=False)
    assert not p.exists()


def test_sync_is_not_an_operation(tmp_path, fsyncs):
    p = tmp_path / "j.jsonl"
    p.write_bytes(b"a\n")
    st = ServiceStorage(crash_after=0,
                        faults=ActiveFaults(FaultPlan.parse(
                            "enospc:0@journal"), seed=0))
    st.sync(str(p))                          # no tick, no fault, no crash
    assert st.ops == 0 and len(fsyncs) == 1
    with pytest.raises(SimulatedCrash):      # the crash is still pending
        st.append_line(str(p), "b\n", "journal", sync=False)
