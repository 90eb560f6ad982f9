"""ServiceStorage's raw descriptors: short writes finished, no descriptor
left open on any path (faults and crashes included), and new files
created with the mode ``open()`` would give them."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.resilience import ActiveFaults, FaultPlan
from repro.service import ResultCache
from repro.service.storage import ServiceStorage, SimulatedCrash

pytestmark = pytest.mark.service

LINE = "a journal line long enough to need several short writes\n"
BLOB = bytes(range(256)) * 3


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def storage_for(spec: str, crash_after=None) -> ServiceStorage:
    faults = ActiveFaults(FaultPlan.parse(spec), seed=0) if spec else None
    return ServiceStorage(faults=faults, crash_after=crash_after)


# -- short writes ---------------------------------------------------------
@pytest.fixture
def shorten(monkeypatch):
    """Call it to make ``os.write`` land at most 7 bytes per call; it
    returns the list of lengths asked for."""
    def apply():
        calls, real_write = [], os.write

        def write(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "write", write)
        return calls
    return apply


def _append_twice(path, spec, sync):
    st = storage_for(spec)
    tries = [st.append_line(str(path), LINE, "journal", sync=sync)
             for _ in range(2)]
    return tries, st.ops, _read(path)


def _replace(path, spec):
    st = storage_for(spec)
    tries = st.replace_atomic(str(path), BLOB, "cache")
    return tries, st.ops, _read(path)


@pytest.mark.parametrize("spec", ["", "torn:0@journal", "fsync-lie:0@journal",
                                  "fsync-lie:1@journal"])
@pytest.mark.parametrize("sync", [True, False])
def test_short_writes_finish_an_append(tmp_path, shorten, spec, sync):
    whole = _append_twice(tmp_path / "whole", spec, sync)
    calls = shorten()
    short = _append_twice(tmp_path / "short", spec, sync)
    assert len(calls) >= 2 * -(-len(LINE) // 7)  # every write was short
    assert short == whole
    assert whole[2] == LINE.encode() * 2


@pytest.mark.parametrize("spec", ["", "torn:0@cache", "fsync-lie:0@cache"])
def test_short_writes_finish_a_replace(tmp_path, shorten, spec):
    whole = _replace(tmp_path / "whole", spec)
    calls = shorten()
    short = _replace(tmp_path / "short", spec)
    assert len(calls) >= -(-len(BLOB) // 7)
    assert short == whole
    assert whole[2] == BLOB


# -- no leaked descriptors --------------------------------------------------
FD_DIR = "/proc/self/fd"
needs_fd_dir = pytest.mark.skipif(not os.path.isdir(FD_DIR),
                                  reason="no /proc/self/fd to count")


def _open_fds() -> int:
    return len(os.listdir(FD_DIR))


@needs_fd_dir
def test_no_descriptor_outlives_many_operations(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("k" * 64, np.arange(4.0), {})
    journal = str(tmp_path / "journal.jsonl")
    before = _open_fds()
    for i in range(300):
        cache.storage.append_line(journal, LINE, "journal", sync=i % 2 == 0)
        cache.storage.replace_atomic(str(tmp_path / "spool"), BLOB, "spool")
        values, _meta = cache.get("k" * 64)
        assert values.tolist() == [0.0, 1.0, 2.0, 3.0]
    cache.storage.sync(journal)
    assert _open_fds() == before


@needs_fd_dir
def test_no_descriptor_outlives_a_failed_read(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "d" * 64
    os.makedirs(cache.path(key))              # a directory: read fails
    bad = "b" * 64
    cache.put(bad, np.arange(3.0), {})
    with open(cache.path(bad), "r+b") as fh:  # flip the last value byte
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    before = _open_fds()
    assert cache._load(key) == (None, "unreadable")
    assert cache._load(bad) == (None, "checksum")
    assert cache._load("m" * 64) == (None, "missing")
    assert _open_fds() == before


@needs_fd_dir
@pytest.mark.parametrize("kind", ["enospc", "torn", "fsync-lie", "rot"])
def test_no_descriptor_outlives_a_fault(tmp_path, kind):
    journal, blob = tmp_path / "j.jsonl", tmp_path / "blob"
    journal.write_bytes(b"preface\n")
    before = _open_fds()
    for path, op in ((journal, "append"), (blob, "replace")):
        st = storage_for(f"{kind}:0")
        try:
            if op == "append":
                st.append_line(str(path), LINE, "journal")
            else:
                st.replace_atomic(str(path), BLOB, "cache")
        except OSError:
            assert kind == "enospc"
        assert _open_fds() == before, (kind, op)


@needs_fd_dir
@pytest.mark.parametrize("spec, crash_after, op", [
    ("", 0, "append"),
    ("torn:0@journal", 1, "append"),       # dies at the repair, fd open
    ("", 1, "replace"),                    # dies at the rename
    ("torn:0@cache", 1, "replace"),        # dies removing the torn tmp
])
def test_no_descriptor_outlives_a_crash(tmp_path, spec, crash_after, op):
    path = tmp_path / "f"
    st = storage_for(spec, crash_after=crash_after)
    before = _open_fds()
    with pytest.raises(SimulatedCrash):
        if op == "append":
            st.append_line(str(path), LINE, "journal")
        else:
            st.replace_atomic(str(path), BLOB, "cache")
    assert _open_fds() == before
    if spec.startswith("torn") and op == "append":
        # The crash left the torn prefix for recovery to truncate.
        assert _read(path) == LINE.encode()[: len(LINE) // 2]


def test_a_lied_append_creates_no_file(tmp_path):
    # The buffered write path never opened the file for a lie; a crash
    # before the retry must still find no file.
    path = tmp_path / "new.jsonl"
    st = storage_for("fsync-lie:0@journal", crash_after=1)
    with pytest.raises(SimulatedCrash):
        st.append_line(str(path), LINE, "journal")
    assert not path.exists()


# -- file modes ---------------------------------------------------------
@pytest.mark.parametrize("mask", [0o000, 0o022, 0o077])
def test_new_files_get_the_mode_open_gives(tmp_path, mask):
    old = os.umask(mask)
    try:
        with open(tmp_path / "reference", "ab"):
            pass
        st = ServiceStorage()
        st.append_line(str(tmp_path / "journal"), LINE, "journal")
        st.replace_atomic(str(tmp_path / "entry"), BLOB, "cache")
    finally:
        os.umask(old)

    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

    assert mode("reference") == 0o666 & ~mask
    assert mode("journal") == mode("reference")
    assert mode("entry") == mode("reference")
