"""ServiceStorage: each fault kind's durable-write semantics, and the
crash_after op counter the storage crash grid walks."""

from __future__ import annotations

import pytest

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
