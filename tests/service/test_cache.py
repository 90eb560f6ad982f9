"""Content-addressed result cache: verified reads, evict-and-recompute."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import MetricsRegistry
from repro.service import (
    BCService,
    JobSpec,
    ResultCache,
    result_key,
)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def test_key_is_deterministic_and_sensitive():
    roots = np.array([1, 3, 5])
    k = result_key("g" * 64, "sampling", roots, 0)
    assert k == result_key("g" * 64, "sampling", roots, 0)
    assert k != result_key("h" * 64, "sampling", roots, 0)
    assert k != result_key("g" * 64, "hybrid", roots, 0)
    assert k != result_key("g" * 64, "sampling", roots[:-1], 0)
    assert k != result_key("g" * 64, "sampling", roots, 1)
    # a degraded estimate is a different artifact, never a collision
    assert k != result_key("g" * 64, "sampling", roots, 0,
                           degraded="overload")


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "results")
    values = np.array([0.0, 1.5, 2.25])
    key = result_key("g" * 64, "sampling", [0, 1], 0)
    cache.put(key, values, {"exact": True, "job_id": "j1"})
    got, meta = cache.get(key)
    np.testing.assert_array_equal(got, values)
    assert meta["exact"] is True
    assert cache.verify(key)


def test_put_is_idempotent_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    key = result_key("g" * 64, "sampling", [2], 7)
    p = cache.put(key, np.array([1.0]), {"exact": True})
    first = _read(p)
    cache.put(key, np.array([1.0]), {"exact": True})
    assert _read(p) == first


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _reference_entry(key, values, meta) -> bytes:
    """The entry bytes by a second route: the value bytes packed one
    float at a time, the header hashed with them, then the header
    document canonicalised again with its checksum included."""
    payload = b"".join(struct.pack("<d", float(v)) for v in values)
    header = {
        "schema": "repro.result/v2",
        "key": str(key),
        "meta": dict(meta),
        "count": len(values),
    }
    body = _canonical(header).encode("utf-8") + b"\n" + payload
    doc = dict(header, checksum=hashlib.sha256(body).hexdigest())
    return _canonical(doc).encode("utf-8") + b"\n" + payload


def test_put_bytes_match_the_two_pass_encoding(tmp_path):
    cache = ResultCache(tmp_path)
    cases = [
        (np.array([0.0, 1.5, 2.25]), {"exact": True, "job_id": "j1"}),
        (np.array([]), {}),
        (np.array([-0.0, 1e300, 5e-324, 0.1 + 0.2, 123456789.0]),
         {"zz": [1, 2.5, None], "aa": {"b": "ü", "a": False}}),
        (np.arange(7, dtype=np.int64), {"strategy": "hybrid", "roots": 7}),
        (np.array([np.inf, -np.inf, np.nan]), {"degraded": "overload"}),
    ]
    for i, (values, meta) in enumerate(cases):
        key = result_key("g" * 64, "sampling", [i], i)
        assert _read(cache.put(key, values, meta)) \
            == _reference_entry(key, values, meta)
        got, got_meta = cache.get(key)
        assert got.tobytes() == np.asarray(values, np.float64).tobytes()
        assert got_meta == meta


def test_put_get_round_trip_is_bit_exact(tmp_path):
    cache = ResultCache(tmp_path)
    nan_payload = np.array([0x7FF8_0000_0000_0123, 0xFFF0_0000_0000_0001],
                           dtype=np.uint64).view(np.float64)
    floats = np.concatenate([nan_payload, [np.nan, np.inf, -np.inf, -0.0,
                                           0.0, 5e-324, -5e-324, 2.0 ** -1030,
                                           np.finfo(np.float64).max]])
    ints = np.array([0, -1, 2 ** 53 + 1, -(2 ** 62), 7], dtype=np.int64)
    for i, values in enumerate((floats, ints)):
        key = result_key("g" * 64, "sampling", [i], 0)
        cache.put(key, values, {"exact": True})
        got, _ = cache.get(key)
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == values.astype(np.float64).tobytes()
        got[0] = 1.0            # an owned array: the cache keeps nothing
        assert cache.get(key)[0].tobytes() \
            == values.astype(np.float64).tobytes()


def _value_offset(data: bytes) -> int:
    return data.index(b"\n") + 1


def test_corrupt_entry_is_evicted_not_served(tmp_path):
    metrics = MetricsRegistry()
    cache = ResultCache(tmp_path, metrics=metrics)
    key = result_key("g" * 64, "sampling", [0], 0)
    path = cache.put(key, np.array([3.0, 4.0]), {"exact": True})

    data = _read(path)
    at = _value_offset(data)
    # rot at rest: the first value now reads 99.0, checksum stale
    _write(path, data[:at] + struct.pack("<d", 99.0) + data[at + 8:])

    assert cache.get(key) is None  # never served
    assert not (tmp_path / path).exists() or not cache.verify(key)
    evicted = [c for c in metrics.counters()
               if c.name == "service.cache.corrupt_evicted"]
    assert evicted and evicted[0].value == 1

    # recompute heals: same key, same content, verifies again
    cache.put(key, np.array([3.0, 4.0]), {"exact": True})
    got, _ = cache.get(key)
    np.testing.assert_array_equal(got, [3.0, 4.0])


def test_unreadable_entry_is_evicted(tmp_path):
    cache = ResultCache(tmp_path)
    key = result_key("g" * 64, "sampling", [0], 0)
    path = cache.put(key, np.array([1.0]), {"exact": True})
    _write(path, b"not json{")
    assert cache.get(key) is None
    assert cache.get(key) is None  # second read is a plain miss


# -- the verified read: a corruption matrix ------------------------------

def _flip_in_values(data: bytes) -> bytes:
    """One bit of the first stored value's lowest byte."""
    at = _value_offset(data)
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _flip_checksum_hex(data: bytes) -> bytes:
    at = len(b'{"checksum":"')
    swap = b"0" if data[at:at + 1] != b"0" else b"1"
    return data[:at] + swap + data[at + 1:]


def _invalid_utf8(data: bytes) -> bytes:
    at = data.index(b'"exact"')
    return data[:at + 1] + b"\xff" + data[at + 2:]


def _redumped(data: bytes) -> bytes:
    """The header as valid JSON with the same content, checksum
    included, but default separators; the value bytes untouched."""
    at = _value_offset(data)
    head = json.dumps(json.loads(data[:at]), sort_keys=True) + "\n"
    return head.encode("utf-8") + data[at:]


def _count_off(data: bytes) -> bytes:
    """The header claims three values over two values' bytes."""
    assert data.count(b'"count":2,') == 1
    return data.replace(b'"count":2,', b'"count":3,')


# Each row: a corruption of a two-value entry, and the reason its
# eviction is counted under.  "unreadable": the bytes cannot be decoded
# in the layout; "checksum": they decode but are not what put wrote.
CORRUPTIONS = [
    # a value byte flips: the values hash differently
    ("body-bit-flip", _flip_in_values, "checksum"),
    # the stored hex no longer matches the bytes
    ("checksum-hex-flip", _flip_checksum_hex, "checksum"),
    # cut mid-header: no newline ends the header
    ("truncated", lambda data: data[:data.index(b"\n") // 2],
     "unreadable"),
    # a torn write cut mid-value: not whole float64s
    ("torn-write", lambda data: data[:-3], "unreadable"),
    # the header is not UTF-8
    ("invalid-utf8", _invalid_utf8, "unreadable"),
    # nothing at all: no header
    ("empty", lambda data: b"", "unreadable"),
    # valid JSON, same content, another spelling: not the layout
    ("non-canonical-layout", _redumped, "checksum"),
    # the newline ending the header is gone: no header
    ("no-header-newline", lambda data: data.replace(b"\n", b"", 1),
     "unreadable"),
    # JSON allows the space, the layout does not
    ("leading-space", lambda data: b" " + data, "checksum"),
    # whole value bytes, but not count of them
    ("count-mismatch", _count_off, "checksum"),
]


def _evictions(metrics) -> dict:
    return {c.labels["reason"]: c.value for c in metrics.counters()
            if c.name == "service.cache.corrupt_evicted"}


@pytest.mark.parametrize("mutate, reason",
                         [c[1:] for c in CORRUPTIONS],
                         ids=[c[0] for c in CORRUPTIONS])
def test_corruption_is_evicted_with_its_reason(tmp_path, mutate, reason):
    metrics = MetricsRegistry()
    cache = ResultCache(tmp_path, metrics=metrics)
    key = result_key("g" * 64, "sampling", [0], 0)
    path = cache.put(key, np.array([3.0, 4.0]), {"exact": True})
    original = _read(path)
    _write(path, mutate(original))
    assert not cache.verify(key)
    assert os.path.exists(path)            # verify never evicts
    assert cache.get(key) is None
    assert not os.path.exists(path)
    assert _evictions(metrics) == {reason: 1}
    assert key not in cache
    # recompute heals to the same bytes
    cache.put(key, np.array([3.0, 4.0]), {"exact": True})
    assert _read(path) == original and cache.verify(key)


def test_wrong_key_in_body_rejected(tmp_path):
    metrics = MetricsRegistry()
    cache = ResultCache(tmp_path, metrics=metrics)
    k1 = result_key("g" * 64, "sampling", [0], 0)
    k2 = result_key("g" * 64, "sampling", [1], 0)
    path1 = cache.put(k1, np.array([1.0]), {"exact": True})
    os.makedirs(os.path.dirname(cache.path(k2)), exist_ok=True)
    shutil.copy(path1, cache.path(k2))  # entry claims to be k1
    assert not cache.verify(k2)
    assert cache.get(k2) is None
    assert _evictions(metrics) == {"checksum": 1}
    assert cache.verify(k1)  # the real entry is untouched


def test_service_heals_a_non_canonical_entry(tmp_path):
    metrics = MetricsRegistry()
    spec = JobSpec(job_id="j000001", graph="smallworld", scale_factor=512,
                   strategy="sampling", roots=4, seed=1)
    with BCService(tmp_path / "svc", metrics=metrics) as svc:
        svc.submit(spec)
        svc.run_pending()
        ref_values, ref_meta = svc.result(spec.job_id)
        path = svc.cache.path(svc.jobs[spec.job_id].result_key)
        original = _read(path)
        _write(path, _redumped(original))
        healed = [c for c in metrics.counters()
                  if c.name == "service.results_healed"]
        assert not healed
        values, meta = svc.result(spec.job_id)
        np.testing.assert_array_equal(values, ref_values)
        assert meta == ref_meta
        healed = [c for c in metrics.counters()
                  if c.name == "service.results_healed"]
        assert [c.value for c in healed] == [1]
        assert _evictions(metrics) == {"checksum": 1}
        assert _read(path) == original


def _v1_entry(key, values, meta) -> bytes:
    """An entry in the JSON layout an older service wrote
    (``repro.result/v1``): the values as a JSON list, the checksum over
    the canonical body."""
    body = {"schema": "repro.result/v1", "key": key, "meta": meta,
            "values": [float(v) for v in values]}
    doc = dict(body, checksum=hashlib.sha256(
        _canonical(body).encode("utf-8")).hexdigest())
    return (_canonical(doc) + "\n").encode("utf-8")


def test_service_heals_a_v1_entry_to_v2_bytes(tmp_path):
    metrics = MetricsRegistry()
    spec = JobSpec(job_id="j000001", graph="smallworld", scale_factor=512,
                   strategy="sampling", roots=4, seed=1)
    with BCService(tmp_path / "svc", metrics=metrics) as svc:
        svc.submit(spec)
        svc.run_pending()
        key = svc.jobs[spec.job_id].result_key
        ref_values, ref_meta = svc.result(spec.job_id)
        path = svc.cache.path(key)
        original = _read(path)
        _write(path, _v1_entry(key, ref_values, ref_meta))
        assert not svc.cache.verify(key)
        values, meta = svc.result(spec.job_id)
        assert values.tobytes() == ref_values.tobytes()
        assert meta == ref_meta
        healed = [c.value for c in metrics.counters()
                  if c.name == "service.results_healed"]
        assert healed == [1]
        assert _evictions(metrics) == {"checksum": 1}
        assert _read(path) == original


# -- property: of every flip, insertion and truncation, the verified
# -- read accepts only put's own bytes --------------------------------

def _expected_fault(data: bytes) -> str:
    """The reason a rejected entry is evicted under, from the layout:
    ``unreadable`` unless a UTF-8 JSON header line is followed by whole
    float64s."""
    head, newline, values = data.partition(b"\n")
    try:
        json.loads(head.decode("utf-8"))
    except ValueError:
        return "unreadable"
    if not newline or len(values) % 8:
        return "unreadable"
    return "checksum"


def _mutate(data: bytes, kind: str, at: int, byte: int) -> bytes:
    at %= len(data) + 1
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (1 << (byte % 8))]) \
            + data[at + 1:]
    if kind == "insert":
        return data[:at] + bytes([byte]) + data[at:]
    if kind == "truncate":
        return data[:at]
    return data


_VALUE = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf")])


@pytest.fixture(scope="module")
def property_cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("property"))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_VALUE, max_size=12),
       meta=st.dictionaries(st.sampled_from(["job_id", "exact", "ü"]),
                            st.none() | st.booleans() | st.text(max_size=4),
                            max_size=3),
       kind=st.sampled_from(["none", "flip", "insert", "truncate"]),
       at=st.integers(min_value=0, max_value=1 << 16),
       byte=st.integers(min_value=0, max_value=255))
def test_stored_bytes_check_accepts_a_subset(property_cache, values, meta,
                                             kind, at, byte):
    cache = property_cache
    key = result_key("p" * 64, "sampling", [len(values)], 0)
    stored = np.array(values, dtype=np.float64)
    path = cache.put(key, stored, meta)
    original = _read(path)
    mutated = _mutate(original, kind, at, byte)
    _write(path, mutated)

    entry, fault = cache._load(key)
    if fault is None:
        assert mutated == original
        served, served_meta = entry
        assert served.tobytes() == stored.tobytes()
        assert served_meta == meta
        assert cache.verify(key)
        return
    assert mutated != original
    assert fault == _expected_fault(mutated)
