"""Content-addressed result cache: verified reads, evict-and-recompute."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import MetricsRegistry
from repro.service import (
    RESULT_SCHEMA,
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


def _reference_entry(key, values, meta):
    """The entry text as ``put`` first wrote it: the body canonicalised
    once for its checksum and again, checksum included, for the file."""
    def canonical(payload):
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    body = {
        "schema": "repro.result/v1",
        "key": str(key),
        "meta": dict(meta),
        "values": [float(v) for v in np.asarray(values, dtype=np.float64)],
    }
    doc = dict(body)
    doc["checksum"] = hashlib.sha256(
        canonical(body).encode("utf-8")).hexdigest()
    return canonical(doc) + "\n"


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
        with open(cache.put(key, values, meta), encoding="utf-8") as fh:
            assert fh.read() == _reference_entry(key, values, meta)
        if np.isfinite(values).all():
            got, got_meta = cache.get(key)
            np.testing.assert_array_equal(got, values)
            assert got_meta == meta


def test_corrupt_entry_is_evicted_not_served(tmp_path):
    metrics = MetricsRegistry()
    cache = ResultCache(tmp_path, metrics=metrics)
    key = result_key("g" * 64, "sampling", [0], 0)
    path = cache.put(key, np.array([3.0, 4.0]), {"exact": True})

    doc = json.loads(_read(path))
    doc["values"][0] = 99.0  # rot at rest, checksum now stale
    _write(path, json.dumps(doc).encode("utf-8"))

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
    """One bit of a stored value digit: ``3.0`` reads ``2.0``."""
    at = data.index(b'"values":[3.0') + len(b'"values":[')
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _flip_checksum_hex(data: bytes) -> bytes:
    at = len(b'{"checksum":"')
    swap = b"0" if data[at:at + 1] != b"0" else b"1"
    return data[:at] + swap + data[at + 1:]


def _invalid_utf8(data: bytes) -> bytes:
    at = data.index(b'"exact"')
    return data[:at + 1] + b"\xff" + data[at + 2:]


def _redumped(data: bytes) -> bytes:
    """Valid JSON, semantic checksum intact, default separators."""
    return (json.dumps(json.loads(data), sort_keys=True) + "\n").encode()


CORRUPTIONS = [
    ("body-bit-flip", _flip_in_values, "checksum"),
    ("checksum-hex-flip", _flip_checksum_hex, "checksum"),
    ("truncated", lambda data: data[:len(data) // 2], "unreadable"),
    ("torn-write", lambda data: data[:-3], "unreadable"),
    ("invalid-utf8", _invalid_utf8, "unreadable"),
    ("empty", lambda data: b"", "unreadable"),
    ("non-canonical-layout", _redumped, "checksum"),
    ("no-trailing-newline", lambda data: data[:-1], "checksum"),
    ("leading-space", lambda data: b" " + data, "checksum"),
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


# -- property: the stored-bytes check never accepts more than the
# -- re-serialising check it replaced ------------------------------------

def _reserialising_intact(path, key) -> bool:
    """The verified read before the stored-bytes check: parse, then
    re-serialise the body and compare its SHA-256 with the stored one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return False
    if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
        return False
    if doc.get("key") != key or "checksum" not in doc:
        return False
    body = {k: v for k, v in doc.items() if k != "checksum"}
    try:
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest() \
            == doc["checksum"]
    except (TypeError, ValueError):
        return False


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
    path = cache.put(key, np.array(values, dtype=np.float64), meta)
    original = _read(path)
    mutated = _mutate(original, kind, at, byte)
    _write(path, mutated)

    doc, fault = cache._load(key)
    old_ok = _reserialising_intact(path, key)
    if fault is None:
        assert mutated == original and old_ok
        served = np.asarray(doc["values"], dtype=np.float64)
        stored = np.asarray(json.loads(original)["values"], dtype=np.float64)
        assert served.tobytes() == stored.tobytes()
        assert cache.verify(key)
        return
    assert mutated != original
    try:
        json.loads(mutated.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        assert fault == "unreadable"
    else:
        # Every parsable rejection, the layout-only ones included.
        assert fault == "checksum"
