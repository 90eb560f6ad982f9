"""Content-addressed result cache: verified reads, evict-and-recompute."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.observability import MetricsRegistry
from repro.service import ResultCache, result_key


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
    first = open(p, "rb").read()
    cache.put(key, np.array([1.0]), {"exact": True})
    assert open(p, "rb").read() == first


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

    doc = json.loads(open(path, encoding="utf-8").read())
    doc["values"][0] = 99.0  # rot at rest, checksum now stale
    open(path, "w", encoding="utf-8").write(json.dumps(doc))

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
    open(path, "w").write("not json{")
    assert cache.get(key) is None
    assert cache.get(key) is None  # second read is a plain miss


def test_wrong_key_in_body_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    k1 = result_key("g" * 64, "sampling", [0], 0)
    k2 = result_key("g" * 64, "sampling", [1], 0)
    path1 = cache.put(k1, np.array([1.0]), {"exact": True})
    import os
    import shutil
    os.makedirs(os.path.dirname(cache.path(k2)), exist_ok=True)
    shutil.copy(path1, cache.path(k2))  # entry claims to be k1
    assert cache.get(k2) is None
