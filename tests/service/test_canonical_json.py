"""The service's one canonical JSON text keeps the bytes it always had.

Content keys, result keys and journal lines are persisted or hashed, so
their exact text is part of the on-disk contract; these are pinned to
values recorded before the three call sites shared one helper.
"""

import hashlib
from dataclasses import fields, replace

from repro.service import JobSpec, result_key
from repro.service.jobs import canonical_json
from repro.service.journal import encode_record


def test_canonical_json_sorts_keys_without_spaces():
    assert canonical_json({"b": [1, 2.5], "a": None, "ü": True}) \
        == '{"a":null,"b":[1,2.5],"\\u00fc":true}'


def test_content_key_is_pinned():
    spec = JobSpec(job_id="j000001", graph="kron_g500-logn20",
                   scale_factor=512, graph_seed=3, strategy="hybrid",
                   roots=4, seed=11)
    assert spec.content_key() == (
        "27534cc5c3e479c636159bf9b21228811c7ed7dc89583a55127f65d646f838b5")


def _fresh_content_key(spec) -> str:
    payload = {k: v for k, v in spec.to_dict().items()
               if k not in ("job_id", "tenant")}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def test_memoised_content_key_follows_every_field():
    base = JobSpec(job_id="j000001", graph="kron_g500-logn20",
                   scale_factor=512, graph_seed=3, strategy="hybrid",
                   roots=4, seed=11)
    changed = {"job_id": "j000002", "graph": "smallworld",
               "scale_factor": 256, "graph_seed": 4, "strategy": "sampling",
               "roots": 5, "seed": 12, "tenant": "acme",
               "deadline_seconds": 2.5, "allow_degrade": False,
               "fold": False, "faults": "oom:0x1"}
    assert set(changed) == {f.name for f in fields(JobSpec)}
    key = base.content_key()
    assert key == base.content_key() == _fresh_content_key(base)
    for name, value in changed.items():
        spec = replace(base, **{name: value})
        assert spec.content_key() == spec.content_key() \
            == _fresh_content_key(spec), name
        assert (spec.content_key() == key) == (name in ("job_id", "tenant"))
        for job_id in ("", "j9", "c0123456789ab"):
            # with or without a memo to carry, the id never moves it
            assert spec.with_id(job_id).content_key() == spec.content_key()
            assert replace(spec, job_id=job_id).with_id("x").content_key() \
                == _fresh_content_key(spec)


def test_result_key_is_pinned():
    key = result_key("ab" * 32, "sampling", [3, 1, 4], 7,
                     degraded="overload", fold_digest="cd" * 32)
    assert key == (
        "c27fa8565e2f4307f7534b75dcb4378fb083e2201d9bf740bb282a3effa15bf9")


def test_journal_line_is_pinned():
    line = encode_record({"kind": "done", "job_id": "j000001", "attempt": 2,
                          "values": [0.5, -1.0], "note": "ü", "z": None})
    assert line == ('a63cfe51 {"attempt":2,"job_id":"j000001","kind":"done",'
                    '"note":"\\u00fc","values":[0.5,-1.0],"z":null}\n')
