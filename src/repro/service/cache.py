"""Content-addressed, checksum-verified, byte-budgeted result cache.

Results are keyed by what *determines* them — the graph's content
digest, the strategy, the exact root set, the seed, and the degradation
state — so repeated queries are free and recomputation after a crash is
idempotent: the same job always lands on the same path with the same
bytes.

Every entry (schema ``repro.result/v1``) embeds a SHA-256 checksum of
its canonical body.  :meth:`ResultCache.get` re-verifies it on every
read: an entry that rotted at rest (bit-flip, partial write outside the
atomic rename path, manual tampering) is **evicted and recomputed**,
never served — the same never-silently-wrong contract the ABFT layer
gives in-flight data.  Writes go through a temp file + ``os.replace``
(via :class:`~repro.service.storage.ServiceStorage`, so injected disk
faults and simulated crashes strike them) so a crash can leave at most
a stray temp file, never a half-written entry at the final path.

An entry's bytes have one layout, which :meth:`ResultCache.put` writes
and one load-and-verify routine reads (``get`` and ``verify`` both go
through it)::

    {"checksum":"<64 hex>",<canonical body without its "{">\n

The body is the canonical JSON (:func:`~repro.service.jobs.
canonical_json`) of ``schema``, ``key``, ``meta`` and ``values``, and
the checksum is the SHA-256 of its UTF-8 bytes; because ``"checksum"``
sorts before every body key, the whole entry is also the canonical
document of body plus checksum.  The read decodes the file strictly as
UTF-8 and parses it (failure: evicted as ``unreadable``), checks
``schema`` and ``key``, then hashes ``"{"`` plus the stored bytes after
the layout's head, without the trailing newline, and compares that
with the stored hex (mismatch or any other layout: ``checksum``).  No
body is ever re-serialised on the read path.  This accepts a subset of
what re-serialising the parsed document would: an entry ``put`` wrote
hashes identically either way, and the only extra rejection is a file
that is valid JSON with a right semantic checksum but not in the
canonical layout — something ``put`` never writes, so it is evicted
and recomputed like any other damaged entry.

With ``max_bytes`` set the cache is an **LRU under a byte budget**:

* every put/get refreshes the entry's recency; on restart the order is
  rebuilt from file mtimes (approximate recency is fine — eviction
  only affects *cost*, never correctness, because every entry is
  recomputable from its journal record);
* :meth:`pin`/:meth:`unpin` protect entries eviction must not touch —
  the daemon pins a key while its job is in flight or its ``done``
  record still needs the bytes for recovery verification;
* eviction deletes least-recently-used **unpinned** entries until the
  budget holds, and doubles as the ``ENOSPC`` reclaim path: a put that
  hits a full disk evicts and retries once before raising the typed
  :class:`~repro.errors.StorageFullError`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os

import numpy as np

from ..errors import StorageFullError
from ..observability.registry import NULL_REGISTRY
from .jobs import canonical_json
from .storage import ServiceStorage

__all__ = ["RESULT_SCHEMA", "ResultCache", "result_key"]

RESULT_SCHEMA = "repro.result/v1"

# An entry's layout: _HEAD, the body's SHA-256 as 64 hex digits, _SEP,
# the canonical body after its opening brace, a newline.
_HEAD = '{"checksum":"'
_SEP = '",'
_SEP_AT = len(_HEAD) + 64
_BODY_AT = _SEP_AT + len(_SEP)
_HEAD_BYTES = _HEAD.encode("ascii")
_SEP_BYTES = _SEP.encode("ascii")


def result_key(graph_digest: str, strategy: str, roots, seed: int,
               *, degraded: str | None = None,
               fold_digest: str | None = None) -> str:
    """SHA-256 key of one result's full determinants.

    ``degraded`` distinguishes a flagged sampled estimate from the exact
    result of the same query — they are different artifacts and must
    never collide.  ``fold_digest`` (the
    :meth:`~repro.bc.preprocess.FoldResult.digest` of the degree-1
    preprocess, ``None`` when the job runs unfolded) is a determinant
    for the same reason: folded and unfolded runs of one query produce
    equal values by different computations, and a change to the
    preprocessing must miss, never serve stale bytes.
    """
    roots = np.asarray(roots, dtype=np.int64)
    h = hashlib.sha256()
    h.update(canonical_json({
        "graph": str(graph_digest),
        "strategy": str(strategy),
        "seed": int(seed),
        "degraded": degraded,
        "fold": fold_digest,
        "num_roots": int(roots.size),
    }).encode("utf-8"))
    h.update(roots.tobytes())
    return h.hexdigest()


class ResultCache:
    """Directory of checksummed ``repro.result/v1`` entries.

    ``max_bytes=None`` (default) disables the budget — the cache only
    grows, exactly the original behaviour.
    """

    def __init__(self, root, metrics=None, storage=None,
                 max_bytes: int | None = None):
        self.root = str(root)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.storage = storage if storage is not None else ServiceStorage()
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        os.makedirs(self.root, exist_ok=True)
        self._pinned: set = set()
        # key -> bytes, in recency order (oldest first).  Python dicts
        # preserve insertion order; refreshing = delete + reinsert.
        self._sizes: dict = {}
        self._scan()

    def _scan(self) -> None:
        """Rebuild sizes + approximate recency (mtime) after restart."""
        found = []
        for fan in sorted(os.listdir(self.root)):
            sub = os.path.join(self.root, fan)
            if not os.path.isdir(sub):
                continue
            for name in sorted(os.listdir(sub)):
                if not name.endswith(".json"):
                    continue
                full = os.path.join(sub, name)
                try:
                    st = os.stat(full)
                except OSError:
                    continue
                found.append((st.st_mtime, name[:-5], st.st_size))
        for _mtime, key, size in sorted(found):
            self._sizes[key] = size

    def path(self, key: str) -> str:
        """Entry path; two-char fan-out keeps directories small."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    @staticmethod
    def _checksum(body: bytes) -> str:
        """SHA-256 hex of an entry's canonical body bytes (no checksum
        key)."""
        return hashlib.sha256(body).hexdigest()

    # -- budget accounting ---------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes currently accounted to cache entries."""
        return sum(self._sizes.values())

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: str) -> bool:
        return key in self._sizes

    def _touch(self, key: str) -> None:
        if key in self._sizes:
            self._sizes[key] = self._sizes.pop(key)

    def pin(self, key: str) -> None:
        """Protect ``key`` from eviction (in-flight / recovery-needed)."""
        self._pinned.add(str(key))

    def unpin(self, key: str) -> None:
        self._pinned.discard(str(key))

    @property
    def pinned(self) -> frozenset:
        return frozenset(self._pinned)

    def evict_lru(self, want_free: int | None = None) -> int:
        """Delete least-recently-used unpinned entries; returns bytes
        freed.

        With ``want_free`` set, frees at least that many bytes (or
        every unpinned entry trying); otherwise frees until the byte
        budget holds.  Deletions go through the storage layer so the
        crash grid can kill the process mid-evict — a half-finished
        eviction just leaves fewer entries, all of them still intact.
        """
        freed = 0
        for key in list(self._sizes):
            if want_free is not None:
                if freed >= want_free:
                    break
            elif self.max_bytes is None or self.total_bytes <= self.max_bytes:
                break
            if key in self._pinned:
                continue
            size = self._sizes[key]
            self.storage.remove(self.path(key), "cache")
            del self._sizes[key]
            freed += size
            self.metrics.inc("service.cache.evicted", reason="budget")
        return freed

    # -- entries -------------------------------------------------------
    def put(self, key: str, values: np.ndarray, meta: dict) -> str:
        """Atomically materialise one result; returns its path.

        Writing the same key again (crash-recovery recomputation) is a
        no-op overwrite with identical bytes — exactly-once semantics by
        content addressing rather than by locking.  On ``ENOSPC`` the
        cache evicts LRU unpinned entries and retries once, then raises
        :class:`StorageFullError` with nothing half-written.
        """
        body = {
            "schema": RESULT_SCHEMA,
            "key": str(key),
            "meta": dict(meta),
            "values": np.asarray(values, dtype=np.float64).tolist(),
        }
        body_text = canonical_json(body)
        # The canonical document is the body plus its checksum; the
        # splice below is that document only while "checksum" sorts
        # before every body key.
        assert "checksum" < min(body)
        checksum = self._checksum(body_text.encode("utf-8"))
        text = f"{_HEAD}{checksum}{_SEP}{body_text[1:]}\n"
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            self.storage.replace_atomic(path, text, "cache")
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            self.metrics.inc("service.cache.enospc")
            self.evict_lru(want_free=len(text.encode("utf-8")))
            try:
                self.storage.replace_atomic(path, text, "cache")
            except OSError as exc2:
                if exc2.errno != errno.ENOSPC:
                    raise
                raise StorageFullError(path, "cache put",
                                       attempts=2) from exc2
        if key in self._sizes:
            del self._sizes[key]
        self._sizes[key] = len(text.encode("utf-8"))
        self.metrics.inc("service.cache.writes")
        if self.max_bytes is not None:
            self.evict_lru()
        return path

    def get(self, key: str):
        """Verified read: ``(values, meta)`` or ``None``.

        ``None`` means *recompute* — the entry does not exist, was
        evicted under the byte budget, or failed verification and was
        evicted (counted under ``service.cache.corrupt_evicted``).
        """
        doc, fault = self._load(key)
        if fault == "missing":
            self.metrics.inc("service.cache.misses")
            self._sizes.pop(key, None)
            return None
        if fault is not None:
            self._evict(key, fault)
            return None
        values = np.asarray(doc["values"], dtype=np.float64)
        self._touch(key)
        self.metrics.inc("service.cache.hits")
        return values, dict(doc["meta"])

    def verify(self, key: str) -> bool:
        """Whether the entry exists and passes its checksum (no evict)."""
        return self._load(key)[1] is None

    def _load(self, key: str):
        """Read and verify one entry: ``(doc, None)``, or ``(None,
        fault)`` with ``fault`` one of ``"missing"``, ``"unreadable"``
        (I/O error, bad UTF-8, not JSON) or ``"checksum"`` (wrong
        schema or key, not in the layout :meth:`put` writes, or the
        stored body does not hash to the stored checksum)."""
        try:
            with open(self.path(key), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None, "missing"
        except OSError:
            return None, "unreadable"
        try:
            # A flipped bit can land mid-multibyte sequence, so the
            # blob dies before JSON even sees it.
            doc = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "unreadable"
        if (not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA
                or doc.get("key") != key):
            return None, "checksum"
        if not (data.startswith(_HEAD_BYTES)
                and data[_SEP_AT:_BODY_AT] == _SEP_BYTES
                and data.endswith(b"\n")):
            return None, "checksum"
        body = b"{" + data[_BODY_AT:-1]
        if self._checksum(body).encode("ascii") != data[len(_HEAD):_SEP_AT]:
            return None, "checksum"
        return doc, None

    def _evict(self, key: str, reason: str) -> None:
        try:
            os.remove(self.path(key))
        except OSError:
            pass
        self._sizes.pop(key, None)
        self.metrics.inc("service.cache.corrupt_evicted", reason=reason)
