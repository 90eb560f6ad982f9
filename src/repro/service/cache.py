"""Content-addressed, checksum-verified, byte-budgeted result cache.

Results are keyed by what *determines* them — the graph's content
digest, the strategy, the exact root set, the seed, and the degradation
state — so repeated queries are free and recomputation after a crash is
idempotent: the same job always lands on the same path with the same
bytes.

Every entry (schema ``repro.result/v2``) embeds a SHA-256 checksum of
its header and values.  :meth:`ResultCache.get` re-verifies it on every
read: an entry that rotted at rest (bit-flip, partial write outside the
atomic rename path, manual tampering) is **evicted and recomputed**,
never served — the same never-silently-wrong contract the ABFT layer
gives in-flight data.  Writes go through a temp file + ``os.replace``
(via :class:`~repro.service.storage.ServiceStorage`, so injected disk
faults and simulated crashes strike them) so a crash can leave at most
a stray temp file, never a half-written entry at the final path.

An entry's bytes have one layout, which :meth:`ResultCache.put` writes
and one load-and-verify routine reads (``get`` and ``verify`` both go
through it): a one-line JSON header, then the values as raw
little-endian float64::

    {"checksum":"<64 hex>",<canonical header body without its "{">\n
    <8 * count value bytes>

The header body is the canonical JSON (:func:`~repro.service.jobs.
canonical_json`) of ``schema``, ``key``, ``meta`` and ``count``, and
the checksum is the SHA-256 of ``"{"`` plus every stored byte after
the 79-byte head — the header body, its newline and the value bytes, in
one contiguous slice.  Because ``"checksum"`` sorts before every header
key, the header line is also the canonical document of header plus
checksum; canonical JSON never contains a raw newline, so the first
newline always ends it.  Values are neither printed nor parsed: the
write is ``tobytes`` and the read ``frombuffer``, so every float64 —
NaN payloads, ±inf, −0.0 and subnormals included — round-trips
bit-exactly.

The read decodes only the header, strictly as UTF-8, and classifies a
bad entry as ``unreadable`` when its bytes cannot be decoded in this
layout — no newline (empty, or cut mid-header), a header that is not
UTF-8 JSON, or value bytes that are not whole float64s (cut
mid-value) — and as ``checksum`` when they decode but are not what
``put`` wrote for this key: wrong schema or key, a ``count`` that
disagrees with the value bytes, a head not in the canonical layout, or
a stored checksum the bytes do not hash to.  No header is ever
re-serialised on the read path, so a header re-dumped in any other
JSON spelling is rejected even when it means the same thing — ``put``
never writes one, and it is evicted and recomputed like any other
damaged entry.  An entry in an older schema (``repro.result/v1``, the
JSON layout) fails the schema check the same way.

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

RESULT_SCHEMA = "repro.result/v2"

# An entry's head: _HEAD, the SHA-256 as 64 hex digits, _SEP.  The
# canonical header body after its opening brace, a newline and the
# value bytes follow; the checksum covers "{" plus all of them.
_HEAD = b'{"checksum":"'
_SEP = b'",'
_SEP_AT = len(_HEAD) + 64
_BODY_AT = _SEP_AT + len(_SEP)
_VALUE = np.dtype("<f8")


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
    """Directory of checksummed ``repro.result/v2`` entries.

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
        """Entry path; two-char fan-out keeps directories small.  The
        ``.json`` name predates the binary layout and is kept so an
        older service's entries are found, failed and evicted."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    @staticmethod
    def _checksum(*chunks) -> bytes:
        """An entry's stored checksum: the SHA-256 hex digits, as ASCII,
        of ``chunks`` — ``"{"`` plus every byte after the head."""
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        return h.hexdigest().encode("ascii")

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
        values = np.ascontiguousarray(values, _VALUE)
        header = {
            "schema": RESULT_SCHEMA,
            "key": str(key),
            "meta": dict(meta),
            "count": values.size,
        }
        payload = values.tobytes()
        body = canonical_json(header).encode("utf-8")
        # The header line is the canonical document of header plus
        # checksum only while "checksum" sorts before every header key.
        assert "checksum" < min(header)
        checksum = self._checksum(body, b"\n", payload)
        data = b"".join((_HEAD, checksum, _SEP, body[1:], b"\n", payload))
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            self.storage.replace_atomic(path, data, "cache")
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            self.metrics.inc("service.cache.enospc")
            self.evict_lru(want_free=len(data))
            try:
                self.storage.replace_atomic(path, data, "cache")
            except OSError as exc2:
                if exc2.errno != errno.ENOSPC:
                    raise
                raise StorageFullError(path, "cache put",
                                       attempts=2) from exc2
        if key in self._sizes:
            del self._sizes[key]
        self._sizes[key] = len(data)
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
        entry, fault = self._load(key)
        if fault == "missing":
            self.metrics.inc("service.cache.misses")
            self._sizes.pop(key, None)
            return None
        if fault is not None:
            self._evict(key, fault)
            return None
        self._touch(key)
        self.metrics.inc("service.cache.hits")
        return entry

    def verify(self, key: str) -> bool:
        """Whether the entry exists and passes its checksum (no evict)."""
        return self._load(key)[1] is None

    def _load(self, key: str):
        """Read and verify one entry: ``((values, meta), None)``, or
        ``(None, fault)`` with ``fault`` one of ``"missing"``,
        ``"unreadable"`` (I/O error, no header newline, a header that
        is not UTF-8 JSON, value bytes that are not whole float64s) or
        ``"checksum"`` (wrong schema or key, a ``count`` the value bytes
        disagree with, a head not in the layout :meth:`put` writes, or
        bytes that do not hash to the stored checksum).

        The read is one raw descriptor: ``os.open``, then ``os.read``
        sized by ``os.fstat`` one byte past the end, looping to EOF (an
        entry that grew since the fstat is read whole), closed in a
        ``finally``.  No buffered file object is built."""
        try:
            fd = os.open(self.path(key), os.O_RDONLY)
        except FileNotFoundError:
            return None, "missing"
        except OSError:
            return None, "unreadable"
        try:
            want = os.fstat(fd).st_size + 1
            data = os.read(fd, want)
            while more := os.read(fd, want):
                data += more
        except OSError:
            return None, "unreadable"
        finally:
            os.close(fd)
        end = data.find(b"\n")
        size = len(data) - end - 1
        if end < 0 or size % _VALUE.itemsize:
            return None, "unreadable"
        try:
            # Strict UTF-8: json.loads on bytes would guess at UTF-16/32.
            header = json.loads(data[:end].decode("utf-8"))
        except ValueError:      # JSONDecodeError, UnicodeDecodeError
            return None, "unreadable"
        if (not isinstance(header, dict)
                or header.get("schema") != RESULT_SCHEMA
                or header.get("key") != key
                or header.get("count") != size // _VALUE.itemsize
                or not data.startswith(_HEAD)
                or data[_SEP_AT:_BODY_AT] != _SEP
                or self._checksum(b"{", memoryview(data)[_BODY_AT:])
                != data[len(_HEAD):_SEP_AT]):
            return None, "checksum"
        values = np.frombuffer(data, _VALUE, offset=end + 1)
        return (values.astype(np.float64), header["meta"]), None

    def _evict(self, key: str, reason: str) -> None:
        try:
            os.remove(self.path(key))
        except OSError:
            pass
        self._sizes.pop(key, None)
        self.metrics.inc("service.cache.corrupt_evicted", reason=reason)
