"""The single chokepoint for every durable service write.

:class:`ServiceStorage` is how the journal, the result cache, and the
spool touch the disk.  Routing all mutations through one object buys
three things:

* **Fault injection** — storage :class:`~repro.resilience.faults.
  FaultEvent` kinds (``enospc``/``torn``/``fsync-lie``/``rot``) fire
  here, per write site, exactly as planned.  The semantics mirror the
  real failure each models:

  - ``enospc``: the write raises ``OSError(ENOSPC)`` and **nothing**
    lands — callers see the same pre-write state they started from and
    decide whether to reclaim space and retry.
  - ``torn``: a prefix of the bytes lands, then the write raises
    ``OSError`` — but the writer *knows*, so storage repairs by
    truncating back and retrying.  A crash in the window between the
    partial write and the repair leaves a torn tail for recovery to
    truncate, which is precisely the case the journal's torn-tail
    handling exists for.
  - ``fsync-lie``: write/flush/fsync all report success but the bytes
    are silently dropped.  Storage catches it with a length read-back
    (did the file actually grow by what we wrote?) and retries.  The
    read-back deliberately checks **length only** — content integrity
    is the application checksum's job, so a ``rot`` flip is *not*
    papered over here.
  - ``rot``: the write fully succeeds, then one bit of the
    just-written region flips at rest.  Detection is downstream: the
    cache's SHA-256 verify evicts-and-recomputes, the journal's crc32
    classifies it on replay/verify.

* **Crash simulation** — ``crash_after=k`` makes the ``k+1``-th
  storage operation raise :class:`SimulatedCrash` *before* it runs.
  Walking ``k`` across a workload's full operation count visits every
  durability boundary — mid-append, mid-evict, mid-compact,
  tmp-written-but-not-renamed — exactly like SIGKILL at that instant.
  ``SimulatedCrash`` derives from ``BaseException`` so no recovery
  handler inside the service can accidentally swallow the "process
  died" signal.

* **Accounting** — every operation is counted in metrics and in
  ``ops``, giving the crash grid its coordinate system.

Every write is fsynced before it returns except an
``append_line(..., sync=False)``, which the journal uses for its
narration records: those bytes reach the page cache (so ``kill -9``
cannot lose them) and become durable at the file's next fsync, which
covers every earlier byte — the next synced append or :meth:`sync`.
An unsynced append is the same operation for the crash grid and the
fault plan: it ticks once per attempt and takes the same faults.

Each attempt at a durable operation is one raw descriptor: ``os.open``,
an ``os.write`` loop that finishes short writes, the fsync, and
``os.close`` in a ``finally``.  The length read-back is ``os.fstat`` on
that descriptor, so no path is stat'ed and no buffered file object is
built.  New files get ``0o666 & ~umask``, the mode ``open()`` gives.
A crash, a fault or a reader sees the same ticks, fsync points and
bytes as through a buffered file object.
"""

from __future__ import annotations

import errno
import os

from ..observability.registry import NULL_REGISTRY
from ..resilience.faults import ENOSPC, FSYNC_LIE, ROT, STORAGE_TARGETS, TORN

__all__ = ["ServiceStorage", "SimulatedCrash"]

#: An append descriptor; a lied-to append opens without ``O_CREAT``, so
#: it never creates the file the dropped write was for.
_APPEND = os.O_WRONLY | os.O_APPEND
_REPLACE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
#: The mode ``open()`` asks for; the umask clears bits from it.
_MODE = 0o666


class SimulatedCrash(BaseException):
    """The simulated process died (SIGKILL) at storage operation
    ``op_index``.  Deliberately **not** an ``Exception``: nothing inside
    the service may catch and survive its own death."""

    def __init__(self, op_index: int, op: str, path: str):
        self.op_index = int(op_index)
        self.op = str(op)
        self.path = str(path)
        super().__init__(
            f"simulated crash at storage op #{self.op_index} "
            f"({self.op} {self.path!r})"
        )


class ServiceStorage:
    """Fault-injectable, crash-simulable durable writes.

    Parameters
    ----------
    faults:
        An :class:`~repro.resilience.faults.ActiveFaults` whose storage
        events strike writes routed through this object (``None`` = a
        healthy disk).
    crash_after:
        If set, the operation after ``crash_after`` completed ones
        raises :class:`SimulatedCrash` (``0`` = die on the very first).
    """

    def __init__(self, faults=None, metrics=None,
                 crash_after: int | None = None):
        self.faults = faults
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.crash_after = None if crash_after is None else int(crash_after)
        #: Completed storage operations (the crash grid's coordinate).
        self.ops = 0

    # -- internals -----------------------------------------------------
    def _tick(self, op: str, path: str) -> None:
        if self.crash_after is not None and self.ops >= self.crash_after:
            raise SimulatedCrash(self.ops, op, path)
        self.ops += 1
        self.metrics.inc("service.storage.ops", op=op)

    def _fire(self, target: str):
        if self.faults is None:
            return None
        if target not in STORAGE_TARGETS:
            raise ValueError(f"unknown storage target {target!r}")
        ev = self.faults.storage_fire(target)
        if ev is not None:
            self.metrics.inc("service.storage.faults", kind=ev.kind,
                             target=target)
        return ev

    @staticmethod
    def _enospc(path: str) -> OSError:
        return OSError(errno.ENOSPC, "No space left on device (injected)",
                       path)

    @staticmethod
    def _write_all(fd: int, data: bytes) -> None:
        """``os.write`` all of ``data`` to ``fd``, finishing short
        writes."""
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    @staticmethod
    def _rot_file(path: str, offset: int, length: int, bit: int) -> None:
        """Flip one bit of the byte in the middle of ``[offset,
        offset+length)`` — the at-rest corruption the checksums exist
        to catch."""
        if length <= 0:
            return
        pos = offset + length // 2
        fd = os.open(path, os.O_RDWR)
        try:
            victim = os.pread(fd, 1, pos)
            if victim:
                os.pwrite(fd, bytes([victim[0] ^ (1 << (bit % 8))]), pos)
                os.fsync(fd)
        finally:
            os.close(fd)

    # -- durable operations --------------------------------------------
    def append_line(self, path: str, text: str, target: str = "any",
                    sync: bool = True) -> int:
        """Append ``text``, fsynced unless ``sync`` is false; returns
        attempts used.

        Raises ``OSError(ENOSPC)`` with the file unchanged when an
        injected disk-full strikes; silently-dropped and torn writes
        are detected and retried here (each physical attempt consumes
        at most one fault event, so injected faults cannot retry
        forever).  ``sync=False`` skips only the fsync: the ticks,
        faults and length read-back are those of a synced append."""
        path = str(path)
        data = text.encode("utf-8")
        attempts = 0
        while True:
            attempts += 1
            self._tick("append", path)
            ev = self._fire(target)
            kind = ev.kind if ev is not None else None
            if kind == ENOSPC:
                raise self._enospc(path)
            try:
                fd = os.open(path, _APPEND if kind == FSYNC_LIE
                             else _APPEND | os.O_CREAT, _MODE)
            except FileNotFoundError:   # a lie to a file not yet there
                pre = size = 0
            else:
                try:
                    pre = os.fstat(fd).st_size
                    if kind == TORN:
                        self._write_all(fd, data[: len(data) // 2])
                        if sync:
                            os.fsync(fd)
                        # The writer was told (EIO): repair by truncating
                        # back.  A crash landing on this tick leaves the
                        # torn tail on disk for recovery — the
                        # SIGKILL-mid-write(2) case.
                        self._tick("truncate", path)
                        os.ftruncate(fd, pre)
                        self.metrics.inc("service.storage.torn_repaired")
                        continue
                    if kind != FSYNC_LIE:
                        self._write_all(fd, data)
                        if sync:
                            os.fsync(fd)
                    size = os.fstat(fd).st_size
                finally:
                    os.close(fd)
            if size != pre + len(data):
                # The "successful" write never landed: the fsync lied.
                self.metrics.inc("service.storage.lies_detected")
                continue
            if kind == ROT:
                self._rot_file(path, pre, len(data), ev.bit)
            return attempts

    def sync(self, path: str) -> None:
        """Fsync ``path``, making every byte appended unsynced durable.

        Not an operation: it writes no byte, so a process that dies
        just before or just after it leaves the same file, and neither
        a crash nor a fault strikes here."""
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def truncate(self, path: str, size: int) -> None:
        """Cut ``path`` back to ``size`` bytes and fsync it.

        Not an operation, like :meth:`sync`: the journal drops a torn
        tail with it when it opens, which must succeed even on a full
        disk, so neither a crash nor a fault strikes here."""
        fd = os.open(str(path), os.O_WRONLY)
        try:
            os.ftruncate(fd, int(size))
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace_atomic(self, path: str, data: bytes,
                       target: str = "any") -> int:
        """Durably write ``data`` to ``path`` via tmp + ``os.replace``;
        returns attempts used.

        A crash leaves either the old content or the new — never a
        mix; at worst a stray ``.tmp`` survives.  ``OSError(ENOSPC)``
        propagates with the final path untouched."""
        path = str(path)
        tmp = path + ".tmp"
        attempts = 0
        while True:
            attempts += 1
            self._tick("write", tmp)
            ev = self._fire(target)
            kind = ev.kind if ev is not None else None
            if kind == ENOSPC:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise self._enospc(path)
            fd = os.open(tmp, _REPLACE, _MODE)
            try:
                if kind == TORN:
                    self._write_all(fd, data[: len(data) // 2])
                    os.fsync(fd)
                elif kind != FSYNC_LIE:
                    self._write_all(fd, data)
                    os.fsync(fd)
                size = os.fstat(fd).st_size
            finally:
                os.close(fd)
            if kind == TORN:
                self._tick("remove", tmp)
                os.remove(tmp)
                self.metrics.inc("service.storage.torn_repaired")
                continue
            if size != len(data):
                self.metrics.inc("service.storage.lies_detected")
                continue
            # Crash landing here: tmp fully written, final path not yet
            # switched — recovery must ignore/clean the stray tmp.
            self._tick("rename", path)
            os.replace(tmp, path)
            if kind == ROT:
                self._rot_file(path, 0, len(data), ev.bit)
            return attempts

    def remove(self, path: str, target: str = "any") -> bool:
        """Remove ``path`` (idempotent); returns whether it existed.

        Deletions free space, so no storage fault strikes them — but
        they are crash boundaries (kill mid-evict/mid-GC) and count as
        operations."""
        path = str(path)
        self._tick("remove", path)
        try:
            os.remove(path)
        except FileNotFoundError:
            return False
        return True

    def rename(self, src: str, dst: str, target: str = "any") -> None:
        """Atomic ``os.replace`` of an existing file (idempotent-style
        crash boundary: either wholly old name or wholly new)."""
        self._tick("rename", str(dst))
        os.replace(str(src), str(dst))
