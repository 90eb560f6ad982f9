"""Deterministic fault injection for the distributed BC program.

The paper's 192-GPU runs (Section V-D) assume every rank survives to
the final ``MPI_Reduce``.  This module supplies the adversary for
testing what happens when one doesn't:

* :class:`FaultEvent` / :class:`FaultPlan` — a declarative, seedable
  description of *which* rank fails, *where* (a named collective or
  mid-compute after ``k`` roots), and *how* (fail-stop, transient
  simulated OOM, or a straggler slowdown factor).
* :class:`ActiveFaults` — the mutable runtime view of a plan; events
  are consumed as they fire so a retried operation succeeds (fail-stop
  is one-shot per event, OOM fires ``times`` attempts, stragglers
  persist for the whole run).
* :class:`FaultyComm` — a :class:`~repro.cluster.mpi_sim.SimComm` that
  raises :class:`~repro.errors.RankFailure` when a live rank is
  scheduled to die at the entered collective.
* :class:`FaultyDevice` — a :class:`~repro.gpusim.device.Device` bound
  to one rank that raises injected faults before running and stretches
  its simulated cycles by the rank's straggler factor.

Everything is deterministic: a plan built from an explicit event list
or from :meth:`FaultPlan.random` with a seed always fires identically.

Beyond ranks that die, the ``sdc`` kind models ranks that *lie*: a
single seeded bit-flip in one of the per-root arrays (``sigma``,
``delta``, ``dist``), a rank's partial BC vector, or an in-flight
reduce contribution (injected by :meth:`FaultyComm.reduce`).  Detection
and repair live in :mod:`repro.verify` and the resilient driver; the
injector's job is only to corrupt deterministically.

The **storage** kinds model the disk misbehaving under the BC service
(:mod:`repro.service`) instead of a rank:

* ``enospc`` — the write fails with ``OSError(ENOSPC)``; nothing lands.
* ``torn`` — a deterministic *prefix* of the bytes lands, then the
  write fails with ``OSError(EIO)`` (a partial write the writer is told
  about).
* ``fsync-lie`` — write/flush/fsync all report success but the bytes
  are silently dropped (the page-cache lie read-back verification must
  catch).
* ``rot`` — the write succeeds, then one bit of the file rots at rest.

They target the service's write *sites* (``journal``/``cache``/
``spool``/``any``) rather than ranks, counted in successful writes to
that site: ``enospc:2@journal`` fails the third journal write.  The
consumer is :class:`repro.service.storage.ServiceStorage`, which routes
every durable service write through :meth:`ActiveFaults.storage_fire`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceOutOfMemoryError, FaultSpecError, RankFailure
from ..cluster.mpi_sim import SimComm
from ..gpusim.cost import DEFAULT_COSTS, CostModel
from ..gpusim.device import Device
from ..gpusim.spec import GTX_TITAN, GPUSpec

__all__ = [
    "FAIL_STOP",
    "OOM",
    "STRAGGLER",
    "SDC",
    "ENOSPC",
    "TORN",
    "FSYNC_LIE",
    "ROT",
    "STORAGE_KINDS",
    "STORAGE_TARGETS",
    "COLLECTIVES",
    "SDC_SITES",
    "FaultEvent",
    "FaultPlan",
    "ActiveFaults",
    "FaultyComm",
    "FaultyDevice",
    "flip_bit",
    "apply_sdc",
]

#: Fault kinds.
FAIL_STOP = "fail-stop"
OOM = "oom"
STRAGGLER = "straggler"
SDC = "sdc"
ENOSPC = "enospc"
TORN = "torn"
FSYNC_LIE = "fsync-lie"
ROT = "rot"
#: Disk-fault kinds consumed by the service storage layer.
STORAGE_KINDS = (ENOSPC, TORN, FSYNC_LIE, ROT)
_KINDS = (FAIL_STOP, OOM, STRAGGLER, SDC) + STORAGE_KINDS
#: Kinds :meth:`FaultPlan.random` draws from by default.  SDC is opt-in
#: because silent corruption is only meaningful when a verification
#: policy is active — injecting it into an unverified run makes the
#: result wrong by construction.  Storage kinds are opt-in because they
#: only fire inside the service's write path.
_RANDOM_KINDS = (FAIL_STOP, OOM, STRAGGLER)

#: Write sites a storage fault can target.  ``any`` matches every site.
STORAGE_TARGETS = ("journal", "cache", "spool", "any")

#: Injection points a fail-stop can target ("compute" plus every
#: :class:`SimComm` collective).
COLLECTIVES = ("bcast", "scatter", "gather", "allgather", "reduce",
               "allreduce", "barrier")
_WHERE = ("compute",) + COLLECTIVES

#: Arrays an ``sdc`` bit-flip can target.  The first three strike one
#: root's intermediate state, ``partial`` a rank's accumulated BC
#: vector, ``reduce`` one rank's contribution inside the collective.
SDC_SITES = ("sigma", "delta", "dist", "partial", "reduce")

#: Default bit flipped by an ``sdc`` event: high in the float64
#: mantissa/exponent, so the corruption is numerically meaningful
#: (relative change >= ~2**-3) rather than lost in rounding noise.
DEFAULT_SDC_BIT = 55


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.

    Parameters
    ----------
    kind:
        ``"fail-stop"`` (the rank dies), ``"oom"`` (the rank's compute
        raises :class:`DeviceOutOfMemoryError`, transiently), or
        ``"straggler"`` (the rank's compute is ``factor`` times slower).
    rank:
        Victim rank.
    where:
        ``"compute"`` or a collective name; only fail-stop may target a
        collective.
    after_roots:
        For a mid-compute fail-stop: how many roots of the rank's
        partition complete before it dies (their partial progress is
        lost — the checkpoint unit is the whole partition).
    times:
        For transient OOM: how many attempts fire before the fault
        clears.
    factor:
        Straggler slowdown multiple (``>= 1``).
    site:
        For ``sdc``: which array the bit-flip strikes (one of
        :data:`SDC_SITES`).
    root_index:
        For ``sdc`` on a per-root site (``sigma``/``delta``/``dist``):
        the position within the victim rank's current root partition at
        which the flip fires.
    bit:
        For ``sdc``/``rot``: which bit of the victim 64-bit word
        (``sdc``) or victim byte (``rot``) is flipped.
    target:
        For storage kinds: the write site the fault strikes (one of
        :data:`STORAGE_TARGETS`; ``any`` matches every site).
    after_writes:
        For storage kinds: how many matching write attempts complete
        unharmed before the fault fires (``0`` = the first write).
    """

    kind: str
    rank: int = 0
    where: str = "compute"
    after_roots: int = 0
    times: int = 1
    factor: float = 2.0
    site: str = "delta"
    root_index: int = 0
    bit: int = DEFAULT_SDC_BIT
    target: str = "any"
    after_writes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultSpecError(f"unknown fault kind {self.kind!r}; known: {_KINDS}")
        if self.rank < 0:
            raise FaultSpecError("rank must be >= 0")
        if self.where not in _WHERE:
            raise FaultSpecError(
                f"unknown fault site {self.where!r}; known: {_WHERE}"
            )
        if self.kind != FAIL_STOP and self.where != "compute":
            raise FaultSpecError(f"{self.kind} faults only fire at 'compute'")
        if self.after_roots < 0:
            raise FaultSpecError("after_roots must be >= 0")
        if self.times < 1:
            raise FaultSpecError("times must be >= 1")
        if self.factor < 1.0:
            raise FaultSpecError("straggler factor must be >= 1")
        if self.site not in SDC_SITES:
            raise FaultSpecError(
                f"unknown sdc site {self.site!r}; known: {SDC_SITES}"
            )
        if self.root_index < 0:
            raise FaultSpecError("root_index must be >= 0")
        if not 0 <= self.bit <= 63:
            raise FaultSpecError("bit must be in [0, 63]")
        if self.target not in STORAGE_TARGETS:
            raise FaultSpecError(
                f"unknown storage target {self.target!r}; known: "
                f"{STORAGE_TARGETS}"
            )
        if self.after_writes < 0:
            raise FaultSpecError("after_writes must be >= 0")
        if self.kind in STORAGE_KINDS:
            if self.times != 1 and self.kind != ENOSPC:
                raise FaultSpecError(
                    f"only enospc storage faults repeat (xTIMES); "
                    f"{self.kind} is one-shot")
            if self.rank != 0 or self.after_roots or self.root_index:
                raise FaultSpecError(
                    f"{self.kind} faults target writes, not ranks/roots")
            if self.bit != DEFAULT_SDC_BIT and self.kind != ROT:
                raise FaultSpecError(
                    f"#BIT is only meaningful for rot, not {self.kind}")
        else:
            if self.target != "any" or self.after_writes:
                raise FaultSpecError(
                    f"@TARGET/after_writes are only for storage fault "
                    f"kinds, not {self.kind}")

    @property
    def is_storage(self) -> bool:
        return self.kind in STORAGE_KINDS

    def spec(self) -> str:
        """The entry's canonical CLI spec; ``FaultPlan.parse`` inverts
        it exactly (defaults are omitted)."""
        if self.kind == FAIL_STOP:
            out = f"fail:{self.rank}"
            if self.where != "compute":
                out += f"@{self.where}"
            if self.after_roots:
                out += f"+{self.after_roots}"
            return out
        if self.kind == OOM:
            return f"oom:{self.rank}" + (f"x{self.times}" if self.times != 1
                                         else "")
        if self.kind == STRAGGLER:
            return f"straggler:{self.rank}x{self.factor!r}"
        if self.kind in STORAGE_KINDS:
            out = f"{self.kind}:{self.after_writes}"
            if self.target != "any":
                out += f"@{self.target}"
            if self.kind == ENOSPC and self.times != 1:
                out += f"x{self.times}"
            if self.kind == ROT and self.bit != DEFAULT_SDC_BIT:
                out += f"#{self.bit}"
            return out
        out = f"sdc:{self.rank}"
        if self.site != "delta":
            out += f"@{self.site}"
        if self.root_index:
            out += f"+{self.root_index}"
        if self.bit != DEFAULT_SDC_BIT:
            out += f"#{self.bit}"
        return out

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable set of :class:`FaultEvent`\\ s."""

    events: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise FaultSpecError(f"not a FaultEvent: {ev!r}")

    # -- convenience constructors --------------------------------------
    @classmethod
    def fail_stop(cls, rank: int, where: str = "compute",
                  after_roots: int = 0) -> "FaultPlan":
        """Kill one rank at ``where`` (optionally mid-compute)."""
        return cls((FaultEvent(FAIL_STOP, rank, where=where,
                               after_roots=after_roots),))

    @classmethod
    def transient_oom(cls, rank: int, times: int = 1) -> "FaultPlan":
        """Make one rank's compute OOM for ``times`` attempts."""
        return cls((FaultEvent(OOM, rank, times=times),))

    @classmethod
    def straggler(cls, rank: int, factor: float = 4.0) -> "FaultPlan":
        """Slow one rank's compute by ``factor``."""
        return cls((FaultEvent(STRAGGLER, rank, factor=factor),))

    @classmethod
    def sdc(cls, rank: int, site: str = "delta", root_index: int = 0,
            bit: int = DEFAULT_SDC_BIT) -> "FaultPlan":
        """Flip one bit of ``site`` on ``rank`` (silent corruption)."""
        return cls((FaultEvent(SDC, rank, site=site, root_index=root_index,
                               bit=bit),))

    @classmethod
    def storage(cls, kind: str, target: str = "any", after_writes: int = 0,
                times: int = 1, bit: int = DEFAULT_SDC_BIT) -> "FaultPlan":
        """One storage fault: ``kind`` strikes the write to ``target``
        after ``after_writes`` unharmed matching writes."""
        return cls((FaultEvent(kind, target=target, after_writes=after_writes,
                               times=times, bit=bit),))

    @classmethod
    def random(cls, num_ranks: int, seed: int = 0, num_faults: int = 1,
               kinds=_RANDOM_KINDS) -> "FaultPlan":
        """A deterministic random plan over ``num_ranks`` ranks."""
        if num_ranks < 1:
            raise FaultSpecError("num_ranks must be >= 1")
        if num_faults < 0:
            raise FaultSpecError("num_faults must be >= 0")
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(int(num_faults)):
            kind = kinds[int(rng.integers(len(kinds)))]
            rank = int(rng.integers(num_ranks))
            if kind == FAIL_STOP:
                where = _WHERE[int(rng.integers(len(_WHERE)))]
                events.append(FaultEvent(FAIL_STOP, rank, where=where,
                                         after_roots=int(rng.integers(4))))
            elif kind == OOM:
                events.append(FaultEvent(OOM, rank,
                                         times=int(rng.integers(1, 3))))
            elif kind == SDC:
                site = SDC_SITES[int(rng.integers(len(SDC_SITES)))]
                events.append(FaultEvent(SDC, rank, site=site,
                                         root_index=int(rng.integers(4)),
                                         bit=int(rng.integers(48, 64))))
            else:
                events.append(FaultEvent(STRAGGLER, rank,
                                         factor=float(1 + 3 * rng.random())))
        return cls(tuple(events))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec.

        Grammar (``;``-separated entries)::

            fail:RANK[@WHERE][+AFTER_ROOTS]   fail-stop
            oom:RANK[xTIMES]                  transient OOM
            straggler:RANKxFACTOR             slowdown
            sdc:RANK[@SITE][+ROOT_INDEX][#BIT]  silent bit-flip
            enospc:AFTER[@TARGET][xTIMES]     disk-full write failure
            torn:AFTER[@TARGET]               partial write + EIO
            fsync-lie:AFTER[@TARGET]          silent write drop
            rot:AFTER[@TARGET][#BIT]          at-rest bit rot

        ``SITE`` is one of :data:`SDC_SITES` (default ``delta``),
        ``ROOT_INDEX`` the position within the rank's root partition
        (default 0), ``BIT`` the flipped bit in [0, 63] (default 55).
        For storage kinds, ``AFTER`` counts unharmed matching writes
        before the fault fires and ``TARGET`` is one of
        :data:`STORAGE_TARGETS` (default ``any``).

        Examples: ``"fail:1@reduce"``, ``"fail:2+3"``, ``"oom:0x2"``,
        ``"straggler:1x3.5;fail:0@bcast"``, ``"sdc:1@sigma+2#62"``,
        ``"sdc:0@reduce"``, ``"enospc:2@journalx3"``,
        ``"torn:0@cache;rot:1@journal#3"``.

        :meth:`FaultPlan.__str__` emits this grammar, and
        ``FaultPlan.parse(str(plan)) == plan`` for every valid plan
        (property-tested in ``tests/properties``).
        """
        events = []
        for raw in spec.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            try:
                kind, rest = entry.split(":", 1)
            except ValueError:
                raise FaultSpecError(f"bad fault entry {entry!r}: missing ':'")
            kind = kind.strip().lower()
            rest = rest.strip()
            try:
                if kind in ("fail", FAIL_STOP):
                    after = 0
                    if "+" in rest:
                        rest, after_s = rest.split("+", 1)
                        after = int(after_s)
                    where = "compute"
                    if "@" in rest:
                        rest, where = rest.split("@", 1)
                    events.append(FaultEvent(FAIL_STOP, int(rest),
                                             where=where.strip(),
                                             after_roots=after))
                elif kind == OOM:
                    times = 1
                    if "x" in rest:
                        rest, times_s = rest.split("x", 1)
                        times = int(times_s)
                    events.append(FaultEvent(OOM, int(rest), times=times))
                elif kind == STRAGGLER:
                    if "x" not in rest:
                        raise FaultSpecError(
                            f"straggler entry {entry!r} needs 'xFACTOR'"
                        )
                    rank_s, factor_s = rest.split("x", 1)
                    events.append(FaultEvent(STRAGGLER, int(rank_s),
                                             factor=float(factor_s)))
                elif kind == SDC:
                    bit = DEFAULT_SDC_BIT
                    if "#" in rest:
                        rest, bit_s = rest.split("#", 1)
                        bit = int(bit_s)
                    root_index = 0
                    if "+" in rest:
                        rest, idx_s = rest.split("+", 1)
                        root_index = int(idx_s)
                    site = "delta"
                    if "@" in rest:
                        rest, site = rest.split("@", 1)
                        site = site.strip()
                        if site not in SDC_SITES:
                            raise FaultSpecError(
                                f"bad sdc entry {entry!r}: unknown site "
                                f"{site!r}; known: {SDC_SITES}"
                            )
                    events.append(FaultEvent(SDC, int(rest), site=site,
                                             root_index=root_index, bit=bit))
                elif kind in STORAGE_KINDS:
                    times = 1
                    bit = DEFAULT_SDC_BIT
                    if kind == ENOSPC and "x" in rest:
                        rest, times_s = rest.rsplit("x", 1)
                        times = int(times_s)
                    if kind == ROT and "#" in rest:
                        rest, bit_s = rest.split("#", 1)
                        bit = int(bit_s)
                    target = "any"
                    if "@" in rest:
                        rest, target = rest.split("@", 1)
                        target = target.strip()
                        if target not in STORAGE_TARGETS:
                            raise FaultSpecError(
                                f"bad {kind} entry {entry!r}: unknown "
                                f"target {target!r}; known: "
                                f"{STORAGE_TARGETS}"
                            )
                    events.append(FaultEvent(kind, target=target,
                                             after_writes=int(rest),
                                             times=times, bit=bit))
                else:
                    raise FaultSpecError(
                        f"unknown fault kind {kind!r}; known: fail, oom, "
                        f"straggler, sdc, enospc, torn, fsync-lie, rot"
                    )
            except FaultSpecError:
                raise
            except ValueError as exc:
                raise FaultSpecError(f"bad fault entry {entry!r}: {exc}")
        return cls(tuple(events))

    def __str__(self) -> str:
        """Canonical spec string; :meth:`parse` inverts it exactly."""
        return ";".join(ev.spec() for ev in self.events)

    # ------------------------------------------------------------------
    def start(self, seed: int = 0) -> "ActiveFaults":
        """Fresh mutable runtime state for one run of this plan.

        ``seed`` salts the victim-element selection of ``sdc`` events
        (the bit and site are in the event; *which* array element gets
        flipped is drawn deterministically from this seed).
        """
        return ActiveFaults(self, seed=seed)


def flip_bit(arr: np.ndarray, index: int, bit: int) -> None:
    """Flip ``bit`` of the 64-bit word at ``arr[index]`` in place.

    Works on any 8-byte dtype (``float64`` values are reinterpreted as
    their IEEE-754 bit pattern — exactly what a radiation-induced SDC
    does to a resident array).
    """
    if arr.dtype.itemsize != 8:
        raise FaultSpecError(
            f"can only flip bits of 8-byte elements, got {arr.dtype}"
        )
    if not 0 <= bit <= 63:
        raise FaultSpecError("bit must be in [0, 63]")
    view = arr.view(np.uint64)
    view[index] ^= np.uint64(1) << np.uint64(bit)


def apply_sdc(event: FaultEvent, arr: np.ndarray, seed: int = 0) -> int:
    """Fire one ``sdc`` event against ``arr``; returns the victim index.

    The victim element is drawn deterministically from
    ``(seed, rank, site, root_index, bit)``, preferring elements whose
    corruption is numerically meaningful (reached vertices for
    ``dist``, nonzero entries elsewhere) so a flipped bit always
    changes the value it strikes.
    """
    if event.kind != SDC:
        raise FaultSpecError(f"apply_sdc needs an sdc event, got {event.kind}")
    if arr.size == 0:
        return -1
    if event.site == "dist":
        eligible = np.flatnonzero(arr >= 0)
    else:
        eligible = np.flatnonzero(arr != 0)
    if eligible.size == 0:
        eligible = np.arange(arr.size)
    rng = np.random.default_rng(
        [int(seed), event.rank, SDC_SITES.index(event.site),
         event.root_index, event.bit]
    )
    index = int(eligible[int(rng.integers(eligible.size))])
    flip_bit(arr, index, event.bit)
    return index


class ActiveFaults:
    """Runtime view of a :class:`FaultPlan`; events are consumed as they
    fire so retried operations see a fault-free world."""

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = int(seed)
        self._collective = {}   # (rank, where) -> count of pending fail-stops
        self._compute_fail = {}  # rank -> FaultEvent (first pending)
        self._oom = {}           # rank -> remaining attempts
        self._straggle = {}      # rank -> factor (persistent)
        self._sdc_root = {}      # (rank, root_index) -> [events]
        self._sdc_partial = {}   # rank -> [events]
        self._sdc_reduce = []    # [events]
        # Storage events, in plan order.  Each entry keeps its own count
        # of *unharmed* matching writes seen so far and how many firings
        # remain (>1 only for a repeating enospc).
        self._storage = []       # [{"ev": ev, "seen": 0, "remaining": n}]
        for ev in plan.events:
            if ev.kind in STORAGE_KINDS:
                self._storage.append(
                    {"ev": ev, "seen": 0, "remaining": ev.times})
            elif ev.kind == FAIL_STOP and ev.where != "compute":
                key = (ev.rank, ev.where)
                self._collective[key] = self._collective.get(key, 0) + 1
            elif ev.kind == FAIL_STOP:
                self._compute_fail.setdefault(ev.rank, ev)
            elif ev.kind == OOM:
                self._oom[ev.rank] = self._oom.get(ev.rank, 0) + ev.times
            elif ev.kind == SDC:
                if ev.site == "reduce":
                    self._sdc_reduce.append(ev)
                elif ev.site == "partial":
                    self._sdc_partial.setdefault(ev.rank, []).append(ev)
                else:
                    key = (ev.rank, ev.root_index)
                    self._sdc_root.setdefault(key, []).append(ev)
            else:
                self._straggle[ev.rank] = max(
                    self._straggle.get(ev.rank, 1.0), ev.factor
                )

    def crash_at(self, rank: int, where: str) -> bool:
        """Consume (and report) a fail-stop of ``rank`` at collective
        ``where``."""
        key = (rank, where)
        remaining = self._collective.get(key, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self._collective[key]
        else:
            self._collective[key] = remaining - 1
        return True

    def compute_crash(self, rank: int):
        """Consume a pending mid-compute fail-stop for ``rank``;
        returns the :class:`FaultEvent` or ``None``."""
        return self._compute_fail.pop(rank, None)

    def oom_fires(self, rank: int) -> bool:
        """Consume one transient-OOM attempt for ``rank``."""
        remaining = self._oom.get(rank, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self._oom[rank]
        else:
            self._oom[rank] = remaining - 1
        return True

    def straggler_factor(self, rank: int) -> float:
        """Persistent slowdown multiple for ``rank`` (1.0 = healthy)."""
        return self._straggle.get(rank, 1.0)

    def injected_oom(self, rank: int, nbytes: int) -> DeviceOutOfMemoryError:
        """Build the simulated OOM a faulty rank raises."""
        return DeviceOutOfMemoryError(
            int(nbytes), 0, 0, what=f"injected fault on rank {rank}"
        )

    # -- silent corruption ---------------------------------------------
    def sdc_for_root(self, rank: int, root_pos: int) -> list:
        """Consume (and return) every pending per-root ``sdc`` event
        scheduled for ``rank``'s ``root_pos``-th root this unit."""
        return self._sdc_root.pop((int(rank), int(root_pos)), [])

    def sdc_for_partial(self, rank: int) -> list:
        """Consume the pending partial-BC corruption events for ``rank``."""
        return self._sdc_partial.pop(int(rank), [])

    def sdc_for_reduce(self):
        """Consume one pending in-flight reduce corruption event."""
        return self._sdc_reduce.pop(0) if self._sdc_reduce else None

    def sdc_pending_for(self, rank: int) -> bool:
        """Whether any unfired ``sdc`` event targets ``rank``'s compute
        (per-root or partial sites; reduce corruption is the comm's)."""
        rank = int(rank)
        return (any(key[0] == rank and events
                    for key, events in self._sdc_root.items())
                or bool(self._sdc_partial.get(rank)))

    # -- storage faults -------------------------------------------------
    def storage_fire(self, target: str):
        """One durable write to ``target`` is being attempted; returns
        the :class:`FaultEvent` that strikes it, or ``None``.

        At most one event fires per attempt: the first live event (in
        plan order) matching ``target`` whose count of unharmed matching
        writes has reached its ``after_writes``.  A firing event
        consumes one of its ``times`` (so a repeating ``enospc`` keeps
        refiring — the disk stays full — while every other kind is
        one-shot).  Only when *no* event fires does the attempt count as
        an unharmed write for the remaining live events.
        """
        target = str(target)
        if target not in STORAGE_TARGETS:
            raise FaultSpecError(
                f"unknown storage target {target!r}; known: "
                f"{STORAGE_TARGETS}"
            )
        for entry in self._storage:
            ev = entry["ev"]
            if ev.target not in ("any", target):
                continue
            if entry["seen"] >= ev.after_writes:
                entry["remaining"] -= 1
                if entry["remaining"] <= 0:
                    self._storage.remove(entry)
                return ev
        for entry in self._storage:
            if entry["ev"].target in ("any", target):
                entry["seen"] += 1
        return None

    @property
    def storage_events_pending(self) -> int:
        """How many storage-fault firings remain unconsumed."""
        return sum(entry["remaining"] for entry in self._storage)


class FaultyComm(SimComm):
    """A :class:`SimComm` whose collectives kill planned ranks.

    Before performing a collective, every *live* rank scheduled to
    fail-stop there raises :class:`~repro.errors.RankFailure`.  The
    driver catches it, calls :meth:`mark_dead`, and re-enters the
    collective; the event has been consumed, so the retry proceeds with
    the survivors (a dead rank contributes its checkpointed partial, or
    a zero vector — see
    :class:`~repro.resilience.driver.CheckpointStore`).  Pass one as
    ``comm=`` to :func:`~repro.resilience.resilient_distributed_bc` to
    charge its collectives over a link model.
    """

    def __init__(self, size: int, faults: ActiveFaults | None = None,
                 link=None, metrics=None):
        super().__init__(size, link=link, metrics=metrics)
        self.faults = faults
        self.live = set(range(self.size))
        #: Record of every in-flight corruption this comm injected:
        #: dicts with ``rank``/``site``/``index``/``bit``.  The driver
        #: reads it to attribute a detected reduce corruption to its
        #: victim rank.
        self.corruptions: list = []

    def mark_dead(self, rank: int) -> None:
        """Remove a fail-stopped rank from the collective group."""
        self.live.discard(int(rank))

    @property
    def num_live(self) -> int:
        return len(self.live)

    def _maybe_fail(self, where: str) -> None:
        if self.faults is None:
            return
        for rank in sorted(self.live):
            if self.faults.crash_at(rank, where):
                raise RankFailure(rank, where)

    # Every collective checks for planned deaths before executing.
    def bcast(self, value, root: int = 0):
        self._maybe_fail("bcast")
        return super().bcast(value, root=root)

    def scatter(self, values, root: int = 0):
        self._maybe_fail("scatter")
        return super().scatter(values, root=root)

    def gather(self, values, root: int = 0):
        self._maybe_fail("gather")
        return super().gather(values, root=root)

    def allgather(self, values):
        self._maybe_fail("allgather")
        return super().allgather(values)

    def reduce(self, values, op=None, root: int = 0):
        self._maybe_fail("reduce")
        values = self._maybe_corrupt_reduce(values)
        return super().reduce(values, op=op, root=root)

    def _maybe_corrupt_reduce(self, values):
        """Flip one bit of a planned victim rank's in-flight reduce
        contribution.  The victim's array is copied first — the caller's
        (checkpointed) buffer stays clean, exactly like a corruption on
        the wire — so a detected-and-retried reduce sees healthy data
        once the one-shot event is consumed."""
        if self.faults is None:
            return values
        ev = self.faults.sdc_for_reduce()
        if ev is None:
            return values
        values = list(values)
        if not 0 <= ev.rank < len(values) or not isinstance(
                values[ev.rank], np.ndarray):
            return values
        victim = np.array(values[ev.rank], copy=True)
        index = apply_sdc(ev, victim, seed=self.faults.seed)
        values[ev.rank] = victim
        self.corruptions.append(
            {"rank": ev.rank, "site": "reduce", "index": index, "bit": ev.bit}
        )
        return values

    def allreduce(self, values, op=None):
        self._maybe_fail("allreduce")
        return super().allreduce(values, op=op)

    def barrier(self) -> None:
        self._maybe_fail("barrier")
        super().barrier()


class FaultyDevice(Device):
    """A simulated GPU bound to one rank of a fault plan.

    Injects the rank's planned compute faults at the top of
    :meth:`~repro.gpusim.device.Device.run_bc` (via the base class's
    ``_inject_faults`` hook), stretches the run's simulated cycles by
    the rank's straggler factor, and hands the rank's ``sdc`` events to
    the run's :class:`~repro.verify.RootObserver`.
    """

    def __init__(self, rank: int, faults: ActiveFaults,
                 spec: GPUSpec = GTX_TITAN, costs: CostModel = DEFAULT_COSTS):
        super().__init__(spec, costs)
        self.rank = int(rank)
        self.faults = faults
        self.straggler_factor = faults.straggler_factor(self.rank)

    def _inject_faults(self, g, roots) -> None:
        crash = self.faults.compute_crash(self.rank)
        if crash is not None:
            raise RankFailure(self.rank, "compute",
                              roots_done=min(crash.after_roots, roots.size))
        if self.faults.oom_fires(self.rank):
            raise self.faults.injected_oom(self.rank, g.num_vertices * 8)
