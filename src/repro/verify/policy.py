"""Verification policy: how much ABFT checking a run pays for.

Three modes, mirroring the fault-injection trade-off the paper's
192-GPU scale forces (a bit-flip in one rank's ``sigma`` poisons the
global reduce, but checking every invariant on every root costs real
time):

* ``off`` — no checks; corruption flows through silently.  The
  default, and the right choice when the substrate is trusted.
* ``sampled`` — a deterministic subset of roots (one in
  :attr:`VerificationPolicy.root_period`) gets the full per-root suite,
  with structural invariants spot-checked on
  :attr:`~VerificationPolicy.sample_vertices` vertices.  Bounded
  overhead (guarded at <= 15% by ``tests/verify/test_overhead.py``),
  probabilistic detection.
* ``paranoid`` — every root, every vertex, vectorised.  Any single
  meaningful bit-flip in ``dist``/``sigma``/``delta``/partial BC is
  detected (the exhaustive property test in
  ``tests/resilience/test_sdc.py``).

Root selection is a pure hash of ``(root, seed)`` — no RNG state — so
the same root is checked (or not) on every recovery round, and two
runs of the same plan verify identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultSpecError

__all__ = ["OFF", "SAMPLED", "PARANOID", "MODES", "VerificationPolicy"]

OFF = "off"
SAMPLED = "sampled"
PARANOID = "paranoid"
MODES = (OFF, SAMPLED, PARANOID)

#: Knuth multiplicative hash constant for deterministic root sampling.
_HASH_MULT = 2654435761


@dataclass(frozen=True)
class VerificationPolicy:
    """Tunable knobs of the ABFT verification layer.

    Parameters
    ----------
    mode:
        ``"off"``, ``"sampled"`` or ``"paranoid"``.
    root_period:
        In sampled mode, one of every ``root_period`` roots is checked.
    sample_vertices:
        Vertices spot-checked per structural invariant in sampled mode.
    rtol, atol:
        Tolerances for the floating-point checksum comparisons.  The
        per-root dependency checksum accumulates O(n) rounding error,
        so ``rtol`` must sit well above 1e-15 yet far below the
        relative error a meaningful bit-flip introduces (>= ~2**-12
        for mantissa bits >= 40).
    seed:
        Salt for the deterministic root-sampling hash.
    """

    mode: str = OFF
    root_period: int = 4
    sample_vertices: int = 64
    rtol: float = 1e-8
    atol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FaultSpecError(
                f"unknown verification mode {self.mode!r}; known: {MODES}"
            )
        if self.root_period < 1:
            raise FaultSpecError("root_period must be >= 1")
        if self.sample_vertices < 1:
            raise FaultSpecError("sample_vertices must be >= 1")
        if not self.rtol >= 0 or not self.atol >= 0:
            raise FaultSpecError("tolerances must be >= 0")

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "VerificationPolicy":
        """Accept a policy, a mode string, or ``None`` (-> off)."""
        if value is None:
            return cls(OFF)
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value.strip().lower())
        raise FaultSpecError(
            f"cannot interpret {value!r} as a verification policy"
        )

    @property
    def enabled(self) -> bool:
        return self.mode != OFF

    @property
    def paranoid(self) -> bool:
        return self.mode == PARANOID

    def checks_root(self, root: int) -> bool:
        """Deterministically decide whether ``root`` gets the per-root
        invariant suite under this policy."""
        return self.checks_roots([root])[0]

    def checks_roots(self, roots) -> list:
        """:meth:`checks_root` of each of ``roots``, in one call."""
        if self.mode != SAMPLED:
            return [self.mode == PARANOID] * len(roots)
        salt, period = self.seed * 97, self.root_period
        return [((int(root) + 1) * _HASH_MULT ^ salt) % period == 0
                for root in roots]
