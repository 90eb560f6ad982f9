"""Silent-data-corruption detection: ABFT invariants + verification policy.

The fault model of :mod:`repro.resilience` covers ranks that *die*;
this package covers ranks that *lie* — a bit-flip in ``sigma``,
``delta``, ``dist``, a partial BC vector, or an in-flight reduce buffer
silently poisons the final scores unless something checks the algebra.
Brandes's structure makes those checks cheap (per-root ABFT):

>>> import numpy as np
>>> from repro.graph.generators import figure1_graph
>>> from repro.bc.frontier import forward_sweep
>>> from repro.bc.accumulation import dependency_accumulation
>>> from repro.verify import RootChecker, VerificationPolicy
>>> g = figure1_graph()
>>> fwd = forward_sweep(g, 0)
>>> delta = dependency_accumulation(g, fwd)
>>> checker = RootChecker(VerificationPolicy("paranoid"))
>>> checker.check_root(g, fwd, delta)
[]
>>> delta[4] *= 2.0  # simulate a corrupted dependency
>>> [v.invariant for v in checker.check_root(g, fwd, delta)]
['checksum']

Consumers: :meth:`repro.gpusim.Device.run_bc` (raises
:class:`~repro.errors.SilentCorruptionError` on detection) and
:func:`repro.resilience.resilient_distributed_bc` (quarantines and
recomputes corrupted roots instead of raising), through one
:class:`RootObserver`.
"""

from .invariants import RootChecker, Violation, expected_delta_checksum
from .observer import RootObserver
from .policy import MODES, OFF, PARANOID, SAMPLED, VerificationPolicy

__all__ = [
    "OFF",
    "SAMPLED",
    "PARANOID",
    "MODES",
    "VerificationPolicy",
    "RootChecker",
    "RootObserver",
    "Violation",
    "expected_delta_checksum",
]
