"""Unit tests for the one root partitioner, as the process pool uses it
(a block split of an arbitrary root array)."""

import numpy as np
import pytest

from repro._util import partition_roots
from repro.errors import ClusterConfigurationError

ROOTS = np.arange(17) * 3


def _blocks(roots, k):
    return [roots[p] for p in partition_roots(roots.size, k)]


class TestBlock:
    def test_covers_exactly(self):
        parts = _blocks(ROOTS, 4)
        assert sorted(np.concatenate(parts).tolist()) == ROOTS.tolist()

    def test_contiguous(self):
        for p in _blocks(ROOTS, 5):
            if p.size > 1:
                assert np.all(np.diff(p) == 3)

    def test_bad_parts(self):
        with pytest.raises(ClusterConfigurationError):
            _blocks(ROOTS, 0)
