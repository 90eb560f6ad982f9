"""Unit tests for the vectorised helpers in repro._util."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (
    as_index_array,
    check_nonnegative_int,
    chunk_max_sum,
    concat_ranges,
)


class TestConcatRanges:
    def test_simple(self):
        out = concat_ranges(np.array([0, 5]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 5, 6]

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 12))
            starts = rng.integers(0, 100, size=k)
            counts = rng.integers(0, 6, size=k)
            expect = np.concatenate(
                [np.arange(s, s + c) for s, c in zip(starts, counts)]
                or [np.empty(0, dtype=np.int64)]
            )
            got = concat_ranges(starts, counts)
            assert np.array_equal(got, expect)

    def test_zero_counts_interleaved(self):
        out = concat_ranges(np.array([10, 20, 30]), np.array([0, 2, 0]))
        assert out.tolist() == [20, 21]

    def test_all_zero_counts(self):
        out = concat_ranges(np.array([1, 2, 3]), np.array([0, 0, 0]))
        assert out.size == 0

    def test_empty_inputs(self):
        out = concat_ranges(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
        assert out.size == 0

    def test_mismatched_shapes_raises(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([1, 2]), np.array([1]))

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([0]), np.array([-1]))

    def test_single_large_range(self):
        out = concat_ranges(np.array([7]), np.array([1000]))
        assert out[0] == 7 and out[-1] == 1006 and out.size == 1000


def _concat_ranges_cumsum(starts, counts):
    """The earlier boundary-jump cumsum implementation, kept as the
    reference the repeat-plus-arange form is checked against."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    nz = counts > 0
    if not np.any(nz):
        return np.empty(0, dtype=np.int64)
    starts = starts[nz]
    counts = counts[nz]
    out = np.ones(int(counts.sum()), dtype=np.int64)
    out[0] = starts[0]
    cum = np.cumsum(counts)
    out[cum[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 6)),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_concat_ranges_matches_cumsum_form(pairs):
    # Covers empty input, all-zero and interleaved zero counts.
    starts = np.array([s for s, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    got = concat_ranges(starts, counts)
    assert got.dtype == np.int64
    assert np.array_equal(got, _concat_ranges_cumsum(starts, counts))


@given(st.lists(st.integers(0, 6), min_size=1, max_size=20),
       st.integers(0, 19), st.integers(-5, -1))
@settings(max_examples=50, deadline=None)
def test_concat_ranges_negative_count_raises(counts, at, negative):
    counts[at % len(counts)] = negative
    starts = np.zeros(len(counts), dtype=np.int64)
    for impl in (concat_ranges, _concat_ranges_cumsum):
        with pytest.raises(ValueError):
            impl(starts, np.array(counts, dtype=np.int64))


class TestChunkMaxSum:
    def test_exact_multiple(self):
        w = np.array([1, 5, 2, 7, 3, 3])
        assert chunk_max_sum(w, 3) == 5 + 7

    def test_with_padding(self):
        w = np.array([4, 1, 9])
        assert chunk_max_sum(w, 2) == 4 + 9

    def test_chunk_one_is_sum(self):
        w = np.array([2, 3, 4])
        assert chunk_max_sum(w, 1) == 9

    def test_chunk_larger_than_array_is_max(self):
        w = np.array([2, 9, 4])
        assert chunk_max_sum(w, 100) == 9

    def test_empty(self):
        assert chunk_max_sum(np.array([]), 4) == 0

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            chunk_max_sum(np.array([1]), 0)

    def test_monotone_in_chunk_size(self):
        # Larger chunks can only reduce the serialised total.
        rng = np.random.default_rng(1)
        w = rng.integers(0, 50, size=64)
        values = [chunk_max_sum(w, c) for c in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_lower_bounded_by_max(self):
        rng = np.random.default_rng(2)
        w = rng.integers(0, 1000, size=100)
        for c in (3, 7, 64):
            assert chunk_max_sum(w, c) >= w.max()


class TestValidationHelpers:
    def test_as_index_array_ok(self):
        out = as_index_array([0, 2, 1], 3)
        assert out.dtype == np.int64 and out.tolist() == [0, 2, 1]

    def test_as_index_array_out_of_range(self):
        with pytest.raises(IndexError):
            as_index_array([0, 3], 3)
        with pytest.raises(IndexError):
            as_index_array([-1], 3)

    def test_check_nonnegative_int(self):
        assert check_nonnegative_int(4.0, "x") == 4
        with pytest.raises(ValueError):
            check_nonnegative_int(-1, "x")
