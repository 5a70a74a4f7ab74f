"""Canonical sorted-tuple storage: the per-N index tables against the
Python constructions they replaced, and the memory of the dense index."""

import tracemalloc
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest

from tensorpca import InvalidParameterError, sample_gaussian_tensor
from tensorpca._util import DENSE_TENSOR_LIMIT
from tensorpca.symtensor import SymmetricTensor4, _IndexLayout, layout, rank_one, symmetrize_dense


def _dense_index_by_dict(n):
    """The original construction: every index tuple of the N^4 grid, sorted
    and looked up in the tuple -> slot dict."""
    index = {t: i for i, t in enumerate(combinations_with_replacement(range(n), 4))}
    grid = np.indices((n, n, n, n)).reshape(4, -1)
    key = np.sort(grid, axis=0)
    flat = np.fromiter(
        (index[tuple(key[:, c])] for c in range(key.shape[1])), dtype=np.int64, count=key.shape[1]
    )
    return flat.reshape(n, n, n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24])
def test_dense_index_matches_dict_construction(n):
    idx = _IndexLayout(n).dense_index
    assert idx.dtype == np.int64
    assert np.array_equal(idx, _dense_index_by_dict(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 13, 30])
def test_tuples_and_orbits_match_itertools(n):
    lay = _IndexLayout(n)
    tuples = list(combinations_with_replacement(range(n), 4))
    assert lay.size == len(tuples)
    assert lay.tuples_array.dtype == np.int64
    assert np.array_equal(lay.tuples_array, np.array(tuples, dtype=np.int64))
    orbits = []
    for t in tuples:
        denom = 1
        for v in set(t):
            denom *= factorial(t.count(v))
        orbits.append(factorial(4) // denom)
    assert lay.orbit_sizes.dtype == np.int64
    assert np.array_equal(lay.orbit_sizes, orbits)
    assert lay.tuples == tuples
    assert lay.index == {t: i for i, t in enumerate(tuples)}


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_rank_one_matches_the_row_product(n):
    v = np.random.default_rng(n).standard_normal(n)
    t = rank_one(v)
    assert t.values.dtype == np.float64
    # the same left-to-right product, so the same bits
    assert np.array_equal(t.values, np.prod(v[layout(n).tuples_array], axis=1))
    dense = np.einsum("i,j,k,l->ijkl", v, v, v, v)
    assert np.allclose(t.to_dense(), dense, rtol=1e-15, atol=0)


def test_rank_one_reads_integers_as_float():
    t = rank_one(np.array([1, -2, 3]))
    assert t.values.dtype == np.float64
    expected = np.prod(np.array([1.0, -2.0, 3.0])[layout(3).tuples_array], axis=1)
    assert np.array_equal(t.values, expected)
    assert t[2, 2, 2, 2] == 81.0 and t[0, 1, 1, 2] == 12.0


@pytest.mark.parametrize("ensemble", ["real", "complex"])
def test_noise_draw_scales_by_the_orbit_roots(ensemble):
    lay = layout(7)
    assert lay.orbit_roots is lay.orbit_roots
    assert np.array_equal(lay.orbit_roots, np.sqrt(lay.orbit_sizes))
    g = np.random.default_rng(3)
    if ensemble == "real":
        vals = g.standard_normal(lay.size)
    else:
        vals = (g.standard_normal(lay.size) + 1j * g.standard_normal(lay.size)) * np.sqrt(0.5)
    t = sample_gaussian_tensor(7, np.random.default_rng(3), ensemble=ensemble)
    assert np.array_equal(t.values, vals / np.sqrt(lay.orbit_sizes))


def test_orbits_count_every_index_tuple():
    for n in (1, 5, 20):
        assert int(layout(n).orbit_sizes.sum()) == n**4


def test_python_tuples_are_built_on_demand():
    lay = _IndexLayout(10)
    lay.dense_index
    assert "tuples" not in vars(lay) and "index" not in vars(lay)
    t = SymmetricTensor4(10, np.arange(lay.size, dtype=float))
    assert t[3, 1, 2, 1] == t[1, 1, 2, 3] == float(lay.index[(1, 1, 2, 3)])


def test_layout_memoized_and_a_refused_request_is_retried():
    assert layout(7) is layout(7)
    assert layout(7).dense_index is layout(7).dense_index
    before = layout.cache_info()
    for _ in range(2):
        with pytest.raises(InvalidParameterError):
            layout(0)
    after = layout.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 2, before.currsize)


def test_dense_index_refused_above_limit():
    lay = _IndexLayout(DENSE_TENSOR_LIMIT + 1)
    with pytest.raises(InvalidParameterError, match="dense order-4 view"):
        lay.dense_index


def test_dense_index_peak_memory_near_its_size():
    # the scatter needs the table plus O(M) temporaries; sorting the N^4
    # index grid held about ten times the table
    lay = _IndexLayout(24)
    tracemalloc.start()
    try:
        idx = lay.dense_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * idx.nbytes


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_from_dense_matches_per_tuple_reads(n):
    lay = layout(n)
    for t in (
        sample_gaussian_tensor(n, np.random.default_rng(n)),
        sample_gaussian_tensor(n, np.random.default_rng(n), ensemble="complex"),
    ):
        dense = t.to_dense()
        expected = np.array([dense[tup] for tup in combinations_with_replacement(range(n), 4)])
        got = SymmetricTensor4.from_dense(dense).values
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(got, t.values)
    raw = np.random.default_rng(0).standard_normal((n,) * 4)
    sym = SymmetricTensor4.from_dense(raw, symmetrize=True).values
    avg = symmetrize_dense(raw)
    assert np.array_equal(sym, np.array([avg[tup] for tup in lay.tuples]))


def test_from_dense_rejects_asymmetric_input():
    raw = np.random.default_rng(1).standard_normal((3, 3, 3, 3))
    with pytest.raises(InvalidParameterError, match="not permutation symmetric"):
        SymmetricTensor4.from_dense(raw)
