"""Occupation basis, embeddings, and the full-space oracles they are
validated against."""

import json
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from oracles import FullSpaceVector, full_to_occupation, occupation_to_full, symmetrize_full
from scipy.special import gammaln

from tensorpca import (
    CapacityError,
    InvalidParameterError,
    build_basis,
    embed_power_state,
    embed_product_state,
    sample_gaussian_tensor,
    sample_signal,
    symmetrized_product,
)
from tensorpca import fock
from tensorpca._util import binom_table, log_factorials
from tensorpca.fock import (
    OccupationBasis,
    StateVector,
    _bincount,
    _convolve_raw,
    _enumerate_colex,
    load_state,
    lowering_map,
    save_state,
    tensor_occupation_amplitudes,
)
from tensorpca.symtensor import SymmetricTensor4, layout, rank_one


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBasis:
    def test_dimension_examples(self):
        assert build_basis(3, 2).dim == 6
        assert build_basis(1, 7).dim == 1
        assert build_basis(4, 4).dim == 35

    def test_dimension_formula_exhaustive(self):
        for n_modes in range(1, 9):
            for n_bos in range(0, 9):
                basis = build_basis(n_modes, n_bos)
                assert basis.dim == comb(n_modes + n_bos - 1, n_bos)
                assert basis.states.shape == (basis.dim, n_modes)
                assert np.all(basis.states.sum(axis=1) == n_bos)
                assert len({tuple(s) for s in basis.states}) == basis.dim

    def test_rank_unrank_roundtrip(self):
        basis = build_basis(3, 3)
        for i in range(basis.dim):
            assert basis.rank(basis.unrank(i)) == i

    def test_ordering_starts_with_all_in_first_mode(self):
        basis = build_basis(2, 2)
        assert tuple(basis.states[0]) == (2, 0)
        assert basis.rank(np.array([2, 0])) == 0

    def test_last_rank(self):
        basis = build_basis(4, 3)
        assert basis.rank(basis.states[-1]) == basis.dim - 1

    def test_malformed_occupation_rejected(self):
        basis = build_basis(3, 3)
        with pytest.raises(InvalidParameterError):
            basis.rank(np.array([1, 1, 0]))
        with pytest.raises(InvalidParameterError):
            basis.rank(np.array([4, -1, 0]))

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            build_basis(8, 8, max_dim=100)

    def test_memoized_and_a_refused_request_is_retried(self):
        from tensorpca import fock

        basis = build_basis(3, 5)
        assert build_basis(3, 5) is basis
        assert lowering_map(basis, 2) is lowering_map(build_basis(3, 5), 2)
        before = fock._basis.cache_info()
        for _ in range(2):
            with pytest.raises(CapacityError):
                build_basis(8, 8, max_dim=100)
            with pytest.raises(InvalidParameterError):
                build_basis(0, 3)
        after = fock._basis.cache_info()
        assert after.misses == before.misses + 4
        assert after.currsize == before.currsize

    def test_colex_table_matches_recursion(self):
        grid = [(n_modes, n_bos) for n_modes in range(1, 9) for n_bos in range(8)]
        for n_modes, n_bos in grid + [(16, 2), (16, 3), (16, 4), (30, 1)]:
            expected = _enumerate_colex_recursive(n_modes, n_bos)
            states = _enumerate_colex(n_modes, n_bos)
            assert states.dtype == np.int32
            assert np.array_equal(states, expected), (n_modes, n_bos)

    def test_colex_table_matches_sorted_multisets(self):
        grid = [(n_modes, n_bos) for n_modes in range(1, 6) for n_bos in range(9)]
        for n_modes, n_bos in grid + [(2, 256), (2, 1024)]:
            expected = _enumerate_colex_sorted(n_modes, n_bos)
            states = _enumerate_colex(n_modes, n_bos)
            assert states.dtype == np.int32
            assert np.array_equal(states, expected), (n_modes, n_bos)

    @pytest.mark.parametrize("n_modes, n_bos", [(3, 63), (64, 2)])
    def test_ranking_table_does_not_overflow(self, n_modes, n_bos):
        # a full Pascal triangle up to N + n_bos + 1 wrapped int64 from
        # N + n_bos >= 66, with an overflow warning; the ranking table
        # holds only entries up to the dimension
        table = binom_table(n_modes, n_bos)
        assert table.shape == (n_modes, n_bos + 1)
        assert all(table[j, s] == comb(j + s, j) for j in range(n_modes) for s in range(n_bos + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = OccupationBasis(n_modes, n_bos)  # not the cached build
        assert basis.dim == 2080
        assert np.array_equal(basis.rank_array(basis.states), np.arange(basis.dim))
        for i in rng(7).integers(0, basis.dim, 40).tolist():
            x = basis.unrank(i)
            assert np.array_equal(x, basis.states[i])
            assert basis.unrank(basis.rank(x)).tolist() == x.tolist()

    def test_log_factorials_match_gammaln_bit_for_bit(self):
        k = np.arange(20001)
        expected = gammaln(k + 1.0)
        assert np.array_equal(log_factorials(20000).view(np.int64), expected.view(np.int64))

    def test_log_seq_count_matches_gammaln_bit_for_bit(self):
        for n_modes, n_bos in [(3, 4), (4, 3), (6, 4), (3, 8), (8, 4), (16, 4), (5, 6), (2, 40)]:
            basis = build_basis(n_modes, n_bos)
            expected = gammaln(n_bos + 1) - np.sum(gammaln(basis.states + 1.0), axis=1)
            assert np.array_equal(basis.log_seq_count, expected), (n_modes, n_bos)


def _enumerate_colex_recursive(n_modes, n_bos):
    """Colex enumeration by recursion on the last mode: the oracle for the
    table build in fock._enumerate_colex."""
    if n_modes == 1:
        return np.array([[n_bos]], dtype=np.int32)
    blocks = []
    for m in range(n_bos + 1):
        inner = _enumerate_colex_recursive(n_modes - 1, n_bos - m)
        col = np.full((inner.shape[0], 1), m, dtype=np.int32)
        blocks.append(np.hstack([inner, col]))
    return np.vstack(blocks)


def _enumerate_colex_sorted(n_modes, n_bos):
    """Colex enumeration by sorting: the occupations of every multiset of
    n_bos modes (itertools), ordered by the last mode first."""
    occs = [
        np.bincount(np.array(modes, dtype=np.int64), minlength=n_modes)
        for modes in combinations_with_replacement(range(n_modes), n_bos)
    ]
    occs.sort(key=lambda occ: tuple(occ[::-1]))
    return np.array(occs, dtype=np.int32)


class TestLoweringMaps:
    def test_single_map_lowers_each_mode(self):
        basis, below = build_basis(3, 3), build_basis(3, 2)
        sources, coefs = lowering_map(basis, 1)
        # N * D1 rows, each reading one of the D columns
        assert sources.size == coefs.size == 3 * below.dim
        assert 0 <= sources.min() and sources.max() < basis.dim
        x = rng(50).standard_normal(basis.dim)
        lowered = (coefs * x[sources]).reshape(3, below.dim)
        for r in range(basis.dim):
            occ = basis.unrank(r)
            for mu in np.nonzero(occ)[0]:
                occ2 = occ.copy()
                occ2[mu] -= 1
                expected = np.sqrt(occ[mu]) * x[r]
                assert lowered[mu, below.rank(occ2)] == pytest.approx(expected, rel=1e-14)

    def test_memoized_and_empty_below_the_boson_count(self):
        assert lowering_map(build_basis(4, 3), 2) is lowering_map(build_basis(4, 3), 2)
        assert [a.size for a in lowering_map(build_basis(4, 1), 2)] == [0, 0]
        assert [a.size for a in lowering_map(build_basis(4, 0), 1)] == [0, 0]
        with pytest.raises(InvalidParameterError):
            lowering_map(build_basis(4, 3), 3)


class TestStateVector:
    def test_inner_products(self):
        basis = build_basis(3, 2)
        g = rng(1)
        x = StateVector(basis, g.standard_normal(basis.dim))
        y = StateVector(basis, g.standard_normal(basis.dim))
        assert x.inner(x) == pytest.approx(x.norm() ** 2, rel=1e-12)
        xc = StateVector(basis, x.amps + 1j * g.standard_normal(basis.dim))
        assert xc.inner(y) == pytest.approx(np.conj(y.inner(xc)), abs=1e-12)
        assert abs(x.inner(y)) <= x.norm() * y.norm() + 1e-12

    def test_basis_mismatch_rejected(self):
        x = StateVector(build_basis(3, 2), np.ones(6))
        y = StateVector(build_basis(2, 3), np.ones(4))
        with pytest.raises(InvalidParameterError):
            x.inner(y)


class TestProductEmbedding:
    def test_condensate_is_an_indicator(self):
        n_modes, n_bos = 4, 3
        basis = build_basis(n_modes, n_bos)
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        st = embed_product_state(basis, v)
        idx = basis.rank(np.array([n_bos, 0, 0, 0]))
        expected = np.zeros(basis.dim)
        expected[idx] = 1.0
        assert np.allclose(st.amps, expected, atol=1e-14)

    def test_two_mode_amplitudes_from_full_space(self):
        basis = build_basis(2, 2)
        v = np.array([0.8, -0.6])
        st = embed_product_state(basis, v)
        # oracle: build v (x) v in the 4-dim full space and project
        full = FullSpaceVector(2, 2, np.kron(v, v) / (v @ v))
        oracle = full_to_occupation(symmetrize_full(full), basis)
        assert np.allclose(st.amps, oracle.amps, atol=1e-12)

    def test_unit_norm(self):
        basis = build_basis(5, 4)
        for s in range(5):
            st = embed_product_state(basis, sample_signal(5, rng(s)))
            assert abs(st.norm() - 1.0) < 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            embed_product_state(build_basis(3, 2), np.zeros(3))


class TestPowerEmbedding:
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 7, 16])
    def test_cached_table_matches_per_call_ranking(self, n_modes):
        # the slot -> occupation rank table is built once per N; rank every
        # slot from its sorted tuple here, as each call once did
        basis4 = build_basis(n_modes, 4)
        for seed, ensemble in ((1, "real"), (2, "complex"), (3, "real")):
            t = sample_gaussian_tensor(n_modes, rng(seed), ensemble=ensemble)
            ranks = [
                basis4.rank(np.bincount(tup, minlength=n_modes))
                for tup in combinations_with_replacement(range(n_modes), 4)
            ]
            orbits = layout(n_modes).orbit_sizes
            expected = np.zeros(basis4.dim, dtype=t.values.dtype)
            expected[ranks] = np.sqrt(orbits) * t.values
            got = tensor_occupation_amplitudes(t)
            assert got.amps.dtype == expected.dtype
            assert np.array_equal(got.amps, expected)

    def test_single_block_is_tensor_coefficients(self):
        t = sample_gaussian_tensor(3, rng(2))
        basis = build_basis(3, 4)
        state, pre = embed_power_state(basis, t)
        block = tensor_occupation_amplitudes(t)
        assert pre == pytest.approx(block.norm(), rel=1e-12)
        assert np.allclose(state.amps, block.amps / block.norm(), atol=1e-12)

    def test_rank_one_power_equals_product_state(self):
        n_modes = 3
        v = sample_signal(n_modes, rng(3))
        t = rank_one(v) * 0.7
        for n_bos in (4, 8):
            basis = build_basis(n_modes, n_bos)
            state, pre = embed_power_state(basis, t)
            product = embed_product_state(basis, v)
            overlap = abs(state.inner(product))
            assert overlap == pytest.approx(1.0, abs=1e-10)
            assert pre == pytest.approx(t.norm() ** (n_bos // 4), rel=1e-10)

    def test_matches_full_space_symmetrizer(self):
        n_modes, n_bos = 2, 8
        t = sample_gaussian_tensor(n_modes, rng(4))
        basis = build_basis(n_modes, n_bos)
        state, pre = embed_power_state(basis, t)
        flat = t.to_dense().reshape(-1)
        oracle_full = symmetrize_full(FullSpaceVector(n_modes, n_bos, np.kron(flat, flat)))
        oracle = full_to_occupation(oracle_full, basis)
        assert pre == pytest.approx(oracle.norm(), rel=1e-10)
        assert np.allclose(state.amps, oracle.amps / oracle.norm(), atol=1e-10)

    def test_complex_tensor_supported(self):
        t = sample_gaussian_tensor(2, rng(5), ensemble="complex")
        state, pre = embed_power_state(build_basis(2, 8), t)
        assert np.iscomplexobj(state.amps)
        assert abs(state.norm() - 1.0) < 1e-10

    def test_matches_full_space_at_six_modes(self):
        # widest full space the oracle budget allows: 6^4 = 1296
        t = sample_gaussian_tensor(6, rng(20))
        basis = build_basis(6, 4)
        state, pre = embed_power_state(basis, t)
        oracle_full = symmetrize_full(FullSpaceVector(6, 4, t.to_dense().reshape(-1)))
        oracle = full_to_occupation(oracle_full, basis)
        assert pre == pytest.approx(oracle.norm(), rel=1e-10)
        assert np.allclose(state.amps, oracle.amps / oracle.norm(), atol=1e-10)

    def test_block_count_validation(self):
        t = sample_gaussian_tensor(2, rng(6))
        with pytest.raises(InvalidParameterError):
            embed_power_state(build_basis(2, 6), t)
        with pytest.raises(InvalidParameterError):
            embed_power_state(build_basis(2, 8), SymmetricTensor4.zeros(2))


class TestSymmetrizedProduct:
    def test_product_states_merge_to_product_state(self):
        n_modes = 3
        v = sample_signal(n_modes, rng(7))
        a = embed_product_state(build_basis(n_modes, 2), v)
        b = embed_product_state(build_basis(n_modes, 3), v)
        merged, weight = symmetrized_product(a, b)
        target = embed_product_state(build_basis(n_modes, 5), v)
        assert weight == pytest.approx(1.0, abs=1e-10)
        assert abs(merged.inner(target)) == pytest.approx(1.0, abs=1e-10)

    def test_merge_order_is_immaterial(self):
        # ((4+4)+(4+4)) equals the sequential (((4+4)+4)+4) construction,
        # which is what ties the cascade merges to the power embedding
        t = sample_gaussian_tensor(2, rng(21))
        basis16 = build_basis(2, 16)
        seq, pre = embed_power_state(basis16, t)
        quarter, _ = embed_power_state(build_basis(2, 4), t)
        half, w_half = symmetrized_product(quarter, quarter)
        full, w_full = symmetrized_product(half, half)
        assert abs(abs(full.inner(seq)) - 1.0) < 1e-10

    def test_matches_full_space_merge(self):
        n_modes = 2
        g = rng(8)
        a = StateVector(build_basis(n_modes, 2), g.standard_normal(3)).normalized()
        b = StateVector(build_basis(n_modes, 2), g.standard_normal(3)).normalized()
        merged, weight = symmetrized_product(a, b)
        full = np.kron(occupation_to_full(a).amps, occupation_to_full(b).amps)
        oracle_full = symmetrize_full(FullSpaceVector(n_modes, 4, full))
        oracle = full_to_occupation(oracle_full, build_basis(n_modes, 4))
        assert weight == pytest.approx(oracle.norm(), rel=1e-10)
        assert np.allclose(merged.amps * weight, oracle.amps, atol=1e-10)

    @pytest.mark.parametrize(
        "n_modes, ensemble, n_bos_x",
        [(3, "real", 4), (6, "real", 4), (8, "real", 4), (6, "complex", 4), (6, "real", 8)],
    )
    def test_blocked_convolution_is_bit_identical(self, n_modes, ensemble, n_bos_x):
        # the pairs run over blocks of rows of x (one block at N=3, six at
        # N=8), and each output bin must add the same terms in the same order
        block = tensor_occupation_amplitudes(
            sample_gaussian_tensor(n_modes, rng(30), ensemble=ensemble)
        )
        x = block
        if n_bos_x == 8:
            x = _convolve_single_shot(block, block, build_basis(n_modes, 8))
        out_basis = build_basis(n_modes, n_bos_x + 4)
        got = _convolve_raw(x, block, out_basis).amps
        want = _convolve_single_shot(x, block, out_basis).amps
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_blocked_convolution_memory(self, monkeypatch):
        # all 330^2 index pairs of 4-boson states at N=8 at once, with their
        # 8-wide occupations, peaked at 35 MB; the traced call builds the
        # merge table (1.7 MB) in blocks of rows and keeps it
        block = tensor_occupation_amplitudes(sample_gaussian_tensor(8, rng(31)))
        basis = build_basis(8, 8)
        _convolve_raw(block, block, basis)  # warm the basis tables
        monkeypatch.setattr(fock, "_merge_tables", {})
        tracemalloc.start()
        try:
            _convolve_raw(block, block, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(fock._merge_tables) == [(8, 4, 4)]
        assert peak < 12e6

    @pytest.mark.parametrize(
        "n_modes, n_a, n_b, ensemble",
        [(3, 4, 4, "real"), (2, 12, 8, "real"), (2, 8, 4, "real"), (3, 8, 4, "complex")],
    )
    def test_merge_table_cold_and_warm(self, monkeypatch, n_modes, n_a, n_b, ensemble):
        # the call that builds a table and the calls that read it add the
        # same terms in the same order as one pass over all pairs
        monkeypatch.setattr(fock, "_merge_tables", {})
        g = rng(32)
        x, y = (
            StateVector(basis, random_amps(g, basis.dim, ensemble))
            for basis in (build_basis(n_modes, n_a), build_basis(n_modes, n_b))
        )
        out_basis = build_basis(n_modes, n_a + n_b)
        want = _convolve_single_shot(x, y, out_basis).amps
        cold = _convolve_raw(x, y, out_basis).amps
        assert list(fock._merge_tables) == [(n_modes, n_a, n_b)]
        table = fock._merge_tables[(n_modes, n_a, n_b)]
        warm = _convolve_raw(x, y, out_basis).amps
        assert fock._merge_tables[(n_modes, n_a, n_b)] is table
        for got in (cold, warm):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_product_above_the_table_bound_streams(self, monkeypatch):
        # 528^2 = 278,784 pairs of 31-boson states at N=3, above the 2^18
        # pairs a kept table may hold: the product streams its table and
        # keeps nothing
        monkeypatch.setattr(fock, "_merge_tables", {})
        g = rng(33)
        small = tensor_occupation_amplitudes(sample_gaussian_tensor(3, g))
        _convolve_raw(small, small, build_basis(3, 8))
        before = dict(fock._merge_tables)
        x, y = (StateVector(build_basis(3, 31), g.standard_normal(528)) for _ in range(2))
        got = _convolve_raw(x, y, build_basis(3, 62)).amps
        assert fock._merge_tables.keys() == before.keys()
        assert all(fock._merge_tables[key] is table for key, table in before.items())
        assert got.tobytes() == _convolve_single_shot(x, y, build_basis(3, 62)).amps.tobytes()
        # 496 x 528 = 261,888 pairs fit, and are kept
        x = StateVector(build_basis(3, 30), g.standard_normal(496))
        _convolve_raw(x, y, build_basis(3, 61))
        assert (3, 30, 31) in fock._merge_tables

    def test_merge_cache_stays_within_its_bound(self, monkeypatch):
        # kept tables of up to 245,025 pairs over a sweep of sizes, 1.6 M
        # pairs in all: the cache must drop old tables to stay in 16 MiB
        monkeypatch.setattr(fock, "_merge_tables", {})
        g = rng(34)
        built = 0
        sizes = [(3, 4, 4), (9, 4, 4), (8, 4, 4), (7, 4, 4), (6, 8, 4), (5, 8, 8), (5, 8, 4),
                 (4, 12, 8), (4, 12, 12), (3, 16, 16), (3, 28, 28), (3, 30, 30), (3, 8, 4)]
        for n_modes, n_a, n_b in sizes:
            x, y = (
                StateVector(basis, g.standard_normal(basis.dim))
                for basis in (build_basis(n_modes, n_a), build_basis(n_modes, n_b))
            )
            _convolve_raw(x, y, build_basis(n_modes, n_a + n_b))
            built += x.basis.dim * y.basis.dim
            held = sum(r.nbytes + w.nbytes for r, w in fock._merge_tables.values())
            assert held <= 16 << 20
            assert (n_modes, n_a, n_b) in fock._merge_tables
        assert built > 1.5 * (1 << 20)
        assert len(fock._merge_tables) < len(sizes)

    def test_merge_cache_under_threads(self, monkeypatch):
        # trials run on a thread pool share the cache: with tables of up to
        # 400 pairs kept and 600 in all, eight threads evict each other's
        # tables on most calls, and every product must still match its
        # reference bit for bit
        monkeypatch.setattr(fock, "_merge_tables", {})
        monkeypatch.setattr(fock, "_MERGE_TABLE_PAIRS", 400)
        monkeypatch.setattr(fock, "_MERGE_CACHE_PAIRS", 600)
        g = rng(35)
        products = []
        for n_a, n_b in [(4, 4), (2, 6), (6, 2), (4, 2), (2, 4), (3, 3), (8, 4), (5, 3)]:
            x, y = (
                StateVector(basis, g.standard_normal(basis.dim))
                for basis in (build_basis(3, n_a), build_basis(3, n_b))
            )
            out_basis = build_basis(3, n_a + n_b)
            want = _convolve_single_shot(x, y, out_basis).amps.tobytes()
            products.append((x, y, out_basis, want))

        def work(offset):
            for i in range(500):
                x, y, out_basis, want = products[(offset + i) % len(products)]
                assert _convolve_raw(x, y, out_basis).amps.tobytes() == want
                with fock._merge_lock:
                    assert sum(r.size for r, _ in fock._merge_tables.values()) <= 600

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for done in [pool.submit(work, k) for k in range(8)]:
                    done.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)


def random_amps(g, dim, ensemble):
    amps = g.standard_normal(dim)
    return amps + 1j * g.standard_normal(dim) if ensemble == "complex" else amps


def _convolve_single_shot(x, y, out_basis):
    """_convolve_raw over all index pairs in one pass and one np.bincount:
    the reference for its blocked accumulation."""
    ba, bb = x.basis, y.basis
    ia, ib = np.meshgrid(np.arange(ba.dim), np.arange(bb.dim), indexing="ij")
    ia, ib = ia.ravel(), ib.ravel()
    target_occ = ba.states[ia].astype(np.int64) + bb.states[ib].astype(np.int64)
    ranks = out_basis.rank_array(target_occ)
    log_w = 0.5 * (
        ba.log_seq_count[ia] + bb.log_seq_count[ib] - out_basis.log_seq_count[ranks]
    )
    contrib = x.amps[ia] * y.amps[ib] * np.exp(log_w)
    return StateVector(out_basis, _bincount(ranks, contrib, out_basis.dim))


class TestFullSpaceOracles:
    def test_symmetrizer_fixes_symmetric_states(self):
        v = np.array([0.6, 0.8])
        full = FullSpaceVector(2, 3, np.kron(np.kron(v, v), v))
        out = symmetrize_full(full)
        assert np.allclose(out.amps, full.amps, atol=1e-14)

    def test_symmetrizer_idempotent(self):
        amps = rng(9).standard_normal(2**4)
        once = symmetrize_full(FullSpaceVector(2, 4, amps))
        twice = symmetrize_full(once)
        assert np.allclose(once.amps, twice.amps, atol=1e-12)

    def test_antisymmetric_pair_annihilated(self):
        amps = np.zeros(4)
        amps[1] = 1.0 / np.sqrt(2)  # |01>
        amps[2] = -1.0 / np.sqrt(2)  # |10>
        out = symmetrize_full(FullSpaceVector(2, 2, amps))
        assert np.allclose(out.amps, 0.0, atol=1e-14)

    def test_isometry_roundtrip(self):
        basis = build_basis(3, 3)
        x = StateVector(basis, rng(10).standard_normal(basis.dim)).normalized()
        back = full_to_occupation(occupation_to_full(x), basis)
        assert np.allclose(back.amps, x.amps, atol=1e-12)
        assert abs(np.linalg.norm(occupation_to_full(x).amps) - 1.0) < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            FullSpaceVector(10, 7, np.zeros(10**7))


class TestNoiseGramAverage:
    def test_mean_gram_is_scaled_identity(self):
        # the symmetric-subspace Gram of the 2-block noise power state
        # averages to 2 * identity over the complex ensemble
        from tensorpca._util import derived_rng
        from tensorpca.fock import _convolve_raw

        n_modes, k, samples = 2, 2, 400
        basis = build_basis(n_modes, 4 * k)
        acc = np.zeros((basis.dim, basis.dim), dtype=complex)
        for t in range(samples):
            g = sample_gaussian_tensor(n_modes, derived_rng(1, "gram", t), ensemble="complex")
            block = tensor_occupation_amplitudes(g)
            raw = _convolve_raw(block, block, basis)
            acc += np.outer(raw.amps, raw.amps.conj())
        acc /= samples
        target = 2.0 * np.eye(basis.dim)
        rel = np.linalg.norm(acc - target) / np.linalg.norm(target)
        assert rel < 0.3


class TestSnapshots:
    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_roundtrip(self, tmp_path, fmt):
        basis = build_basis(3, 4)
        x = StateVector(basis, rng(11).standard_normal(basis.dim)).normalized()
        path = tmp_path / f"state.{fmt}"
        save_state(path, x, fmt=fmt)
        back = load_state(path)
        assert back.basis.same_space(basis)
        assert np.array_equal(back.amps, x.amps)

    def test_complex_roundtrip(self, tmp_path):
        basis = build_basis(2, 4)
        g = rng(12)
        x = StateVector(basis, g.standard_normal(5) + 1j * g.standard_normal(5)).normalized()
        save_state(tmp_path / "c.bin", x, fmt="binary")
        back = load_state(tmp_path / "c.bin")
        assert np.array_equal(back.amps, x.amps)

    @staticmethod
    def _state(is_complex):
        basis = build_basis(2, 4)
        g = rng(13)
        amps = g.standard_normal(basis.dim)
        if is_complex:
            amps = amps + 1j * g.standard_normal(basis.dim)
        return StateVector(basis, amps).normalized()

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_documented_layout(self, tmp_path, is_complex):
        # FORMATS.md: binary is one header line without arrays, then 8 bytes
        # per real amplitude or 16 per complex one (re, im interleaved); the
        # JSON variant is the same header plus amps or amps_re/amps_im
        x = self._state(is_complex)
        save_state(tmp_path / "s.bin", x, fmt="binary")
        line, payload = (tmp_path / "s.bin").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert header == {"format": "tensorpca/state-v1", "N": 2, "n_bos": 4,
                          "ordering": "colex", "complex": is_complex}
        assert len(payload) == (16 if is_complex else 8) * x.basis.dim
        raw = np.frombuffer(payload, dtype="<f8")
        if is_complex:
            assert np.array_equal(raw[0::2], x.amps.real)
            assert np.array_equal(raw[1::2], x.amps.imag)
            arrays = {"amps_re": x.amps.real.tolist(), "amps_im": x.amps.imag.tolist()}
        else:
            assert np.array_equal(raw, x.amps)
            arrays = {"amps": x.amps.tolist()}
        save_state(tmp_path / "s.json", x, fmt="json")
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc == {**header, **arrays}
        # the same object written on one line is still the JSON variant
        (tmp_path / "one-line.json").write_text(json.dumps(doc))
        assert np.array_equal(load_state(tmp_path / "one-line.json").amps, x.amps)

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("cut", [3, 8])
    def test_truncated_binary_is_a_validation_error(self, tmp_path, is_complex, cut):
        # 3 bytes leave a partial float64; 8 leave one value short, which
        # for a complex state is an odd number of float64 values
        path = tmp_path / "s.bin"
        save_state(path, self._state(is_complex), fmt="binary")
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(InvalidParameterError):
            load_state(path)

    @pytest.mark.parametrize("key", ["n_bos", "complex", "amps"])
    def test_missing_json_field_is_a_validation_error(self, tmp_path, key):
        path = tmp_path / "s.json"
        save_state(path, self._state(False), fmt="json")
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError):
            load_state(path)

    def test_foreign_file_is_a_validation_error(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\xff not a header\n\x01\x02")
        with pytest.raises(InvalidParameterError):
            load_state(path)
