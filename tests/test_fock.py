"""Occupation basis, embeddings, and the full-space oracles they are
validated against."""

from math import comb

import numpy as np
import pytest

from tensorpca import (
    CapacityError,
    FullSpaceVector,
    InvalidParameterError,
    build_basis,
    embed_power_state,
    embed_product_state,
    sample_gaussian_tensor,
    sample_signal,
    symmetrized_product,
)
from tensorpca.fock import (
    StateVector,
    full_to_occupation,
    inner,
    load_state,
    lowering_map,
    norm,
    occupation_to_full,
    save_state,
    symmetrize_full,
    tensor_occupation_amplitudes,
)
from tensorpca.symtensor import SymmetricTensor4, rank_one


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


class TestLoweringMaps:
    def test_single_map_lowers_each_mode(self):
        basis, below = build_basis(3, 3), build_basis(3, 2)
        lowering = lowering_map(basis, 1)
        assert lowering.shape == (3 * below.dim, basis.dim)
        x = rng(50).standard_normal(basis.dim)
        lowered = (lowering @ x).reshape(3, below.dim)
        for r in range(basis.dim):
            occ = basis.unrank(r)
            for mu in np.nonzero(occ)[0]:
                occ2 = occ.copy()
                occ2[mu] -= 1
                expected = np.sqrt(occ[mu]) * x[r]
                assert lowered[mu, below.rank(occ2)] == pytest.approx(expected, rel=1e-14)

    def test_memoized_and_empty_below_the_boson_count(self):
        assert lowering_map(build_basis(4, 3), 2) is lowering_map(build_basis(4, 3), 2)
        assert lowering_map(build_basis(4, 1), 2).shape == (0, 4)
        assert lowering_map(build_basis(4, 0), 1).shape == (0, 1)
        with pytest.raises(InvalidParameterError):
            lowering_map(build_basis(4, 3), 3)


class TestStateVector:
    def test_inner_products(self):
        basis = build_basis(3, 2)
        g = rng(1)
        x = StateVector(basis, g.standard_normal(basis.dim))
        y = StateVector(basis, g.standard_normal(basis.dim))
        assert inner(x, x) == pytest.approx(norm(x) ** 2, rel=1e-12)
        xc = StateVector(basis, x.amps + 1j * g.standard_normal(basis.dim))
        assert inner(xc, y) == pytest.approx(np.conj(inner(y, xc)), abs=1e-12)
        assert abs(inner(x, y)) <= norm(x) * norm(y) + 1e-12

    def test_basis_mismatch_rejected(self):
        x = StateVector(build_basis(3, 2), np.ones(6))
        y = StateVector(build_basis(2, 3), np.ones(4))
        with pytest.raises(InvalidParameterError):
            inner(x, y)


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
    def test_single_block_is_tensor_coefficients(self):
        t = sample_gaussian_tensor(3, rng(2))
        basis = build_basis(3, 4)
        state, pre = embed_power_state(basis, t, 1)
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
        state, pre = embed_power_state(basis, t, 2)
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
        state, pre = embed_power_state(basis, t, 1)
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
        seq, pre = embed_power_state(basis16, t, 4)
        quarter, _ = embed_power_state(build_basis(2, 4), t, 1)
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
