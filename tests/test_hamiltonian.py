"""The implicit operator against its dense oracles, plus the closed-form
moments of the aligned-frame condensate state."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import rotate_tensor, rotation_aligning

from tensorpca import (
    HamiltonianOperator,
    InvalidParameterError,
    build_basis,
    embed_product_state,
    first_quantized_dense,
    full_spectrum,
    ideal_energy,
    ideal_moment2,
    make_spiked,
    restrict_to_symmetric,
    sample_gaussian_tensor,
    sample_signal,
)
from tensorpca import pipeline
from tensorpca._util import DENSE_TENSOR_LIMIT, derived_rng, falling_factorial
from tensorpca.fock import StateVector, lowering_map
from tensorpca.hamiltonian import symmetric_isometry
from tensorpca.symtensor import SymmetricTensor4, rank_one


def rng(seed=0):
    return np.random.default_rng(seed)


def random_operator(n_modes, n_bos, seed=0):
    t = sample_gaussian_tensor(n_modes, rng(seed))
    return t, HamiltonianOperator(t, build_basis(n_modes, n_bos))


class TestMatvec:
    def test_single_mode_pair_count(self):
        t = SymmetricTensor4(1, np.array([0.37]))
        h = HamiltonianOperator(t, build_basis(1, 2))
        assert h.matvec(np.ones(1))[0] == pytest.approx(2 * 0.37, abs=1e-14)

    def test_matches_first_quantized_restriction(self):
        for n_modes, n_bos, seed in [(2, 3, 1), (3, 3, 2), (4, 2, 3)]:
            t, h = random_operator(n_modes, n_bos, seed)
            dense = h.materialize_dense()
            oracle = restrict_to_symmetric(
                first_quantized_dense(t, n_modes, n_bos), h.basis
            )
            assert np.abs(dense - oracle).max() < 1e-10

    def test_factored_matvec_matches_oracle(self):
        # n_bos in {0, 1} has no pair to lower (H = 0); N = 1 has one pair
        cases = [(3, 4, 4), (2, 5, 5), (4, 3, 6), (3, 0, 7), (3, 1, 8), (1, 4, 9)]
        for n_modes, n_bos, seed in cases:
            t, h = random_operator(n_modes, n_bos, seed)
            oracle = restrict_to_symmetric(first_quantized_dense(t, n_modes, n_bos), h.basis)
            g = rng(seed)
            real = g.standard_normal(h.dim)
            for x in (real, real + 1j * g.standard_normal(h.dim)):
                expected = oracle @ x
                scale = max(1.0, float(np.abs(expected).max()))
                assert np.abs(h.matvec(x) - expected).max() <= 1e-12 * scale
            if n_bos < 2:
                assert not np.any(h.matvec(real))

    def test_lowering_maps_are_shared_per_basis(self):
        basis = build_basis(3, 4)
        first = HamiltonianOperator(sample_gaussian_tensor(3, rng(1)), basis)
        second = HamiltonianOperator(sample_gaussian_tensor(3, rng(2)), build_basis(3, 4))
        assert second._lowering is first._lowering

    def test_number_conservation_is_structural(self):
        # the operator maps the fixed-boson basis to itself: every column of
        # the dense matrix lives in the same space, nothing leaks
        t, h = random_operator(2, 3, 6)
        dense = h.materialize_dense()
        assert dense.shape == (h.dim, h.dim)

    def test_complex_state_support(self):
        t, h = random_operator(2, 4, 7)
        g = rng(8)
        x = g.standard_normal(h.dim) + 1j * g.standard_normal(h.dim)
        y = h.matvec(x)
        assert np.allclose(y, h.matvec(x.real) + 1j * h.matvec(x.imag), atol=1e-11)

    def test_narrow_input_dtypes_apply_in_double_precision(self):
        # the matvec scales its gathered pairs in place, so an integer or
        # single-precision input must first be widened
        t, h = random_operator(3, 4, 12)
        x = np.arange(h.dim) % 3 - 1
        want = h.matvec(x.astype(float))
        for narrow in (x, x.astype(np.float32)):
            got = h.matvec(narrow)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        cx = (x + 1j * x[::-1]).astype(np.complex64)
        assert h.matvec(cx).tobytes() == h.matvec(cx.astype(complex)).tobytes()

    def test_complex_tensor_rejected(self):
        t = sample_gaussian_tensor(2, rng(9), ensemble="complex")
        with pytest.raises(InvalidParameterError):
            HamiltonianOperator(t, build_basis(2, 2))

    def test_hermiticity(self):
        for n_modes, n_bos in [(2, 3), (3, 4), (4, 2)]:
            t, h = random_operator(n_modes, n_bos, n_modes + n_bos)
            g = rng(10 + n_modes)
            for _ in range(100):
                x = g.standard_normal(h.dim)
                y = g.standard_normal(h.dim)
                hx, hy = h.matvec(x), h.matvec(y)
                lhs, rhs = x @ hy, hx @ y
                scale = abs(x @ hy) + np.linalg.norm(hx) * np.linalg.norm(y) + 1.0
                assert abs(lhs - rhs) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "n_modes, n_bos", [(3, 4), (4, 3), (6, 4), (3, 8), (8, 4), (16, 4), (5, 6)]
    )
    def test_dense_assembly_matches_coo_to_dense_bit_for_bit(self, n_modes, n_bos):
        # materialize_dense sums the same entries in the same order as a
        # scipy COO to-dense conversion of the operator's triples, built
        # here pair block by pair block from the factors A and W: row block
        # p of A reads source s_p with coefficient c_p, and each lowered
        # state puts c_p W[p, q] c_q at (s_p, s_q)
        _, h = random_operator(n_modes, n_bos, n_modes * 10 + n_bos)
        dense = h.materialize_dense()
        w = h.pair_weights
        sources, coefs = (a.reshape(w.shape[0], -1) for a in lowering_map(h.basis, 2))
        blocks = [(p, q) for p in range(w.shape[0]) for q in range(w.shape[0])]
        rows = np.concatenate([sources[p] for p, _ in blocks])
        cols = np.concatenate([sources[q] for _, q in blocks])
        vals = np.concatenate([coefs[p] * w[p, q] * coefs[q] for p, q in blocks])
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(h.dim, h.dim)).toarray()
        del rows, cols, vals
        expected = coo + coo.T
        del coo
        expected /= 2.0
        assert np.array_equal(dense, expected)

    def test_dense_assembly_peak_memory(self):
        # the asymmetry check and (H + H^T)/2 share one preallocated buffer,
        # so the peak is the raw assembly plus the result
        _, h = random_operator(12, 4, 124)
        h.materialize_dense()  # warm the lowering maps outside the trace
        tracemalloc.start()
        try:
            dense = h.materialize_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * dense.nbytes

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 6, 16, 24])
    def test_pair_weights_match_dense_gather_bit_for_bit(self, n_modes):
        # W read through the per-N slot table equals the gather from the
        # dense N^4 tensor it replaced
        t = sample_gaussian_tensor(n_modes, rng(n_modes))
        h = HamiltonianOperator(t, build_basis(n_modes, 2))
        pa, pb = np.triu_indices(n_modes)
        mult = np.where(pa == pb, 1.0, 2.0)
        dense = t.to_dense()
        expected = (mult[:, None] * mult[None, :]) * dense[
            pa[:, None], pb[:, None], pa[None, :], pb[None, :]
        ]
        assert h._weights.dtype == expected.dtype
        assert np.array_equal(h._weights, expected)
        again = HamiltonianOperator(t * 0.5, build_basis(n_modes, 3))
        assert np.array_equal(again._weights, 0.5 * expected)

    @pytest.mark.parametrize("n_modes, n_bos", [(6, 4), (3, 8), (6, 8), (16, 4)])
    def test_gram_diagonal_peaks_at_n_n_minus_1(self, n_modes, n_bos):
        # A^T A is diagonal, (n^2 + sum_rho n_rho^2) / 2 - n at each state,
        # largest with all bosons in one mode; the pair-weight bound on ||H||
        # and pipeline._GRAM_SLACK rest on it
        basis = build_basis(n_modes, n_bos)
        sources, coefs = lowering_map(basis, 2)
        gram = np.bincount(sources, coefs**2, minlength=basis.dim)
        occ = basis.states.astype(float)
        closed = 0.5 * (n_bos**2 + (occ**2).sum(axis=1)) - n_bos
        np.testing.assert_allclose(gram, closed, rtol=1e-14, atol=0.0)
        n_pairs = falling_factorial(n_bos, 2)
        assert gram.max() == pytest.approx(n_pairs, rel=1e-14, abs=0.0)
        assert gram.max() <= n_pairs * (1.0 + pipeline._GRAM_SLACK)

    def test_pair_table_keeps_the_dense_limit(self):
        n_modes = DENSE_TENSOR_LIMIT + 1
        t = SymmetricTensor4.zeros(n_modes)
        with pytest.raises(InvalidParameterError, match="dense order-4 view"):
            HamiltonianOperator(t, build_basis(n_modes, 1))

    def test_pair_table_memoized_and_a_refused_request_is_retried(self):
        from tensorpca.hamiltonian import _pair_table

        assert _pair_table(5) is _pair_table(5)
        before = _pair_table.cache_info()
        for _ in range(2):
            with pytest.raises(InvalidParameterError, match="dense order-4 view"):
                _pair_table(DENSE_TENSOR_LIMIT + 1)
        after = _pair_table.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 2, before.currsize)


class TestFirstQuantizedOracle:
    def test_single_boson_gives_zero(self):
        t = sample_gaussian_tensor(2, rng(11))
        assert np.abs(first_quantized_dense(t, 2, 1)).max() == 0.0

    def test_commutes_with_symmetrizer(self):
        from itertools import permutations

        n_modes, n_bos = 2, 3
        t = sample_gaussian_tensor(n_modes, rng(12))
        h_full = first_quantized_dense(t, n_modes, n_bos)
        dim = n_modes**n_bos
        proj = np.zeros((dim, dim))
        eye = np.eye(dim).reshape((n_modes,) * n_bos + (dim,))
        for perm in permutations(range(n_bos)):
            proj += np.transpose(eye, perm + (n_bos,)).reshape(dim, dim)
        proj /= 6.0
        comm = h_full @ proj - proj @ h_full
        assert np.linalg.norm(comm) < 1e-10

    def test_isometry_columns_orthonormal(self):
        basis = build_basis(3, 3)
        v = symmetric_isometry(basis)
        assert np.abs(v.T @ v - np.eye(basis.dim)).max() < 1e-12


class TestExpectation:
    def test_condensate_mean_energy_reads_one_entry(self):
        n_modes, n_bos = 3, 4
        t = sample_gaussian_tensor(n_modes, rng(13))
        h = HamiltonianOperator(t, build_basis(n_modes, n_bos))
        psi = embed_product_state(h.basis, np.sqrt(n_modes) * np.eye(n_modes)[0])
        expected = n_bos * (n_bos - 1) * t[0, 0, 0, 0]
        assert h.expectation(psi) == pytest.approx(expected, rel=1e-10)
        assert ideal_energy(t, n_bos) == pytest.approx(expected, rel=1e-12)

    def test_noiseless_spike_energy_value(self):
        lam, n_modes, n_bos = 0.1, 4, 3
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        t = make_spiked(lam, v, SymmetricTensor4.zeros(n_modes))
        h = HamiltonianOperator(t.tensor, build_basis(n_modes, n_bos))
        psi = embed_product_state(h.basis, v)
        assert h.expectation(psi) == pytest.approx(9.6, abs=1e-9)

    def test_variational_bound(self):
        # every spiked instance: top eigenvalue >= condensate expectation
        for seed in range(50):
            g = derived_rng(seed, "variational")
            n_modes, n_bos = 3, 3
            v = sample_signal(n_modes, g)
            t = make_spiked(0.5, v, sample_gaussian_tensor(n_modes, g))
            h = HamiltonianOperator(t.tensor, build_basis(n_modes, n_bos))
            psi = embed_product_state(h.basis, v)
            top = full_spectrum(h)[0]
            assert top >= h.expectation(psi) - 1e-9

    def test_unnormalized_state_rejected(self):
        t, h = random_operator(2, 2, 14)
        with pytest.raises(InvalidParameterError):
            h.expectation(StateVector(h.basis, 2.0 * np.ones(h.dim)))


class TestSecondMoment:
    def test_pair_counts(self):
        assert falling_factorial(4, 2) == 12
        assert falling_factorial(4, 3) == 24
        assert falling_factorial(4, 4) == 24
        assert falling_factorial(2, 3) == 0
        assert falling_factorial(3, 4) == 0

    def test_matches_operator_application(self):
        n_modes, n_bos = 3, 4
        basis = build_basis(n_modes, n_bos)
        psi = embed_product_state(basis, np.sqrt(n_modes) * np.eye(n_modes)[0])
        for seed in range(5):
            t = sample_gaussian_tensor(n_modes, rng(20 + seed))
            h = HamiltonianOperator(t, basis)
            hpsi = h.apply(psi)
            direct = float(np.vdot(hpsi.amps, hpsi.amps).real)
            assert ideal_moment2(t, n_bos) == pytest.approx(direct, rel=1e-8)

    def test_small_boson_counts_drop_terms(self):
        # with two bosons only the pair-pair term survives
        t = sample_gaussian_tensor(2, rng(26))
        basis = build_basis(2, 2)
        h = HamiltonianOperator(t, basis)
        psi = embed_product_state(basis, np.sqrt(2) * np.eye(2)[0])
        hpsi = h.apply(psi)
        assert ideal_moment2(t, 2) == pytest.approx(float(hpsi.amps @ hpsi.amps), rel=1e-10)

    def test_noiseless_spike_moments_square(self):
        lam, n_modes, n_bos = 0.2, 3, 4
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        t = (rank_one(v) * lam)
        mean = ideal_energy(t, n_bos)
        m2 = ideal_moment2(t, n_bos)
        # pure condensate: H is diagonal on it, so the distribution is a
        # point mass and the second moment exceeds the square only through
        # the falling-factorial bookkeeping of repeated pairs
        assert m2 >= mean**2 - 1e-9
        lamN2 = lam * n_modes**2
        expected = (
            falling_factorial(n_bos, 4) * lamN2**2
            + 4 * falling_factorial(n_bos, 3) * lamN2**2
            + 2 * falling_factorial(n_bos, 2) * lamN2**2
        )
        assert m2 == pytest.approx(expected, rel=1e-12)

    def test_coefficient_averages_over_noise(self):
        # Monte-Carlo averages of the three aligned-frame sums match their
        # analytic values for the symmetrized ensemble at N=3
        n_modes, n_bos, samples = 3, 4, 5000
        g = rng(27)
        t0000, row, block = [], [], []
        for _ in range(samples):
            dense = sample_gaussian_tensor(n_modes, g).to_dense()
            t0000.append(dense[0, 0, 0, 0] ** 2)
            row.append(np.sum(dense[0, 0, 0, :] ** 2))
            block.append(np.sum(dense[0, 0, :, :] ** 2))
        # canonical variances: var(T_0000)=1, var(T_000a)=1/4,
        # var(T_00ab)=1/12 off-diagonal, 1/6 repeated
        assert np.mean(t0000) == pytest.approx(1.0, rel=0.10)
        assert np.mean(row) == pytest.approx(1.0 + 2 * 0.25, rel=0.10)
        assert np.mean(block) == pytest.approx(1.0 + 4 * 0.25 + 2 / 6 + 2 / 12, rel=0.10)


class TestRotations:
    def test_alignment(self):
        v = sample_signal(5, rng(30))
        u = rotation_aligning(v)
        assert np.allclose(u @ u.T, np.eye(5), atol=1e-12)
        assert np.allclose(u @ v, np.linalg.norm(v) * np.eye(5)[0], atol=1e-10)

    def test_rotation_preserves_spectrum(self):
        n_modes, n_bos = 3, 3
        t = sample_gaussian_tensor(n_modes, rng(31))
        q, _ = np.linalg.qr(rng(32).standard_normal((n_modes, n_modes)))
        t_rot = rotate_tensor(t, q)
        basis = build_basis(n_modes, n_bos)
        spec = full_spectrum(HamiltonianOperator(t, basis))
        spec_rot = full_spectrum(HamiltonianOperator(t_rot, basis))
        assert np.allclose(spec, spec_rot, atol=1e-8)

    def test_aligned_spike_lands_on_first_mode(self):
        v = sample_signal(4, rng(33))
        t = rank_one(v)
        t_rot = rotate_tensor(t, rotation_aligning(v))
        assert t_rot[0, 0, 0, 0] == pytest.approx(16.0, rel=1e-10)
        off = np.abs(t_rot.values).sum() - abs(t_rot[0, 0, 0, 0])
        assert off == pytest.approx(0.0, abs=1e-8)
