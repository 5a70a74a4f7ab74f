"""Density matrices, candidate extraction, correlation, and boosting."""

import numpy as np
import pytest
from oracles import (
    occupation_to_full,
    power_iteration_reference,
    recovery_energy_bound_check,
    rotate_tensor,
)

from tensorpca import (
    HamiltonianOperator,
    InvalidParameterError,
    ModelParams,
    boost,
    build_basis,
    corr,
    detect_spectral,
    embed_power_state,
    embed_product_state,
    make_spiked,
    randomized_recover,
    recovery_chain,
    sample_gaussian_tensor,
    sample_instance,
    sample_signal,
    spdm,
)
from tensorpca._util import derived_rng
from tensorpca.fock import StateVector
from tensorpca.recovery import DegenerateIterationError
from tensorpca.symtensor import SymmetricTensor4


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDensityMatrix:
    def test_condensate_concentrates_on_one_mode(self):
        n_modes, n_bos = 4, 3
        basis = build_basis(n_modes, n_bos)
        psi = embed_product_state(basis, np.sqrt(n_modes) * np.eye(n_modes)[0])
        raw = spdm(psi, normalization="raw")
        expected = np.zeros((n_modes, n_modes))
        expected[0, 0] = n_bos
        assert np.allclose(raw, expected, atol=1e-12)

    def test_product_state_is_rank_one(self):
        n_modes, n_bos = 3, 3
        v = sample_signal(n_modes, rng(1))
        psi = embed_product_state(build_basis(n_modes, n_bos), v)
        per = spdm(psi, normalization="per_boson")
        assert np.allclose(per, np.outer(v, v) / n_modes, atol=1e-10)

    def test_trace_and_positivity(self):
        basis = build_basis(3, 4)
        x = StateVector(basis, rng(2).standard_normal(basis.dim)).normalized()
        raw = spdm(x, normalization="raw")
        assert np.trace(raw) == pytest.approx(4.0, abs=1e-9)
        assert np.abs(raw - raw.T.conj()).max() < 1e-10
        assert np.linalg.eigvalsh(raw).min() > -1e-9
        per = spdm(x, normalization="per_boson")
        assert np.trace(per) == pytest.approx(1.0, abs=1e-9)

    def test_matches_full_space_oracle(self):
        # rho_{mu nu} = n_bos sum_rest conj(psi[mu, rest]) psi[nu, rest] for a
        # symmetric full-space state psi
        for n_modes, n_bos, seed in [(3, 2, 40), (2, 4, 41), (4, 3, 42), (3, 1, 43)]:
            basis = build_basis(n_modes, n_bos)
            g = rng(seed)
            real = g.standard_normal(basis.dim)
            for amps in (real, real + 1j * g.standard_normal(basis.dim)):
                x = StateVector(basis, amps).normalized()
                psi = occupation_to_full(x).amps.reshape(n_modes, -1)
                oracle = n_bos * np.conj(psi) @ psi.T
                assert np.abs(spdm(x, normalization="raw") - oracle).max() < 1e-12

    def test_rotation_equivariance(self):
        n_modes, n_bos = 3, 4
        t = sample_gaussian_tensor(n_modes, rng(3))
        q, _ = np.linalg.qr(rng(4).standard_normal((n_modes, n_modes)))
        basis = build_basis(n_modes, n_bos)
        state, _ = embed_power_state(basis, t)
        state_rot, _ = embed_power_state(basis, rotate_tensor(t, q))
        rho = spdm(state)
        rho_rot = spdm(state_rot)
        assert np.abs(rho_rot - q @ rho @ q.T).max() < 1e-8

    def test_unnormalized_rejected(self):
        basis = build_basis(2, 2)
        with pytest.raises(InvalidParameterError):
            spdm(StateVector(basis, np.ones(basis.dim)))


class TestCorrelation:
    def test_trivial_values(self):
        x = rng(5).standard_normal(6)
        assert corr(x, x) == pytest.approx(1.0, abs=1e-12)
        assert corr(x, -x) == pytest.approx(-1.0, abs=1e-12)
        assert corr(np.eye(4)[0], np.eye(4)[1]) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            corr(np.zeros(3), np.ones(3))


class TestCandidateExtraction:
    def test_rank_one_density_matrix(self):
        n = 5
        rho = np.zeros((n, n))
        rho[0, 0] = 1.0
        cand = randomized_recover(rho)
        assert np.allclose(cand, np.sqrt(n) * np.eye(n)[0], atol=1e-12)
        cand_r = randomized_recover(
            rho, rng(6), mode="randomized"
        )
        assert np.allclose(np.abs(cand_r), np.sqrt(n) * np.eye(n)[0], atol=1e-12)

    def test_rotation_equivariance_recovers_direction(self):
        n_modes, n_bos = 4, 3
        v = sample_signal(n_modes, rng(7))
        psi = embed_product_state(build_basis(n_modes, n_bos), v)
        rho = spdm(psi)
        cand = randomized_recover(rho)
        assert abs(corr(cand, v)) == pytest.approx(1.0, abs=1e-8)

    def test_featureless_density_matrix_gives_random_direction(self):
        n = 64
        v = sample_signal(n, rng(8))
        hits = 0
        trials = 200
        for t in range(trials):
            cand = randomized_recover(
                np.eye(n) / n, derived_rng(8, "mixed", t), mode="randomized"
            )
            hits += abs(corr(cand, v)) <= 4.0 / np.sqrt(n)
        assert hits / trials >= 0.95

    def test_norm_and_sign_convention(self):
        rho = np.diag([0.1, 0.9, 0.0])
        cand = randomized_recover(rho)
        assert np.linalg.norm(cand) == pytest.approx(np.sqrt(3), abs=1e-12)
        first_big = cand[np.abs(cand) > 1e-12 * np.abs(cand).max()][0]
        assert first_big > 0

    def test_zero_density_matrix_rejected(self):
        with pytest.raises(InvalidParameterError):
            randomized_recover(np.zeros((3, 3)))


class TestBoost:
    def test_noiseless_spike_converges_fast(self):
        n = 6
        v = sample_signal(n, rng(9))
        t0 = make_spiked(0.8, v, SymmetricTensor4.zeros(n))
        u0 = v / np.linalg.norm(v) + 0.9 * rng(10).standard_normal(n)
        boosted, iters = boost(t0, u0)
        assert iters <= 3
        assert abs(corr(boosted, v)) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_start_is_degenerate(self):
        # T(u, u, u, .) is exactly zero by either contraction
        n = 4
        v = np.sqrt(n) * np.eye(n)[0]
        t0 = make_spiked(1.0, v, SymmetricTensor4.zeros(n))
        for power_iteration in (boost, power_iteration_reference):
            with pytest.raises(DegenerateIterationError):
                power_iteration(t0, np.eye(n)[1])

    @pytest.mark.parametrize("spiked", [True, False])
    @pytest.mark.parametrize("n_modes", [2, 3, 6, 16])
    def test_matches_einsum_reference(self, n_modes, spiked):
        # the GEMV contraction sums in another order than the einsum, so the
        # iterates may move in their last bits, but never the iteration count.
        # A run cut at max_iters has not settled, and its later steps can grow
        # a last-bit difference (to 8.5e-7 on unspiked N=16 draws), so such a
        # run is compared after its first step, where it is the contraction
        # alone
        params = ModelParams(N=n_modes, n_bos=4, lambda_bar=0.12, seed=26)
        for t in range(3):
            g = derived_rng(26, f"boost-oracle-{n_modes}-{spiked}", t)
            t0, _ = sample_instance(params, spiked=spiked, rng=g)
            state = detect_spectral(t0, params, seed=t).state
            cand = randomized_recover(spdm(state), derived_rng(t, "randomized-recover"))
            for u0 in (cand, g.standard_normal(n_modes)):
                expected, expected_iters = power_iteration_reference(t0, u0)
                boosted, iters = boost(t0, u0)
                assert iters == expected_iters
                if iters == 50:
                    expected, _ = power_iteration_reference(t0, u0, max_iters=1)
                    boosted, _ = boost(t0, u0, max_iters=1)
                err = np.linalg.norm(boosted - expected) / np.linalg.norm(expected)
                assert err <= 1e-13, (n_modes, spiked, t, err)

    def test_contracts_without_einsum(self, monkeypatch):
        calls, einsum = [], np.einsum

        def spy(*args, **kwargs):
            calls.append(args)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        t0 = make_spiked(0.8, sample_signal(6, rng(9)), SymmetricTensor4.zeros(6))
        boost(t0, rng(10).standard_normal(6))
        assert calls == []

    def test_zero_start_rejected(self):
        t0 = make_spiked(1.0, np.ones(3) * np.sqrt(3), SymmetricTensor4.zeros(3))
        with pytest.raises(InvalidParameterError):
            boost(t0, np.zeros(3))

    def test_moderate_start_reaches_strong_correlation(self):
        n = 16
        params = ModelParams(N=n, n_bos=4, lambda_bar=0.12, seed=11)
        wins = 0
        for t in range(10):
            g = derived_rng(11, "boost-smoke", t)
            t0, v = sample_instance(params, spiked=True, rng=g)
            w = g.standard_normal(n)
            w -= (w @ v) * v / (v @ v)
            w /= np.linalg.norm(w)
            u0 = 0.4 * v / np.linalg.norm(v) + np.sqrt(1 - 0.16) * w
            boosted, _ = boost(t0, u0)
            wins += abs(corr(boosted, v)) >= 0.9
        assert wins >= 8


class TestEnergyBound:
    def test_condensate_saturates(self):
        n_modes, n_bos, lam_plus = 3, 4, 0.7
        basis = build_basis(n_modes, n_bos)
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        psi = embed_product_state(basis, v)
        lhs, rhs, holds = recovery_energy_bound_check(psi, v, lam_plus)
        assert holds
        assert lhs == pytest.approx(lam_plus * n_modes**2 * n_bos * (n_bos - 1), rel=1e-9)
        assert rhs == pytest.approx(lhs, rel=1e-9)  # equality at the condensate

    def test_orthogonal_state_gives_zero_both_sides(self):
        n_modes, n_bos = 3, 3
        basis = build_basis(n_modes, n_bos)
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        amps = np.zeros(basis.dim)
        amps[basis.rank(np.array([0, n_bos, 0]))] = 1.0
        psi = StateVector(basis, amps)
        lhs, rhs, holds = recovery_energy_bound_check(psi, v, 0.5)
        assert holds
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_holds_for_random_states(self):
        n_modes, n_bos = 3, 4
        basis = build_basis(n_modes, n_bos)
        v = sample_signal(n_modes, rng(12))
        for t in range(100):
            amps = derived_rng(12, "bound", t).standard_normal(basis.dim)
            psi = StateVector(basis, amps).normalized()
            lhs, rhs, holds = recovery_energy_bound_check(psi, v, 0.3)
            assert holds, (lhs, rhs)


class TestChain:
    def test_candidate_beats_random_baseline(self):
        # the 4/sqrt(N) random-direction scale only leaves room below
        # correlation 1 for N > 16, so this runs the spectral-route chain at
        # N=36 with two bosons (dense, 666 states)
        n_modes, n_bos, trials = 36, 2, 15
        bound_unit = __import__("tensorpca").analytic_bounds(
            ModelParams(N=n_modes, n_bos=n_bos, lambda_bar=1.0)
        )
        lam_bar = 1.5 * bound_unit.e_max / (n_bos * (n_bos - 1) * n_modes**2)
        params = ModelParams(N=n_modes, n_bos=n_bos, lambda_bar=lam_bar, seed=31)
        import tensorpca as tp

        baseline = 4.0 / np.sqrt(n_modes)
        wins = detected = 0
        for trial in range(trials):
            tensor, v = sample_instance(
                params, spiked=True, rng=derived_rng(31, "baseline36", trial)
            )
            h = HamiltonianOperator(tensor.tensor, build_basis(n_modes, n_bos))
            lam1, vec = tp.leading_eigenvalue(h, seed=trial)
            if lam1 < tp.analytic_bounds(params).e_cut:
                continue
            detected += 1
            cand = randomized_recover(spdm(vec.normalized()))
            wins += abs(corr(cand, v)) > baseline
        assert detected == trials
        assert wins >= int(0.8 * trials)

    def test_sign_flip_invariance(self):
        n_modes, n_bos = 4, 4
        params = ModelParams(N=n_modes, n_bos=n_bos, lambda_bar=0.6, seed=13)
        g = derived_rng(13, "sign")
        v = sample_signal(n_modes, g)
        noise = sample_gaussian_tensor(n_modes, g)
        for sign in (1.0, -1.0):
            t0 = make_spiked(0.6, sign * v, noise)
            basis = build_basis(n_modes, n_bos)
            state, _ = embed_power_state(basis, t0.tensor)
            rep = recovery_chain(state, t0, v_reference=v, seed=13)
            if sign > 0:
                base = abs(rep.corr_boosted)
            else:
                assert abs(rep.corr_boosted) == pytest.approx(base, abs=1e-6)

    def test_report_contract(self):
        n_modes = 3
        params = ModelParams(N=n_modes, n_bos=4, lambda_bar=1.2, seed=14)
        t0, v = sample_instance(params, spiked=True)
        basis = build_basis(n_modes, 4)
        state, _ = embed_power_state(basis, t0.tensor)
        rep = recovery_chain(state, t0, v_reference=v, seed=14)
        assert np.linalg.norm(rep.candidate) == pytest.approx(np.sqrt(n_modes), abs=1e-10)
        assert abs(rep.corr_initial) <= 1.0 + 1e-12
        assert abs(rep.corr_boosted) <= 1.0 + 1e-12
        assert rep.iterations_used >= 1
