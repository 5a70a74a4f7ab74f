"""Lanczos, filtered projection, dense spectra, analytic thresholds, and
the density-of-states estimator."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from tensorpca import (
    CapacityError,
    ConvergenceError,
    HamiltonianOperator,
    InvalidParameterError,
    ModelParams,
    analytic_bounds,
    build_basis,
    density_of_states,
    full_spectrum,
    lanczos,
    leading_eigenvalue,
    make_spiked,
    project_above,
    sample_gaussian_tensor,
    sample_signal,
)
from tensorpca._util import derived_rng
from tensorpca.spectral import _e_max_at, _e_zero_at
from tensorpca.symtensor import rank_one


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLanczos:
    def test_exact_at_full_dimension(self):
        a = np.diag([3.0, 1.0, 0.0])
        out = lanczos(a, np.ones(3))
        assert out.iterations == 3
        assert np.allclose(np.sort(out.ritz_values), [0.0, 1.0, 3.0], atol=1e-12)

    def test_eigenvector_start_terminates_immediately(self):
        a = np.diag([3.0, 1.0, 0.0])
        out = lanczos(a, np.array([0.0, 1.0, 0.0]))
        assert out.invariant_subspace
        assert out.iterations == 1
        assert out.ritz_values[0] == pytest.approx(1.0, abs=1e-12)
        assert out.residuals[0] <= 1e-12

    def test_top_pair_matches_dense(self):
        n_modes, n_bos = 4, 4
        v = sample_signal(n_modes, rng(1))
        t = make_spiked(0.5, v, sample_gaussian_tensor(n_modes, rng(2)))
        h = HamiltonianOperator(t.tensor, build_basis(n_modes, n_bos))
        dense_top = full_spectrum(h).eigenvalues[0]
        out = lanczos(h, derived_rng(3, "start").standard_normal(h.dim), tol=1e-10)
        assert out.ritz_values[0] == pytest.approx(dense_top, abs=1e-8 * max(1, abs(dense_top)))

    def test_krylov_storage_follows_iterations_run(self):
        # a default call may run up to D iterations; its Krylov storage must
        # grow with the handful of iterations a well-separated top
        # eigenvalue needs, not be reserved for all D up front
        dim = 100_000
        diag = np.linspace(0.0, 1.0, dim)
        diag[0] = 10.0
        op = sp.diags(diag, format="csr")
        tracemalloc.start()
        try:
            lam, _ = leading_eigenvalue(op, tol=1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lam == pytest.approx(10.0, rel=1e-10)
        assert peak < 32 * dim * 8

    def test_start_expansion_recovers_start(self):
        a = np.diag([5.0, 2.0, -1.0, 0.5])
        x = rng(4).standard_normal(4)
        out = lanczos(a, x)
        reconstructed = out.ritz_vectors @ out.start_coeffs
        assert np.allclose(reconstructed, x, atol=1e-10)

    def test_orthonormal_ritz_vectors(self):
        m = rng(5).standard_normal((40, 40))
        m = (m + m.T) / 2
        out = lanczos(m, rng(6).standard_normal(40))
        gram = out.ritz_vectors.T @ out.ritz_vectors
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


class TestLeadingEigenvalue:
    def test_noiseless_spike_closed_form(self):
        lam, n_modes, n_bos = 0.3, 4, 3
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        t = rank_one(v) * lam
        h = HamiltonianOperator(t, build_basis(n_modes, n_bos))
        top, vec = leading_eigenvalue(h, seed=0)
        assert top == pytest.approx(lam * n_modes**2 * n_bos * (n_bos - 1), abs=1e-9)

    def test_matches_dense(self):
        m = rng(7).standard_normal((60, 60))
        m = (m + m.T) / 2
        top, _ = leading_eigenvalue(m, seed=1)
        assert top == pytest.approx(np.linalg.eigvalsh(m)[-1], abs=1e-7)

    def test_deterministic_for_fixed_seed(self):
        m = rng(8).standard_normal((30, 30))
        m = (m + m.T) / 2
        a = leading_eigenvalue(m, seed=9)[0]
        b = leading_eigenvalue(m, seed=9)[0]
        assert a == b

    def test_nonconvergence_raises_with_best_estimate(self):
        m = rng(10).standard_normal((200, 200))
        m = (m + m.T) / 2
        with pytest.raises(ConvergenceError) as exc:
            leading_eigenvalue(m, restarts=2, max_iters=3, tol=1e-14, seed=2)
        assert exc.value.best is not None

    def test_zero_operator(self):
        top, _ = leading_eigenvalue(np.zeros((5, 5)), seed=3)
        assert top == 0.0


class TestProjectAbove:
    def setup_method(self):
        self.diag = np.concatenate([np.full(4, 9.0) + 0.05 * np.arange(4), np.zeros(12)])
        self.a = np.diag(self.diag)

    def test_passband_eigenvector(self):
        x = np.eye(16)[0]
        for method in ("dense", "ritz"):
            _, w, _ = project_above(self.a, x, 4.0, 6.0, method=method)
            assert w >= 1.0 - 1e-10

    def test_stopband_eigenvector(self):
        x = np.eye(16)[8]
        for method in ("dense", "ritz"):
            _, w, _ = project_above(self.a, x, 4.0, 6.0, method=method)
            assert w <= 1e-10

    def test_weight_matches_exact_projector(self):
        x = rng(11).standard_normal(16)
        x /= np.linalg.norm(x)
        exact = float(np.sum(x[:4] ** 2))
        for method in ("dense", "ritz"):
            projected, w, proj = project_above(self.a, x, 4.0, 6.0, method=method)
            assert w == pytest.approx(exact, abs=1e-6)
            assert np.linalg.norm(projected) ** 2 == pytest.approx(w, rel=1e-9)
        assert proj.achieved_error <= 1e-8

    def test_chebyshev_filter_contract(self):
        x = rng(12).standard_normal(16)
        x /= np.linalg.norm(x)
        exact = float(np.sum(x[:4] ** 2))
        projected, w, proj = project_above(
            self.a, x, 2.0, 7.0, method="chebyshev", tol=0.05
        )
        assert proj.method == "chebyshev"
        assert proj.achieved_error <= 0.05
        assert w == pytest.approx(exact, abs=0.05)

    def test_chebyshev_unreachable_tolerance_raises(self):
        x = rng(13).standard_normal(16)
        x /= np.linalg.norm(x)
        with pytest.raises(ConvergenceError):
            project_above(
                self.a, x, 4.0, 4.2, method="chebyshev", tol=1e-10, chebyshev_degree=8
            )

    def test_window_validation(self):
        with pytest.raises(InvalidParameterError):
            project_above(self.a, np.eye(16)[0], 6.0, 4.0)

    def test_sandwich_with_eigenvalues_inside_the_window(self):
        # the filter is unspecified inside the window but must stay between
        # the exact weights above the upper and lower cutoffs
        diag = np.array([10.0, 9.5, 5.0, 4.7, 1.0, 0.5, 0.0, -2.0])
        a = np.diag(diag)
        x = rng(16).standard_normal(8)
        x /= np.linalg.norm(x)
        e_lower, e_upper = 4.0, 6.0
        upper_weight = float(np.sum(x[diag > e_upper] ** 2))
        lower_weight = float(np.sum(x[diag > e_lower] ** 2))
        for method in ("dense", "ritz"):
            _, w, _ = project_above(a, x, e_lower, e_upper, method=method)
            assert upper_weight - 1e-8 <= w <= lower_weight + 1e-8


class TestFullSpectrum:
    def test_trace_preserved(self):
        t = sample_gaussian_tensor(3, rng(14))
        h = HamiltonianOperator(t, build_basis(3, 3))
        spec = full_spectrum(h)
        assert spec.eigenvalues.sum() == pytest.approx(
            np.trace(h.materialize_dense()), abs=1e-8 * max(1, abs(spec.eigenvalues).max())
        )
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_noiseless_spike_ladder(self):
        lam, n_modes, n_bos = 0.4, 3, 4
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        h = HamiltonianOperator(rank_one(v) * lam, build_basis(n_modes, n_bos))
        spec = full_spectrum(h).eigenvalues
        for occupancy in range(n_bos + 1):
            level = lam * n_modes**2 * occupancy * (occupancy - 1)
            assert np.abs(spec - level).min() < 1e-9

    def test_capacity(self):
        t = sample_gaussian_tensor(4, rng(15))
        h = HamiltonianOperator(t, build_basis(4, 4))
        with pytest.raises(CapacityError):
            full_spectrum(h, dense_limit=10)


class TestAnalyticBounds:
    def test_scale_constant_examples(self):
        b = analytic_bounds(ModelParams(N=4, n_bos=4, lambda_bar=0.1))
        assert b.j_const == pytest.approx(0.75, abs=1e-15)
        assert b.e_max == pytest.approx(46.1449, abs=1e-3)
        b2 = analytic_bounds(ModelParams(N=4, n_bos=4, lambda_bar=0.1, ensemble="complex"))
        assert b2.j_const == pytest.approx(1.5, abs=1e-15)

    def test_threshold_examples(self):
        b = analytic_bounds(ModelParams(N=4, n_bos=3, lambda_bar=0.1))
        assert b.e_zero == pytest.approx(9.6, abs=1e-12)
        assert b.e_cut == pytest.approx((9.6 + b.e_max) / 2.0, abs=1e-12)
        assert b.xi == pytest.approx(
            np.sqrt(b.j_const) * 3**0.5 * 4 / np.sqrt(2 * np.log(4)), abs=1e-12
        )

    def test_crossing_point_is_a_root(self):
        params = ModelParams(N=6, n_bos=4, lambda_bar=0.05)
        b = analytic_bounds(params)
        assert np.isfinite(b.nbos_eq)
        gap = _e_zero_at(b.nbos_eq, 6, 0.05) - _e_max_at(b.nbos_eq, 6, "real")
        assert abs(gap) < 1e-6 * max(1.0, _e_max_at(b.nbos_eq, 6, "real"))
        assert b.nbos_eq_int == int(np.ceil(b.nbos_eq))

    def test_no_signal_never_crosses(self):
        b = analytic_bounds(ModelParams(N=6, n_bos=4, lambda_bar=0.0))
        assert b.nbos_eq == np.inf

    def test_log_needs_two_modes(self):
        with pytest.raises(InvalidParameterError):
            analytic_bounds(ModelParams(N=1, n_bos=4, lambda_bar=0.1))


class TestDensityOfStates:
    def test_positive_fraction_near_half_at_origin(self):
        params = ModelParams(N=4, n_bos=4, seed=11)
        est = density_of_states(params, x_grid=[0.0], trials=40)
        # sign symmetry of the noise ensemble puts the median at zero
        assert est.p_greater[0] == pytest.approx(0.5, abs=4 * max(est.stderr[0], 0.02))

    def test_monotone_and_vanishing_tail(self):
        params = ModelParams(N=4, n_bos=4, seed=12)
        est = density_of_states(params, x_grid=[0.0, 0.25, 0.5, 0.75, 3.0], trials=10)
        assert np.all(np.diff(est.p_greater) <= 1e-15)
        assert est.p_greater[-1] == 0.0
        assert est.g_lower_bound[-1]
        finite = est.g_hat[np.isfinite(est.g_hat)]
        assert np.all(np.diff(finite) >= -1e-12)

    def test_deterministic(self):
        params = ModelParams(N=4, n_bos=4, seed=13)
        a = density_of_states(params, x_grid=[0.0, 0.4], trials=6)
        b = density_of_states(params, x_grid=[0.0, 0.4], trials=6)
        assert np.array_equal(a.p_greater, b.p_greater)
        assert np.array_equal(a.stderr, b.stderr)
        c = density_of_states(params, x_grid=[0.0, 0.4], trials=6, threads=2)
        assert np.array_equal(a.p_greater, c.p_greater)

    def test_empirical_reference(self):
        params = ModelParams(N=4, n_bos=4, seed=14)
        est = density_of_states(params, x_grid=[1.0], trials=8, emax_reference="empirical")
        assert est.e_max_ref == pytest.approx(est.mean_lambda1, rel=1e-12)
        assert est.p_greater[0] > 0.0  # some spectra reach their own mean top

    def test_capacity_guard(self):
        params = ModelParams(N=6, n_bos=6, seed=15)
        with pytest.raises(CapacityError):
            density_of_states(params, x_grid=[0.0], trials=2, dense_limit=50)


class TestTailBound:
    def test_exceedances_are_rare(self):
        # light version of the exceedance check at a small size
        params = ModelParams(N=4, n_bos=3, seed=16)
        b = analytic_bounds(params)
        count = 0
        trials = 30
        for t in range(trials):
            g = sample_gaussian_tensor(4, derived_rng(16, "tail-light", t))
            h = HamiltonianOperator(g, build_basis(4, 3))
            count += full_spectrum(h).eigenvalues[0] >= b.e_max
        assert count / trials <= 0.1

    def test_exponential_exceedance_envelope_four_by_four(self):
        params = ModelParams(N=4, n_bos=4, seed=17)
        b = analytic_bounds(params)
        trials = 100
        tops = np.array(
            [
                full_spectrum(
                    HamiltonianOperator(
                        sample_gaussian_tensor(4, derived_rng(17, "tail44", t)),
                        build_basis(4, 4),
                    )
                ).eigenvalues[0]
                for t in range(trials)
            ]
        )
        for level in (0, 1, 2):
            frac = float(np.mean(tops >= b.e_max + level * b.xi))
            stderr = np.sqrt(frac * (1 - frac) / trials)
            assert frac <= np.exp(-level) + 3 * stderr
