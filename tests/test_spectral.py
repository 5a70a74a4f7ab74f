"""Lanczos, filtered projection, dense spectra, analytic thresholds, and
the density-of-states estimator."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import tensorpca
from tensorpca import (
    CapacityError,
    ConvergenceError,
    DetectionConfig,
    HamiltonianOperator,
    InvalidParameterError,
    ModelParams,
    analytic_bounds,
    build_basis,
    density_of_states,
    detect_spectral,
    full_spectrum,
    lanczos,
    leading_eigenvalue,
    make_spiked,
    project_above,
    projection_statistic,
    sample_gaussian_tensor,
    sample_instance,
    sample_signal,
)
from tensorpca import pipeline, spectral
from tensorpca._util import derived_rng
from tensorpca.spectral import (
    _e_max_at,
    _e_zero_at,
    _interlace,
    _keep_above,
    _lanczos_sweep,
    _ritz_from_tridiag,
    _solve_nbos_eq,
    _spectrum_below,
    _top_residual,
)
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
        dense_top = full_spectrum(h)[0]
        out = lanczos(h, derived_rng(3, "start").standard_normal(h.dim), tol=1e-10)
        assert out.ritz_values[0] == pytest.approx(dense_top, abs=1e-8 * max(1, abs(dense_top)))

    def test_complex_operator_from_a_real_start(self):
        # the Krylov block is complex when the operator is, whatever the
        # start: a real start on a complex Hermitian matrix finds its top
        # eigenvalue, and the Ritz filter its dense weight, with no
        # ComplexWarning
        g = rng(68)
        z = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
        h = 0.5 * (z + z.conj().T)
        x = g.standard_normal(6)
        x /= np.linalg.norm(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lanczos(h, x)
            projected, weight, _ = project_above(h, x, 0.0, 1.0, method="ritz")
        assert out.ritz_values[0] == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-10)
        expected, dense_weight, _ = project_above(h, x, 0.0, 1.0, method="dense")
        assert 0.0 < weight == pytest.approx(dense_weight, abs=1e-10)
        assert projected.dtype == expected.dtype == np.complex128
        assert np.abs(projected - expected).max() < 1e-10

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

    def test_values_only_sweep_holds_one_krylov_block(self):
        # a sweep capped at 60 steps reserves its block once, and builds
        # its D x k Ritz vectors only when they are read; growing the block
        # by copies and building the vectors peaked at 2.04 blocks
        dim = 20_000
        op = sp.diags(np.linspace(0.0, 1.0, dim))
        x = rng(50).standard_normal(dim)
        tracemalloc.start()
        try:
            out = lanczos(op, x, max_iters=60, tol=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 60 * dim * 8
        vectors = out.ritz_vectors
        assert vectors.shape == (dim, out.iterations)
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(out.iterations)).max() < 1e-8

    def test_start_expansion_recovers_start(self):
        a = np.diag([5.0, 2.0, -1.0, 0.5])
        x = rng(4).standard_normal(4)
        out = lanczos(a, x)
        reconstructed = out.ritz_vectors @ out.start_coeffs
        assert np.allclose(reconstructed, x, atol=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # with tol = 0 the rule passed as soon as the top residual underflowed
        # to 0, so the sweep stopped short of max_iters
        with pytest.raises(InvalidParameterError):
            lanczos(np.diag(np.linspace(0.0, 10.0, 50)), np.ones(50), tol=tol)

    def test_sweep_without_stop_check_runs_max_iters(self):
        a = np.diag(np.linspace(0.0, 10.0, 50))
        assert _lanczos_sweep(a.dot, np.ones(50), 40, None).iterations == 40

    def test_converged_records_the_stop_decision(self):
        a = np.diag(np.linspace(0.0, 10.0, 50))
        cut = _lanczos_sweep(a.dot, np.ones(50), 40, None)
        assert not cut.converged
        broke = _lanczos_sweep(a.dot, np.eye(50)[7], 40, None)
        assert broke.invariant_subspace and broke.converged and broke.iterations == 1
        ruled = lanczos(a, np.ones(50), tol=1e-10)
        assert ruled.converged and not ruled.invariant_subspace and ruled.iterations < 50
        short = lanczos(a, np.ones(50), max_iters=3, tol=1e-10)
        assert not short.converged and short.iterations == 3

    def test_a_continued_sweep_equals_one_run(self):
        # a second run continues the Krylov sequence bit for bit, keeps the
        # first run's reserved block up to its size, and only then grows it
        a = np.diag(np.linspace(0.0, 10.0, 200))
        x = rng(51).standard_normal(200)
        whole = _lanczos_sweep(a.dot, x, 90, None)
        sweep = spectral._Sweep(a.dot, x, 60)
        part = sweep.run(30, None)
        assert part.iterations == 30 and sweep.block.shape[0] == 60
        rest = sweep.run(60, None)
        assert rest.iterations == 60 and sweep.block.shape[0] == 60
        rest = sweep.run(90, None)
        assert rest.iterations == 90 and sweep.block.shape[0] == 90
        assert np.array_equal(rest.ritz_values, whole.ritz_values)
        assert np.array_equal(rest.start_coeffs, whole.start_coeffs)
        assert np.array_equal(rest.ritz_vectors, whole.ritz_vectors)
        # the first run's decomposition still reads its own 30 steps
        assert np.array_equal(
            part.ritz_vectors, _lanczos_sweep(a.dot, x, 30, None).ritz_vectors
        )

    def test_a_broken_down_sweep_takes_no_more_steps(self):
        a = np.diag([3.0, 1.0, 0.0, 2.0])
        sweep = spectral._Sweep(a.dot, np.array([0.6, 0.8, 0.0, 0.0]), 4)
        first = sweep.run(4, None)
        assert first.invariant_subspace and first.iterations == 2
        again = sweep.run(4, lambda tridiag, beta: False)
        assert again.converged and again.iterations == 2

    def test_operator_types(self):
        # scipy matrices pass through the duck-typed (shape, dot, toarray) view
        m = rng(7).standard_normal((30, 30))
        m = (m + m.T) / 2
        start = rng(8).standard_normal(30)
        expected = lanczos(m, start).ritz_values
        assert np.allclose(lanczos(sp.csr_matrix(m), start).ritz_values, expected, atol=1e-10)
        assert np.array_equal(
            full_spectrum(sp.csr_matrix(m)), full_spectrum(m)
        )
        for op in (m.tolist(), object(), np.ones((3, 4)), sp.csr_matrix(np.ones((3, 4)))):
            with pytest.raises(InvalidParameterError):
                lanczos(op, np.ones(3))
        with pytest.raises(CapacityError):
            full_spectrum(sp.csr_matrix(m), dense_limit=29)

    def test_orthonormal_ritz_vectors(self):
        m = rng(5).standard_normal((40, 40))
        m = (m + m.T) / 2
        out = lanczos(m, rng(6).standard_normal(40))
        gram = out.ritz_vectors.T @ out.ritz_vectors
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


def _tridiag(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def _recorded_tridiagonals(matvec, start, max_iters):
    """Every (tridiagonal, beta) that a Lanczos sweep hands its stop check."""
    seen = []

    def record(tridiag, beta):
        seen.append((tridiag.copy(), beta))
        return False

    _lanczos_sweep(matvec, start, max_iters, record)
    return seen


def _assert_matches_full_decomposition(tridiag, beta):
    residual, top, bottom = _top_residual(tridiag, beta)
    values, full_residuals, _, _ = _ritz_from_tridiag(tridiag, beta)
    full_scale = max(1.0, float(np.abs(values).max()))
    assert abs(top - values[0]) <= 1e-12 * full_scale
    assert abs(bottom - values[-1]) <= 1e-12 * full_scale
    assert abs(residual - full_residuals[0]) <= 1e-12 * full_scale


class TestProbe:
    """project_above(probe=...) continues the last run of a sweep of op
    started at x on the Ritz route, and refuses any other sweep."""

    @staticmethod
    def _setup():
        h = _symmetric_with_top(7.0, dim=80, seed=66)
        x = rng(67).standard_normal(80)
        return h, x / np.linalg.norm(x)

    def test_continued_weight_matches_a_fresh_sweep(self):
        h, x = self._setup()
        probe = lanczos(h, x, max_iters=60, tol=1e-3)
        fresh = project_above(h, x, 3.0, 5.0, method="ritz")
        continued = project_above(h, x, 3.0, 5.0, method="ritz", probe=probe)
        assert fresh[2].degree_or_iters >= probe.iterations + 2
        assert continued[1] == fresh[1]
        assert np.array_equal(continued[0], fresh[0])
        assert continued[2].degree_or_iters == fresh[2].degree_or_iters

    def test_the_dense_route_leaves_the_probe(self):
        h, x = self._setup()
        probe = lanczos(h, x, max_iters=60, tol=1e-3)
        steps = probe.iterations
        _, weight, proj = project_above(h, x, 3.0, 5.0, method="dense", probe=probe)
        assert proj.method == "dense" and probe._sweep.k == steps
        assert weight == project_above(h, x, 3.0, 5.0, method="dense")[1]

    def test_a_continued_projection_builds_no_ritz_vectors(self):
        # the Ritz route combines the Krylov rows into the projected vector
        # alone, in the probe's reserved block: the continuation held 2.0
        # D-vectors, and building the D x k Ritz vectors of its 13 steps
        # read 18.0
        dim = 20_000
        diag = np.linspace(0.0, 1.0, dim)
        diag[:3] = [3.0, 4.0, 5.0]
        op = sp.diags(diag)
        x = rng(52).standard_normal(dim)
        x /= np.linalg.norm(x)
        probe = lanczos(op, x, max_iters=60, tol=1e-3)
        tracemalloc.start()
        try:
            _, weight, proj = project_above(op, x, 1.5, 2.5, method="ritz", probe=probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weight > 0.0 and proj.degree_or_iters > probe.iterations + 2
        assert probe._sweep.block.shape[0] == 60
        assert peak <= 4 * dim * 8

    def test_foreign_or_spent_probes_are_refused(self):
        h, x = self._setup()
        y = np.roll(x, 1)
        probes = {
            "another start": lanczos(h, y, max_iters=60, tol=1e-3),
            "another operator": lanczos(h.copy(), x, max_iters=60, tol=1e-3),
        }
        spent = lanczos(h, x, max_iters=60, tol=1e-3)
        project_above(h, x, 3.0, 5.0, method="ritz", probe=spent)
        probes["a sweep that moved on"] = spent
        read = lanczos(h, x, max_iters=60, tol=1e-3)
        read.ritz_vectors
        probes["Ritz vectors read"] = read
        for name, probe in probes.items():
            with pytest.raises(InvalidParameterError, match="probe must be"):
                project_above(h, x, 3.0, 5.0, method="ritz", probe=probe)


class TestStopCheck:
    """The values-only top residual of the Lanczos stop check against the
    full decomposition of the same tridiagonal."""

    def test_random_tridiagonals(self):
        r = rng(40)
        for _ in range(60):
            k = int(r.integers(1, 81))
            size = 10.0 ** r.uniform(-2.0, 3.0)
            tridiag = size * _tridiag(r.standard_normal(k), r.uniform(0.05, 1.0, k - 1))
            beta = size * r.uniform(0.0, 1.0)
            r.integers(1, 5)  # a discarded draw, so seed 40 keeps its sequence of tridiagonals
            _assert_matches_full_decomposition(tridiag, beta)

    def test_single_step(self):
        _assert_matches_full_decomposition(np.array([[-3.5]]), 0.25)

    def test_sixty_steps_on_h(self):
        h = HamiltonianOperator(sample_gaussian_tensor(6, rng(41)), build_basis(6, 4))
        seen = _recorded_tridiagonals(h.matvec, rng(42).standard_normal(h.dim), 60)
        assert [t.shape[0] for t, _ in seen] == list(range(1, 61))
        for tridiag, beta in seen:
            _assert_matches_full_decomposition(tridiag, beta)

    def test_clustered_top_ritz_values(self):
        diag = np.concatenate([[10.0, 10.0 - 1e-4, 10.0 - 2e-4], 5.0 * rng(43).random(200)])
        seen = _recorded_tridiagonals(lambda x: diag * x, rng(44).standard_normal(diag.size), 120)
        for tridiag, beta in seen:
            _assert_matches_full_decomposition(tridiag, beta)

    def test_tiny_betas_do_not_overflow(self, monkeypatch):
        # the top Ritz vectors live in the upper block; below it every beta
        # is 1e-12 of the scale, so the upward recurrence grows by about
        # 1e12 a row and overflows unless rescaled
        r = rng(45)
        alphas = np.concatenate([8.0 + r.random(20), r.random(30)])
        betas = np.concatenate([0.5 + r.random(19), np.full(30, 9e-12)])
        tridiag = _tridiag(alphas, betas)
        _assert_matches_full_decomposition(tridiag, 1.0)

        def no_full_decomposition(*args):
            raise AssertionError("the recurrence alone must resolve these residuals")

        # an overflow would end in the full decomposition, correct but slow
        monkeypatch.setattr(spectral, "_ritz_from_tridiag", no_full_decomposition)
        _top_residual(tridiag, 1.0)

    def test_lanczos_stops_only_once_resolved(self):
        # Lanczos from e_0 on a tridiagonal matrix reproduces it.  Its top
        # eigenvector is negligible in the upper rows, where the upward
        # recurrence alone gives residuals far too small for many steps
        r = rng(46)
        t = _tridiag(
            np.concatenate([2.0 * r.random(20), 6.0 + 2.0 * r.random(40)]),
            0.5 + 0.5 * r.random(59),
        )
        out = lanczos(t, np.eye(60)[0], tol=1e-10)
        assert not out.invariant_subspace and out.iterations < 60
        assert out.residuals[0] <= 1e-10 * max(1.0, float(np.abs(out.ritz_values).max()))
        assert out.ritz_values[0] == pytest.approx(np.linalg.eigvalsh(t)[-1], rel=1e-12)


def _exact_stop(tol):
    """The stop rule of lanczos, decided by the exact check at every step."""

    def stop(tridiag, beta):
        residual, top, bottom = _top_residual(tridiag, beta)
        return residual <= tol * max(1.0, abs(top), abs(bottom))

    return stop


class TestStopBound:
    """The interlacing bound that lets lanczos skip the stop check's
    eigensolve: it must hold on every tridiagonal and never change what
    the exact rule decides."""

    @pytest.mark.parametrize("kind", ["general", "tiny_betas", "clustered_top", "negative"])
    def test_bound_holds_on_random_tridiagonals(self, kind):
        # residuals come from the stop check's recurrence, as in lanczos.
        # Inside a cluster the full decomposition's eigenvectors are
        # accurate only to about eps * |T| / gap: on clustered draws like
        # these its top residual fell 35% below a 50-digit reference and
        # below the floor, while the recurrence's matched the reference to
        # 1e-8.  The slack allowed here is about eps * beta
        r = rng(["general", "tiny_betas", "clustered_top", "negative"].index(kind) + 60)
        for _ in range(8):
            n = int(r.integers(2, 40))
            alphas = r.standard_normal(n + 1)
            betas = r.uniform(0.05, 1.0, n)
            if kind == "tiny_betas":
                betas[r.random(n) < 0.3] = 1e-9
            elif kind == "clustered_top":
                alphas[: n // 2] = 8.0 + 1e-7 * r.random(n // 2)
                betas[: n // 2] = 1e-6 * r.random(n // 2) + 1e-8
            elif kind == "negative":
                alphas = -100.0 * r.random(n + 1)
            tridiag = _tridiag(alphas, betas)
            steps = []
            for k in range(1, n + 1):
                values, _, _, _ = _ritz_from_tridiag(tridiag[:k, :k], betas[k - 1])
                residual, top, bottom = _top_residual(tridiag[:k, :k], betas[k - 1])
                steps.append((values, residual, top, bottom))
            # chain from the exact check of every step to every later step;
            # lanczos chains only from a residual above tol * scale > 0
            for start in range(1, n):
                _, residual, top, bottom = steps[start - 1]
                if residual == 0.0:
                    continue
                bound = (top, top, bottom, bottom, residual)
                for k in range(start + 1, n + 1):
                    bound = _interlace(bound, tridiag[:k, :k], betas[k - 1])
                    a_lo, a_hi, b_lo, b_hi, floor = bound
                    values, residual, _, _ = steps[k - 1]
                    slack = 1e-13 * max(1.0, float(np.abs(values).max()))
                    assert a_lo - slack <= values[0] <= a_hi + slack
                    assert b_lo - slack <= values[-1] <= b_hi + slack
                    assert floor <= residual * (1.0 + 1e-12) + 1e-13 * betas[k - 1]

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    @pytest.mark.parametrize("N, n_bos", [(6, 4), (3, 8), (16, 4)])
    def test_same_decisions_on_h_t_plus(self, N, n_bos, tol):
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=0.3, seed=5)
        for spiked in (True, False):
            t0, _ = sample_instance(params, spiked=spiked, rng=derived_rng(5, "bound", spiked))
            pair = pipeline._make_pair(t0, params, DetectionConfig(), derived_rng(5, "pair"))
            h = HamiltonianOperator(pair.t_plus, build_basis(N, n_bos))
            start = derived_rng(5, "bound-start", spiked).standard_normal(h.dim)
            max_iters = min(h.dim, 200)
            out = lanczos(h, start, max_iters=max_iters, tol=tol)
            reference = _lanczos_sweep(h.matvec, start, max_iters, _exact_stop(tol))
            assert out.iterations == reference.iterations
            assert out.ritz_values.tobytes() == reference.ritz_values.tobytes()

    @pytest.mark.parametrize("N, n_bos, seed", [(5, 4, 1), (6, 4, 2), (4, 6, 3)])
    def test_same_decisions_on_pinned_draws(self, N, n_bos, seed):
        h = HamiltonianOperator(sample_gaussian_tensor(N, rng(seed)), build_basis(N, n_bos))
        start = derived_rng(seed, "pin-start").standard_normal(h.dim)
        out = lanczos(h, start, tol=1e-10)
        reference = _lanczos_sweep(h.matvec, start, h.dim, _exact_stop(1e-10))
        assert out.iterations == reference.iterations
        assert out.ritz_values.tobytes() == reference.ritz_values.tobytes()

    def test_most_steps_skip_the_exact_check(self, monkeypatch):
        # one draw of the ROC operating point (N=6, n_bos=4), both detectors
        # the exact check ran at 37 of the 37 Lanczos steps before the bound
        # and runs at 7 now
        counts = {"exact": 0, "steps": 0}
        exact_check, sweep = spectral._top_residual, spectral._lanczos_sweep

        def counted_check(*args):
            counts["exact"] += 1
            return exact_check(*args)

        def counted_sweep(*args):
            out = sweep(*args)
            counts["steps"] += out.iterations
            return out

        monkeypatch.setattr(spectral, "_top_residual", counted_check)
        monkeypatch.setattr(spectral, "_lanczos_sweep", counted_sweep)
        params = ModelParams(N=6, n_bos=4, lambda_bar=0.2732336812165897, seed=1000)
        tensor, _ = sample_instance(params, spiked=True, rng=derived_rng(1000, "roc", 0))
        detect_spectral(tensor, params, seed=0)
        cfg = DetectionConfig(c_prime=0.2, slack=10.0)
        pipeline.detect_projection(tensor, params, cfg, seed=0)
        assert counts["steps"] > 0
        assert counts["exact"] < 0.3 * counts["steps"]


class TestPinnedIterations:
    """Counts and results recorded with a full Ritz decomposition at every
    Lanczos step.  A stop-check change that moves a stopping step fails
    here: counts are pinned exactly, floats to rtol 1e-12."""

    @pytest.mark.parametrize(
        "N, n_bos, lam, seed, matvecs, statistic",
        [
            (5, 4, 0.5, 3, 16, 149.6635423880869),
            (6, 4, 0.0, 11, 32, 44.55038404013186),
            (4, 6, 0.3, 7, 18, 169.03609357890758),
        ],
    )
    def test_detect_spectral(self, N, n_bos, lam, seed, matvecs, statistic):
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=lam, seed=seed)
        tensor, _ = sample_instance(params, spiked=lam > 0)
        rep = detect_spectral(tensor, params, seed=seed)
        assert rep.query_counts == {"matvec": matvecs}
        assert rep.statistic == pytest.approx(statistic, rel=1e-12)

    @pytest.mark.parametrize(
        "N, n_bos, seed, iterations, top",
        [
            (5, 4, 1, 26, 34.71905699766534),
            (6, 4, 2, 33, 44.8646782893938),
            (4, 6, 3, 34, 102.26947286327875),
        ],
    )
    def test_lanczos(self, N, n_bos, seed, iterations, top):
        h = HamiltonianOperator(sample_gaussian_tensor(N, rng(seed)), build_basis(N, n_bos))
        start = derived_rng(seed, "pin-start").standard_normal(h.dim)
        out = lanczos(h, start, tol=1e-10)
        assert out.iterations == iterations
        assert out.ritz_values[0] == pytest.approx(top, rel=1e-12)

    def test_lanczos_complex_start(self):
        h = HamiltonianOperator(sample_gaussian_tensor(4, rng(6)), build_basis(4, 4))
        r = derived_rng(6, "pin-start")
        start = r.standard_normal(h.dim) + 1j * r.standard_normal(h.dim)
        out = lanczos(h, start, tol=1e-10)
        assert out.iterations == 25
        assert out.ritz_values[0] == pytest.approx(35.80206781148019, rel=1e-12)

    @pytest.mark.parametrize(
        "N, seed, iterations, weight",
        [(5, 4, 59, 0.2490655424930791), (6, 5, 90, 0.11740795944402037)],
    )
    def test_ritz_projector(self, N, seed, iterations, weight):
        h = HamiltonianOperator(sample_gaussian_tensor(N, rng(seed)), build_basis(N, 4))
        x = derived_rng(seed, "pin-state").standard_normal(h.dim)
        _, norm_sq, proj = project_above(h, x / np.linalg.norm(x), 10.0, 16.0, method="ritz")
        assert proj.degree_or_iters == iterations
        assert norm_sq == pytest.approx(weight, rel=1e-12)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(tensorpca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True
    )


def test_import_leaves_scipy_out():
    # importing scipy.sparse and scipy.special adds about 26 MB of resident
    # memory to every process that imports the package
    code = "import sys, tensorpca; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_leaves_rarely_used_modules_out():
    # concurrent.futures (with logging and queue) serves only threaded
    # sweeps and fractions (with decimal) only the exponent table, so both
    # load on first use, and give the same results there
    code = """
import sys, tensorpca
print(sorted(m for m in ("concurrent.futures", "fractions", "decimal") if m in sys.modules))
from fractions import Fraction
from tensorpca import ModelParams, cost_exponents
from tensorpca._util import run_trials
assert run_trials(lambda i: i * i, 5, threads=2) == [0, 1, 4, 9, 16]
ratios = cost_exponents(ModelParams(N=6, n_bos=4, lambda_bar=0.05)).ratios
assert ratios == {"original_classical": Fraction(1), "accelerated_classical": Fraction(1, 2),
                  "quantum_amplified": Fraction(1, 8), "quantum_multistep": Fraction(1, 12)}
assert all(type(r) is Fraction for r in ratios.values())
"""
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_runtime_without_scipy(tmp_path):
    # with scipy unimportable, the detectors, the density matrix, the dense
    # assembly, the power-state embedding and the CLI still run
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import tensorpca as tp
from tensorpca.recovery import spdm

params = tp.ModelParams(N=4, n_bos=4, lambda_bar=1.0, seed=11)
tensor, _ = tp.sample_instance(params, spiked=True, rng=tp.derived_rng(11, "blocked"))
proj = tp.ModelParams(N=4, n_bos=tp.projection_nbos(params), lambda_bar=1.0, seed=11)
for dense_limit in (tp.DetectionConfig.dense_limit, 0):  # dense, then Ritz
    report = tp.detect_projection(tensor, proj, tp.DetectionConfig(dense_limit=dense_limit), seed=3)
    assert report.verdict == "spiked", report
basis = tp.build_basis(4, 8)
state, _ = tp.embed_power_state(basis, tensor.tensor)
rho = spdm(state)
assert abs(np.trace(rho) - 1.0) < 1e-12
dense = tp.HamiltonianOperator(tensor.tensor, tp.build_basis(4, 4)).materialize_dense()
assert dense.shape == (35, 35)

from tensorpca.cli import main
for args in (
    ["detect", "--method", "projection", "--N", "4", "--nbos", "4", "--lambda", "1.0"],
    ["recover", "--N", "4", "--nbos", "4", "--lambda", "3.0"],
    ["dos", "--N", "4", "--nbos", "4", "--trials", "2"],
):
    assert main([*args, "--out", {str(tmp_path)!r} + "/" + args[0] + ".json"]) == 0, args
"""
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


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
            leading_eigenvalue(m, max_iters=3, tol=1e-14, seed=2)
        assert exc.value.best is not None

    def test_nonconvergence_reports_krylov_steps(self):
        op = np.diag(np.linspace(0.0, 1.0, 50))
        with pytest.raises(ConvergenceError) as exc:
            leading_eigenvalue(op, max_iters=2, tol=1e-12, seed=4)
        assert exc.value.iterations == 2
        assert "2 Krylov steps" in str(exc.value)

    def test_zero_operator(self):
        top, _ = leading_eigenvalue(np.zeros((5, 5)), seed=3)
        assert top == 0.0


class TestProjectAbove:
    def setup_method(self):
        self.diag = np.concatenate([np.full(4, 9.0) + 0.05 * np.arange(4), np.zeros(12)])
        self.a = np.diag(self.diag)

    def test_passband_eigenvector(self):
        x = np.eye(16)[0]
        for method in ("dense", "ritz", "chebyshev"):
            _, w, _ = project_above(self.a, x, 4.0, 6.0, method=method)
            assert w >= 1.0 - 1e-10

    def test_stopband_eigenvector(self):
        x = np.eye(16)[8]
        for method in ("dense", "ritz", "chebyshev"):
            _, w, _ = project_above(self.a, x, 4.0, 6.0, method=method)
            assert w <= 1e-10

    def test_weight_matches_exact_projector(self):
        x = rng(11).standard_normal(16)
        x /= np.linalg.norm(x)
        exact = float(np.sum(x[:4] ** 2))
        for method in ("dense", "ritz", "chebyshev"):
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

    @pytest.mark.parametrize(
        "method, options, iterations, stated",
        [
            ("chebyshev", {"chebyshev_degree": 8}, 8, "at degree 8"),
            ("ritz", {"max_iters": 1}, 1, "after 1 Krylov steps"),
        ],
    )
    def test_unreachable_tolerance_reports_its_iterations(self, method, options, iterations, stated):
        x = rng(13).standard_normal(16)
        x /= np.linalg.norm(x)
        with pytest.raises(ConvergenceError) as exc:
            project_above(self.a, x, 4.0, 4.2, method=method, tol=1e-10, **options)
        assert exc.value.iterations == iterations
        assert stated in str(exc.value)

    def test_ritz_cut_by_max_iters_bounds_its_error(self):
        # two Krylov steps leave weight 0.647946985716417 against the exact
        # 0.6479636514752178 (error 1.7e-5); a pair resolved to one side of
        # the cut still holds misassigned mass, so the cut exit must raise
        x = rng(13).standard_normal(16)
        x /= np.linalg.norm(x)
        exact = float(np.sum(x[:4] ** 2))
        with pytest.raises(ConvergenceError) as exc:
            project_above(self.a, x, 4.0, 4.2, method="ritz", tol=1e-10, max_iters=2)
        assert exc.value.iterations == 2
        assert abs(exc.value.best - exact) > 1e-6
        _, w, proj = project_above(self.a, x, 4.0, 4.2, method="ritz", tol=1e-10, max_iters=None)
        assert w == pytest.approx(exact, abs=1e-12)
        assert proj.achieved_error <= 1e-10

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_ritz_cut_by_max_iters_reports_a_true_bound(self, seed):
        # an accepted cut reports a bound on the distance to the exact
        # weight, not the 1e-14 of a resolved sweep
        x = rng(seed).standard_normal(16)
        x /= np.linalg.norm(x)
        exact = float(np.sum(x[:4] ** 2))
        _, w, proj = project_above(self.a, x, 4.0, 4.2, method="ritz", tol=0.05, max_iters=2)
        assert proj.degree_or_iters == 2
        assert 1e-6 < abs(w - exact) <= proj.achieved_error <= 0.05

    @pytest.mark.parametrize(
        "scale, e_lower, e_upper, options",
        [
            (1.0, 6.0, 4.0, {"method": "dense"}),
            (1.0, 4.0, 6.0, {"method": "bogus"}),
            (1.0, 4.0, 6.0, {"method": "auto"}),
            (1.5, 4.0, 6.0, {"method": "dense"}),
            (1.0, 4.0, 6.0, {"method": "chebyshev", "chebyshev_degree": 0}),
            (1.0, 4.0, 6.0, {"method": "chebyshev", "tol": 0.0}),
            (1.0, 4.0, 6.0, {"method": "chebyshev", "tol": 1.0}),
        ],
        ids=[
            "reversed-window",
            "unknown-method",
            "auto-method",
            "unnormalized-state",
            "degree-below-one",
            "tol-zero",
            "tol-one",
        ],
    )
    def test_window_validation(self, scale, e_lower, e_upper, options):
        with pytest.raises(InvalidParameterError):
            project_above(self.a, scale * np.eye(16)[0], e_lower, e_upper, **options)

    def test_every_call_names_its_method(self):
        with pytest.raises(TypeError, match="method"):
            project_above(self.a, np.eye(16)[0], 4.0, 6.0)

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
        for method in ("dense", "ritz", "chebyshev"):
            _, w, _ = project_above(a, x, e_lower, e_upper, method=method)
            assert upper_weight - 1e-8 <= w <= lower_weight + 1e-8

    @pytest.mark.parametrize("N, n_bos", [(6, 4), (8, 4), (12, 4), (6, 8)])
    def test_chebyshev_meets_the_dense_contract(self, N, n_bos):
        # the pipeline's window on a seeded H(t_plus) at the default tol: the
        # weight lies between the exact weights above e_upper and above
        # e_lower, widened by tol, at a degree far below the cap of 6000
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=0.1, seed=N + n_bos)
        t0, _ = sample_instance(params, spiked=True)
        cfg = DetectionConfig(dense_limit=0)
        out = projection_statistic(t0, params, cfg, seed=params.seed)
        h = HamiltonianOperator(out.pair.t_plus, out.input_state.basis)
        _, w, proj = project_above(h, out.input_state, out.e_lower, out.cutoff, method="chebyshev")
        vals, vecs = np.linalg.eigh(h.materialize_dense())
        weights = np.abs(vecs.T @ out.input_state.amps) ** 2
        upper_weight = float(weights[vals >= out.cutoff].sum())
        lower_weight = float(weights[vals >= out.e_lower].sum())
        assert upper_weight - 1e-8 <= w <= lower_weight + 1e-8
        assert proj.achieved_error <= 1e-8
        assert proj.degree_or_iters <= 1000


def _symmetric_with_top(top: float, dim: int = 40, seed: int = 60, dtype=float) -> np.ndarray:
    """Q diag(top, rest) Q^*, the rest spread over [-3, 0.5 top]; Q is a
    random orthogonal (or unitary) matrix."""
    g = rng(seed)
    z = g.standard_normal((dim, dim))
    if dtype is complex:
        z = z + 1j * g.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    vals = np.concatenate([[top], np.linspace(-3.0, 0.5 * top, dim - 1)])
    h = (q * vals) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def _certificate_delta(h: np.ndarray, mid: float) -> float:
    return 1e-6 * (abs(mid) + float(np.abs(h).sum(axis=1).max()))


class TestDenseCertificate:
    """spectral._spectrum_below proves that no eigenvalue of a dense H
    reaches the cut from a Cholesky factor of (cut - delta) I - H.  The
    projection step runs it (pipeline._project_step): on W and on H
    against its emptiness bound, and at the window's midpoint before a
    dense eigensolve above _EXACT_RANGE_CAP."""

    @staticmethod
    def _spy(monkeypatch):
        calls = {"eigh": 0, "cholesky": 0}
        eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

        def counted_eigh(a, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(a, *args, **kwargs)

        def counted_cholesky(a, *args, **kwargs):
            calls["cholesky"] += 1
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        return calls

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "place, skips",
        [("ten-delta-below", True), ("tenth-delta-below", False), ("just-above", False)],
    )
    def test_only_a_clear_gap_skips_eigh(self, monkeypatch, place, skips, dtype):
        top = 7.0
        h = _symmetric_with_top(top, dtype=dtype)
        norm_inf = float(np.abs(h).sum(axis=1).max())
        # mid solves top = mid - c * delta(mid), delta = 1e-6 (mid + ||H||_inf)
        if place == "just-above":
            mid = top - 1e-9
        else:
            c = 10.0 if place == "ten-delta-below" else 0.1
            mid = (top + c * 1e-6 * norm_inf) / (1.0 - c * 1e-6)
            assert top == pytest.approx(mid - c * _certificate_delta(h, mid), abs=1e-12)
        assert (np.linalg.eigvalsh(h)[-1] < mid) == (place != "just-above")
        calls = self._spy(monkeypatch)
        assert _spectrum_below(h, mid) is skips
        assert calls == {"eigh": 0, "cholesky": 1}  # no diagonal entry reaches the shift

    @pytest.mark.parametrize(
        "top, mid",
        [(9.15, 5.0), (5.0, (5.0 + 0.5e-6 * 5.0) / (1.0 - 0.5e-6))],
        ids=["above-the-cut", "half-delta-below-the-cut"],
    )
    def test_diagonal_at_the_shift_skips_the_factorization(self, monkeypatch, top, mid):
        # a diagonal entry is a Rayleigh quotient: with one at or above
        # mid - delta no factorization can prove the spectrum below it
        a = np.diag(np.concatenate([[top], np.zeros(15)]))
        assert top >= mid - _certificate_delta(a, mid)
        calls = self._spy(monkeypatch)
        assert _spectrum_below(a, mid) is False
        assert calls == {"eigh": 0, "cholesky": 0}

    def test_single_precision_is_never_certified(self, monkeypatch):
        h = _symmetric_with_top(2.0, seed=64)
        assert _spectrum_below(h, 5.0)
        calls = self._spy(monkeypatch)
        assert _spectrum_below(h.astype(np.float32), 5.0) is False
        assert calls == {"eigh": 0, "cholesky": 0}

    def test_certificate_holds_the_shifted_matrix_and_its_factor_only(self):
        # at most two D x D buffers at once, (mid - delta) I - H and its
        # factor, on top of H; an eigensolve holds more (measured at
        # D = 4000: 379 MB above H for the certificate, 500 MB for eigh)
        dim = 400
        h = _symmetric_with_top(2.0, dim=dim, seed=65)
        tracemalloc.start()
        try:
            proven = _spectrum_below(h, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert proven
        assert peak < 2.5 * dim * dim * 8

    @staticmethod
    def _steps(monkeypatch, params, cfg, tag, draws):
        """Run the projection step on the spiked and the unspiked draw of
        `draws` pairs from derived_rng(params.seed, tag, pair), each once as
        the pipeline runs it and once as a reference that tries no proof on
        the size-D operator H; yield (spiked, outcome, reference, the
        outcome's size-D eighs)."""
        dim = build_basis(params.N, params.n_bos).dim
        eigh, below = np.linalg.eigh, pipeline._spectrum_below
        dense_eighs = []

        def counted_eigh(a, *args, **kwargs):
            dense_eighs[-1] += a.shape[0] == dim
            return eigh(a, *args, **kwargs)

        def no_proof_on_h(dense, cut):
            return dense.shape[0] != dim and below(dense, cut)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        for pair in range(draws):
            rng_pair = derived_rng(params.seed, tag, pair)
            for spiked in (True, False):
                tensor, _ = sample_instance(params, spiked=spiked, rng=rng_pair)
                dense_eighs.append(0)
                out = projection_statistic(tensor, params, cfg, seed=pair)
                eighs = dense_eighs[-1]
                with monkeypatch.context() as m:
                    m.setattr(pipeline, "_spectrum_below", no_proof_on_h)
                    ref = projection_statistic(tensor, params, cfg, seed=pair)
                yield spiked, out, ref, eighs

    @staticmethod
    def _assert_same_step(out, ref):
        assert out.statistic == ref.statistic
        assert out.proj_weight == ref.proj_weight
        assert out.projected.amps.dtype == ref.projected.amps.dtype
        assert np.array_equal(out.projected.amps, ref.projected.amps)
        assert out.matvec_count == ref.matvec_count
        assert out.range_probe_matvecs == ref.range_probe_matvecs

    def test_roc_draws_match_the_eigh_route_bit_for_bit(self, monkeypatch):
        # the ROC operating point (projection at N=6, n_bos=4, D=126): every
        # unspiked draw is proven empty on H and every spiked one runs eigh
        params = ModelParams(N=6, n_bos=4, lambda_bar=0.2732336812165897, seed=1000)
        cfg = DetectionConfig(c_prime=0.2, slack=10.0)
        for spiked, out, ref, eighs in self._steps(monkeypatch, params, cfg, "roc", 12):
            assert eighs == (1 if spiked else 0)
            assert (out.statistic == 0.0) == (not spiked)
            self._assert_same_step(out, ref)

    def test_midpoint_proof_matches_the_eigh_route_bit_for_bit(self, monkeypatch):
        # above the exact-range cap (N=7, n_bos=4, D=210) at the default
        # dense limit: the range probe sizes the window, and every unspiked
        # step (10 of 10) is proven empty at the window's midpoint with no
        # size-D eigh, while every spiked one (0 of 10 proven) runs one
        params = ModelParams(N=7, n_bos=4, lambda_bar=0.2, seed=7)
        for spiked, out, ref, eighs in self._steps(
            monkeypatch, params, DetectionConfig(), "midpoint", 10
        ):
            assert eighs == (1 if spiked else 0)
            assert (out.statistic == 0.0) == (not spiked)
            assert 0 < out.range_probe_matvecs <= 60
            assert out.matvec_count == out.range_probe_matvecs + 210
            self._assert_same_step(out, ref)

    def test_complex_state_on_a_certified_operator(self, monkeypatch):
        # with imaginary noise on t_minus the state is complex and H real: a
        # step proven empty at its midpoint returns the complex zero vector
        # that the eigh route returns
        params = ModelParams(N=7, n_bos=4, lambda_bar=0.2, seed=7)
        cfg = DetectionConfig(add_imaginary=True)
        for spiked, out, ref, eighs in self._steps(monkeypatch, params, cfg, "midpoint", 3):
            assert out.projected.amps.dtype == np.complex128
            if not spiked:
                assert eighs == 0 and out.proj_weight == 0.0
                assert not out.projected.amps.any()
            self._assert_same_step(out, ref)


class TestKeepAbove:
    """A step that takes its range from its exact spectrum (at most
    pipeline._EXACT_RANGE_CAP states wide) projects with the eigensystem
    it took that range from (spectral._keep_above), as the
    dense route of project_above would; project_above itself takes
    operators and matrices only."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("mid", [3.0, 7.5], ids=["eigenvalue-above", "none-above"])
    def test_matches_the_dense_route_bit_for_bit(self, dtype, mid):
        h = _symmetric_with_top(7.0, dtype=dtype)
        x = rng(62).standard_normal(h.shape[0])
        x /= np.linalg.norm(x)
        projected, w = _keep_above(*np.linalg.eigh(h), x, mid)
        expected, w_dense, _ = project_above(h, x, mid - 1.0, mid + 1.0, method="dense")
        assert w == w_dense
        assert (w == 0.0) == (mid == 7.5)
        assert projected.dtype == expected.dtype
        assert np.array_equal(projected, expected)

    @pytest.mark.parametrize("method", ["dense", "ritz", "chebyshev"])
    def test_an_eigensystem_is_not_an_operator(self, method):
        h = _symmetric_with_top(7.0)
        x = np.ones(h.shape[0]) / np.sqrt(h.shape[0])
        eig = np.linalg.eigh(h)
        for eig in (eig, tuple(eig)):
            with pytest.raises(InvalidParameterError, match="unsupported operator type"):
                project_above(eig, x, 2.0, 4.0, method=method)

    @staticmethod
    def _step(monkeypatch, cfg, N=3, lambda_bar=0.5):
        """Run one spiked projection step (D=15 by default) under a spy on
        np.linalg.eigh of the size-D operator and on the pipeline's
        project_above; return the outcome and the calls, project_above's
        as a list of (method, whether a probe was passed)."""
        params = ModelParams(N=N, n_bos=4, lambda_bar=lambda_bar, seed=64)
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(64, "keep-above"))
        pair = pipeline._make_pair(t0, params, cfg, derived_rng(64, "decorrelate"))
        state, _ = tensorpca.embed_power_state(build_basis(N, 4), pair.t_minus)
        calls = {"eigh": 0, "project_above": []}
        eigh, project = np.linalg.eigh, pipeline.project_above

        def counted_eigh(a, *args, **kwargs):
            calls["eigh"] += a.shape[0] == state.basis.dim
            return eigh(a, *args, **kwargs)

        def counted_project(*args, **kwargs):
            calls["project_above"].append((kwargs["method"], kwargs.get("probe") is not None))
            return project(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(pipeline, "project_above", counted_project)
        out = pipeline._project_step(pair, state, 1.0, params, cfg)
        return state, out, calls

    def test_a_small_step_projects_with_its_own_eigensystem(self, monkeypatch):
        state, out, calls = self._step(monkeypatch, DetectionConfig())
        assert calls == {"eigh": 1, "project_above": []}
        assert out.projected.basis is state.basis
        assert (out.matvec_count, out.range_probe_matvecs) == (15, 0)
        assert 0.0 < out.proj_weight <= 1.0

    @pytest.mark.parametrize(
        "N, dense_limit", [(3, 10), (3, 0), (6, 100)], ids=["D15-10", "D15-0", "D126-100"]
    )
    def test_a_low_dense_limit_keeps_the_step_on_its_eigensystem(
        self, monkeypatch, N, dense_limit
    ):
        # a dense limit below D does not reach a step of at most
        # _EXACT_RANGE_CAP states: it projects as at the default limit
        cfg = DetectionConfig(dense_limit=dense_limit)
        state, out, calls = self._step(monkeypatch, cfg, N=N)
        dim = state.basis.dim
        assert calls == {"eigh": 1, "project_above": []}
        assert (out.matvec_count, out.range_probe_matvecs) == (dim, 0)
        _, ref, _ = self._step(monkeypatch, DetectionConfig(), N=N)
        assert out.proj_weight == ref.proj_weight > 0.0
        assert np.array_equal(out.projected.amps, ref.projected.amps)

    @pytest.mark.parametrize(
        "dense_limit, eighs, methods",
        [(DetectionConfig.dense_limit, 1, []), (100, 0, [("ritz", True)])],
        ids=["default-limit", "dense-limit-100"],
    )
    def test_a_probed_step(self, monkeypatch, dense_limit, eighs, methods):
        # above the exact-range cap (N=7, n_bos=4, D=210) the probe sizes the
        # window; below the dense limit the step projects densely itself,
        # above it the Ritz projector continues the probe's sweep: its one
        # call is passed the probe
        cfg = DetectionConfig(dense_limit=dense_limit)
        state, out, calls = self._step(monkeypatch, cfg, N=7, lambda_bar=0.2)
        assert calls == {"eigh": eighs, "project_above": methods}
        assert out.projected.basis is state.basis
        assert 0.0 < out.proj_weight <= 1.0
        assert 0 < out.range_probe_matvecs <= 60
        if methods:
            assert out.range_probe_matvecs < out.matvec_count < out.range_probe_matvecs + 210
        else:
            assert out.matvec_count == out.range_probe_matvecs + 210


class TestFullSpectrum:
    def test_trace_preserved(self):
        t = sample_gaussian_tensor(3, rng(14))
        h = HamiltonianOperator(t, build_basis(3, 3))
        spec = full_spectrum(h)
        assert spec.sum() == pytest.approx(
            np.trace(h.materialize_dense()), abs=1e-8 * max(1, abs(spec).max())
        )
        assert np.all(np.diff(spec) <= 1e-12)

    def test_noiseless_spike_ladder(self):
        lam, n_modes, n_bos = 0.4, 3, 4
        v = np.sqrt(n_modes) * np.eye(n_modes)[0]
        h = HamiltonianOperator(rank_one(v) * lam, build_basis(n_modes, n_bos))
        spec = full_spectrum(h)
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

    def test_crossing_bisection_stops_at_its_fixed_point(self):
        def two_hundred_steps(N, lam, ensemble):
            def gap(n):
                return _e_zero_at(n, N, lam) - _e_max_at(n, N, ensemble)

            lo, hi_x = 2.0, 64.0
            if gap(lo) >= 0.0:
                return 2.0
            if gap(hi_x) < 0.0:
                return np.inf
            for _ in range(200):
                mid = 0.5 * (lo + hi_x)
                if gap(mid) >= 0.0:
                    hi_x = mid
                else:
                    lo = mid
            return hi_x

        roots = 0
        for ensemble in ("real", "complex"):
            for N in range(2, 18):
                for lam in np.geomspace(0.01, 1.0, 52):
                    root = _solve_nbos_eq(N, lam, ensemble)
                    assert root == two_hundred_steps(N, lam, ensemble)
                    roots += 2.0 < root < np.inf
        assert roots > 500

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
            count += full_spectrum(h)[0] >= b.e_max
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
                )[0]
                for t in range(trials)
            ]
        )
        for level in (0, 1, 2):
            frac = float(np.mean(tops >= b.e_max + level * b.xi))
            stderr = np.sqrt(frac * (1 - frac) / trials)
            assert frac <= np.exp(-level) + 3 * stderr
