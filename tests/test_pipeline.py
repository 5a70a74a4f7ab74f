"""Detection algorithms, quantum query accounting, and the multistep
cascade."""

import inspect
import tracemalloc
import warnings
from dataclasses import asdict, fields
from fractions import Fraction
from math import asin, ceil, pi, sin, sqrt

import numpy as np
import pytest

from tensorpca import (
    DETECTORS,
    DetectionConfig,
    DetectionReport,
    InvalidParameterError,
    ModelParams,
    SpikedTensor,
    amplification_rounds,
    boosted_probability,
    build_basis,
    cost_exponents,
    decorrelate,
    detect_projection,
    detect_spectral,
    lambda_effective,
    leading_eigenvalue,
    make_spiked,
    multistep_levels,
    multistep_q_j,
    multistep_run,
    p_threshold,
    project_above,
    projection_cutoff,
    projection_statistic,
    sample_instance,
    sample_signal,
    simulate_quantum_amplified,
    simulate_quantum_unamplified,
)
from tensorpca import pipeline, spectral
from tensorpca._util import derived_rng
from tensorpca.fock import StateVector, embed_power_state
from tensorpca.hamiltonian import HamiltonianOperator
from tensorpca.instance import DecorrelatedPair
from tensorpca.pipeline import repeated_measurement
from tensorpca.spectral import _keep_above, _spectrum_below
from tensorpca.symtensor import SymmetricTensor4


def rng(seed=0):
    return np.random.default_rng(seed)


def noiseless_instance(lam, n_modes, seed=0):
    v = sample_signal(n_modes, rng(seed))
    t0 = make_spiked(lam, v, SymmetricTensor4.zeros(n_modes))
    return t0, v


def noiseless_pair(t0, zeta):
    return decorrelate(t0, zeta, g_prime=SymmetricTensor4.zeros(t0.tensor.n_modes))


class TestThresholds:
    def test_cutoff_without_slack_is_ideal_mean_energy(self):
        params = ModelParams(N=4, n_bos=4, lambda_bar=0.3, zeta=0.5)
        cfg = DetectionConfig(c_prime=1e-12)
        lam_plus = lambda_effective(0.3, 0.5)[0]
        assert projection_cutoff(params, cfg) == pytest.approx(
            lam_plus * 16 * 12, rel=1e-9
        )

    def test_cutoff_arithmetic(self):
        # effective plus-strength pinned to 0.1 by inflating lambda_bar
        zeta = 0.5
        params = ModelParams(
            N=4, n_bos=4, lambda_bar=0.1 * np.sqrt(1 + zeta**2), zeta=zeta
        )
        cfg = DetectionConfig(c_prime=0.2)
        assert projection_cutoff(params, cfg) == pytest.approx(15.36, abs=1e-12)

    def test_cutoff_monotone_in_slack(self):
        params = ModelParams(N=4, n_bos=4, lambda_bar=0.3)
        cuts = [
            projection_cutoff(params, DetectionConfig(c_prime=c))
            for c in (0.05, 0.2, 0.5, 0.9)
        ]
        assert all(a > b for a, b in zip(cuts, cuts[1:]))

    def test_success_threshold_saturates_at_inverse_slack(self):
        params = ModelParams(N=4, n_bos=4, lambda_bar=1e9, zeta=0.5)
        cfg = DetectionConfig(slack=10.0)
        assert p_threshold(params, cfg) == pytest.approx(0.1, rel=1e-6)

    def test_success_threshold_arithmetic(self):
        # plant lambda_bar so the minus-strength is exactly 1; the noise
        # power at N=2 is 5/16, so the ratio is 16 / (16 + 5)
        zeta = 0.5
        lam_bar = 1.0 / (1.0 + zeta**-2) ** -0.5
        params = ModelParams(N=2, n_bos=4, lambda_bar=lam_bar, zeta=zeta)
        cfg = DetectionConfig(slack=10.0)
        assert p_threshold(params, cfg) == pytest.approx(16.0 / 210.0, abs=1e-12)

    def test_success_threshold_zero_signal_is_silent(self):
        # a zero threshold is the documented no-signal route, not a fault
        params = ModelParams(N=4, n_bos=4, lambda_bar=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p_threshold(params, DetectionConfig()) == 0.0

    def test_zero_claimed_strength_never_detects(self):
        # the projection route carries no signal at lambda_bar = 0; the
        # degenerate threshold must not flag pure noise
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.0, seed=19)
        t0, _ = sample_instance(params, spiked=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = detect_projection(t0, params, DetectionConfig(), seed=19)
        assert rep.verdict == "unspiked"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=19, k=0)
        assert ms.verdict == "unspiked"

    @pytest.mark.parametrize(
        "detector, fields",
        [
            (detect_projection, {
                "verdict_source": "threshold", "trials_used": 1,
                "amplification_rounds": None, "boosted_probability": None,
                "projector_applications": 1,
            }),
            (simulate_quantum_unamplified, {
                "verdict_source": "sampled", "trials_used": 0,
                "amplification_rounds": None, "boosted_probability": None,
                "projector_applications": 0,
            }),
            (simulate_quantum_amplified, {
                "verdict_source": "sampled", "trials_used": None,
                "amplification_rounds": 0, "boosted_probability": 0.0,
                "projector_applications": 0,
            }),
        ],
    )
    def test_zero_threshold_report_fields(self, detector, fields):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.0, seed=19)
        t0, _ = sample_instance(params, spiked=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = detector(t0, params, DetectionConfig(), seed=19)
        # any statistic clears a zero threshold; the verdict must still be unspiked
        assert rep.threshold == 0.0 and rep.statistic >= rep.threshold
        assert rep.verdict == "unspiked"
        assert rep.separation is None
        got = {name: getattr(rep, name, None) for name in fields}
        got["projector_applications"] = rep.query_counts["projector_applications"]
        assert got == fields

    def test_per_boson_decay_exponent_approaches_minus_half(self):
        # fixed lambda_bar * N, growing N: log_N of the slack-free threshold
        # per boson tends to -1/2
        cfg = DetectionConfig(slack=1.0)
        vals = []
        for N in (10**3, 10**6, 10**9):
            params = ModelParams(N=N, n_bos=8, lambda_bar=3.0 / N)
            thr = p_threshold(params, cfg)
            vals.append(np.log(thr) / (8 * np.log(N)))
        assert abs(vals[-1] + 0.5) < 0.15
        assert abs(vals[-1] + 0.5) < abs(vals[0] + 0.5)


class TestSpectralDetection:
    def test_noiseless_strong_spike_detected(self):
        t0, _ = noiseless_instance(2.0, 4, seed=1)
        params = ModelParams(N=4, n_bos=3, lambda_bar=2.0)
        rep = detect_spectral(t0, params)
        assert rep.verdict == "spiked"
        assert rep.statistic == pytest.approx(2.0 * 16 * 6, abs=1e-8)

    def test_zero_instance_reports_unspiked(self):
        t0 = SpikedTensor(tensor=SymmetricTensor4.zeros(4), lam=0.0)
        params = ModelParams(N=4, n_bos=3, lambda_bar=0.5)
        rep = detect_spectral(t0, params)
        assert rep.verdict == "unspiked"
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)

    def test_verdict_consistency_invariant(self):
        params = ModelParams(N=4, n_bos=3, lambda_bar=0.4, seed=5)
        t0, _ = sample_instance(params, spiked=True)
        rep = detect_spectral(t0, params)
        assert (rep.verdict == "spiked") == (rep.statistic >= rep.threshold)


class TestProjectionDetection:
    def test_noiseless_input_passes_with_full_weight(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=1.5, zeta=0.4)
        t0, _ = noiseless_instance(1.5, 3, seed=2)
        pair = noiseless_pair(t0, 0.4)
        rep = detect_projection(t0, params, DetectionConfig(), pair=pair)
        assert rep.verdict == "spiked"
        assert rep.statistic == pytest.approx(1.0, abs=1e-8)

    def test_unspiked_statistic_matches_dense_oracle(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.25, seed=3)
        t0, _ = sample_instance(params, spiked=False)
        cfg = DetectionConfig()
        outcome = projection_statistic(t0, params, cfg, seed=3)
        # oracle: exact spectral weight above the realized window midpoint
        h = HamiltonianOperator(outcome.pair.t_plus, build_basis(3, 4))
        vals, vecs = np.linalg.eigh(h.materialize_dense())
        mid = 0.5 * (outcome.e_lower + outcome.cutoff)
        coefs = vecs.T @ outcome.input_state.amps
        exact = float(np.sum(np.abs(coefs[vals >= mid]) ** 2))
        assert outcome.proj_weight == pytest.approx(exact, abs=1e-10)

    def test_symmetrization_weight_only_matters_beyond_one_block(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.3, seed=4)
        t0, _ = sample_instance(params, spiked=True)
        on = detect_projection(t0, params, DetectionConfig(use_symmetrize=True), seed=4)
        off = detect_projection(t0, params, DetectionConfig(use_symmetrize=False), seed=4)
        assert on.statistic == pytest.approx(off.statistic, rel=1e-12)

    def test_input_state_needs_four_block_bosons(self):
        params = ModelParams(N=3, n_bos=6, lambda_bar=0.3)
        t0, _ = sample_instance(params, spiked=True)
        with pytest.raises(InvalidParameterError):
            detect_projection(t0, params, DetectionConfig())

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-8])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # project_above rejects it too, but only once a trial has drawn its pair
        with pytest.raises(InvalidParameterError, match="tol"):
            DetectionConfig(tol=tol)


class TestPinnedRangeProbe:
    """The range probe and the Ritz projection on seeded H(t_plus) at the
    recovery operating point (N=16, n_bos=4, D=3876, seed 99), built as
    projection_statistic builds it, for trial 0 of the spiked and of the
    unspiked draws.  Counts are pinned exactly, floats to rtol 1e-12."""

    PARAMS = ModelParams(N=16, n_bos=4, lambda_bar=0.12, seed=99)
    CFG = DetectionConfig(dense_limit=1500)

    def _instance(self, tag):
        spiked = tag == "recov16"
        t0, _ = sample_instance(self.PARAMS, spiked=spiked, rng=derived_rng(99, tag, 0))
        return t0

    def _operator(self, tag):
        """H(t_plus) and the power input state of t_minus, the state the
        range probe starts at."""
        pair = pipeline._make_pair(
            self._instance(tag), self.PARAMS, self.CFG, derived_rng(0, "decorrelate")
        )
        basis = build_basis(16, 4)
        state, _ = embed_power_state(basis, pair.t_minus)
        return HamiltonianOperator(pair.t_plus, basis), state

    @pytest.mark.parametrize(
        "tag, matvecs, value",
        [("recov16", 7, 502.6486033978467), ("recov16-null", 32, 202.5111830319723)],
        ids=["recov16", "recov16-null"],
    )
    def test_range_probe(self, tag, matvecs, value):
        h, state = self._operator(tag)
        estimate, probe = pipeline._spectral_range(h, state)
        assert estimate == pytest.approx(value, rel=1e-12, abs=0.0)
        assert h.matvec_count == probe.iterations == matvecs

    @pytest.mark.parametrize(
        "tag, statistic, weight, matvecs, probe_matvecs",
        [
            # one sweep: the projector continues the probe's 7 steps
            ("recov16", 0.023089314557111936, 0.023089314557111936, 13, 7),
            # certified empty by the pair-weight matrix: no probe, no sweep
            ("recov16-null", 0.0, 0.0, 0, 0),
        ],
        ids=["recov16", "recov16-null"],
    )
    def test_projection_statistic(self, tag, statistic, weight, matvecs, probe_matvecs):
        outcome = projection_statistic(self._instance(tag), self.PARAMS, self.CFG, seed=0)
        assert outcome.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert outcome.proj_weight == pytest.approx(weight, rel=1e-12, abs=0.0)
        assert outcome.matvec_count == matvecs
        assert outcome.range_probe_matvecs == probe_matvecs

    def test_unspiked_range_probe_holds_one_krylov_block(self):
        # the probe reads only Ritz values: it reserves one 60-row Krylov
        # block and builds no Ritz vectors.  Growing the block by copies
        # and building the D x k vectors peaked at 1.88 blocks
        h, state = self._operator("recov16-null")
        tracemalloc.start()
        try:
            pipeline._spectral_range(h, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 60 * h.dim * 8


class TestRangeProbeOracle:
    """The range probe, started at the pipeline's state, against the dense
    spectrum it estimates.  Ritz values from any start interlace the
    spectrum, so the padded estimate never exceeds
    1.2 * (lambda_max - lambda_min); the probe's 1e-3 residual rule keeps it
    above 0.85 of that (the lowest ratio over these six draws is 0.937, at
    N=6, n_bos=8, spiked)."""

    @pytest.mark.parametrize("spiked", [True, False], ids=["spiked", "unspiked"])
    @pytest.mark.parametrize("N, n_bos", [(6, 4), (3, 8), (6, 8)])
    def test_range_is_bracketed_by_the_dense_spectrum(self, N, n_bos, spiked):
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=1.0, seed=7)
        t0, _ = sample_instance(params, spiked=spiked, rng=derived_rng(7, "probe-oracle", spiked))
        pair = pipeline._make_pair(t0, params, DetectionConfig(), derived_rng(7, "decorrelate"))
        basis = build_basis(N, n_bos)
        h = HamiltonianOperator(pair.t_plus, basis)
        state, _ = embed_power_state(basis, pair.t_minus)
        estimate, _ = pipeline._spectral_range(h, state)
        assert h.matvec_count <= 60
        eigs = np.linalg.eigvalsh(h.materialize_dense())
        exact = 1.2 * (eigs[-1] - eigs[0])
        assert 0.85 * exact <= estimate <= exact * (1 + 1e-9)


class TestSharedSweep:
    """Above _EXACT_RANGE_CAP a step runs one Lanczos sweep: the range probe
    starts it at the step's state, and the Ritz projector continues it
    (pipeline._project_step, project_above's probe).  Spiked draws of the
    recovery operating point (N=16, n_bos=4, D=3876, seed 99), as its
    benchmark workload draws them, and of N=6, n_bos=8 (D=1287) with the
    Ritz projector forced."""

    POINTS = {
        "recov16": (ModelParams(N=16, n_bos=4, lambda_bar=0.12, seed=99), 1500),
        "ritz-6-8": (ModelParams(N=6, n_bos=8, lambda_bar=0.2732336812165897, seed=7), 1000),
    }

    def _outcome(self, tag, t):
        params, dense_limit = self.POINTS[tag]
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(params.seed, tag, t))
        return projection_statistic(t0, params, DetectionConfig(dense_limit=dense_limit), seed=t)

    def test_a_spiked_step_runs_one_sweep(self, monkeypatch):
        sweeps = []
        sweep = spectral._lanczos_sweep

        def counted(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(spectral, "_lanczos_sweep", counted)
        out = self._outcome("recov16", 0)
        assert out.proj_weight > 0.0
        assert len(sweeps) == 1
        assert 0 < out.range_probe_matvecs < out.matvec_count <= 16

    def test_pinned_ritz_stops(self, monkeypatch):
        # the first 8 spiked recovery draws: the probe's steps, the step's
        # matvecs and the Ritz projector's Krylov steps, recorded before a
        # step reorthogonalized a second time only where its first pass
        # cancelled and before the stop check read one unsorted eigensolve
        projectors = []
        project = pipeline.project_above

        def spy(*args, **kwargs):
            out = project(*args, **kwargs)
            projectors.append(out[2])
            return out

        monkeypatch.setattr(pipeline, "project_above", spy)
        counts = []
        for t in range(8):
            out = self._outcome("recov16", t)
            (proj,) = projectors
            projectors.clear()
            assert proj.method == "ritz"
            counts.append((out.range_probe_matvecs, out.matvec_count, proj.degree_or_iters))
        assert counts == [(7, 13, 13), (7, 12, 12), (7, 13, 13), (7, 13, 13),
                          (7, 12, 12), (7, 13, 13), (7, 13, 13), (7, 13, 13)]

    def test_one_eigensolve_per_tridiagonal(self, monkeypatch):
        # the probe solves its last tridiagonal for its decomposition, and
        # the Ritz projector's first check reads that solve; every later
        # check solves its own, which the final decomposition reads
        solved, checked = [], []
        eigh, run = np.linalg.eigh, spectral._Sweep.run

        def counted_eigh(a, *args, **kwargs):
            solved.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        def recorded_run(sweep, max_iters, stop_check):
            if stop_check is None or sweep.k == 0:  # not a continued sweep
                return run(sweep, max_iters, stop_check)

            def check(tridiag, beta):
                checked.append(tridiag.shape[0])
                return stop_check(tridiag, beta)

            return run(sweep, max_iters, check)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(spectral._Sweep, "run", recorded_run)
        for t in range(3):
            out = self._outcome("recov16", t)
            probe_steps = out.range_probe_matvecs
            assert checked == list(range(probe_steps, out.matvec_count + 1))
            assert solved == checked
            solved.clear()
            checked.clear()

    @pytest.mark.parametrize("tag, draws", [("recov16", 4), ("ritz-6-8", 3)])
    def test_continued_sweep_equals_a_fresh_projection(self, tag, draws):
        # a fresh Ritz projection from the state on the same window runs the
        # same Krylov sequence; its stop rule sees every step, the continued
        # one every step from the probe's last, so wherever the fresh run
        # stops at least two steps after the probe both stop together
        for t in range(draws):
            out = self._outcome(tag, t)
            h = HamiltonianOperator(out.pair.t_plus, out.input_state.basis)
            projected, weight, proj = project_above(
                h, out.input_state, out.e_lower, out.cutoff, method="ritz"
            )
            assert proj.degree_or_iters >= out.range_probe_matvecs + 2
            assert out.matvec_count == proj.degree_or_iters
            assert out.proj_weight == weight > 0.0
            assert np.array_equal(out.projected.amps, projected.amps)

    def test_a_state_in_an_invariant_subspace_ends_both_at_once(self):
        # a state on three eigenvectors of H, just above the exact-range cap
        # and with no signal, so that no certificate applies: the probe
        # breaks down after three steps with exact Ritz pairs, the range is
        # 1.2 times the spread of those three eigenvalues, and the Ritz
        # projector takes no further step
        n_bos = pipeline._EXACT_RANGE_CAP
        params = ModelParams(N=2, n_bos=n_bos, lambda_bar=0.0, seed=5)
        t0, _ = sample_instance(params, spiked=False, rng=derived_rng(5, "invariant"))
        basis = build_basis(2, n_bos)
        values, vectors = np.linalg.eigh(HamiltonianOperator(t0.tensor, basis).materialize_dense())
        picked = [0, basis.dim // 2, basis.dim - 1]
        coefs = np.array([0.6, 0.48, 0.64])  # unit norm
        state = StateVector(basis, vectors[:, picked] @ coefs)
        pair = DecorrelatedPair(t0.tensor, t0.tensor, 1.0, 0.0, 0.0)
        gap = 1.2 * (values[picked[-1]] - values[picked[0]]) / 2
        for dense_limit, matvecs in [(100, 3), (4000, 3 + basis.dim)]:
            out = pipeline._project_step(
                pair, state, 1.0, params, DetectionConfig(dense_limit=dense_limit)
            )
            assert out.range_probe_matvecs == 3 and out.matvec_count == matvecs
            assert out.cutoff - out.e_lower == pytest.approx(gap, rel=1e-10)
            keep = values[picked] >= out.cutoff - 0.5 * gap
            assert 0 < keep.sum() < 3
            assert out.proj_weight == pytest.approx(float(np.sum(coefs[keep] ** 2)), abs=1e-12)
            expected = vectors[:, picked] @ np.where(keep, coefs, 0.0)
            assert np.abs(out.projected.amps - expected).max() < 1e-10

    def test_a_spiked_step_holds_one_krylov_block(self):
        # the continued sweep keeps the probe's reserved 60-row block: beside
        # a matvec's own temporaries the probe and the projection held the
        # block and 3.0 D-vectors, and a second sweep beside the probe's
        # block read 27.2 (TestProbe checks that no Ritz vectors are built)
        params, _ = self.POINTS["recov16"]
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(99, "recov16", 1))
        pair = pipeline._make_pair(t0, params, DetectionConfig(), derived_rng(1, "decorrelate"))
        basis = build_basis(16, 4)
        state, _ = embed_power_state(basis, pair.t_minus)
        h = HamiltonianOperator(pair.t_plus, basis)
        h.matvec(state.amps)  # builds the operator's caches
        tracemalloc.start()
        try:
            h.matvec(state.amps)
            _, matvec_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cutoff = projection_cutoff(params, DetectionConfig())
        tracemalloc.start()
        try:
            span, probe = pipeline._spectral_range(h, state)
            _, weight, proj = project_above(
                h, state, cutoff - span / 16, cutoff, method="ritz", probe=probe
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weight > 0.0 and proj.degree_or_iters < 60
        assert probe._sweep.block.shape[0] == 60
        assert peak <= matvec_peak + (60 + 6) * basis.dim * 8


class TestNormBoundOracle:
    """spec H(t_plus) lies in n(n-1) [min(lambda_min(W), 0),
    max(lambda_max(W), 0)] for the pair-weight matrix W, checked against
    the dense spectrum on seeded draws built as the pipeline builds them."""

    @pytest.mark.parametrize("spiked", [True, False], ids=["spiked", "unspiked"])
    @pytest.mark.parametrize(
        "N, n_bos, lam", [(6, 4, 0.2732336812165897), (3, 8, 0.03), (6, 8, 0.1), (16, 4, 0.12)]
    )
    def test_dense_spectrum_inside_the_bound(self, N, n_bos, lam, spiked):
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=lam, seed=7)
        t0, _ = sample_instance(params, spiked=spiked, rng=derived_rng(7, "norm-oracle", spiked))
        pair = pipeline._make_pair(t0, params, DetectionConfig(), derived_rng(7, "decorrelate"))
        h = HamiltonianOperator(pair.t_plus, build_basis(N, n_bos))
        w_eigs = np.linalg.eigvalsh(h.pair_weights)
        eigs = np.linalg.eigvalsh(h.materialize_dense())
        gram = n_bos * (n_bos - 1)
        slack = 1e-12 * gram * np.abs(w_eigs).max()
        assert eigs[0] >= gram * min(w_eigs[0], 0.0) - slack
        assert eigs[-1] <= gram * max(w_eigs[-1], 0.0) + slack


def _norm_bound(params):
    """The norm below which pipeline._project_step proves a step empty."""
    cutoff = projection_cutoff(params, DetectionConfig())
    floor = 1e-9 * max(cutoff, 1.0)
    return min(cutoff / (1.0 + pipeline._RANGE_PAD / params.N), cutoff - 0.5 * floor)


class TestNormCertificate:
    """Above _RANGE_PROBE_STEPS, a step whose pair-weight matrix proves
    ||H|| below every cut a range could set skips the probe and the
    projector (pipeline._project_step); up to _EXACT_RANGE_CAP its dense
    operator may prove it instead.  Draws of the recovery operating point
    (N=16, n_bos=4, D=3876, seed 99), as its benchmark workload and
    TestPinnedRangeProbe draw them."""

    PARAMS = ModelParams(N=16, n_bos=4, lambda_bar=0.12, seed=99)
    CFG = DetectionConfig(dense_limit=1500)

    def _draw(self, t, spiked=False):
        tag = "recov16" if spiked else "recov16-null"
        t0, _ = sample_instance(self.PARAMS, spiked=spiked, rng=derived_rng(99, tag, t))
        return t0

    @pytest.mark.parametrize("add_imaginary", [False, True], ids=["real", "imaginary"])
    @pytest.mark.parametrize("t", range(4))
    def test_certified_step_equals_the_probe_route(self, t, add_imaginary):
        cfg = DetectionConfig(dense_limit=1500, add_imaginary=add_imaginary)
        out = projection_statistic(self._draw(t), self.PARAMS, cfg, seed=t)
        assert (out.matvec_count, out.range_probe_matvecs) == (0, 0)
        # the probe and project_above, run by hand on the same pair and state
        h = HamiltonianOperator(out.pair.t_plus, out.input_state.basis)
        span, probe = pipeline._spectral_range(h, out.input_state)
        gap = max(span / 16, 1e-9 * max(out.cutoff, 1.0))
        projected, weight, proj = project_above(
            h, out.input_state, out.cutoff - gap, out.cutoff, method="ritz", tol=cfg.tol,
            probe=probe,
        )
        assert proj.method == "ritz"
        _, pre_norm = embed_power_state(build_basis(16, 4), out.pair.t_minus)
        sym_weight = pre_norm / out.pair.t_minus.norm()
        assert out.proj_weight == weight
        assert out.statistic == weight * sym_weight**2
        assert out.projected.amps.dtype == projected.amps.dtype
        assert out.projected.amps.tobytes() == projected.amps.tobytes()
        # the reported window is the widest the probe could have set
        assert out.e_lower <= out.cutoff - gap

    @pytest.mark.parametrize("t", range(4))
    def test_spiked_draws_are_probed(self, t):
        out = projection_statistic(self._draw(t, spiked=True), self.PARAMS, self.CFG, seed=t)
        assert out.proj_weight > 0.0 and out.range_probe_matvecs > 0

    def test_no_signal_is_probed(self):
        # just above the exact-range cap (D=129): with no signal the cutoff
        # is 0 and no certificate applies.  A Ritz projection cut in the
        # bulk at D=3876 runs towards D Krylov steps
        n_bos = pipeline._EXACT_RANGE_CAP
        params = ModelParams(N=2, n_bos=n_bos, lambda_bar=0.0, seed=99)
        t0, _ = sample_instance(params, spiked=False)
        out = projection_statistic(t0, params, DetectionConfig(), seed=0)
        assert out.input_state.basis.dim == pipeline._EXACT_RANGE_CAP + 1
        assert out.cutoff == 0.0 and out.range_probe_matvecs > 0

    def test_no_signal_up_to_the_cap_takes_the_exact_range(self):
        # at D=126 (the roc point) the same row runs neither the probe nor
        # a Ritz sweep: one eigensolve sizes its window and projects
        params = ModelParams(N=6, n_bos=4, lambda_bar=0.0, seed=99)
        t0, _ = sample_instance(params, spiked=False)
        out = projection_statistic(t0, params, DetectionConfig(), seed=0)
        assert out.cutoff == 0.0
        assert (out.matvec_count, out.range_probe_matvecs) == (126, 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["W", "-W"])
    def test_certificate_is_sharp_in_the_norm(self, sign):
        # scale the draw's W to a norm just above and just below sigma, with
        # its extreme eigenvalue on either side, so that each Cholesky binds
        h = HamiltonianOperator(self._draw(0).tensor, build_basis(16, 4))
        w_norm = float(np.abs(np.linalg.eigvalsh(h.pair_weights)).max())
        bound = 100.0
        sigma = bound / (12 * (1.0 + pipeline._GRAM_SLACK))

        def scaled(norm):
            return HamiltonianOperator(h.tensor * (sign * norm / w_norm), h.basis)

        assert not pipeline._norm_below(scaled(sigma * (1.0 + 1e-6)), bound)
        assert pipeline._norm_below(scaled(sigma * (1.0 - 1e-4)), bound)

    @staticmethod
    def _step(tensor, n_bos):
        """pipeline._project_step of H(tensor) on a seeded N=2 state."""
        pair = DecorrelatedPair(tensor, tensor, 1.0, 0.0, 0.0)
        basis = build_basis(2, n_bos)
        amps = derived_rng(5, "zero-operator").standard_normal(basis.dim)
        state = StateVector(basis, amps / np.linalg.norm(amps))
        params = ModelParams(N=2, n_bos=n_bos, lambda_bar=0.03, seed=5)
        return pipeline._project_step(pair, state, 1.0, params, DetectionConfig())

    @pytest.mark.parametrize(
        "n_bos, certified",
        [(59, False), (60, True), (127, True), (128, True)],
        ids=["D60", "D61", "D128", "D129"],
    )
    def test_only_probed_steps_are_certified(self, n_bos, certified):
        # H(0) = 0 lies below any positive cut.  Above D=60 its pair-weight
        # matrix proves that before any matvec, on either side of the
        # exact-range cap; at D <= 60 the exact range is still taken from
        # the dense eigensolve
        out = self._step(SymmetricTensor4.zeros(2), n_bos)
        assert out.proj_weight == 0.0 and not out.projected.amps.any()
        assert out.range_probe_matvecs == 0
        assert out.matvec_count == (0 if certified else n_bos + 1)

    @pytest.mark.parametrize(
        "n_bos, route",
        [(59, "eigh"), (60, "dense"), (127, "dense"), (128, "probe")],
        ids=["D60", "D61", "D128", "D129"],
    )
    def test_dense_operator_certifies_up_to_the_cap(self, n_bos, route):
        # ||H|| = 0.7 bound, while n(n-1) ||W|| is about 1.7 ||H|| at N=2,
        # so the pair-weight matrix cannot prove the step empty but the
        # dense operator can, from D=61 up to the cap; above it the probe
        # sizes the window.  Every route keeps nothing
        t0, _ = sample_instance(
            ModelParams(N=2, n_bos=4, seed=5), spiked=False, rng=derived_rng(5, "dense-cert")
        )
        h = HamiltonianOperator(t0.tensor, build_basis(2, n_bos))
        norm = float(np.abs(np.linalg.eigvalsh(h.materialize_dense())).max())
        bound = _norm_bound(ModelParams(N=2, n_bos=n_bos, lambda_bar=0.03, seed=5))
        scaled = HamiltonianOperator(t0.tensor * (0.7 * bound / norm), h.basis)
        assert not pipeline._norm_below(scaled, bound)
        out = self._step(scaled.tensor, n_bos)
        assert out.proj_weight == 0.0 and not out.projected.amps.any()
        if route == "probe":
            assert out.range_probe_matvecs > 0
            assert out.matvec_count == out.range_probe_matvecs + h.dim
        else:
            assert (out.matvec_count, out.range_probe_matvecs) == (h.dim, 0)
        # a certified step reports the widest window any range could set
        widest = out.cutoff - 2.0 * pipeline._RANGE_PAD * bound / 2
        assert (out.e_lower == widest) == (route == "dense")

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["H", "-H"])
    def test_dense_certificate_is_sharp_in_the_norm(self, sign):
        # scale a roc-point H to a norm just above and just below the bound,
        # with its extreme eigenvalue on either side, so that each Cholesky
        # factorization of pipeline._two_sided_below binds
        params = ModelParams(N=6, n_bos=4, lambda_bar=0.2732336812165897, seed=1000)
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(1000, "roc", 0))
        dense = HamiltonianOperator(t0.tensor, build_basis(6, 4)).materialize_dense()
        eigs = np.linalg.eigvalsh(dense)
        extreme = eigs[-1] if eigs[-1] >= -eigs[0] else eigs[0]
        bound = 100.0

        def scaled(norm):
            return dense * (sign * norm / extreme)

        assert not pipeline._two_sided_below(scaled(bound * (1.0 + 1e-4)), bound)
        assert pipeline._two_sided_below(scaled(bound * (1.0 - 1e-4)), bound)

    def test_certified_step_runs_no_eigensolver(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(pipeline, "lanczos", spy("lanczos", pipeline.lanczos))
        monkeypatch.setattr(spectral, "_lanczos_sweep", spy("sweep", spectral._lanczos_sweep))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        out = projection_statistic(self._draw(0), self.PARAMS, self.CFG, seed=0)
        assert out.matvec_count == 0 and calls == []
        # the same spies see the probe and the Ritz sweep of a spiked draw
        projection_statistic(self._draw(0, spiked=True), self.PARAMS, self.CFG, seed=0)
        assert {"lanczos", "sweep"} <= set(calls)


class TestRefutation:
    """pipeline._two_sided_below first takes two power steps, from the
    column of largest norm, and refutes the proof where they reach the
    bound.  A refuted proof could not have succeeded, so the decision is
    the one of the two Cholesky factorizations alone."""

    @staticmethod
    def _factorized(matrix, bound):
        return _spectrum_below(matrix, bound) and _spectrum_below(np.negative(matrix), bound)

    @staticmethod
    def _matrices(N, n_bos, lam, seed, tag):
        """(W, bound on W) of seeded draws built as the pipeline builds
        them, and (dense H, bound) up to the exact-range cap."""
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=lam, seed=seed)
        cfg = DetectionConfig()
        bound = _norm_bound(params)
        sigma = bound / (n_bos * (n_bos - 1) * (1.0 + pipeline._GRAM_SLACK))
        for spiked in (True, False):
            for t in range(3):
                t0, _ = sample_instance(
                    params, spiked=spiked, rng=derived_rng(seed, f"{tag}-{spiked}", t)
                )
                pair = pipeline._make_pair(t0, params, cfg, derived_rng(t, "decorrelate"))
                h = HamiltonianOperator(pair.t_plus, build_basis(N, n_bos))
                yield spiked, h.pair_weights, sigma
                if h.dim <= pipeline._EXACT_RANGE_CAP:
                    yield spiked, h.materialize_dense(), bound

    @pytest.mark.parametrize(
        "N, n_bos, lam", [(16, 4, 0.12), (6, 4, 0.2732336812165897)], ids=["16-4", "6-4"]
    )
    def test_agrees_with_the_factorizations(self, N, n_bos, lam):
        # at the pipeline's bound and at bounds just above and below the
        # norm, so that both decisions occur
        decisions = set()
        for spiked, matrix, bound in self._matrices(N, n_bos, lam, 99, "refute"):
            norm = float(np.abs(np.linalg.eigvalsh(matrix)).max())
            for b in (bound, norm * (1.0 - 1e-4), norm * (1.0 + 1e-4), 2.0 * norm):
                proven = pipeline._two_sided_below(matrix, b)
                assert proven == self._factorized(matrix, b)
                decisions.add(proven)
        assert decisions == {True, False}

    def test_a_spiked_recovery_step_factorizes_nothing(self, monkeypatch):
        # the power steps refute the pair-weight proof of every spiked draw
        # here; an unspiked draw still reaches both factorizations, and its
        # proof still holds
        params = ModelParams(N=16, n_bos=4, lambda_bar=0.12, seed=99)
        cfg = DetectionConfig(dense_limit=1500)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        for t in range(4):
            t0, _ = sample_instance(params, spiked=True, rng=derived_rng(99, "recov16", t))
            out = projection_statistic(t0, params, cfg, seed=t)
            assert out.proj_weight > 0.0 and calls == []
        t0, _ = sample_instance(params, spiked=False, rng=derived_rng(99, "recov16-null", 0))
        out = projection_statistic(t0, params, cfg, seed=0)
        assert out.matvec_count == 0 and len(calls) == 2

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_vanishing_vectors_refute_nothing(self, dtype):
        # the zero matrix's largest column is zero, and the nilpotent one
        # maps its largest column to zero: neither ratio is formed, nothing
        # divides by zero, and the factorizations decide
        zero = np.zeros((5, 5), dtype=dtype)
        nilpotent = np.zeros((5, 5), dtype=dtype)
        nilpotent[0, 4] = 1.0
        with np.errstate(all="raise"):
            for matrix in (zero, nilpotent):
                assert pipeline._two_sided_below(matrix, 2.0) == self._factorized(matrix, 2.0)
            assert pipeline._two_sided_below(zero, 1e-300)


class TestReportEcho:
    """The report's params and config echoes equal dataclasses.asdict."""

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(N=1, n_bos=4),
            ModelParams(N=3, n_bos=4),
            ModelParams(N=16, n_bos=8, lambda_bar=0.12, zeta=0.5, seed=7, ensemble="complex"),
        ],
        ids=["N1-zeta-none", "default", "complex"],
    )
    def test_params_echo(self, params):
        expected = asdict(params)
        expected["zeta"] = params.effective_zeta if params.N >= 2 else None
        assert pipeline._params_echo(params) == expected

    @pytest.mark.parametrize(
        "cfg",
        [
            DetectionConfig(),
            DetectionConfig(c_prime=0.3, slack=2.0, c_doubleprime=5.0, tol=1e-6,
                            use_symmetrize=False, add_imaginary=True, dense_limit=10),
        ],
        ids=["default", "custom"],
    )
    def test_config_echo(self, cfg):
        assert pipeline._fields_dict(cfg) == asdict(cfg)
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.5, seed=22)
        t0, _ = sample_instance(params, spiked=True)
        assert detect_projection(t0, params, cfg, seed=22).config == asdict(cfg)


class TestExactRange:
    """At most pipeline._EXACT_RANGE_CAP states wide, a step that is not
    proven empty takes as window range 1.2 * (lambda_max - lambda_min) of
    the exact spectrum, whatever the projector, and one eigensolve serves
    the range and a dense projector."""

    @staticmethod
    def _outcome(N, n_bos, spiked, cfg=None, lam=0.03):
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=lam, seed=5)
        t0, _ = sample_instance(params, spiked=spiked, rng=derived_rng(5, "exact-range", spiked))
        return projection_statistic(t0, params, cfg or DetectionConfig(), seed=5)

    @staticmethod
    def _range(outcome):
        return outcome.pair.t_plus.n_modes * (outcome.cutoff - outcome.e_lower)

    @pytest.mark.parametrize("spiked", [True, False], ids=["spiked", "unspiked"])
    @pytest.mark.parametrize(
        "N, n_bos", [(3, 4), (4, 4), (3, 8), (2, 56)], ids=["D15", "D35", "D45", "D57"]
    )
    def test_range_is_the_exact_spread(self, N, n_bos, spiked):
        out = self._outcome(N, n_bos, spiked)
        h = HamiltonianOperator(out.pair.t_plus, build_basis(N, n_bos))
        eigs = np.linalg.eigvalsh(h.materialize_dense())
        assert self._range(out) == pytest.approx(1.2 * (eigs[-1] - eigs[0]), rel=1e-12, abs=0.0)
        assert (out.matvec_count, out.range_probe_matvecs) == (h.dim, 0)

    def test_cap_is_the_last_exact_dimension(self):
        cap = pipeline._EXACT_RANGE_CAP
        params = ModelParams(N=2, n_bos=cap, lambda_bar=0.03, seed=5)
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(5, "exact-range", True))
        pair = pipeline._make_pair(t0, params, DetectionConfig(), derived_rng(5, "decorrelate"))
        # D = cap (cap - 1 bosons, a state no detector embeds) is solved exactly
        basis = build_basis(2, cap - 1)
        amps = derived_rng(5, "exact-range-state").standard_normal(basis.dim)
        state = StateVector(basis, amps / np.linalg.norm(amps))
        out = pipeline._project_step(pair, state, 1.0, params, DetectionConfig())
        eigs = np.linalg.eigvalsh(HamiltonianOperator(pair.t_plus, basis).materialize_dense())
        assert basis.dim == cap
        assert self._range(out) == pytest.approx(1.2 * (eigs[-1] - eigs[0]), rel=1e-12, abs=0.0)
        assert (out.matvec_count, out.range_probe_matvecs) == (cap, 0)
        # D = cap + 1 takes the probe's estimate
        out = projection_statistic(t0, params, DetectionConfig(), seed=5)
        h = HamiltonianOperator(out.pair.t_plus, build_basis(2, cap))
        span, _ = pipeline._spectral_range(h, out.input_state)
        assert self._range(out) == pytest.approx(span, rel=1e-12, abs=0.0)
        assert out.range_probe_matvecs == h.matvec_count > 0

    @pytest.mark.parametrize("spiked", [True, False], ids=["spiked", "unspiked"])
    def test_window_does_not_depend_on_the_projector(self, spiked):
        # up to the cap a dense limit below D changes nothing: the step
        # projects with the eigensystem it took its range from
        for N, n_bos, dim, dense_limit in [(3, 8, 45, 10), (6, 4, 126, 100)]:
            dense = self._outcome(N, n_bos, spiked)
            low = self._outcome(N, n_bos, spiked, DetectionConfig(dense_limit=dense_limit))
            assert (dense.range_probe_matvecs, dense.matvec_count) == (0, dim)
            assert (low.cutoff, low.e_lower, low.statistic, low.proj_weight) == (
                dense.cutoff, dense.e_lower, dense.statistic, dense.proj_weight
            )
            assert (low.range_probe_matvecs, low.matvec_count) == (0, dim)
            assert np.array_equal(low.projected.amps, dense.projected.amps)
        # above the cap (D=1365) both routes take the window of one range
        # probe; the dense projector runs after it, the Ritz one continues it.
        # At lambda_bar 0.06 no draw is certified and no cut lies in the bulk
        dense = self._outcome(12, 4, spiked, DetectionConfig(dense_limit=4000), lam=0.06)
        ritz = self._outcome(12, 4, spiked, DetectionConfig(dense_limit=1000), lam=0.06)
        assert (ritz.cutoff, ritz.e_lower) == (dense.cutoff, dense.e_lower)
        assert ritz.range_probe_matvecs == dense.range_probe_matvecs > 0
        assert dense.matvec_count == dense.range_probe_matvecs + 1365
        assert ritz.matvec_count > ritz.range_probe_matvecs

    @pytest.mark.parametrize(
        "N, n_bos, lam",
        [(6, 4, 0.2732336812165897), (5, 4, 0.2732336812165897), (2, 127, 2.0)],
        ids=["D126", "D70", "D128"],
    )
    def test_steps_up_to_the_cap_against_their_exact_spectrum(self, N, n_bos, lam):
        # seeded spiked and unspiked draws: a step proven empty has its exact
        # lambda_max below the midpoint of its exact window; any other step
        # equals spectral._keep_above on its own eigensystem.  D=128 (127
        # bosons, which no detector embeds) filters a seeded state
        params = ModelParams(N=N, n_bos=n_bos, lambda_bar=lam, seed=5)
        cfg = DetectionConfig()
        basis = build_basis(N, n_bos)
        bound, certified = _norm_bound(params), 0
        for spiked in (True, False):
            for t in range(3):
                rng = derived_rng(5, f"cap-oracle-{spiked}", t)
                t0, _ = sample_instance(params, spiked=spiked, rng=rng)
                pair = pipeline._make_pair(t0, params, cfg, derived_rng(t, "decorrelate"))
                if n_bos % 4 == 0:
                    state, _ = embed_power_state(basis, pair.t_minus)
                else:
                    amps = derived_rng(5, "cap-oracle-state", t).standard_normal(basis.dim)
                    state = StateVector(basis, amps / np.linalg.norm(amps))
                out = pipeline._project_step(pair, state, 1.0, params, cfg)
                values, vectors = np.linalg.eigh(
                    HamiltonianOperator(pair.t_plus, basis).materialize_dense()
                )
                gap = max(1.2 * (values[-1] - values[0]) / N, 1e-9 * max(out.cutoff, 1.0))
                mid = out.cutoff - 0.5 * gap
                assert out.range_probe_matvecs == 0
                if out.e_lower == out.cutoff - 2.0 * pipeline._RANGE_PAD * bound / N:
                    # proven empty, by W (no matvec) or by H (D of them)
                    certified += 1
                    assert out.proj_weight == 0.0 and not out.projected.amps.any()
                    assert out.matvec_count in (0, basis.dim)
                    assert values[-1] < mid
                    continue
                assert out.matvec_count == basis.dim
                assert out.e_lower == pytest.approx(out.cutoff - gap, rel=1e-12, abs=0.0)
                amps, weight = _keep_above(values, vectors, state.amps, mid)
                assert out.proj_weight == weight > 0.0
                assert np.array_equal(out.projected.amps, amps)
        # both outcomes occur at each point
        assert 0 < certified < 6

    def test_reported_counts(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.5, seed=22)
        t0, _ = sample_instance(params, spiked=True)
        rep = detect_projection(t0, params, DetectionConfig(), seed=22)
        assert rep.query_counts == {"matvec": 15, "range_probe": 0, "projector_applications": 1}


class TestPinnedCascade:
    """multistep_run(k=1) at N=3, n_bos=8, lambda_bar=0.03 on the unspiked
    `cascade` draws derived_rng(55, "chain", t) with seed=t, as the
    benchmark's cascade workload runs them.  Floats pinned to rtol 1e-12.
    t=3 and t=134 moved when the window range became exact at D <= 60
    (q_j[0] from 0.2088 and 0.2493), t=20 in its statistic and chain."""

    PARAMS = ModelParams(N=3, n_bos=8, lambda_bar=0.03, seed=55)

    @pytest.mark.parametrize(
        "t, statistic, chain_product, q_j, cost_estimate",
        [
            (0, 0.37541511925641224, 0.17136993657909208,
             (0.24455409384125057, 0.5738516214912958), 1899.8159844901568),
            (3, 0.508725951040813, 0.30985807720289205,
             (0.23790837546679983, 0.7228682351380343), 1692.7069346670933),
            (20, 0.4342455614313436, 0.3758675080782158,
             (0.2937886630464936, 0.5298574617285884), 1977.11447909616),
            (134, 0.36498701903879316, 0.1986263502978904,
             (0.28842830734785807, 0.2924353599364713), 2661.315735224752),
        ],
        ids=["t0", "t3", "t20", "t134"],
    )
    def test_cascade(self, t, statistic, chain_product, q_j, cost_estimate):
        t0, _ = sample_instance(self.PARAMS, spiked=False, rng=derived_rng(55, "chain", t))
        ms = multistep_run(t0, self.PARAMS, cfg=DetectionConfig(), seed=t, k=1)
        assert ms.verdict == "spiked"
        assert ms.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert ms.chain_product == pytest.approx(chain_product, rel=1e-12, abs=0.0)
        assert ms.q_j == pytest.approx(q_j, rel=1e-12, abs=0.0)
        assert ms.cost_estimate == pytest.approx(cost_estimate, rel=1e-12, abs=0.0)

    def test_a_dense_limit_below_every_step_changes_nothing(self):
        # every step here is at most 45 states wide and projects with its
        # own eigensystem whatever the dense limit
        for t in range(40):
            t0, _ = sample_instance(self.PARAMS, spiked=False, rng=derived_rng(55, "chain", t))
            runs = [multistep_run(t0, self.PARAMS, cfg=cfg, seed=t, k=1)
                    for cfg in (DetectionConfig(), DetectionConfig(dense_limit=10))]
            default, low = ((ms.p_j, ms.q_j, ms.statistic, ms.chain_product) for ms in runs)
            assert low == default


    def test_a_ritz_projection_without_a_probe_matches_every_step(self, monkeypatch):
        # the 200 projection steps of the 40 draws, each filtered again by
        # project_above(method="ritz") without a probe.  That call runs its
        # own range probe and continues it, so its stop rule cannot stop at
        # step 3 on a one-sided Ritz set; a sweep of its own stopped there
        # on 18 steps, off by up to 6.1e-3 while reporting 1e-14
        steps = []
        step = pipeline._project_step

        def recording(*args):
            steps.append(step(*args))
            return steps[-1]

        monkeypatch.setattr(pipeline, "_project_step", recording)
        for t in range(40):
            t0, _ = sample_instance(self.PARAMS, spiked=False, rng=derived_rng(55, "chain", t))
            multistep_run(t0, self.PARAMS, cfg=DetectionConfig(), seed=t, k=1)
        assert len(steps) == 200
        for out in steps:
            h = HamiltonianOperator(out.pair.t_plus, out.input_state.basis)
            _, weight, proj = project_above(
                h, out.input_state, out.e_lower, out.cutoff, method="ritz"
            )
            assert proj.method == "ritz"
            assert abs(weight - out.proj_weight) <= 1e-9


class TestDetectorTable:
    """The four detectors share one signature and hand over the state that
    recovery starts from."""

    def test_one_table_one_signature(self):
        assert tuple(DETECTORS) == ("spectral", "projection", "q-unamp", "q-amp")
        for detector in DETECTORS.values():
            sig = inspect.signature(detector).parameters
            assert list(sig)[:4] == ["t0", "params", "cfg", "seed"]
            assert sig["cfg"].default is None and sig["seed"].default is None
        assert list(inspect.signature(detect_spectral).parameters) == ["t0", "params", "cfg", "seed"]

    def test_spectral_state_is_the_leading_eigenvector(self):
        params = ModelParams(N=4, n_bos=3, lambda_bar=0.7, seed=21)
        t0, _ = sample_instance(params, spiked=True)
        rep = DETECTORS["spectral"](t0, params, seed=21)
        lam1, vec = leading_eigenvalue(HamiltonianOperator(t0.tensor, build_basis(4, 3)), seed=21)
        assert rep.statistic == lam1
        assert np.array_equal(rep.state.amps, vec.amps)
        assert rep.pair is None

    @pytest.mark.parametrize("method", ["projection", "q-unamp", "q-amp"])
    def test_projection_state_is_the_filtered_state(self, method):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.5, seed=22)
        t0, _ = sample_instance(params, spiked=True)
        cfg = DetectionConfig()
        rep = DETECTORS[method](t0, params, cfg, seed=22)
        outcome = projection_statistic(t0, params, cfg, seed=22)
        assert np.array_equal(rep.state.amps, outcome.projected.amps)
        assert rep.pair is not None
        assert np.array_equal(rep.pair.t_plus.values, outcome.pair.t_plus.values)
        # matvec stays the total; the dense projector adds D = 15 applications
        probe = outcome.range_probe_matvecs
        assert rep.query_counts["range_probe"] == probe
        assert rep.query_counts["matvec"] == outcome.matvec_count == probe + 15

    @pytest.mark.parametrize("method", sorted(DETECTORS))
    def test_row_serializes_all_but_the_handover(self, method):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.5, seed=23)
        t0, _ = sample_instance(params, spiked=True)
        row = DETECTORS[method](t0, params, seed=23).row()
        assert not {"state", "pair"} & set(row)
        assert set(row) == {f.name for f in fields(DetectionReport)} - {"state", "pair"}

    def test_multistep_row(self):
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.03, seed=24)
        t0, _ = sample_instance(params, spiked=True)
        ms = multistep_run(t0, params, seed=24, k=1)
        row = ms.row()
        assert row["algorithm"] == "multistep-k1"
        assert row["q_j"] == list(ms.q_j)
        assert (row["verdict"], row["statistic"], row["seed"]) == (ms.verdict, ms.statistic, 24)


class TestQuantumSimulators:
    def test_certain_success_uses_one_trial(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=1.5, zeta=0.4)
        t0, _ = noiseless_instance(1.5, 3, seed=6)
        pair = noiseless_pair(t0, 0.4)
        rep = simulate_quantum_unamplified(t0, params, DetectionConfig(), pair=pair)
        assert rep.verdict == "spiked"
        assert rep.trials_used == 1

    def test_impossible_success_exhausts_budget(self):
        # zero tensor: the input state is undefined, so force a spiked pair
        # with zero minus-part weight above an unreachable cutoff instead
        params = ModelParams(N=3, n_bos=4, lambda_bar=50.0, seed=7)
        t0, _ = sample_instance(params, spiked=False)  # pure noise instance
        cfg = DetectionConfig()
        rep = simulate_quantum_unamplified(t0, params, cfg, seed=7)
        assert rep.statistic == 0.0
        assert rep.verdict == "unspiked"
        assert rep.trials_used == ceil(cfg.c_doubleprime / rep.threshold)

    def test_retry_budget_mean_matches_inverse_probability(self):
        for p in (0.02, 0.1):
            budget = int(ceil(20.0 / p))
            trials = [
                repeated_measurement(p, budget, derived_rng(8, f"geo{p}", i))[1]
                for i in range(2000)
            ]
            mean = np.mean(trials)
            assert 1.0 / (1.5 * p) <= mean <= 1.5 / p

    def test_budget_success_rate_matches_geometric_formula(self):
        # success within a budget of b draws at probability p is
        # 1 - (1-p)^b; check the empirical rate at 3 sigma
        p, budget, seeds = 0.02, 50, 2000
        predicted = 1.0 - (1.0 - p) ** budget
        hits = sum(
            repeated_measurement(p, budget, derived_rng(16, "budget", i))[0]
            for i in range(seeds)
        )
        sigma = np.sqrt(predicted * (1 - predicted) / seeds)
        assert abs(hits / seeds - predicted) <= 3 * sigma
        # at the default multiplier the budget is c''/p and failure is
        # ~exp(-c''): effectively certain success
        full_budget = int(ceil(20.0 / p))
        assert all(
            repeated_measurement(p, full_budget, derived_rng(16, "cert", i))[0]
            for i in range(200)
        )

    def test_imaginary_noise_path_matches_dense_oracle(self):
        # complex input state through the Krylov filter agrees with the
        # exact projector, above the exact-range cap (D=210), where the
        # dense limit picks the projector
        params = ModelParams(N=7, n_bos=4, lambda_bar=0.3, seed=18)
        t0, _ = sample_instance(params, spiked=True)
        cfg_dense = DetectionConfig(add_imaginary=True)
        cfg_ritz = DetectionConfig(add_imaginary=True, dense_limit=0)
        a = projection_statistic(t0, params, cfg_dense, seed=18)
        b = projection_statistic(t0, params, cfg_ritz, seed=18)
        assert np.iscomplexobj(a.input_state.amps)
        assert a.matvec_count == a.range_probe_matvecs + 210
        assert b.range_probe_matvecs == a.range_probe_matvecs < b.matvec_count < 210
        assert a.statistic == pytest.approx(b.statistic, abs=1e-8)

    def test_amplification_round_count(self):
        assert amplification_rounds(0.01) == 8
        assert amplification_rounds(1.0) == 1
        expected = ceil(pi / (4 * asin(sqrt(0.05))))
        assert amplification_rounds(0.05) == expected

    def test_boosted_probability_closed_form(self):
        for p_target in (0.01, 0.05, 0.3):
            r = amplification_rounds(p_target)
            theta = asin(sqrt(p_target))
            assert boosted_probability(p_target, r) == pytest.approx(
                sin((2 * r + 1) * theta) ** 2, abs=1e-15
            )
            # ceil-rounded schedules overshoot the quarter period slightly;
            # the success level still lands within the 9 theta^2 envelope
            assert boosted_probability(p_target, r) >= 1.0 - 9.0 * p_target

    def test_boosted_probability_edge_cases(self):
        assert boosted_probability(0.0, 5) == 0.0
        assert boosted_probability(1.0, 3) == 1.0

    def test_round_count_scales_as_inverse_square_root(self):
        # the quadratic query advantage: rounds stay below
        # ceil(pi/4 sqrt(1/p)) + 1 while the retry loop needs ~1/p draws
        for p in (1e-4, 1e-3, 0.01, 0.05, 0.2, 0.7):
            assert amplification_rounds(p) <= ceil(pi / 4 * sqrt(1.0 / p)) + 1

    def test_statistics_agree_across_variants(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.4, seed=9)
        for spiked in (True, False):
            t0, _ = sample_instance(params, spiked=spiked)
            cfg = DetectionConfig()
            a = detect_projection(t0, params, cfg, seed=9)
            b = simulate_quantum_unamplified(t0, params, cfg, seed=9)
            c = simulate_quantum_amplified(t0, params, cfg, seed=9)
            assert abs(a.statistic - b.statistic) < 1e-10
            assert abs(a.statistic - c.statistic) < 1e-10

    def test_amplified_rounds_use_threshold_not_statistic(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.4, seed=10)
        t0, _ = sample_instance(params, spiked=True)
        cfg = DetectionConfig()
        rep = simulate_quantum_amplified(t0, params, cfg, seed=10)
        assert rep.amplification_rounds == amplification_rounds(rep.threshold)


class TestMultistep:
    def test_plan_shapes(self):
        l8 = multistep_levels(8, 1)
        assert l8 == ((8,), (4, 4))
        l12 = multistep_levels(12, 1)
        assert l12 == ((12,), (8, 4))
        l16 = multistep_levels(16, 2)
        assert l16 == ((16,), (8, 8), (4, 4, 4, 4))
        for levels in (l8, l12, l16):
            for level in levels:
                assert all(s % 4 == 0 for s in level)
                assert sum(level) == levels[0][0]

    def test_infeasible_split_rejected(self):
        with pytest.raises(InvalidParameterError):
            multistep_levels(4, 1)
        with pytest.raises(InvalidParameterError):
            multistep_levels(8, 2)
        with pytest.raises(InvalidParameterError):
            multistep_levels(8, -1)

    def test_cutoffs_follow_level_sizes(self):
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.2, zeta=0.5)
        cfg = DetectionConfig(c_prime=0.2)
        lam_plus = lambda_effective(0.2, 0.5)[0]
        assert projection_cutoff(params, cfg, n_bos=8) == pytest.approx(0.8 * lam_plus * 9 * 56)
        assert projection_cutoff(params, cfg, n_bos=4) == pytest.approx(0.8 * lam_plus * 9 * 12)

    def test_depth_zero_reproduces_projection_detector(self):
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.05, seed=11)
        for spiked in (True, False):
            t0, _ = sample_instance(params, spiked=spiked)
            ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=11, k=0)
            flat = detect_projection(t0, params, DetectionConfig(), seed=11)
            assert ms.statistic == flat.statistic
            assert ms.threshold == flat.threshold
            assert ms.verdict == flat.verdict

    def test_noiseless_cascade_passes_every_level(self):
        params = ModelParams(N=3, n_bos=8, lambda_bar=1.0, zeta=0.4)
        t0, _ = noiseless_instance(1.0, 3, seed=12)
        pair = noiseless_pair(t0, 0.4)
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=12, k=1, pair=pair)
        for level in ms.p_j:
            for p in level:
                assert p == pytest.approx(1.0, abs=1e-8)
        assert ms.verdict == "spiked"

    def test_q_j_depend_on_the_seed_not_the_instance(self):
        # a cascade given the q_j of multistep_q_j reports exactly what it
        # reports when it draws them itself, for any instance under the seed
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.03, seed=15)
        cfg = DetectionConfig()
        q_j = multistep_q_j(params, cfg, 15, 1)
        assert len(q_j) == 2
        for spiked in (True, False):
            t0, _ = sample_instance(params, spiked=spiked)
            drawn = multistep_run(t0, params, cfg=cfg, seed=15, k=1)
            given = multistep_run(t0, params, cfg=cfg, seed=15, k=1, q_j=q_j)
            assert drawn.q_j == q_j
            assert given == drawn
        with pytest.raises(InvalidParameterError, match="one q_j per level"):
            multistep_run(t0, params, cfg=cfg, seed=15, k=0, q_j=q_j)

    def test_equal_leaves_have_equal_probabilities(self):
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.03, seed=13)
        t0, _ = sample_instance(params, spiked=False)
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=13, k=1)
        assert ms.p_j[1][0] == ms.p_j[1][1]

    def test_unreachable_cutoff_reports_zero_chain(self):
        # strong claimed signal, pure-noise instance: the leaf filter
        # annihilates the state and the cascade reports zeros instead of
        # crashing on an unnormalizable state
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.8, seed=21)
        t0, _ = sample_instance(params, spiked=False)
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=21, k=1)
        assert ms.verdict == "unspiked"
        assert ms.statistic == 0.0
        assert ms.chain_product == 0.0

    def test_uneven_split_runs(self):
        params = ModelParams(N=2, n_bos=12, lambda_bar=0.1, seed=22)
        t0, _ = sample_instance(params, spiked=True)
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=22, k=1)
        assert ms.level_sizes == ((12,), (8, 4))
        for level in ms.p_j:
            for p in level:
                assert 0.0 <= p <= 1.0 + 1e-12

    def test_depth_two_cascade(self):
        # two halvings at a 17-state space: chain inequality in expectation
        # and the level-count structure (1, 2, 4 subsystems)
        params = ModelParams(N=2, n_bos=16, lambda_bar=0.05, seed=66)
        cfg = DetectionConfig()
        chains, q0s = [], []
        for trial in range(20):
            t0, _ = sample_instance(params, spiked=False, rng=derived_rng(66, "k2", trial))
            ms = multistep_run(t0, params, cfg=cfg, seed=trial, k=2)
            assert tuple(len(level) for level in ms.p_j) == (1, 2, 4)
            chains.append(ms.chain_product)
            q0s.append(ms.q_j[0])
        assert np.mean(chains) <= 1.15 * np.mean(q0s)
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(66, "k2s", 0))
        assert multistep_run(t0, params, cfg=cfg, seed=0, k=2).verdict == "spiked"

    def test_report_names_its_depth(self):
        params = ModelParams(N=2, n_bos=16, lambda_bar=0.05, seed=66)
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(66, "k2s", 0))
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=0, k=2)
        assert ms.row()["algorithm"] == "multistep-k2"
        assert ms.level_sizes == multistep_levels(16, 2)

    @pytest.mark.parametrize(
        "n_bos, k, spiked, steps, expected",
        [
            # (verdict, statistic, threshold, p_j, q_j, chain_product, cost_estimate)
            (8, 1, False, 5, (
                "spiked", 0.3206019606161393, 9.491012625759479e-07,
                ((0.3206019606161393,), (0.713234562631077, 0.713234562631077)),
                (0.4047972564087539, 0.4135608923000641), 0.1630913527232662,
                2237.904822215297,
            )),
            (8, 1, True, 5, (
                "spiked", 0.3473382761107564, 1.1599399234164054e-06,
                ((0.3473382761107564,), (0.6451651616371794, 0.6451651616371794)),
                (0.4047972564087539, 0.4135608923000641), 0.1445754191700536,
                2237.904822215297,
            )),
            (16, 2, False, 10, (
                "spiked", 0.29145280694361764, 8.851522989898731e-11,
                ((0.29145280694361764,), (0.35786471596935093,) * 2, (0.6734024858354273,) * 4),
                (0.07236874048880233, 0.1757730818132131, 0.7373504162342559),
                0.007675467990149837, 1819321.8667112803,
            )),
            (16, 2, True, 10, (
                "spiked", 0.3060675549457585, 7.850056943265081e-11,
                ((0.3060675549457585,), (0.36845894908841764,) * 2, (0.6838736961040148,) * 4),
                (0.07236874048880233, 0.1757730818132131, 0.7373504162342559),
                0.009088644392116702, 1819321.8667112803,
            )),
        ],
    )
    def test_shared_subsystems_run_once(self, monkeypatch, n_bos, k, spiked, steps, expected):
        # equal leaves and merges of identical children are one computation;
        # the unspiked q_j draws are one step per subsystem.  k=1 takes
        # 1 + 1 + (1 + 2) steps, k=2 takes 1 + 1 + 1 + (1 + 2 + 4).  The
        # reports were recorded, with one BLAS thread as the test session
        # pins, when every subsystem ran on its own.
        calls = []
        step = pipeline._project_step

        def counting(*args):
            calls.append(args[1].basis.n_bos)
            return step(*args)

        monkeypatch.setattr(pipeline, "_project_step", counting)
        params = ModelParams(N=3, n_bos=n_bos, lambda_bar=0.03, seed=55)
        t0, _ = sample_instance(params, spiked=spiked, rng=derived_rng(55, "pin", k))
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=7, k=k)
        assert len(calls) == steps
        got = (ms.verdict, ms.statistic, ms.threshold, ms.p_j, ms.q_j, ms.chain_product,
               ms.cost_estimate)
        assert got == expected

    def test_annihilation_zeroes_only_the_ancestors(self, monkeypatch):
        # levels (20,), (12, 8), (8, 4, 4, 4): the size-8 leaf below the 12
        # is annihilated, so the 12 and the root get p = 0 while their
        # cousin, the internal 8 merged from two 4s, is still computed
        import dataclasses

        params = ModelParams(N=2, n_bos=20, lambda_bar=0.5, seed=3)
        cfg = DetectionConfig()
        t0, _ = sample_instance(params, spiked=True, rng=derived_rng(3, "cascade"))
        pair = pipeline._make_pair(t0, params, cfg, derived_rng(3, "decorrelate"))
        clean = multistep_run(t0, params, cfg, seed=3, k=2, pair=pair)
        filtered, step = pipeline._filtered_statistic, pipeline._project_step
        steps = []

        def annihilating(pair_arg, *args, n_bos=None):
            out = filtered(pair_arg, *args, n_bos=n_bos)
            if pair_arg is pair and n_bos == 8:
                return dataclasses.replace(out, statistic=0.0, proj_weight=0.0)
            return out

        def counting(*args):
            steps.append(args[1].basis.n_bos)
            return step(*args)

        monkeypatch.setattr(pipeline, "_filtered_statistic", annihilating)
        monkeypatch.setattr(pipeline, "_project_step", counting)
        ms = multistep_run(t0, params, cfg, seed=3, k=2, pair=pair)
        assert ms.level_sizes == ((20,), (12, 8), (8, 4, 4, 4))
        assert ms.p_j[0] == (0.0,)
        assert ms.p_j[1] == (0.0, clean.p_j[1][1]) and clean.p_j[1][1] > 0.0
        assert ms.p_j[2] == (0.0, *clean.p_j[2][1:])
        assert ms.chain_product == 0.0
        assert ms.verdict == "unspiked"
        # leaves 8 and 4, the merge into the internal 8, then 1 + 2 + 4 q_j draws
        assert len(steps) == 3 + 7

    def test_cost_estimate_formula(self):
        params = ModelParams(N=3, n_bos=8, lambda_bar=0.03, seed=14)
        t0, _ = sample_instance(params, spiked=False)
        ms = multistep_run(t0, params, cfg=DetectionConfig(), seed=14, k=1)
        tiny = np.finfo(float).tiny
        expected = sqrt(1.0 / ms.p_threshold) * sqrt(1.0 / max(ms.q_j[1], tiny))
        assert ms.cost_estimate == pytest.approx(expected, rel=1e-12)


class TestCostExponents:
    def test_ratio_table(self):
        table = cost_exponents(ModelParams(N=6, n_bos=4, lambda_bar=0.05))
        assert table.ratios["accelerated_classical"] == Fraction(1, 2)
        assert table.ratios["quantum_amplified"] == Fraction(1, 8)
        assert table.ratios["quantum_multistep"] == Fraction(1, 12)
        assert table.ratios["quantum_amplified"] / table.ratios["accelerated_classical"] == Fraction(1, 4)

    def test_exponents_strictly_decreasing(self):
        table = cost_exponents(ModelParams(N=6, n_bos=4, lambda_bar=0.05))
        ordered = [table.exponents[name] for name in table.ORDER]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_measured_counts_harvested(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.4, seed=15)
        t0, _ = sample_instance(params, spiked=True)
        rep = detect_projection(t0, params, DetectionConfig(), seed=15)
        table = cost_exponents(params, reports=[rep.row()])
        assert "projection" in table.measured
        assert table.measured["projection"]["matvec"] >= 1

    def test_measured_counts_sum_over_reports(self):
        params = ModelParams(N=3, n_bos=4, lambda_bar=0.4, seed=15)
        reps = []
        for trial in range(2):
            t0, _ = sample_instance(params, spiked=True, rng=derived_rng(15, "sum", trial))
            reps.append(detect_projection(t0, params, DetectionConfig(), seed=trial))
        table = cost_exponents(params, reports=[rep.row() for rep in reps])
        assert table.measured["projection"] == {
            "matvec": reps[0].query_counts["matvec"] + reps[1].query_counts["matvec"],
            "range_probe": sum(rep.query_counts["range_probe"] for rep in reps),
            "projector_applications": 2,
        }

    def test_logged_rows_summed_and_error_rows_skipped(self):
        rows = [
            {"algorithm": "spectral", "query_counts": {"matvec": 5}},
            {"error": "CapacityError", "message": "too large"},
            {"algorithm": "spectral", "query_counts": {"matvec": 7}},
            {"algorithm": "multistep-k1", "verdict": "unspiked"},
        ]
        table = cost_exponents(ModelParams(N=3, n_bos=4, lambda_bar=0.4), reports=rows)
        assert table.measured == {"spectral": {"matvec": 12}, "multistep-k1": {}}
