"""Acceptance suite.

Every exit criterion runs at its stated tolerance and prints one pass/fail
line; run with `pytest tests/test_acceptance.py -v -s` to see them live.
All calibration constants are pinned below, fixed ahead of the run.
"""

import time
from fractions import Fraction
from math import asin, ceil, factorial, pi, sin, sqrt

import numpy as np

import tensorpca as tp
from tensorpca._util import derived_rng
from tensorpca.cli import main as cli_main
from tensorpca.fock import _convolve_raw, tensor_occupation_amplitudes

# ---------------------------------------------------------------------------
# Pinned calibration constants (chosen once, before this suite was run)
# ---------------------------------------------------------------------------

ROC_N, ROC_NBOS = 6, 4
ROC_LAMBDA = 0.2732336812165897  # 1.5 * e_max(6,4) / (4*3*36)
ROC_CPRIME, ROC_SLACK = 0.2, 10.0
ROC_SEED, ROC_TRIALS = 1000, 40

MULTI_N, MULTI_NBOS, MULTI_LAMBDA, MULTI_SEED, MULTI_TRIALS = 3, 8, 0.03, 55, 30

WICK_SEED, WICK_SAMPLES = 1, 2000

TAIL_SEED, TAIL_TRIALS = 202, 100

DOS_SEED, DOS_TRIALS = 101, 30

REC_N, REC_NBOS, REC_LAMBDA, REC_SEED = 16, 4, 0.12, 99
REC_TRIALS, REC_UNSPIKED_TRIALS = 50, 20
REC_DENSE_LIMIT = 1500  # forces the Krylov projector at D = 3876


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE] {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_quantization_equivalence():
    t_start = time.perf_counter()
    worst = 0.0
    for n_modes, n_bos in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        basis = tp.build_basis(n_modes, n_bos)
        for trial in range(10):
            g = tp.sample_gaussian_tensor(
                n_modes, derived_rng(17, f"quant-{n_modes}-{n_bos}", trial)
            )
            pairwise = tp.restrict_to_symmetric(
                tp.first_quantized_dense(g, n_modes, n_bos), basis
            )
            ladder = tp.HamiltonianOperator(g, basis).materialize_dense()
            a = np.sort(np.linalg.eigvalsh(pairwise))
            b = np.sort(np.linalg.eigvalsh(ladder))
            worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, "quantization-equivalence", ok, f"(max dev {worst:.2e}, {elapsed:.1f}s)")


def test_02_variational_threshold_identities():
    lam_bar = 0.3
    worst = 0.0
    for n_modes in range(2, 7):
        for n_bos in range(2, 6):
            v = tp.sample_signal(n_modes, derived_rng(23, "vari", n_modes * 10 + n_bos))
            t0 = tp.make_spiked(lam_bar, v, tp.SymmetricTensor4.zeros(n_modes))
            h = tp.HamiltonianOperator(t0.tensor, tp.build_basis(n_modes, n_bos))
            lam1 = tp.full_spectrum(h)[0]
            bounds = tp.analytic_bounds(
                tp.ModelParams(N=n_modes, n_bos=n_bos, lambda_bar=lam_bar)
            )
            e_zero = lam_bar * n_modes**2 * n_bos * (n_bos - 1)
            scale = max(1.0, e_zero)
            worst = max(worst, abs(lam1 - e_zero) / scale)
            worst = max(worst, abs(bounds.e_zero - e_zero) / scale)
            assert bounds.e_cut == (bounds.e_zero + bounds.e_max) / 2.0
    j4 = tp.analytic_bounds(tp.ModelParams(N=4, n_bos=4, lambda_bar=0.1)).j_const
    ok = worst < 1e-9 and j4 == 0.75
    _report(2, "variational-threshold-identities", ok, f"(max rel dev {worst:.2e})")


def test_03_moment_formulas():
    t_start = time.perf_counter()
    n_modes, n_bos = 3, 4
    basis = tp.build_basis(n_modes, n_bos)
    psi = tp.embed_product_state(basis, np.sqrt(n_modes) * np.eye(n_modes)[0])
    worst = 0.0
    for trial in range(20):
        g = tp.sample_gaussian_tensor(n_modes, derived_rng(29, "moments", trial))
        h = tp.HamiltonianOperator(g, basis)
        mean_direct = h.expectation(psi)
        hpsi = h.apply(psi)
        m2_direct = float(np.vdot(hpsi.amps, hpsi.amps).real)
        worst = max(
            worst,
            abs(tp.ideal_energy(g, n_bos) - mean_direct) / max(1.0, abs(mean_direct)),
            abs(tp.ideal_moment2(g, n_bos) - m2_direct) / max(1.0, abs(m2_direct)),
        )
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-8 and elapsed < 30.0
    _report(3, "moment-formulas", ok, f"(max rel dev {worst:.2e}, {elapsed:.1f}s)")


def test_04_noise_power_average():
    t_start = time.perf_counter()
    n_modes, k = 2, 2
    basis = tp.build_basis(n_modes, 4 * k)
    acc = np.zeros((basis.dim, basis.dim), dtype=complex)
    acc_norm = np.zeros((basis.dim, basis.dim), dtype=complex)
    for trial in range(WICK_SAMPLES):
        g = tp.sample_gaussian_tensor(
            n_modes, derived_rng(WICK_SEED, "wick", trial), ensemble="complex"
        )
        block = tensor_occupation_amplitudes(g)
        raw = _convolve_raw(block, block, basis)
        gram = np.outer(raw.amps, raw.amps.conj())
        acc += gram
        acc_norm += gram / g.norm() ** (2 * k)
    acc /= WICK_SAMPLES
    acc_norm /= WICK_SAMPLES
    target = float(factorial(k)) * np.eye(basis.dim)
    rel_gram = np.linalg.norm(acc - target) / np.linalg.norm(target)
    mixed = np.eye(basis.dim) / basis.dim
    shape = acc_norm / np.trace(acc_norm).real
    rel_mixed = np.linalg.norm(shape - mixed) / np.linalg.norm(mixed)
    elapsed = time.perf_counter() - t_start
    ok = rel_gram < 0.10 and rel_mixed < 0.10 and elapsed < 120.0
    _report(
        4,
        "noise-gram-average",
        ok,
        f"(gram {rel_gram:.3f}, mixed-shape {rel_mixed:.3f}, {elapsed:.1f}s)",
    )


def test_05_tail_bound():
    t_start = time.perf_counter()
    n_modes, n_bos = 6, 3
    params = tp.ModelParams(N=n_modes, n_bos=n_bos, seed=TAIL_SEED)
    bounds = tp.analytic_bounds(params)
    basis = tp.build_basis(n_modes, n_bos)
    lam1 = np.array(
        [
            tp.full_spectrum(
                tp.HamiltonianOperator(
                    tp.sample_gaussian_tensor(n_modes, derived_rng(TAIL_SEED, "tail", t)),
                    basis,
                )
            )[0]
            for t in range(TAIL_TRIALS)
        ]
    )
    ok = True
    details = []
    for t_level in (0, 1, 2):
        frac = float(np.mean(lam1 >= bounds.e_max + t_level * bounds.xi))
        stderr = sqrt(frac * (1 - frac) / TAIL_TRIALS)
        bound = np.exp(-t_level) + 3 * stderr
        ok = ok and frac <= bound
        details.append(f"t={t_level}: {frac:.3f}<={bound:.3f}")
    elapsed = time.perf_counter() - t_start
    ok = ok and elapsed < 300.0
    _report(5, "tail-bound", ok, f"({'; '.join(details)}, {elapsed:.1f}s)")


def test_06_density_of_states_trend():
    t_start = time.perf_counter()
    fractions = []
    monotone_ok = True
    for n_modes in (4, 6, 8):
        params = tp.ModelParams(N=n_modes, n_bos=4, seed=DOS_SEED)
        est = tp.density_of_states(
            params, x_grid=[0.8], trials=DOS_TRIALS, emax_reference="empirical"
        )
        fractions.append(float(est.p_greater[0]))
        grid_est = tp.density_of_states(
            params,
            x_grid=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            trials=DOS_TRIALS,
        )
        finite = grid_est.g_hat[np.isfinite(grid_est.g_hat)]
        monotone_ok = monotone_ok and bool(np.all(np.diff(finite) >= -1e-12))
    strict = all(a > b for a, b in zip(fractions, fractions[1:]))
    elapsed = time.perf_counter() - t_start
    ok = strict and monotone_ok and elapsed < 1200.0
    _report(
        6,
        "density-of-states-trend",
        ok,
        f"(fractions {[round(f, 5) for f in fractions]}, {elapsed:.1f}s)",
    )


def test_07_detection_roc():
    t_start = time.perf_counter()
    params = tp.ModelParams(
        N=ROC_N, n_bos=ROC_NBOS, lambda_bar=ROC_LAMBDA, seed=ROC_SEED
    )
    # reduced boson count for the projection route: half the crossing point,
    # floored at one four-boson block (which is the desk-scale outcome here)
    nbos_proj = tp.projection_nbos(params)
    params_proj = tp.ModelParams(
        N=ROC_N, n_bos=nbos_proj, lambda_bar=ROC_LAMBDA, seed=ROC_SEED
    )
    cfg = tp.DetectionConfig(c_prime=ROC_CPRIME, slack=ROC_SLACK)
    hits = {"spectral": [0, 0], "projection": [0, 0]}
    for trial in range(ROC_TRIALS):
        rng = derived_rng(ROC_SEED, "roc", trial)
        for col, spiked in ((0, True), (1, False)):
            tensor, _ = tp.sample_instance(params, spiked=spiked, rng=rng)
            hits["spectral"][col] += tp.detect_spectral(tensor, params, seed=trial).spiked
            hits["projection"][col] += tp.detect_projection(
                tensor, params_proj, cfg, seed=trial
            ).spiked
    tpr_s, fpr_s = hits["spectral"][0] / ROC_TRIALS, hits["spectral"][1] / ROC_TRIALS
    tpr_p, fpr_p = hits["projection"][0] / ROC_TRIALS, hits["projection"][1] / ROC_TRIALS
    elapsed = time.perf_counter() - t_start
    ok = (
        tpr_s >= 0.9 and fpr_s <= 0.1 and tpr_p >= 0.9 and fpr_p <= 0.1 and elapsed < 1800.0
    )
    _report(
        7,
        "detection-roc",
        ok,
        f"(spectral TPR {tpr_s:.2f}/FPR {fpr_s:.2f}; "
        f"projection@n_bos={nbos_proj} TPR {tpr_p:.2f}/FPR {fpr_p:.2f}, {elapsed:.0f}s)",
    )


def test_08_quantum_accounting():
    from tensorpca.pipeline import repeated_measurement

    # retry accounting: mean trials within factor 1.5 of 1/P
    geometric_ok = True
    details = []
    for p in (0.02, 0.1):
        budget = int(ceil(20.0 / p))
        mean_trials = np.mean(
            [
                repeated_measurement(p, budget, derived_rng(41, f"geo-{p}", i))[1]
                for i in range(2000)
            ]
        )
        geometric_ok = geometric_ok and (1.0 / (1.5 * p) <= mean_trials <= 1.5 / p)
        details.append(f"P={p}: mean {mean_trials:.1f} vs 1/P {1/p:.0f}")

    # closed-form amplification bookkeeping on a live run
    params = tp.ModelParams(N=3, n_bos=4, lambda_bar=0.4, seed=43)
    formulas_ok = True
    agreement_ok = True
    for trial in range(10):
        t0, _ = tp.sample_instance(
            params, spiked=trial % 2 == 0, rng=derived_rng(43, "qacc", trial)
        )
        cfg = tp.DetectionConfig()
        a = tp.detect_projection(t0, params, cfg, seed=trial)
        b = tp.simulate_quantum_unamplified(t0, params, cfg, seed=trial)
        c = tp.simulate_quantum_amplified(t0, params, cfg, seed=trial)
        agreement_ok = agreement_ok and (
            abs(a.statistic - b.statistic) < 1e-10 and abs(a.statistic - c.statistic) < 1e-10
        )
        r_expected = int(ceil(pi / (4.0 * asin(sqrt(c.threshold)))))
        boosted_expected = sin((2 * r_expected + 1) * asin(sqrt(min(c.statistic, 1.0)))) ** 2
        if c.statistic <= 0.0:
            boosted_expected = 0.0
        formulas_ok = formulas_ok and c.amplification_rounds == r_expected
        formulas_ok = formulas_ok and abs(c.boosted_probability - boosted_expected) < 1e-12
    ok = geometric_ok and formulas_ok and agreement_ok
    _report(8, "quantum-accounting", ok, f"({'; '.join(details)})")


def test_09_multistep():
    params = tp.ModelParams(
        N=MULTI_N, n_bos=MULTI_NBOS, lambda_bar=MULTI_LAMBDA, seed=MULTI_SEED
    )
    cfg = tp.DetectionConfig()

    # depth zero reproduces the flat projection detector per seed
    k0_ok = True
    for trial in range(10):
        t0, _ = tp.sample_instance(
            params, spiked=trial % 2 == 0, rng=derived_rng(MULTI_SEED, "k0", trial)
        )
        ms = tp.multistep_run(t0, params, cfg=cfg, seed=trial, k=0)
        flat = tp.detect_projection(t0, params, cfg, seed=trial)
        k0_ok = k0_ok and ms.statistic == flat.statistic and ms.verdict == flat.verdict

    # survival chain against the unconditioned unspiked probability
    chains, q0s, cost_ok = [], [], True
    tiny = np.finfo(float).tiny
    for trial in range(MULTI_TRIALS):
        t0, _ = tp.sample_instance(
            params, spiked=False, rng=derived_rng(MULTI_SEED, "chain", trial)
        )
        ms = tp.multistep_run(t0, params, cfg=cfg, seed=trial, k=1)
        chains.append(ms.chain_product)
        q0s.append(ms.q_j[0])
        expected_cost = sqrt(1.0 / ms.p_threshold) * sqrt(1.0 / max(ms.q_j[1], tiny))
        cost_ok = cost_ok and abs(ms.cost_estimate - expected_cost) <= 1e-12 * expected_cost
    chain_mean, q0_mean = float(np.mean(chains)), float(np.mean(q0s))
    chain_ok = chain_mean <= q0_mean * 1.15
    ok = k0_ok and chain_ok and cost_ok
    _report(
        9,
        "multistep",
        ok,
        f"(chain {chain_mean:.3f} <= 1.15*Q0 {1.15 * q0_mean:.3f}; k_0 exact {k0_ok})",
    )


def test_10_exponent_table():
    table = tp.cost_exponents(
        tp.ModelParams(N=ROC_N, n_bos=ROC_NBOS, lambda_bar=0.05)
    )
    base = table.ratios["original_classical"]
    ok = (
        table.ratios["accelerated_classical"] / base == Fraction(1, 2)
        and table.ratios["quantum_amplified"] / base == Fraction(1, 8)
        and table.ratios["quantum_multistep"] / base == Fraction(1, 12)
        and table.ratios["quantum_amplified"] / table.ratios["accelerated_classical"]
        == Fraction(1, 4)
    )
    ordered = [table.exponents[name] for name in table.ORDER]
    ok = ok and all(a > b for a, b in zip(ordered, ordered[1:]))
    _report(10, "exponent-table", ok, f"(ratios 1/2, 1/8, 1/12 exact)")


def test_11_recovery():
    t_start = time.perf_counter()
    # noiseless chain: exact recovery
    n_modes = 4
    params0 = tp.ModelParams(N=n_modes, n_bos=4, lambda_bar=1.5, zeta=0.4)
    v = tp.sample_signal(n_modes, derived_rng(47, "noiseless"))
    t0 = tp.make_spiked(1.5, v, tp.SymmetricTensor4.zeros(n_modes))
    pair = tp.decorrelate(t0, 0.4, g_prime=tp.SymmetricTensor4.zeros(n_modes))
    outcome = tp.projection_statistic(t0, params0, tp.DetectionConfig(), pair=pair)
    rep0 = tp.recovery_chain(outcome.projected.normalized(), t0, v_reference=v, seed=47)
    noiseless_ok = (
        outcome.statistic >= tp.p_threshold(params0, tp.DetectionConfig())
        and abs(abs(rep0.corr_boosted) - 1.0) < 1e-10
    )

    # calibrated spiked chain at the pinned desk-scale operating point
    params = tp.ModelParams(N=REC_N, n_bos=REC_NBOS, lambda_bar=REC_LAMBDA, seed=REC_SEED)
    cfg = tp.DetectionConfig(dense_limit=REC_DENSE_LIMIT)
    thr = tp.p_threshold(params, cfg)
    wins = detected = settled = 0
    for trial in range(REC_TRIALS):
        tensor, v_ref = tp.sample_instance(
            params, spiked=True, rng=derived_rng(REC_SEED, "recov16", trial)
        )
        outcome = tp.projection_statistic(tensor, params, cfg, seed=trial)
        if outcome.statistic < thr:
            continue
        detected += 1
        rep = tp.recovery_chain(
            outcome.projected.normalized(), tensor, v_reference=v_ref, seed=trial
        )
        wins += abs(rep.corr_boosted) >= 0.9
        settled += rep.converged
    # every boosted row stopped on alignment, not at the iteration cap
    boost_ok = wins >= int(0.7 * REC_TRIALS) and settled == detected

    # unspiked chains never reach the recovery stage
    false_recoveries = 0
    for trial in range(REC_UNSPIKED_TRIALS):
        tensor, _ = tp.sample_instance(
            params, spiked=False, rng=derived_rng(REC_SEED, "recov16-null", trial)
        )
        outcome = tp.projection_statistic(tensor, params, cfg, seed=trial)
        false_recoveries += outcome.statistic >= thr
    unspiked_ok = false_recoveries == 0
    elapsed = time.perf_counter() - t_start
    ok = noiseless_ok and boost_ok and unspiked_ok
    _report(
        11,
        "recovery",
        ok,
        f"(noiseless exact; boosted>=0.9 in {wins}/{REC_TRIALS} detected {detected}, "
        f"converged {settled}; "
        f"false recoveries {false_recoveries}/{REC_UNSPIKED_TRIALS}, {elapsed:.0f}s)",
    )


def test_12_determinism(tmp_path):
    commands = {
        "gen": ["gen", "--N", "4", "--nbos", "4", "--lambda", "0.3", "--seed", "71",
                "--format", "binary"],
        "detect": ["detect", "--method", "projection", "--N", "3", "--nbos", "4",
                   "--lambda", "0.5", "--trials", "3", "--seed", "72"],
        "dos": ["dos", "--N", "4", "--nbos", "4", "--trials", "4", "--seed", "73",
                "--format", "csv"],
        "recover": ["recover", "--N", "4", "--nbos", "4", "--lambda", "2.0",
                    "--trials", "2", "--seed", "74"],
        "exponents": ["exponents", "--N", "6", "--nbos", "4", "--lambda", "0.05"],
    }
    ok = True
    for name, args in commands.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert cli_main([*args, "--out", str(a)]) == 0
        assert cli_main([*args, "--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes()
        ok = ok and same
    _report(12, "determinism", ok, f"({len(commands)} subcommands byte-identical)")
