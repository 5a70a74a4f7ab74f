#!/usr/bin/env python3
"""Recovering the planted direction after detection.

The state surviving the filtered projection carries the signal in its
single-particle density matrix; its top eigenvector is already strongly
aligned at this calibration, and tensor power iteration pushes the
correlation to 1.  Recovery is only defined up to a global sign.
"""

import numpy as np

import tensorpca as tp
from tensorpca import derived_rng

N, N_BOS, LAM, SEED, TRIALS = 16, 4, 0.12, 515, 8
params = tp.ModelParams(N=N, n_bos=N_BOS, lambda_bar=LAM, seed=SEED)
cfg = tp.DetectionConfig(dense_limit=1500)  # Krylov filtering at D = 3876
thr = tp.p_threshold(params, cfg)

print(f"N={N}, n_bos={N_BOS}, lambda_bar={LAM}; threshold P_> = {thr:.5f}")
print(f"{'trial':>5} {'statistic':>10} {'corr(candidate)':>16} {'corr(boosted)':>14} {'iters':>6}")
for trial in range(TRIALS):
    rng = derived_rng(SEED, "recover-demo", trial)
    tensor, v_sig = tp.sample_instance(params, spiked=True, rng=rng)
    det = tp.detect_projection(tensor, params, cfg, seed=trial)
    if not det.spiked:
        print(f"{trial:>5} {det.statistic:>10.5f}  below threshold, no recovery")
        continue
    rep = tp.recovery_chain(det.state.normalized(), tensor, v_reference=v_sig, seed=trial)
    print(f"{trial:>5} {det.statistic:>10.5f} {abs(rep.corr_initial):>16.4f} "
          f"{abs(rep.corr_boosted):>14.4f} {rep.iterations_used:>6}")

print("\nweak starts also boost: planting a candidate with correlation 0.4")
wins = 0
for trial in range(20):
    g = derived_rng(SEED, "weak-start", trial)
    tensor, v_sig = tp.sample_instance(params, spiked=True, rng=g)
    w = g.standard_normal(N)
    w -= (w @ v_sig) * v_sig / (v_sig @ v_sig)
    w /= np.linalg.norm(w)
    u0 = 0.4 * v_sig / np.linalg.norm(v_sig) + np.sqrt(1 - 0.16) * w
    boosted, _ = tp.boost(tensor, u0)
    wins += abs(tp.corr(boosted, v_sig)) >= 0.9
print(f"boosted past 0.9 in {wins}/20 trials")
