#!/usr/bin/env python3
"""Calibrated detection at desk scale.

Runs the leading-eigenvalue detector and the filtered-weight detector over
paired spiked/unspiked draws at the calibrated operating point (the
claimed strength sits 50% above the unspiked bound), reporting the
separation each statistic achieves.
"""

import numpy as np

import tensorpca as tp
from tensorpca import derived_rng

N, N_BOS, TRIALS, SEED = 6, 4, 25, 2024

bounds_unit = tp.analytic_bounds(tp.ModelParams(N=N, n_bos=N_BOS, lambda_bar=1.0))
lam_bar = 1.5 * bounds_unit.e_max / (N_BOS * (N_BOS - 1) * N**2)
params = tp.ModelParams(N=N, n_bos=N_BOS, lambda_bar=lam_bar, seed=SEED)
cfg = tp.DetectionConfig(c_prime=0.2, slack=10.0)
bounds = tp.analytic_bounds(params)

print(f"operating point: N={N}, n_bos={N_BOS}, lambda_bar={lam_bar:.4f}")
print(f"e_zero={bounds.e_zero:.1f}, e_max={bounds.e_max:.1f}, e_cut={bounds.e_cut:.1f}")
print(f"projection threshold P_> = {tp.p_threshold(params, cfg):.5f}\n")

rows = {("spectral", True): [], ("spectral", False): [],
        ("projection", True): [], ("projection", False): []}
for trial in range(TRIALS):
    rng = derived_rng(SEED, "roc-demo", trial)
    for spiked in (True, False):
        tensor, _ = tp.sample_instance(params, spiked=spiked, rng=rng)
        rows[("spectral", spiked)].append(
            tp.detect_spectral(tensor, params, seed=trial).statistic
        )
        rows[("projection", spiked)].append(
            tp.detect_projection(tensor, params, cfg, seed=trial).statistic
        )

for method, thr in (("spectral", bounds.e_cut), ("projection", tp.p_threshold(params, cfg))):
    sp = np.array(rows[(method, True)])
    un = np.array(rows[(method, False)])
    tpr = np.mean(sp >= thr)
    fpr = np.mean(un >= thr)
    print(f"{method:10s}: threshold {thr:10.4f}  "
          f"spiked stat [{sp.min():.4f}, {sp.max():.4f}]  "
          f"unspiked max {un.max():.4f}  TPR {tpr:.2f}  FPR {fpr:.2f}")

print("\nboth statistics clear their thresholds by an order of magnitude at")
print("this calibration; tighten lambda_bar toward the crossing point and")
print("the spectral margin collapses first (see 08_reduced_boson_budget.py).")
