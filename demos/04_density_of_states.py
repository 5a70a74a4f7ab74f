#!/usr/bin/env python3
"""How sparse is the top of the unspiked spectrum?

The accelerated detectors rely on the fraction of eigenvalues above a
constant fraction of the top shrinking as N grows.  This script estimates
that fraction for four bosons at increasing N, plus the per-boson base-N
decay exponent of the tail fraction.
"""

import numpy as np

import tensorpca as tp

TRIALS, SEED = 30, 404
X_GRID = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

print(f"{'N':>3} {'dim':>5} {'mean top':>9} {'frac >= 0.8*top':>16}")
for n_modes in (4, 6, 8):
    params = tp.ModelParams(N=n_modes, n_bos=4, seed=SEED)
    est = tp.density_of_states(
        params, x_grid=[0.8], trials=TRIALS, emax_reference="empirical"
    )
    dim = tp.build_basis(n_modes, 4).dim
    print(f"{n_modes:>3} {dim:>5} {est.mean_lambda1:>9.2f} "
          f"{est.p_greater[0]:>12.5f} +- {est.stderr[0]:.5f}")

print("\nexponent table at N=8 (x relative to the mean observed top;")
print("the analytic reference bound sits well above the bulk at this size,")
print("so the empirical switch keeps the grid populated):")
params = tp.ModelParams(N=8, n_bos=4, seed=SEED)
est = tp.density_of_states(params, x_grid=X_GRID, trials=TRIALS, emax_reference="empirical")
print(f"{'x':>5} {'P>(x)':>10} {'stderr':>9} {'g_hat':>7}")
for i, x in enumerate(X_GRID):
    g = est.g_hat[i]
    gtxt = f"{g:7.3f}" if np.isfinite(g) else "  (all counts zero)"
    print(f"{x:>5.2f} {est.p_greater[i]:>10.5f} {est.stderr[i]:>9.5f} {gtxt}")

print("\nthe high fraction decays with N and the decay exponent per boson")
print("grows with x; the conjectured asymptotic exponent is x^2.")
