#!/usr/bin/env python3
"""What the reduced boson budget buys, measured honestly at desk scale.

Pick the claimed strength so the spiked and unspiked bounds cross near
eight bosons.  The hard-threshold detector then needs the full budget:
at four bosons its statistic straddles the midpoint threshold.  The
filtered-weight statistic at the same four bosons still separates the two
hypotheses in distribution, which is the mechanism behind running at half
the boson budget; at this small N the separation is visible but not yet a
clean decision rule (the high-eigenvalue fraction of the noise spectrum
is still polynomially large, cf. 04_density_of_states.py).
"""

import numpy as np

import tensorpca as tp
from tensorpca import derived_rng

N, SEED, TRIALS = 6, 1313, 20
target_cross = 8.0
# strength at which the spiked bound meets the unspiked bound at 8 bosons
from tensorpca.spectral import _e_max_at

lam_bar = _e_max_at(target_cross, N, "real") / (target_cross * (target_cross - 1) * N**2)
params8 = tp.ModelParams(N=N, n_bos=8, lambda_bar=lam_bar, seed=SEED)
params4 = tp.ModelParams(N=N, n_bos=4, lambda_bar=lam_bar, seed=SEED)
cfg = tp.DetectionConfig()
print(f"lambda_bar = {lam_bar:.4f}; crossing point = "
      f"{tp.analytic_bounds(params8).nbos_eq:.2f} bosons")
print(f"reduced budget from the halving rule: {tp.projection_nbos(params8)} bosons\n")

stats = {}
for n_bos, prm in ((8, params8), (4, params4)):
    for spiked in (True, False):
        spec, proj = [], []
        for trial in range(TRIALS):
            rng = derived_rng(SEED, f"budget-{n_bos}", trial)
            tensor, _ = tp.sample_instance(prm, spiked=spiked, rng=rng)
            spec.append(tp.detect_spectral(tensor, prm, seed=trial).statistic)
            proj.append(tp.detect_projection(tensor, prm, cfg, seed=trial).statistic)
        stats[(n_bos, spiked)] = (np.array(spec), np.array(proj))

for n_bos, prm in ((8, params8), (4, params4)):
    e_cut = tp.analytic_bounds(prm).e_cut
    sp, _ = stats[(n_bos, True)]
    un, _ = stats[(n_bos, False)]
    print(f"spectral @ {n_bos} bosons: e_cut {e_cut:8.1f}  "
          f"spiked median {np.median(sp):8.1f}  unspiked median {np.median(un):8.1f}  "
          f"TPR {np.mean(sp >= e_cut):.2f}  FPR {np.mean(un >= e_cut):.2f}")

_, sp4 = stats[(4, True)]
_, un4 = stats[(4, False)]
thr4 = tp.p_threshold(params4, cfg)
print(f"\nfiltered weight @ 4 bosons: asymptotic threshold P_> = {thr4:.5f}")
print(f"  spiked   median {np.median(sp4):.5f}  (quartiles "
      f"{np.percentile(sp4,25):.5f} / {np.percentile(sp4,75):.5f})")
print(f"  unspiked median {np.median(un4):.5f}  (quartiles "
      f"{np.percentile(un4,25):.5f} / {np.percentile(un4,75):.5f})")
mid = np.sqrt(np.median(sp4) * max(np.median(un4), 1e-12))
print(f"  at the asymptotic threshold: TPR {np.mean(sp4 >= thr4):.2f}  "
      f"FPR {np.mean(un4 >= thr4):.2f}  (too lenient here: the unspiked")
print(f"  spectrum still has weight above the cutoff at N={N})")
print(f"  at the distribution midpoint {mid:.4f}: TPR {np.mean(sp4 >= mid):.2f}  "
      f"FPR {np.mean(un4 >= mid):.2f}")

print("\nthe four-boson Hilbert space is smaller by a factor "
      f"{tp.build_basis(N, 8).dim / tp.build_basis(N, 4).dim:.0f}, which is the")
print("promised quadratic saving; the weight separation (and with it the")
print("validity of the asymptotic threshold) sharpens as N grows, in step")
print("with the shrinking high-eigenvalue fraction from the tail study.")
