#!/usr/bin/env python3
"""Query accounting for the simulated quantum detectors.

The measurement outcome of the filtered projection is simulated exactly
from the spectral weight, so the only quantum ingredients left to model
are the retry loop (unamplified) and the amplitude-amplification schedule
(amplified).  This script compares their projector-application counts on
the same instances.
"""

import numpy as np

import tensorpca as tp
from tensorpca import derived_rng

N, N_BOS, SEED, TRIALS = 6, 4, 77, 20
bounds_unit = tp.analytic_bounds(tp.ModelParams(N=N, n_bos=N_BOS, lambda_bar=1.0))
lam_bar = 1.5 * bounds_unit.e_max / (N_BOS * (N_BOS - 1) * N**2)
params = tp.ModelParams(N=N, n_bos=N_BOS, lambda_bar=lam_bar, seed=SEED)
cfg = tp.DetectionConfig()

thr = tp.p_threshold(params, cfg)
rounds = tp.amplification_rounds(thr)
print(f"success threshold P_> = {thr:.5f}")
print(f"unamplified retry budget ceil(c''/P_>) = {int(np.ceil(cfg.c_doubleprime / thr))}")
print(f"amplification rounds ceil(pi/(4 asin sqrt(P_>))) = {rounds}")
print(f"boosted success at exactly P_>: {tp.boosted_probability(thr, rounds):.4f}\n")

used_unamp, used_amp, boosted = [], [], []
unamp_hits = 0
for trial in range(TRIALS):
    rng = derived_rng(SEED, "queries", trial)
    tensor, _ = tp.sample_instance(params, spiked=True, rng=rng)
    un = tp.simulate_quantum_unamplified(tensor, params, cfg, seed=trial)
    am = tp.simulate_quantum_amplified(tensor, params, cfg, seed=trial)
    used_unamp.append(un.trials_used)
    used_amp.append(am.amplification_rounds)
    boosted.append(am.boosted_probability)
    unamp_hits += un.verdict == "spiked"

print(f"spiked instances ({TRIALS} seeds):")
print(f"  unamplified projector applications: mean {np.mean(used_unamp):.1f}, "
      f"detected {unamp_hits}/{TRIALS}")
print(f"  amplified rounds (fixed schedule):  {used_amp[0]}")
print(f"  amplified boosted success prob:     min {np.min(boosted):.3f}, "
      f"median {np.median(boosted):.3f}")
print("\nnote the schedule targets exactly P_>; instances whose weight is a")
print("few times larger overrotate and the boosted probability dips (the")
print("standard hazard of fixed-round amplification, reproduced faithfully).")

print("\nat scale the unamplified loop costs ~1/P_> applications and the")
print("amplified schedule ~sqrt(1/P_>): the quadratic measurement advantage.")
print(f"here: 1/P_> = {1/thr:.1f} vs pi/4 sqrt(1/P_>) = {np.pi/4*np.sqrt(1/thr):.1f}")
