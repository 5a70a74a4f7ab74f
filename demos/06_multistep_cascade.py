#!/usr/bin/env python3
"""The halving cascade.

Instead of filtering the full system once, the cascade prepares two
half-size systems, filters each, merges them with the symmetric projector,
and filters again.  The survival probabilities multiply, and the cascade's
unit-query estimate improves on the single-shot amplified cost.
"""

import numpy as np

import tensorpca as tp
from tensorpca import derived_rng

N, N_BOS, LAM, SEED, TRIALS = 3, 8, 0.03, 909, 15
params = tp.ModelParams(N=N, n_bos=N_BOS, lambda_bar=LAM, seed=SEED)
cfg = tp.DetectionConfig()

levels = tp.multistep_levels(N_BOS, 1)
cutoffs = [tuple(round(tp.projection_cutoff(params, cfg, n_bos=s), 2) for s in lvl) for lvl in levels]
print(f"plan: level sizes {levels}")
print(f"      level cutoffs {cutoffs}\n")

chain, q0, costs = [], [], []
for trial in range(TRIALS):
    rng = derived_rng(SEED, "cascade", trial)
    tensor, _ = tp.sample_instance(params, spiked=False, rng=rng)
    ms = tp.multistep_run(tensor, params, cfg=cfg, seed=trial, k=1)
    chain.append(ms.chain_product)
    q0.append(ms.q_j[0])
    costs.append(ms.cost_estimate)
    if trial < 3:
        print(f"trial {trial}: p_j {tuple(tuple(round(p,3) for p in l) for l in ms.p_j)} "
              f"q_j {tuple(round(q,3) for q in ms.q_j)} verdict {ms.verdict}")

print(f"\nsurvival-chain check over {TRIALS} unspiked seeds:")
print(f"  mean P(0) P(1)^2 = {np.mean(chain):.4f}  <=  mean Q(0) = {np.mean(q0):.4f}")
print(f"  mean unit-query cost estimate: {np.mean(costs):.1f}")

flat_cost = np.sqrt(1.0 / tp.p_threshold(params, cfg))
print(f"  single-shot amplified cost sqrt(1/P_>): {flat_cost:.1f}")

print("\ndepth 0 reproduces the flat detector exactly:")
tensor, _ = tp.sample_instance(params, spiked=True, rng=derived_rng(SEED, "cascade", 99))
ms0 = tp.multistep_run(tensor, params, cfg=cfg, seed=99, k=0)
flat = tp.detect_projection(tensor, params, cfg, seed=99)
print(f"  statistic {ms0.statistic:.6f} == {flat.statistic:.6f}, verdict {ms0.verdict}")
