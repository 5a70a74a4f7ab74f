#!/usr/bin/env python3
"""Cross-validation of the implicit operator at tiny sizes.

The same tensor drives two independently coded operators: the pairwise
two-site form on the full product space (restricted to the symmetric
subspace through the explicit isometry) and the ladder-operator form
assembled directly on occupation states.  Their spectra coincide to
machine precision, and the closed-form first and second moments of the
all-bosons-in-one-mode state match direct operator application.
"""

import numpy as np

import tensorpca as tp

rng = np.random.default_rng(3)

print("spectrum agreement (pairwise full-space form vs ladder form):")
for n_modes, n_bos in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
    g = tp.sample_gaussian_tensor(n_modes, rng)
    basis = tp.build_basis(n_modes, n_bos)
    ladder = tp.HamiltonianOperator(g, basis).materialize_dense()
    pairwise = tp.restrict_to_symmetric(
        tp.first_quantized_dense(g, n_modes, n_bos), basis
    )
    dev = np.abs(np.linalg.eigvalsh(ladder) - np.linalg.eigvalsh(pairwise)).max()
    print(f"  N={n_modes}, n_bos={n_bos}: D={basis.dim:3d}, max eigenvalue dev {dev:.2e}")

print("\ncondensate moments vs operator application (N=3, n_bos=4):")
basis = tp.build_basis(3, 4)
psi = tp.embed_product_state(basis, np.sqrt(3) * np.eye(3)[0])
g = tp.sample_gaussian_tensor(3, rng)
h = tp.HamiltonianOperator(g, basis)
hpsi = h.apply(psi)
print(f"  <H>  closed form {tp.ideal_energy(g, 4):+.6f}  direct {h.expectation(psi):+.6f}")
print(f"  <H^2> closed form {tp.ideal_moment2(g, 4):.6f}  direct {float(hpsi.amps @ hpsi.amps):.6f}")

print("\nnoiseless spike spectrum is the occupancy ladder lam N^2 k(k-1):")
lam, n_modes, n_bos = 0.3, 4, 4
v = np.sqrt(n_modes) * np.eye(n_modes)[0]
h = tp.HamiltonianOperator(tp.rank_one(v) * lam, tp.build_basis(n_modes, n_bos))
levels = sorted({round(float(e), 9) for e in tp.full_spectrum(h)})
print(f"  distinct levels: {[round(l, 4) for l in levels]}")
print(f"  expected:        "
      f"{sorted({round(lam * n_modes**2 * k * (k - 1), 4) for k in range(n_bos + 1)})}")
