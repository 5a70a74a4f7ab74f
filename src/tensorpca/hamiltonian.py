"""The number-conserving operator H(T) on the symmetric subspace.

For a real symmetric order-4 tensor T,

    H(T) = sum_{mu nu rho sigma} T_{mu nu rho sigma}
           adag_mu adag_nu a_rho a_sigma,

restricted to states with exactly n_bos bosons.  (The Hermitian-conjugate
half of the two-sided definition collapses into this single sum for real
symmetric T after relabeling; the dense first-quantized oracle below keeps
the literal (1/2)(... + h.c.) form so the collapse is verified, not
assumed.)

The operator is applied in factored form, as the sigma-vector step of
full configuration interaction (Knowles & Handy, Chem. Phys. Lett. 111:315,
1984; Olsen et al., J. Chem. Phys. 89:2185, 1988):

    H(T) = A^T (W (x) I) A,

where A stacks the pair lowering maps a_rho a_sigma (rho <= sigma) from
the n_bos-boson to the (n_bos-2)-boson basis, and W is the P x P matrix of
tensor entries over creation and annihilation pairs, P = N(N+1)/2, with
multiplicity weights.  A depends only on the basis and is cached by
fock.lowering_map.  W is gathered from the canonical tensor storage through
a P x P table of storage slots that depends only on N and is built once per
N (_pair_table), so no dense N^4 tensor is built per operator.  Each row of
A has one entry, so a matvec is one gather, one P x P GEMM and one scatter.
The dense matrix is assembled from the same factors.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ._util import (
    DENSE_LIMIT,
    FULL_DENSE_LIMIT,
    CapacityError,
    InvalidParameterError,
    falling_factorial,
)
from .fock import OccupationBasis, StateVector, _bincount, _full_space_ranks, lowering_map
from .symtensor import SymmetricTensor4, layout


@cache
def _pair_table(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized (slots, mult) for the P x P pair-weight matrix W of H(T).

    W[c, a] = mult_c * mult_a * T[mu_c, nu_c, rho_a, sigma_a]: the pair
    sums run over mu <= nu and rho <= sigma in np.triu_indices order, each
    off-diagonal pair standing for its two orderings.  slots[c, a] is the
    canonical storage slot of that entry, read from the dense index (so the
    dense view's size limit applies), and mult the product mult_c * mult_a;
    W is then mult * values[slots].
    """
    pa, pb = np.triu_indices(n_modes)
    single = np.where(pa == pb, 1.0, 2.0)
    slots = layout(n_modes).dense_index[pa[:, None], pb[:, None], pa[None, :], pb[None, :]]
    return slots, single[:, None] * single[None, :]


class HamiltonianOperator:
    """Matrix-free H(T) = A^T (W (x) I) A over a fixed occupation basis.

    A = lowering_map(basis, 2) stacks the pair maps a_rho a_sigma and is
    shared by every operator on the basis; only the P x P pair-weight
    matrix W depends on the tensor.

    Args:
        tensor: real symmetric order-4 tensor (complex tensors are
            rejected; the operator is only ever built from real inputs).
        basis: occupation basis the operator acts on.
    """

    def __init__(self, tensor: SymmetricTensor4, basis: OccupationBasis):
        if tensor.is_complex:
            raise InvalidParameterError("H(T) is only defined for real tensors here")
        if tensor.n_modes != basis.n_modes:
            raise InvalidParameterError("tensor and basis mode counts differ")
        self.tensor = tensor
        self.basis = basis
        self.matvec_count = 0
        self._lowering = lowering_map(basis, 2)
        slots, mult = _pair_table(basis.n_modes)
        self._weights = mult * tensor.values[slots]

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def pair_weights(self) -> np.ndarray:
        """The symmetric P x P pair-weight matrix W (do not modify).

        A^T A is diagonal: its entry at an occupation state is
        sum_rho n_rho (n_rho - 1) + sum_{rho<sigma} n_rho n_sigma
        = n(n-1) - sum_{rho<sigma} n_rho n_sigma, so its largest entry is
        n(n-1), all bosons in one mode.  Since
        <x, H x> = <A x, (W (x) I) A x>, every eigenvalue of H lies in
        n(n-1) [min(lambda_min(W), 0), max(lambda_max(W), 0)], and
        ||H||_2 <= n(n-1) ||W||_2.
        """
        return self._weights

    # -- application ---------------------------------------------------
    def apply(self, x: StateVector) -> StateVector:
        if not self.basis.same_space(x.basis):
            raise InvalidParameterError("state lives on a different basis")
        return StateVector(self.basis, self.matvec(x.amps))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        # widen integer and single-precision input for the in-place scalings
        x = x.astype(np.promote_types(x.dtype, np.float64), copy=False)
        if x.shape != (self.dim,):
            raise InvalidParameterError(f"vector of shape {x.shape}, expected ({self.dim},)")
        self.matvec_count += 1
        sources, coefs = self._lowering
        # both scalings run in place, on the gathered pairs and on the GEMM
        # product, so a matvec allocates no third P x D2 block
        pairs = x[sources]
        pairs *= coefs
        prod = (self._weights @ pairs.reshape(self._weights.shape[0], -1)).ravel()
        prod *= coefs
        return _bincount(sources, prod, self.dim)

    # -- dense ----------------------------------------------------------
    def materialize_dense(self, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
        """Dense matrix of the operator, symmetrized against roundoff.

        For each lowered state and each pair of pair-blocks (p, q), cell
        (s_p, s_q) gets c_p W[p, q] c_q, where row block p of A reads source
        s_p with coefficient c_p.  The entries are summed cell by cell in
        assembly order (C order over (p, q, lowered state)), as a COO
        to-dense conversion would.  The raw assembly is already symmetric to
        machine precision; the cleanup (H + H^T)/2 is applied after checking
        the residue is below 1e-12 of the matrix scale.
        """
        if self.dim > dense_limit:
            raise CapacityError(f"dense limit {dense_limit} < dimension {self.dim}")
        self.matvec_count += self.dim  # one application per column, however assembled
        sources, coefs = (a.reshape(self._weights.shape[0], -1) for a in self._lowering)
        cells = sources[:, None, :] * self.dim + sources[None, :, :]
        vals = coefs[:, None, :] * self._weights[:, :, None] * coefs[None, :, :]
        dense = np.bincount(cells.ravel(), vals.ravel(), self.dim**2).reshape(self.dim, self.dim)
        del cells, vals  # free the entries before the D x D buffer below
        scale = max(1.0, float(dense.max()), -float(dense.min()))
        # one D x D buffer holds |H - H^T|, then (H + H^T)/2
        out = np.subtract(dense, dense.T)
        asym = float(np.abs(out, out=out).max())
        if asym > 1e-12 * scale:
            raise RuntimeError(f"assembled operator asymmetry {asym:.3e} exceeds tolerance")
        np.add(dense, dense.T, out=out)
        return np.divide(out, 2.0, out=out)

    def expectation(self, x: StateVector) -> float:
        """<x|H|x> for a normalized state (real up to a checked residue)."""
        nrm = x.norm()
        if abs(nrm - 1.0) > 1e-8:
            raise InvalidParameterError(f"expectation needs a normalized state, |x| = {nrm}")
        val = x.inner(self.apply(x))
        if isinstance(val, complex):
            scale = max(1.0, abs(val))
            if abs(val.imag) > 1e-9 * scale:
                raise RuntimeError(f"expectation has imaginary residue {val.imag:.3e}")
            return val.real
        return float(val)


# ---------------------------------------------------------------------------
# Ideal-state moments (rotated frame: the signal direction is mode 0)
# ---------------------------------------------------------------------------


def ideal_energy(t: SymmetricTensor4, n_bos: int) -> float:
    """<H> in the state with all n_bos bosons in mode 0: n(n-1) T_0000."""
    return falling_factorial(n_bos, 2) * float(np.real(t[0, 0, 0, 0]))


def ideal_moment2(t: SymmetricTensor4, n_bos: int) -> float:
    """<H^2> in the all-bosons-in-mode-0 state.

    Exact closed form in the rotated frame, with P_{n,k} the falling
    factorial (zero for k > n, which covers n_bos < 4 automatically):

        P_{n,4} T_0000^2 + 4 P_{n,3} sum_a T_000a^2
        + 2 P_{n,2} sum_{a,b} T_00ab^2

    where the sums run over all modes including 0.
    """
    dense = t.to_dense()
    t0000 = float(np.real(dense[0, 0, 0, 0]))
    row = np.real(dense[0, 0, 0, :])
    block = np.real(dense[0, 0, :, :])
    n = n_bos
    return (
        falling_factorial(n, 4) * t0000**2
        + 4.0 * falling_factorial(n, 3) * float(np.sum(row**2))
        + 2.0 * falling_factorial(n, 2) * float(np.sum(block**2))
    )


# ---------------------------------------------------------------------------
# First-quantized full-space oracle
# ---------------------------------------------------------------------------


def _embed_two_site(k2: np.ndarray, i1: int, i2: int, n_modes: int, n_bos: int) -> np.ndarray:
    """Lift an N^2 x N^2 operator onto legs (i1, i2) of an n_bos-leg space."""
    rest = n_bos - 2
    full = np.kron(k2, np.eye(n_modes**rest))
    shape = (n_modes,) * (2 * n_bos)
    tensor = full.reshape(shape)
    # legs currently ordered (i1, i2, others...); send them home
    order = [i1, i2] + [j for j in range(n_bos) if j not in (i1, i2)]
    perm = np.argsort(order)
    axes = list(perm) + [n_bos + p for p in perm]
    tensor = np.transpose(tensor, axes)
    dim = n_modes**n_bos
    return tensor.reshape(dim, dim)


def first_quantized_dense(
    t: SymmetricTensor4,
    n_modes: int,
    n_bos: int,
    dense_limit: int = FULL_DENSE_LIMIT,
) -> np.ndarray:
    """Dense full-space matrix of the two-sided pairwise definition.

    Sums the two-site operator T (acting on ordered pairs of distinct
    legs, diagonal elsewhere) and takes (1/2)(M + M^dagger) literally.
    """
    if t.n_modes != n_modes:
        raise InvalidParameterError("tensor mode count mismatch")
    dim = n_modes**n_bos
    if dim > dense_limit:
        raise CapacityError(f"full-space dense limit {dense_limit} < dimension {dim}")
    if n_bos < 2:
        return np.zeros((dim, dim))
    k2 = t.to_dense().reshape(n_modes**2, n_modes**2)
    m = np.zeros((dim, dim))
    for i1 in range(n_bos):
        for i2 in range(n_bos):
            if i1 == i2:
                continue
            m += _embed_two_site(k2, i1, i2, n_modes, n_bos)
    return 0.5 * (m + m.T)


def symmetric_isometry(basis: OccupationBasis) -> np.ndarray:
    """(N^n_bos, D) matrix with orthonormal columns spanning the symmetric
    subspace; column r holds the full-space expansion of occupation state r.
    """
    ranks = _full_space_ranks(basis)
    v = np.zeros((ranks.size, basis.dim))
    v[np.arange(ranks.size), ranks] = np.exp(-0.5 * basis.log_seq_count[ranks])
    return v


def restrict_to_symmetric(h_full: np.ndarray, basis: OccupationBasis) -> np.ndarray:
    """V^T H_full V: the full-space operator expressed on occupation states."""
    v = symmetric_isometry(basis)
    return v.T @ h_full @ v
