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
fock.lowering_map; a matvec is one sparse gather, one P x P GEMM and one
sparse scatter.  Dense and sparse matrices are assembled from the same
factors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._util import (
    DENSE_LIMIT,
    FULL_DENSE_LIMIT,
    CapacityError,
    InvalidParameterError,
    falling_factorial,
)
from .fock import OccupationBasis, StateVector, full_space_sequences, lowering_map
from .symtensor import SymmetricTensor4


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
        self._raising = self._lowering.T
        pa, pb = np.triu_indices(basis.n_modes)
        mult = np.where(pa == pb, 1.0, 2.0)
        dense = tensor.to_dense()
        # W[c, a] = mult_c * mult_a * T[mu_c, nu_c, rho_a, sigma_a]: the pair
        # sums run over mu <= nu and rho <= sigma, each off-diagonal pair
        # standing for its two orderings
        self._weights = (mult[:, None] * mult[None, :]) * dense[
            pa[:, None], pb[:, None], pa[None, :], pb[None, :]
        ]

    @property
    def dim(self) -> int:
        return self.basis.dim

    # -- application ---------------------------------------------------
    def apply(self, x: StateVector) -> StateVector:
        if not self.basis.same_space(x.basis):
            raise InvalidParameterError("state lives on a different basis")
        return StateVector(self.basis, self.matvec(x.amps))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise InvalidParameterError(f"vector of shape {x.shape}, expected ({self.dim},)")
        self.matvec_count += 1
        pairs = (self._lowering @ x).reshape(self._weights.shape[0], -1)
        return self._raising @ (self._weights @ pairs).ravel()

    def sparse_matrix(self) -> sp.coo_matrix:
        """The operator assembled from its factors, in coordinate format.

        For each lowered state and each pair of pair-blocks (p, q), entry
        (s_p, s_q) gets c_p W[p, q] c_q, where row block p of A reads source
        s_p with coefficient c_p; repeated coordinates add up on conversion.
        """
        n_pairs = self._weights.shape[0]
        sources = self._lowering.indices.reshape(n_pairs, -1)
        coefs = self._lowering.data.reshape(n_pairs, -1)
        vals = coefs[:, None, :] * self._weights[:, :, None] * coefs[None, :, :]
        rows = np.broadcast_to(sources[:, None, :], vals.shape)
        cols = np.broadcast_to(sources[None, :, :], vals.shape)
        return sp.coo_matrix(
            (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(self.dim, self.dim)
        )

    # -- dense ----------------------------------------------------------
    def materialize_dense(self, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
        """Dense matrix of the operator, symmetrized against roundoff.

        The raw assembly is already symmetric to machine precision; the
        cleanup (H + H^T)/2 is applied after checking the residue is below
        1e-12 of the matrix scale.
        """
        if self.dim > dense_limit:
            raise CapacityError(f"dense limit {dense_limit} < dimension {self.dim}")
        self.matvec_count += self.dim  # one application per column, however assembled
        dense = self.sparse_matrix().toarray()
        scale = max(1.0, float(np.abs(dense).max()))
        asym = float(np.abs(dense - dense.T).max())
        if asym > 1e-12 * scale:
            raise RuntimeError(f"assembled operator asymmetry {asym:.3e} exceeds tolerance")
        return (dense + dense.T) / 2.0

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
# Basis rotations
# ---------------------------------------------------------------------------


def rotate_tensor(t: SymmetricTensor4, u: np.ndarray) -> SymmetricTensor4:
    """Apply an N x N orthogonal matrix to all four tensor slots."""
    u = np.asarray(u, dtype=float)
    dense = t.to_dense()
    rotated = np.einsum("ai,bj,ck,dl,ijkl->abcd", u, u, u, u, dense, optimize=True)
    return SymmetricTensor4.from_dense(rotated, symmetrize=True)


def rotation_aligning(v: np.ndarray) -> np.ndarray:
    """Orthogonal U with U v = |v| e_0 (Householder reflection)."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise InvalidParameterError("cannot align the zero vector")
    u = v / nrm
    e0 = np.zeros_like(u)
    e0[0] = 1.0
    w = u - e0
    wnorm2 = float(w @ w)
    if wnorm2 < 1e-28:
        return np.eye(v.size)
    return np.eye(v.size) - 2.0 * np.outer(w, w) / wnorm2


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
    seqs = full_space_sequences(basis.n_modes, basis.n_bos)
    occs = np.zeros((seqs.shape[0], basis.n_modes), dtype=np.int64)
    rows = np.repeat(np.arange(seqs.shape[0]), basis.n_bos)
    np.add.at(occs, (rows, seqs.ravel()), 1)
    ranks = basis.rank_array(occs)
    v = np.zeros((seqs.shape[0], basis.dim))
    v[np.arange(seqs.shape[0]), ranks] = np.exp(-0.5 * basis.log_seq_count[ranks])
    return v


def restrict_to_symmetric(h_full: np.ndarray, basis: OccupationBasis) -> np.ndarray:
    """V^T H_full V: the full-space operator expressed on occupation states."""
    v = symmetric_isometry(basis)
    return v.T @ h_full @ v
