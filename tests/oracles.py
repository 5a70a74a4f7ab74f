"""Oracles that only the tests use: basis rotations of a symmetric tensor,
both sides of the spike-energy bound, the einsum tensor power iteration,
and brute-force full-space vectors with their permutation symmetrizer."""

from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from tensorpca import (
    CapacityError,
    HamiltonianOperator,
    InvalidParameterError,
    OccupationBasis,
    SpikedTensor,
    StateVector,
    spdm,
)
from tensorpca._util import MAX_FULL_DIM
from tensorpca.fock import _bincount, _full_space_ranks
from tensorpca.recovery import DegenerateIterationError
from tensorpca.symtensor import SymmetricTensor4, rank_one


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


def recovery_energy_bound_check(
    x: StateVector, v_sig: np.ndarray, lambda_plus: float
) -> tuple[float, float, bool]:
    """Both sides of the spike-energy bound for a normalized state.

    lhs = <x| H(lambda_plus v^{x4}) |x>; rhs = lambda_plus N (n_bos - 1)
    <v|rho_raw|v>.  The bound holds for every state because the spike
    operator is lambda_plus N^2 (n_0^2 - n_0) in the aligned frame and
    n_0(n_0 - 1) <= n_0(n_bos - 1) pointwise.
    """
    v = np.asarray(v_sig, dtype=float)
    spike = rank_one(v) * lambda_plus
    h = HamiltonianOperator(spike, x.basis)
    lhs = h.expectation(x)
    rho = spdm(x, normalization="raw")
    quad = float(np.real(v @ rho @ v))
    n_modes = x.basis.n_modes
    rhs = lambda_plus * n_modes * (x.basis.n_bos - 1) * quad
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return float(lhs), float(rhs), bool(holds)


def power_iteration_reference(
    t0: SpikedTensor | SymmetricTensor4,
    u0: np.ndarray,
    max_iters: int = 50,
    tol: float = 1e-8,
) -> tuple[np.ndarray, int]:
    """Tensor power iteration u <- normalize(T u^3) with T(u, u, u, .) as
    one four-operand einsum: the reference for recovery.boost's
    matrix-vector contraction, with the same stop rule and return value
    (the norm-sqrt(N) iterate and the number of iterations run)."""
    tensor = t0.tensor if isinstance(t0, SpikedTensor) else t0
    dense = tensor.to_dense()
    u = np.asarray(u0, dtype=float)
    u = u / np.linalg.norm(u)
    iters = 0
    for iters in range(1, max_iters + 1):
        m = np.einsum("ijkl,j,k,l->i", dense, u, u, u)
        mn = np.linalg.norm(m)
        if mn == 0.0:
            raise DegenerateIterationError("power iteration hit an invariant zero subspace")
        u_next = m / mn
        aligned = float(u @ u_next)
        u = u_next
        if aligned >= 1.0 - tol:
            break
    return u * np.sqrt(tensor.n_modes), iters


@dataclass
class FullSpaceVector:
    """Amplitudes over the full (C^N)^{x n_bos} product basis, row-major."""

    n_modes: int
    n_bos: int
    amps: np.ndarray

    def __post_init__(self):
        full_dim = self.n_modes**self.n_bos
        if full_dim > MAX_FULL_DIM:
            raise CapacityError(f"full space of dimension {full_dim} exceeds {MAX_FULL_DIM}")
        self.amps = np.asarray(self.amps).reshape(full_dim)


def symmetrize_full(vec: FullSpaceVector) -> FullSpaceVector:
    """Average the amplitudes over all n_bos! leg permutations (projector).

    Deliberately brute force: this is the oracle the occupation-basis
    machinery is validated against, so it shares none of its code paths.
    """
    n, nb = vec.n_modes, vec.n_bos
    if factorial(nb) > 50000:
        raise CapacityError(f"permutation symmetrizer limited to n_bos <= 8, got {nb}")
    tensor = vec.amps.reshape((n,) * nb)
    acc = np.zeros_like(tensor, dtype=np.result_type(tensor, np.float64))
    count = 0
    for perm in permutations(range(nb)):
        acc += np.transpose(tensor, perm)
        count += 1
    return FullSpaceVector(n, nb, (acc / count).reshape(-1))


def full_to_occupation(vec: FullSpaceVector, basis: OccupationBasis) -> StateVector:
    """Components of a full-space vector on the occupation basis.

    For occupation n the component is |S_n|^{-1/2} times the sum of the
    amplitudes over all sequences with content n (this is <n|psi> and does
    not require psi to be symmetric).
    """
    if basis.n_modes != vec.n_modes or basis.n_bos != vec.n_bos:
        raise InvalidParameterError("basis does not match the full-space vector")
    sums = _bincount(_full_space_ranks(basis), vec.amps, basis.dim)
    return StateVector(basis, sums * np.exp(-0.5 * basis.log_seq_count))


def occupation_to_full(state: StateVector) -> FullSpaceVector:
    """Isometric embedding of an occupation-basis state into the full space."""
    basis = state.basis
    ranks = _full_space_ranks(basis)
    amps = state.amps[ranks] * np.exp(-0.5 * basis.log_seq_count[ranks])
    return FullSpaceVector(basis.n_modes, basis.n_bos, amps)
