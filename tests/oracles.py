"""Oracles that only the tests use: basis rotations of a symmetric tensor
and both sides of the spike-energy bound."""

import numpy as np

from tensorpca import HamiltonianOperator, InvalidParameterError, StateVector, spdm
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
    rho = spdm(x, normalization="raw").rho
    quad = float(np.real(v @ rho @ v))
    n_modes = x.basis.n_modes
    rhs = lambda_plus * n_modes * (x.basis.n_bos - 1) * quad
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return float(lhs), float(rhs), bool(holds)
