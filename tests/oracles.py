"""Oracles that only the tests use: basis rotations of a symmetric tensor,
both sides of the spike-energy bound, the einsum tensor power iteration,
brute-force full-space vectors with their permutation symmetrizer, and a
plainly written Lanczos sweep with the Ritz projector's stop rule."""

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
from tensorpca.spectral import _DGKS_KEEP
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


def reference_sweep(matvec, v0, stages):
    """spectral._Sweep's Krylov tridiagonalization written plainly, as the
    reference for its arithmetic: np.vdot for alpha, np.linalg.norm for
    every norm, allocating products, storage sized once, and a fresh
    np.linalg.eigh for every decomposition.

    stages lists (max_iters, stop_check) pairs run on one Krylov sequence,
    as successive _Sweep.run calls: each takes steps until its check passes,
    the space breaks down or max_iters steps are done in all, and a later
    stage applies its check first to the tridiagonal the last one ended on.

    Returns the k x k tridiagonal, the k Krylov rows and, per stage, the
    decomposition it ended on: (values, residuals, start_coeffs, vectors),
    by descending value, vectors being the tridiagonal's eigenvectors (the
    Ritz vectors are the Krylov rows' transpose times them).
    """
    dim = v0.shape[0]
    start_norm = np.linalg.norm(v0)
    size = max(1, min(max(m for m, _ in stages), dim))
    krylov = np.empty((size, dim), dtype=np.complex128 if np.iscomplexobj(v0) else np.float64)
    krylov[0] = v0 / start_norm
    tridiag = np.zeros((size, size))
    k, beta, w, scale, invariant = 0, 0.0, None, 1.0, False
    decompositions = []
    for max_iters, stop_check in stages:
        max_iters = max(1, min(max_iters, dim))
        stopped = invariant or (
            k > 0 and stop_check is not None and stop_check(tridiag[:k, :k], beta)
        )
        while not stopped and k < max_iters:
            if k:
                scale = max(scale, beta)
                krylov[k] = w / beta
            q = krylov[k]
            w = matvec(q)
            alpha = float(np.real(np.vdot(q, w)))
            tridiag[k, k] = alpha
            w = w - alpha * q
            if k:
                tridiag[k, k - 1] = tridiag[k - 1, k] = beta
                w = w - beta * krylov[k - 1]
            active = krylov[: k + 1]
            beta = float(np.linalg.norm(w))
            for _ in range(2):
                kept = _DGKS_KEEP * beta
                if np.iscomplexobj(w):
                    w = w - np.conj(active @ np.conj(w)) @ active
                else:
                    w = w - (active @ w) @ active
                beta = float(np.linalg.norm(w))
                if beta >= kept:
                    break
            k += 1
            scale = max(scale, abs(alpha))
            if beta <= 1e-13 * scale:
                invariant, beta = True, 0.0
                break
            stopped = stop_check is not None and stop_check(tridiag[:k, :k], beta)
        values, vectors = np.linalg.eigh(tridiag[:k, :k])
        order = np.argsort(values)[::-1]
        values, vectors = values[order], vectors[:, order]
        decompositions.append(
            (
                values,
                abs(beta) * np.abs(vectors[-1, :]),
                vectors[0, :] * start_norm,
                vectors,
            )
        )
    return tridiag[:k, :k].copy(), krylov[:k].copy(), decompositions


def reference_ritz_stop(mid, tol):
    """The Ritz projector's stop rule (spectral._project_ritz) with a fresh
    np.linalg.eigh and every boundary residual at each check: it passes once
    the weight above mid has held for two steps and every Ritz pair near mid
    is resolved to its side."""
    prev, stable = None, 0

    def stop(tridiag, beta):
        nonlocal prev, stable
        values, vectors = np.linalg.eigh(tridiag)
        keep = values >= mid
        weight = float(np.sum(np.abs(vectors[0, keep][::-1]) ** 2))
        residuals = abs(beta) * np.abs(vectors[-1])
        scale = max(1.0, float(np.abs(values).max()))
        boundary_ok = np.all((residuals <= tol * scale) | (np.abs(values - mid) > residuals))
        if prev is not None and abs(weight - prev) <= 0.1 * tol * max(weight, 1e-3):
            stable += 1
        else:
            stable = 0
        prev = weight
        return bool(boundary_ok and stable >= 2)

    return stop
