"""Signal recovery from a post-projection state: single-particle density
matrix, candidate extraction, correlation scoring, and tensor-power
boosting of a weak candidate to a strong one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import InvalidParameterError, derived_rng
from .fock import StateVector, lowering_map
from .hamiltonian import HamiltonianOperator
from .instance import SpikedTensor
from .symtensor import SymmetricTensor4, rank_one


class DegenerateIterationError(RuntimeError):
    """The power iteration produced a zero vector (stuck subspace)."""


@dataclass
class SingleParticleDensityMatrix:
    """rho_{mu nu} = <x| adag_mu a_nu |x>, raw trace n_bos or per-boson trace 1."""

    rho: np.ndarray
    normalization: str  # "raw" or "per_boson"


def spdm(x: StateVector, normalization: str = "per_boson") -> SingleParticleDensityMatrix:
    """Single-particle density matrix of a normalized state."""
    if normalization not in ("raw", "per_boson"):
        raise InvalidParameterError(f"unknown normalization {normalization!r}")
    if abs(x.norm() - 1.0) > 1e-8:
        raise InvalidParameterError("density matrix needs a normalized state")
    basis = x.basis
    # rho_{mu nu} = <a_mu x | a_nu x>, with row mu of z holding a_mu x
    z = (lowering_map(basis, 1) @ x.amps).reshape(basis.n_modes, -1)
    rho = z.conj() @ z.T
    if normalization == "per_boson":
        rho = rho / basis.n_bos
    return SingleParticleDensityMatrix(rho=rho, normalization=normalization)


def corr(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine similarity <x, y> / (|x| |y|), in [-1, 1] for real vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise InvalidParameterError("correlation with a zero vector is undefined")
    return float(x @ y / (nx * ny))


def _sign_fix(v: np.ndarray) -> np.ndarray:
    scale = np.abs(v).max()
    if scale == 0.0:
        return v
    for comp in v:
        if abs(comp) > 1e-12 * scale:
            return -v if comp < 0 else v
    return v


def randomized_recover(
    rho: SingleParticleDensityMatrix | np.ndarray,
    rng: np.random.Generator | None = None,
    mode: str = "eig",
) -> np.ndarray:
    """Candidate signal direction from a density matrix, scaled to norm
    sqrt(N) with the first significant component made positive.

    mode="eig" takes the top eigenvector; mode="randomized" applies rho to
    a standard normal probe.
    """
    mat = rho.rho if isinstance(rho, SingleParticleDensityMatrix) else np.asarray(rho)
    mat = np.real_if_close(mat, tol=1e6)
    n = mat.shape[0]
    if not np.any(np.abs(mat) > 0):
        raise InvalidParameterError("density matrix is zero")
    if mode == "eig":
        vals, vecs = np.linalg.eigh(mat)
        cand = np.real(vecs[:, -1])
    elif mode == "randomized":
        if rng is None:
            rng = derived_rng(0, "randomized-recover")
        cand = np.real(mat @ rng.standard_normal(n))
        if np.linalg.norm(cand) == 0.0:
            raise InvalidParameterError("density matrix annihilated the probe vector")
    else:
        raise InvalidParameterError(f"unknown recovery mode {mode!r}")
    cand = cand / np.linalg.norm(cand) * np.sqrt(n)
    return _sign_fix(cand)


def boost(
    t0: SpikedTensor | SymmetricTensor4,
    u0: np.ndarray,
    max_iters: int = 50,
    tol: float = 1e-8,
) -> tuple[np.ndarray, int]:
    """Tensor power iteration u <- normalize(T u^3).

    Stops when consecutive iterates align to 1 - tol or at max_iters;
    returns the norm-sqrt(N) iterate and the number of iterations run.
    """
    tensor = t0.tensor if isinstance(t0, SpikedTensor) else t0
    dense = tensor.to_dense()
    if np.iscomplexobj(dense):
        raise InvalidParameterError("boost expects a real tensor")
    u = np.asarray(u0, dtype=float)
    if u.shape != (tensor.n_modes,):
        raise InvalidParameterError("u0 length does not match the tensor modes")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise InvalidParameterError("u0 must be nonzero")
    u = u / nrm
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


@dataclass
class RecoveryReport:
    """Candidate extraction and boosting outcome."""

    candidate: np.ndarray
    corr_initial: float | None
    boosted: np.ndarray
    corr_boosted: float | None
    iterations_used: int
    mode: str
    seed: int


def recovery_chain(
    state: StateVector,
    boost_tensor: SpikedTensor | SymmetricTensor4,
    v_reference: np.ndarray | None = None,
    mode: str = "eig",
    seed: int = 0,
    max_iters: int = 50,
    tol: float = 1e-8,
) -> RecoveryReport:
    """spdm -> candidate -> boost, scoring against a reference direction."""
    rho = spdm(state, normalization="per_boson")
    cand = randomized_recover(rho, derived_rng(seed, "randomized-recover"), mode=mode)
    boosted, iters = boost(boost_tensor, cand, max_iters=max_iters, tol=tol)
    c0 = corr(cand, v_reference) if v_reference is not None else None
    cb = corr(boosted, v_reference) if v_reference is not None else None
    return RecoveryReport(
        candidate=cand,
        corr_initial=c0,
        boosted=boosted,
        corr_boosted=cb,
        iterations_used=iters,
        mode=mode,
        seed=int(seed),
    )
