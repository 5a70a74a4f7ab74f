"""Signal recovery from a post-projection state: single-particle density
matrix, candidate extraction, correlation scoring, and tensor-power
boosting of a weak candidate to a strong one.

Boosting contracts T(u, u, u, .) as three BLAS matrix-vector products on
the dense N^4 view of the tensor (N^4 + N^3 + N^2 multiply-adds per
iteration), so an iteration costs about one pass over the N^4 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import InvalidParameterError, derived_rng
from .fock import StateVector, lowering_map
from .instance import SpikedTensor
from .symtensor import SymmetricTensor4


class DegenerateIterationError(RuntimeError):
    """The power iteration produced a zero vector (stuck subspace)."""


def spdm(x: StateVector, normalization: str = "per_boson") -> np.ndarray:
    """Single-particle density matrix rho_{mu nu} = <x| adag_mu a_nu |x> of
    a normalized state: N x N, of trace n_bos ("raw") or 1 ("per_boson")."""
    if normalization not in ("raw", "per_boson"):
        raise InvalidParameterError(f"unknown normalization {normalization!r}")
    if abs(x.norm() - 1.0) > 1e-8:
        raise InvalidParameterError("density matrix needs a normalized state")
    basis = x.basis
    # rho_{mu nu} = <a_mu x | a_nu x>, with row mu of z holding a_mu x
    sources, coefs = lowering_map(basis, 1)
    z = (coefs * x.amps[sources]).reshape(basis.n_modes, -1)
    rho = z.conj() @ z.T
    return rho / basis.n_bos if normalization == "per_boson" else rho


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
    rho: np.ndarray,
    rng: np.random.Generator | None = None,
    mode: str = "eig",
) -> np.ndarray:
    """Candidate signal direction from a density matrix, scaled to norm
    sqrt(N) with the first significant component made positive.

    mode="eig" takes the top eigenvector; mode="randomized" applies rho to
    a standard normal probe.
    """
    mat = np.real_if_close(np.asarray(rho), tol=1e6)
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


# boost's iteration cap: recovery_chain reads a run that reaches it as not
# converged
_BOOST_MAX_ITERS = 50


def boost(
    t0: SpikedTensor | SymmetricTensor4,
    u0: np.ndarray,
    max_iters: int = _BOOST_MAX_ITERS,
    tol: float = 1e-8,
) -> tuple[np.ndarray, int]:
    """Tensor power iteration u <- normalize(T(u, u, u, .)).

    T(u, u, u, .) is contracted one slot at a time, as three GEMVs on the
    dense view built once per call: (N^3 x N) @ u, then (N^2 x N) @ u,
    then (N x N) @ u. That is N^4 + N^3 + N^2 multiply-adds and two small
    temporaries (N^3 and N^2) per iteration. Stops when consecutive
    iterates align to 1 - tol or at max_iters; returns the norm-sqrt(N)
    iterate and the number of iterations run.
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
    n = tensor.n_modes
    iters = 0
    for iters in range(1, max_iters + 1):
        m = ((dense.reshape(n**3, n) @ u).reshape(n**2, n) @ u).reshape(n, n) @ u
        mn = np.linalg.norm(m)
        if mn == 0.0:
            raise DegenerateIterationError("power iteration hit an invariant zero subspace")
        u_next = m / mn
        aligned = float(u @ u_next)
        u = u_next
        if aligned >= 1.0 - tol:
            break
    return u * np.sqrt(n), iters


@dataclass
class RecoveryReport:
    """Candidate extraction and boosting outcome.  converged is True when
    boosting stopped on alignment before its iteration cap; a run that
    aligns only at the cap reads False, as does one that never aligns."""

    candidate: np.ndarray
    corr_initial: float | None
    boosted: np.ndarray
    corr_boosted: float | None
    iterations_used: int
    converged: bool


def recovery_chain(
    state: StateVector,
    boost_tensor: SpikedTensor | SymmetricTensor4,
    v_reference: np.ndarray | None = None,
    mode: str = "eig",
    seed: int = 0,
) -> RecoveryReport:
    """spdm -> candidate -> boost, scoring against a reference direction."""
    rho = spdm(state, normalization="per_boson")
    cand = randomized_recover(rho, derived_rng(seed, "randomized-recover"), mode=mode)
    boosted, iters = boost(boost_tensor, cand)
    c0 = corr(cand, v_reference) if v_reference is not None else None
    cb = corr(boosted, v_reference) if v_reference is not None else None
    return RecoveryReport(
        candidate=cand,
        corr_initial=c0,
        boosted=boosted,
        corr_boosted=cb,
        iterations_used=iters,
        converged=iters < _BOOST_MAX_ITERS,
    )
