"""Eigenvalue machinery: Lanczos with full reorthogonalization, filtered
spectral projection with lower/upper cutoffs, dense spectra, analytic
threshold quantities, and density-of-states estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import ceil, erf, hypot, inf, log, sqrt

import numpy as np

from ._util import (
    DENSE_LIMIT,
    CapacityError,
    ConvergenceError,
    InvalidParameterError,
    derived_rng,
    run_trials,
)
from .fock import StateVector, build_basis
from .hamiltonian import HamiltonianOperator
from .instance import ModelParams, sample_gaussian_tensor


def _as_operator(op):
    """Uniform (matvec, dim, basis_or_None) view of the supported operator
    types: HamiltonianOperator, square numpy arrays, and square matrices with
    the scipy.sparse interface (shape, dot, toarray)."""
    if isinstance(op, HamiltonianOperator):
        return op.matvec, op.dim, op.basis
    if not (isinstance(op, np.ndarray) or all(hasattr(op, a) for a in ("shape", "dot", "toarray"))):
        raise InvalidParameterError(f"unsupported operator type {type(op)!r}")
    if len(op.shape) != 2 or op.shape[0] != op.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {op.shape}")
    return op.dot, op.shape[0], None


def _as_vector(x, op):
    """The amplitudes and basis of x, complex where x or a matrix op is, so
    that a Krylov block started from them can hold op's products."""
    amps, basis = (x.amps, x.basis) if isinstance(x, StateVector) else (x, None)
    complex_op = not isinstance(op, HamiltonianOperator) and np.iscomplexobj(op)
    return np.asarray(amps, dtype=complex if complex_op or np.iscomplexobj(amps) else float), basis


def _wrap_vector(amps, basis):
    return StateVector(basis, amps) if basis is not None else amps


@dataclass
class RitzDecomposition:
    """Ritz pairs from a Krylov sweep, sorted by descending Ritz value.

    converged is True when the sweep's stop check passed or the sweep broke
    down (invariant_subspace), and False when it ran to max_iters.

    The Ritz vectors are built on the first read of ritz_vectors, as the
    product of the Krylov block and the tridiagonal's eigenvectors, and the
    decomposition then lets go of its sweep.  A caller that reads only
    values, such as a spectral-range probe, never builds the D x k product.
    Until then, and while it is its sweep's latest result, project_above
    can continue that sweep (its probe argument).
    """

    ritz_values: np.ndarray
    residuals: np.ndarray
    iterations: int
    start_coeffs: np.ndarray  # expansion of the start vector on the Ritz pairs
    invariant_subspace: bool
    converged: bool
    _sweep: _Sweep | None = field(default=None, repr=False, compare=False)
    _eigvecs: np.ndarray | None = field(default=None, repr=False, compare=False)  # k x k

    @cached_property
    def ritz_vectors(self) -> np.ndarray:
        """D x k, columns following ritz_values."""
        vectors = self._sweep.block[: self.iterations].T @ self._eigvecs
        self._sweep = None
        return vectors


@dataclass
class ApproxProjector:
    """How project_above realized its filter: the method, its Krylov steps
    (those of a continued probe included) or polynomial degree (the
    dimension for dense), and the band error."""

    method: str
    degree_or_iters: int
    achieved_error: float


# A sweep capped at this many steps reserves its Krylov block up front
_RESERVED_STEPS = 64


class _Sweep:
    """One Krylov tridiagonalization with full reorthogonalization, run in
    stages.

    run(max_iters, stop_check) takes steps until stop_check passes, the
    Krylov space breaks down or max_iters steps are done in all, and
    returns the RitzDecomposition of every step so far.  After step k,
    stop_check(tridiag, beta) -> bool decides early termination.  tridiag
    is the k x k Lanczos tridiagonal so far, a view into storage that later
    steps overwrite or regrow, and beta the norm of the next Krylov
    residual, so the residual of the Ritz pair (theta, u) of tridiag is
    beta * |u[k-1]|.  stop_check=None runs to max_iters, or fewer steps on
    breakdown (invariant subspace), which always terminates.  The returned
    decomposition's converged flag is the stop decision: a passed stop
    check or a breakdown.

    A later run continues the same Krylov sequence, bit for bit as one
    uninterrupted run would, under its own stop check, which it applies
    first to the tridiagonal the last run ended on.  A sweep that broke
    down takes no more steps.
    """

    def __init__(self, matvec, v0, max_iters):
        self.matvec, self.dim = matvec, v0.shape[0]
        self.start_norm = np.linalg.norm(v0)
        if self.start_norm == 0.0:
            raise InvalidParameterError("Lanczos needs a nonzero start vector")
        dtype = np.complex128 if np.iscomplexobj(v0) else np.float64
        # Krylov vectors are contiguous rows and the tridiagonal a square
        # block.  A first run of at most _RESERVED_STEPS steps reserves both
        # once: np.empty commits only the rows written, and no full block is
        # copied before a continuation passes the reservation.  Otherwise
        # both start at 8 rows and double when full, so memory follows the
        # iterations actually run, not max_iters
        max_iters = max(1, min(max_iters, self.dim))
        size = max_iters if max_iters <= _RESERVED_STEPS else 8
        self.block = np.empty((size, self.dim), dtype=dtype)
        self.block[0] = v0 / self.start_norm
        self.tridiag = np.zeros((size, size))
        self.k, self.beta, self.residual = 0, 0.0, None  # residual: the unnormalized next vector
        self.scale = 1.0  # running max of |alpha| and the beta of every completed step
        self.invariant = False

    def run(self, max_iters, stop_check) -> RitzDecomposition:
        max_iters = max(1, min(max_iters, self.dim))
        k, beta, w, scale = self.k, self.beta, self.residual, self.scale
        basis_vecs, tridiag, complex_vec = self.block, self.tridiag, self.block.dtype.kind == "c"
        stopped = self.invariant or (
            k > 0 and stop_check is not None and stop_check(tridiag[:k, :k], beta)
        )
        while not stopped and k < max_iters:
            if k == basis_vecs.shape[0]:
                size = min(2 * k, max_iters)
                grown = np.empty((size, self.dim), dtype=basis_vecs.dtype)
                grown[:k] = basis_vecs
                basis_vecs = grown
                grown = np.zeros((size, size))
                grown[:k, :k] = tridiag
                tridiag = grown
            if k:
                scale = max(scale, beta)
                np.divide(w, beta, out=basis_vecs[k])
            q = basis_vecs[k]
            w = self.matvec(q)
            alpha = float(np.real(np.vdot(q, w)))
            tridiag[k, k] = alpha
            w -= alpha * q
            if k:
                tridiag[k, k - 1] = tridiag[k - 1, k] = beta
                w -= beta * basis_vecs[k - 1]
            # full reorthogonalization, twice for floating-point hygiene
            active = basis_vecs[: k + 1]
            for _ in range(2):
                if complex_vec:
                    w -= np.conj(active @ np.conj(w)) @ active
                else:
                    w -= (active @ w) @ active
            beta = float(np.linalg.norm(w))
            k += 1
            scale = max(scale, abs(alpha))
            if beta <= 1e-13 * scale:
                self.invariant, beta = True, 0.0  # so every residual is 0
                break
            stopped = stop_check is not None and stop_check(tridiag[:k, :k], beta)
        self.k, self.beta, self.residual, self.scale = k, beta, w, scale
        self.block, self.tridiag = basis_vecs, tridiag
        values, residuals, first_row, eigvecs = _ritz_from_tridiag(tridiag[:k, :k], beta)
        return RitzDecomposition(
            ritz_values=values,
            residuals=residuals,
            iterations=k,
            start_coeffs=first_row * self.start_norm,
            invariant_subspace=self.invariant,
            converged=self.invariant or stopped,
            _sweep=self,
            _eigvecs=eigvecs,
        )


def _lanczos_sweep(matvec, v0, max_iters, stop_check):
    """A new _Sweep from v0, run once: the Krylov tridiagonalization of
    matvec from v0 as a RitzDecomposition, ended as _Sweep.run ends it."""
    return _Sweep(matvec, v0, max_iters).run(max_iters, stop_check)


def _ritz_from_tridiag(tridiag, beta_last):
    """All Ritz pairs of a Lanczos tridiagonal, by descending value: values,
    residuals, first eigenvector components and eigenvectors."""
    vals, vecs = np.linalg.eigh(tridiag)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.abs(beta_last) * np.abs(vecs[-1, :])
    return vals, residuals, vecs[0, :].copy(), vecs


def _top_residual(tridiag, beta_last):
    """Residual of the top Ritz pair of a Lanczos tridiagonal, and its
    largest and smallest Ritz values, as a rule from the Ritz values alone.

    The residual of the Ritz pair (theta, u) is beta_last * |u[k-1]|
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13).  u is found up to
    a factor by running the three-term recurrence of (T - theta) u = 0
    upwards from u[k-1] = 1, which needs every off-diagonal to be nonzero,
    as Lanczos betas are.  A tiny beta makes the components grow, so they
    and their running square sum are rescaled before they can overflow.
    The recurrence leaves row 0 of T unsolved.  Its residual, relative to
    |u|, is large when u is negligible near the top of T, where the upward
    recurrence amplifies rounding; then the full decomposition decides.
    """
    values = np.linalg.eigvalsh(tridiag)
    top, bottom = float(values[-1]), float(values[0])
    scale = max(1.0, abs(top), abs(bottom))
    diag = tridiag.diagonal().tolist()
    off = tridiag.diagonal(1).tolist() + [0.0]
    last, lower, upper, norm_sq = 1.0, 1.0, 0.0, 1.0
    for j in range(len(diag) - 1, 0, -1):
        lower, upper = -((diag[j] - top) * lower + off[j] * upper) / off[j - 1], lower
        norm_sq += lower * lower
        if abs(lower) > 1e100:
            shrink = 1.0 / abs(lower)
            last, lower, upper = last * shrink, lower * shrink, upper * shrink
            norm_sq *= shrink * shrink
    norm = norm_sq**0.5
    if not abs((diag[0] - top) * lower + off[0] * upper) <= 1e-12 * scale * norm:
        values, residuals, _, _ = _ritz_from_tridiag(tridiag, beta_last)
        return float(residuals[0]), float(values[0]), float(values[-1])
    return abs(beta_last) * last / norm, top, bottom


def _interlace(bound, tridiag, beta):
    """Enclosures of step k's extreme Ritz values and a floor on its top
    Ritz residual, from those of step k-1.

    bound is (a_lo, a_hi, b_lo, b_hi, rho): theta_max in [a_lo, a_hi],
    theta_min in [b_lo, b_hi] and 0 < rho <= the top residual at step k-1.
    tridiag is step k's tridiagonal, whose off-diagonals are positive, and
    beta the norm of its next Krylov residual.  See lanczos for the proof.
    """
    a_lo, a_hi, b_lo, b_hi, rho = bound
    k = tridiag.shape[0]
    alpha, coupling = float(tridiag[k - 1, k - 1]), float(tridiag[k - 1, k - 2])
    a_hi = 0.5 * (a_hi + alpha) + hypot(0.5 * (a_hi - alpha), coupling)
    b_lo = 0.5 * (b_lo + alpha) - hypot(0.5 * (b_lo - alpha), coupling)
    return a_lo, a_hi, b_lo, b_hi, beta * rho / hypot(rho, a_hi - alpha)


def lanczos(op, start, max_iters: int | None = None, tol: float = 1e-10):
    """Lanczos with full reorthogonalization from a given start vector.

    Stops once the top Ritz pair has residual below tol * scale, where
    scale = max(1, |theta_max|, |theta_min|) over the Ritz values, on
    Krylov breakdown (exact invariant subspace, flagged, not an error), or
    at max_iters.  The first two set the result's converged flag.  tol
    must lie in (0, 1); a sweep of fixed length is _lanczos_sweep with
    stop_check=None.

    A bound rejects most steps without the stop check's eigensolve, and
    never rejects a step the rule would stop at.
    Each exact check leaves theta_max in [a_lo, a_hi], theta_min in
    [b_lo, b_hi] and a floor rho on the top residual r.  Step k borders
    the tridiagonal with the diagonal alpha, coupled by the previous beta
    b' > 0.  By Cauchy interlacing theta_max cannot fall nor theta_min
    rise, so a_lo and b_hi stay; in the eigenbasis of the old block the
    new matrix lies below [[a_hi I, b' z], [b' z^T, alpha]] with |z| = 1, so
    a_hi becomes the top eigenvalue of [[a_hi, b'], [b', alpha]], and b_lo
    the bottom one of [[b_lo, b'], [b', alpha]] (Parlett, The Symmetric
    Eigenvalue Problem, ch. 7).  With mu_i and z_i the old Ritz values and
    last eigenvector components, the new top eigenvector has last
    component s with 1/s^2 = 1 + b'^2 sum z_i^2 / (theta - mu_i)^2, and the
    secular equation theta - alpha = b'^2 sum z_i^2 / (theta - mu_i) gives
    b'^2 sum z_i^2 / (theta - mu_i)^2 <= (theta - alpha) / (theta - mu_1)
    <= (theta - alpha)^2 / r^2 (ch. 13).  So the new residual beta |s| is
    at least rho <- beta rho / hypot(rho, a_hi - alpha).  A floor above
    1.01 tol * max(1, |a_lo|, |a_hi|, |b_lo|, |b_hi|) proves the rule
    fails; otherwise the exact check decides and resets the enclosures to
    its Ritz values and residual.  The 1% margin covers rounding: a
    computed residual is accurate to about eps * beta, not relatively, and
    that is near 1e-6 of the threshold at the default tol.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError(f"tol must lie in (0, 1), got {tol}")
    matvec, dim, _ = _as_operator(op)
    v0, _ = _as_vector(start, op)
    if max_iters is None:
        max_iters = dim
    bound = None  # (a_lo, a_hi, b_lo, b_hi, rho) since the last exact check

    def stop(tridiag, beta):
        nonlocal bound
        if tridiag.shape[0] == 1:
            # the exact check in closed form: one Ritz pair, (alpha, [1])
            top = bottom = float(tridiag[0, 0])
            residual = abs(beta)
        else:
            if bound is not None:
                bound = _interlace(bound, tridiag, beta)
                a_lo, a_hi, b_lo, b_hi, rho = bound
                if rho > tol * max(1.0, abs(a_lo), abs(a_hi), abs(b_lo), abs(b_hi)) * 1.01:
                    return False
            residual, top, bottom = _top_residual(tridiag, beta)
        bound = (top, top, bottom, bottom, residual)
        return residual <= tol * max(1.0, abs(top), abs(bottom))

    return _lanczos_sweep(matvec, v0, max_iters, stop)


def leading_eigenvalue(op, tol: float = 1e-8, seed: int = 0, max_iters: int | None = None):
    """Largest eigenvalue and eigenvector, deterministic for a given seed:
    one lanczos sweep from a seeded start vector.

    Raises ConvergenceError (carrying the top Ritz value as its best
    estimate, and the sweep's Krylov steps as its iterations) if the sweep
    ends at max_iters without converging.
    """
    _, dim, basis = _as_operator(op)
    v0 = derived_rng(seed, "leading-eigenvalue-start", 0).standard_normal(dim)
    ritz = lanczos(op, v0, max_iters=max_iters, tol=tol)
    lam = float(ritz.ritz_values[0])
    if not ritz.converged:
        raise ConvergenceError(
            f"leading eigenvalue residual {ritz.residuals[0]:.3e} after "
            f"{ritz.iterations} Krylov steps",
            best=lam,
            iterations=ritz.iterations,
        )
    return lam, _wrap_vector(ritz.ritz_vectors[:, 0], basis)


def full_spectrum(op, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """All eigenvalues through a dense symmetric eigensolve, descending."""
    return np.linalg.eigvalsh(_dense_matrix(op, dense_limit))[::-1]


def _dense_matrix(op, dense_limit: int) -> np.ndarray:
    if isinstance(op, HamiltonianOperator):
        return op.materialize_dense(dense_limit=dense_limit)
    _, dim, _ = _as_operator(op)
    if dim > dense_limit:
        raise CapacityError(f"dense limit {dense_limit} < dimension {dim}")
    return op if isinstance(op, np.ndarray) else op.toarray()


def project_above(
    op,
    x,
    e_lower: float,
    e_upper: float,
    *,
    method: str,
    tol: float = 1e-8,
    max_iters: int | None = None,
    chebyshev_degree: int | None = None,
    probe: RitzDecomposition | None = None,
):
    """Filtered weight of x on the eigenspace above the cutoff window.

    Returns (projected, norm_sq, projector).  Eigencomponents above
    e_upper survive with weight >= 1 - tol, those below e_lower with
    weight <= tol; between the cutoffs the filter is monotone but
    otherwise unspecified.  The realized filter cuts at the window
    midpoint: exactly, from one eigensolve of the dense matrix (dense, the
    reference the others are tested against), via Ritz pairs from a
    Lanczos sweep started at x (ritz), or by the Chebyshev series of an
    erf smooth step whose steepness and degree follow from tol and the
    window (chebyshev).  Every caller names its method; the projection
    step of a detector picks its own route (pipeline._project_step).

    probe, the last result of a lanczos sweep of op started at x, is a
    sweep the Ritz route continues instead of starting its own, with the
    same result as a fresh sweep wherever that one stops at least two steps
    after the probe; the other routes leave it where it stopped.
    """
    if not e_lower < e_upper:
        raise InvalidParameterError(f"need e_lower < e_upper, got [{e_lower}, {e_upper}]")
    if not 0.0 < tol < 1.0:
        raise InvalidParameterError(f"tol must lie in (0, 1), got {tol}")
    if chebyshev_degree is not None and chebyshev_degree < 1:
        raise InvalidParameterError(f"chebyshev_degree must be at least 1, got {chebyshev_degree}")
    matvec, dim, op_basis = _as_operator(op)
    vec, vec_basis = _as_vector(x, op)
    basis = op_basis if op_basis is not None else vec_basis
    if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
        raise InvalidParameterError("project_above expects a normalized state")
    sweep = None if probe is None else probe._sweep
    if probe is not None and not (
        sweep is not None
        and sweep.k == probe.iterations
        and sweep.matvec == matvec
        and np.array_equal(sweep.block[0], vec / np.linalg.norm(vec))
    ):
        raise InvalidParameterError("probe must be the last run of a sweep of op started at x")
    mid = 0.5 * (e_lower + e_upper)

    if method == "dense":
        projected, norm_sq = _keep_above(*np.linalg.eigh(_dense_matrix(op, DENSE_LIMIT)), vec, mid)
        return _wrap_vector(projected, basis), norm_sq, ApproxProjector("dense", dim, 1e-14)

    if method == "ritz":
        return _project_ritz(matvec, dim, basis, vec, mid, tol, max_iters, sweep)

    if method == "chebyshev":
        return _project_chebyshev(op, basis, vec, e_lower, e_upper, tol, chebyshev_degree)

    raise InvalidParameterError(f"unknown projector method {method!r}")


def _keep_above(values, vectors, vec, mid: float) -> tuple[np.ndarray, float]:
    """Project vec onto the eigenpairs (values, vectors), as np.linalg.eigh
    returns them, whose eigenvalue is at or above mid; returns the
    projected amplitudes and their squared norm."""
    keep = values >= mid
    coefs = (vectors.conj().T @ vec)[keep]
    return vectors[:, keep] @ coefs, float(np.sum(np.abs(coefs) ** 2))


def _spectrum_below(dense, cut: float) -> bool:
    """True when a Cholesky factor of (cut - delta) I - dense proves that
    dense's eigensolve finds no eigenvalue at or above cut.  The shifted
    matrix and its factor are freed on return.

    Write H for dense, delta = 1e-6 (|cut| + ||H||), with ||H|| bounded
    by the largest absolute row sum, shift = cut - delta and
    M = shift I - H.  If M has a Cholesky factor, every eigenvalue of H
    lies below shift up to rounding.  The computed factor L of a D x D
    matrix satisfies L L^* = M + E with ||E||_2 <= about D^2 u ||M||_2,
    u the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 10.1); this covers the rounding of M's
    diagonal too.  L L^* is positive definite, so
    lambda_max(H) <= shift + ||E||.  With
    ||M|| <= |cut| + delta + ||H||, ||E|| is at most 1.8e-3 delta at
    D = 4000 (the default dense limit) and 0.1 delta at D = 30000, so
    lambda_max(H) < cut - 0.9 delta.  eigh is backward stable: its
    eigenvalues are within a small multiple of D u ||H|| of the exact
    ones, far inside delta, so it would find none at or above cut.  A
    diagonal entry of H is a Rayleigh quotient, so when one reaches shift
    the factorization must fail and is not tried.  The certificate is only
    tried in double precision.
    """
    if dense.dtype not in (np.float64, np.complex128):
        return False
    # a diagonal entry is a Rayleigh quotient, so none may reach the shift;
    # the cut, above the shift, is checked first, before the norm is taken
    top_diag = float(dense.diagonal().real.max())
    if not top_diag < cut:
        return False
    shift = cut - 1e-6 * (abs(cut) + float(np.linalg.norm(dense, np.inf)))
    if not top_diag < shift:
        return False
    shifted = np.negative(dense)
    shifted.flat[:: dense.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _project_ritz(matvec, dim, basis, vec, mid, tol, max_iters, sweep):
    """Ritz projection from a Lanczos sweep started at vec: a new one, or
    the given sweep continued.  The stop rule sees every step from the first it is
    applied at; a continued sweep applies it first to the step it stopped
    at, so it can stop two steps after that at the earliest."""
    if max_iters is None:
        max_iters = dim
    prev, stable = None, 0  # the last weight, and how many steps it has held

    def stop(tridiag, beta):
        nonlocal prev, stable
        values, residuals, first_row, _ = _ritz_from_tridiag(tridiag, beta)
        keep = values >= mid
        weight = float(np.sum(np.abs(first_row[keep]) ** 2))
        scale = max(1.0, float(np.abs(values).max()))
        # every pair near the cut must be resolved to its side of the cut
        boundary_ok = np.all(
            (residuals <= tol * scale) | (np.abs(values - mid) > residuals)
        )
        if prev is not None and abs(weight - prev) <= 0.1 * tol * max(weight, 1e-3):
            stable += 1
        else:
            stable = 0
        prev = weight
        return bool(boundary_ok and stable >= 2)

    if sweep is None:
        ritz = _lanczos_sweep(matvec, vec, max_iters, stop)
    else:
        ritz = sweep.run(max_iters, stop)
    values, residuals, start_coeffs, iters = (
        ritz.ritz_values, ritz.residuals, ritz.start_coeffs, ritz.iterations
    )
    keep = values >= mid
    coefs = start_coeffs[keep]
    # the kept combination of the Krylov rows, without the D x k Ritz vectors
    projected = ritz._sweep.block[:iters].T @ (ritz._eigvecs[:, keep] @ coefs)
    norm_sq = float(np.sum(np.abs(coefs) ** 2))
    if ritz.converged:
        # a rule stop leaves no Ritz interval straddling the cut, because the
        # final decomposition is the one the stop rule checked; so 1e-14 is a
        # floor there, not a bound on the weight's error
        achieved = 1e-14
    else:
        # cut by max_iters: a Ritz vector with residual r at distance delta
        # from the cut leaks at most min(1, r/delta) of its mass across it
        # (Davis & Kahan, SIAM J. Numer. Anal. 7:1, 1970), so the projected
        # vector is off by at most E and its squared norm by E (2 sqrt(w) + E)
        delta = np.maximum(np.abs(values - mid), np.finfo(float).tiny)
        leak = float(np.sum(np.abs(start_coeffs) * np.minimum(1.0, residuals / delta)))
        achieved = leak * (2.0 * np.sqrt(norm_sq) + leak)
        if achieved > tol:
            raise ConvergenceError(
                f"filtered projection unresolved near the cutoff (error {achieved:.3e}) "
                f"after {iters} Krylov steps",
                best=norm_sq,
                iterations=iters,
            )
        achieved = max(achieved, 1e-14)
    proj = ApproxProjector("ritz", iters, achieved_error=achieved)
    return _wrap_vector(projected, basis), norm_sq, proj


def _project_chebyshev(op, basis, vec, e_lower, e_upper, tol, degree):
    """Filter by the Chebyshev series of the smooth step
    1/2 (1 + erf(kappa (t - c))), in unit coordinates t where c is the window
    midpoint and h its half-width.

    kappa = sqrt(ln(1/tol)) / h puts the step within tol/2 of 0 at e_lower
    and of 1 at e_upper, because erfc(x) <= exp(-x^2).  Without a given
    degree the series is cut where the dropped |coefficients| sum to at
    most tol/2, so the band error is at most tol.
    """
    matvec, dim, _ = _as_operator(op)
    # spectral interval estimate with safety margin from a short sweep
    probe = lanczos(op, vec, max_iters=min(dim, 60), tol=1e-6)
    lo = float(probe.ritz_values.min())
    hi = float(probe.ritz_values.max())
    pad = 0.1 * max(hi - lo, 1e-12) + 1e-12
    lo, hi = lo - pad, hi + pad
    u_lower, u_upper = ((2.0 * e - (hi + lo)) / (hi - lo) for e in (e_lower, e_upper))
    log_inv_tol = log(1.0 / tol)
    kappa = sqrt(log_inv_tol) / (0.5 * (u_upper - u_lower))
    mid = 0.5 * (u_lower + u_upper)

    # the coefficients fall below tol near degree 2 kappa sqrt(ln(1/tol));
    # interpolate at twice that many Chebyshev extrema, by a DCT-I through
    # the FFT of the even extension (O(fit) memory, no Vandermonde matrix)
    fit = max(min(6000, 16 + int(4.0 * kappa * sqrt(log_inv_tol))), degree or 0)
    nodes = np.cos(np.pi * np.arange(fit + 1) / fit).tolist()
    step = np.array([0.5 * (1.0 + erf(kappa * (t - mid))) for t in nodes])
    coeffs = np.fft.rfft(np.concatenate([step, step[-2:0:-1]])).real / fit
    coeffs[[0, fit]] *= 0.5
    if degree is None:
        # dropped[d]: sum of |coeffs[k]| over k > d
        dropped = np.append(np.cumsum(np.abs(coeffs[:0:-1]))[::-1], 0.0)
        degree = max(1, int(np.argmax(dropped <= 0.5 * tol)))
    coeffs = coeffs[: degree + 1]

    # measured band error on a grid that includes both band edges
    grid = np.clip(np.append(np.linspace(-1.0, 1.0, 4001), [u_lower, u_upper]), -1.0, 1.0)
    tvals = np.polynomial.chebyshev.chebval(grid, coeffs)
    achieved = max(
        float(np.abs(tvals[grid <= u_lower]).max(initial=0.0)),
        float(np.abs(tvals[grid >= u_upper] - 1.0).max(initial=0.0)),
    )
    if achieved > tol:
        raise ConvergenceError(
            f"chebyshev filter error {achieved:.3e} > tol {tol:.3e} at degree {degree}",
            best=achieved,
            iterations=degree,
        )

    # Clenshaw-style three-term recurrence applied to the state
    a = 2.0 / (hi - lo)
    b = (hi + lo) / (hi - lo)
    tkm1 = vec
    tk = a * matvec(vec) - b * vec
    acc = coeffs[0] * tkm1 + coeffs[1] * tk
    for k in range(2, degree + 1):
        tkp1 = 2.0 * (a * matvec(tk) - b * tk) - tkm1
        acc = acc + coeffs[k] * tkp1
        tkm1, tk = tk, tkp1
    norm_sq = float(np.real(np.vdot(acc, acc)))
    proj = ApproxProjector("chebyshev", degree, achieved_error=achieved)
    return _wrap_vector(acc, basis), norm_sq, proj


# ---------------------------------------------------------------------------
# Analytic threshold quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticBounds:
    """Threshold quantities for given (N, n_bos, lambda_bar, ensemble).

    e_max bounds the unspiked leading eigenvalue with high probability,
    with exponential tail scale xi; e_zero is the variational lower bound
    in the spiked case; e_cut their midpoint; nbos_eq the real boson count
    where e_zero and e_max cross (inf if they never cross by n = 64).
    """

    j_const: float
    e_max: float
    xi: float
    e_zero: float
    e_cut: float
    nbos_eq: float
    nbos_eq_int: int


def _j_const(n_bos: float, ensemble: str) -> float:
    j = (n_bos - 1.0) / n_bos
    return 2.0 * j if ensemble == "complex" else j


def _e_max_at(n: float, N: int, ensemble: str) -> float:
    return np.sqrt(2.0 * _j_const(n, ensemble) * log(N)) * n**1.5 * N

def _e_zero_at(n: float, N: int, lambda_bar: float) -> float:
    return lambda_bar * n * (n - 1.0) * N**2


def analytic_bounds(params: ModelParams) -> AnalyticBounds:
    if params.N < 2:
        raise InvalidParameterError("analytic bounds need N >= 2 (log N)")
    N, n, ensemble = params.N, params.n_bos, params.ensemble
    j = _j_const(n, ensemble)
    e_max = _e_max_at(n, N, ensemble)
    xi = np.sqrt(j) * n**0.5 * N / np.sqrt(2.0 * log(N))
    e_zero = _e_zero_at(n, N, params.lambda_bar)
    e_cut = 0.5 * (e_zero + e_max)
    nbos_eq = _solve_nbos_eq(N, params.lambda_bar, ensemble)
    return AnalyticBounds(
        j_const=j,
        e_max=e_max,
        xi=float(xi),
        e_zero=e_zero,
        e_cut=e_cut,
        nbos_eq=nbos_eq,
        nbos_eq_int=int(ceil(nbos_eq)) if np.isfinite(nbos_eq) else -1,
    )


@cache
def _solve_nbos_eq(N: int, lambda_bar: float, ensemble: str, hi: float = 64.0) -> float:
    """Smallest real n in [2, hi] where the spiked bound crosses the
    unspiked bound, by bisection; inf if no crossing."""
    if lambda_bar <= 0.0:
        return inf

    def gap(n: float) -> float:
        return _e_zero_at(n, N, lambda_bar) - _e_max_at(n, N, ensemble)

    lo = 2.0
    if gap(lo) >= 0.0:
        return 2.0
    if gap(hi) < 0.0:
        return inf
    hi_x = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi_x)
        if not lo < mid < hi_x:
            break  # lo and hi_x are adjacent floats: later steps change nothing
        if gap(mid) >= 0.0:
            hi_x = mid
        else:
            lo = mid
    return hi_x


# ---------------------------------------------------------------------------
# Density of states
# ---------------------------------------------------------------------------


@dataclass
class DosEstimate:
    """Estimated fraction of unspiked eigenvalues above x * e_max_ref, one
    entry per grid point x."""

    p_greater: np.ndarray
    stderr: np.ndarray
    g_hat: np.ndarray
    e_max_ref: float
    mean_lambda1: float


def density_of_states(
    params: ModelParams,
    x_grid,
    trials: int,
    dense_limit: int = DENSE_LIMIT,
    emax_reference: str = "theorem",
    threads: int = 1,
) -> DosEstimate:
    """Monte-Carlo estimate of the high-eigenvalue fraction of unspiked
    operators, with the per-boson base-N decay exponent.

    For each trial an unspiked noise tensor is drawn from a params.seed
    stream, the full spectrum is computed densely, and eigenvalues
    >= x * e_max_ref are counted for every grid point x.  e_max_ref is the
    analytic bound ("theorem") or the mean observed leading eigenvalue
    ("empirical").
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    if emax_reference not in ("theorem", "empirical"):
        raise InvalidParameterError(f"unknown e_max reference {emax_reference!r}")
    x_grid = np.asarray(x_grid, dtype=float)
    basis = build_basis(params.N, params.n_bos)
    if basis.dim > dense_limit:
        raise CapacityError(f"density of states needs dim <= {dense_limit}, got {basis.dim}")

    def one_trial(t: int) -> np.ndarray:
        rng = derived_rng(params.seed, "dos-trial", t)
        g = sample_gaussian_tensor(params.N, rng, ensemble=params.ensemble)
        h = HamiltonianOperator(g, basis)
        return full_spectrum(h, dense_limit=dense_limit)

    spectra = np.array(run_trials(one_trial, trials, threads=threads))
    bounds = analytic_bounds(params)
    mean_lambda1 = float(spectra[:, 0].mean())
    e_ref = bounds.e_max if emax_reference == "theorem" else mean_lambda1

    thresholds = x_grid * e_ref
    counts = (spectra[:, :, None] >= thresholds[None, None, :]).sum(axis=1)
    fractions = counts / basis.dim
    p_greater = fractions.mean(axis=0)
    stderr = (
        fractions.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else np.zeros_like(p_greater)
    )
    with np.errstate(divide="ignore"):
        g_hat = np.where(
            p_greater > 0.0,
            -np.log(np.maximum(p_greater, 1e-300)) / (params.n_bos * log(params.N)),
            np.nan,
        )
    return DosEstimate(
        p_greater=p_greater,
        stderr=stderr,
        g_hat=g_hat,
        e_max_ref=float(e_ref),
        mean_lambda1=mean_lambda1,
    )
