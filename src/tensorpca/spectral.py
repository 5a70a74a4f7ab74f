"""Eigenvalue machinery: Lanczos with full reorthogonalization, filtered
spectral projection with lower/upper cutoffs, dense spectra, analytic
threshold quantities, and density-of-states estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, log

import numpy as np
import scipy.sparse as sp

from ._util import (
    DENSE_LIMIT,
    CapacityError,
    ConvergenceError,
    InvalidParameterError,
    derived_rng,
    run_trials,
)
from .fock import OccupationBasis, StateVector, build_basis
from .hamiltonian import HamiltonianOperator
from .instance import ModelParams, sample_gaussian_tensor


def _as_operator(op):
    """Uniform (matvec, dim, basis_or_None) view of the supported operator types."""
    if isinstance(op, HamiltonianOperator):
        return op.matvec, op.dim, op.basis
    if isinstance(op, np.ndarray):
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise InvalidParameterError(f"expected a square matrix, got shape {op.shape}")
        return op.dot, op.shape[0], None
    if sp.issparse(op):
        return op.dot, op.shape[0], None
    raise InvalidParameterError(f"unsupported operator type {type(op)!r}")


def _as_vector(x):
    if isinstance(x, StateVector):
        return np.asarray(x.amps), x.basis
    return np.asarray(x, dtype=float if not np.iscomplexobj(x) else complex), None


def _wrap_vector(amps, basis):
    return StateVector(basis, amps) if basis is not None else amps


@dataclass
class RitzDecomposition:
    """Ritz pairs from a Krylov sweep, sorted by descending Ritz value."""

    ritz_values: np.ndarray
    ritz_vectors: np.ndarray  # columns follow ritz_values
    residuals: np.ndarray
    iterations: int
    start_coeffs: np.ndarray  # expansion of the start vector on the Ritz pairs
    invariant_subspace: bool
    basis: OccupationBasis | None = None

    def vector(self, i: int):
        return _wrap_vector(self.ritz_vectors[:, i], self.basis)


@dataclass
class ApproxProjector:
    """Spectral filter with guaranteed pass band above e_upper and stop
    band below e_lower; behavior between the cutoffs is unspecified."""

    e_lower: float
    e_upper: float
    method: str
    degree_or_iters: int
    achieved_error: float


@dataclass
class SpectrumSummary:
    eigenvalues: np.ndarray  # descending
    source: str


def _lanczos_sweep(matvec, v0, max_iters, stop_check):
    """Krylov tridiagonalization with full reorthogonalization.

    stop_check(values_desc, residuals, first_row) -> bool decides early
    termination; breakdown (invariant subspace) always terminates.
    """
    dim = v0.shape[0]
    start_norm = np.linalg.norm(v0)
    if start_norm == 0.0:
        raise InvalidParameterError("Lanczos needs a nonzero start vector")
    complex_vec = np.iscomplexobj(v0)
    q = (v0 / start_norm).astype(np.complex128 if complex_vec else np.float64)
    max_iters = max(1, min(max_iters, dim))
    # Krylov vectors are contiguous rows; the block doubles when full, so
    # memory follows the iterations actually run, not max_iters
    basis_vecs = np.empty((min(max_iters, 8), dim), dtype=q.dtype)
    alphas: list[float] = []
    betas: list[float] = []
    invariant = False
    exit_beta = 0.0
    k = 0
    while k < max_iters:
        if k == basis_vecs.shape[0]:
            grown = np.empty((min(2 * k, max_iters), dim), dtype=q.dtype)
            grown[:k] = basis_vecs
            basis_vecs = grown
        basis_vecs[k] = q
        w = matvec(q)
        alpha = float(np.real(np.vdot(q, w)))
        alphas.append(alpha)
        w = w - alpha * q
        if betas:
            w = w - betas[-1] * basis_vecs[k - 1]
        # full reorthogonalization, twice for floating-point hygiene
        active = basis_vecs[: k + 1]
        for _ in range(2):
            w = w - np.conj(active @ np.conj(w)) @ active
        beta = float(np.linalg.norm(w))
        k += 1
        scale = max(max((abs(a) for a in alphas), default=0.0), max(betas, default=0.0), 1.0)
        if beta <= 1e-13 * scale:
            invariant = True
            exit_beta = 0.0
            break
        exit_beta = beta
        if stop_check is not None:
            values, residuals, first_row, _ = _ritz_from_tridiag(alphas, betas, beta)
            if stop_check(values, residuals, first_row):
                break
        if k >= max_iters:
            break
        betas.append(beta)
        q = w / beta
    values, residuals, first_row, eigvecs = _ritz_from_tridiag(alphas, betas, exit_beta)
    vectors = basis_vecs[:k].T @ eigvecs
    if invariant:
        residuals = np.zeros_like(residuals)
    return values, vectors, residuals, first_row * start_norm, k, invariant


def _ritz_from_tridiag(alphas, betas, beta_last):
    k = len(alphas)
    t = np.diag(np.asarray(alphas, dtype=float))
    if k > 1:
        off = np.asarray(betas[: k - 1], dtype=float)
        t += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(t)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.abs(beta_last) * np.abs(vecs[k - 1, :])
    return vals, residuals, vecs[0, :].copy(), vecs


def lanczos(op, start, max_iters: int | None = None, tol: float = 1e-10, num_wanted: int = 1):
    """Lanczos with full reorthogonalization from a given start vector.

    Stops once the num_wanted largest Ritz pairs have residual below
    tol * scale, on Krylov breakdown (exact invariant subspace, flagged,
    not an error), or at max_iters.
    """
    matvec, dim, basis = _as_operator(op)
    v0, vec_basis = _as_vector(start)
    if basis is None:
        basis = vec_basis
    if max_iters is None:
        max_iters = dim

    def stop(values, residuals, first_row):
        m = min(num_wanted, values.size)
        scale = max(1.0, float(np.abs(values).max()))
        return bool(np.all(residuals[:m] <= tol * scale))

    values, vectors, residuals, start_coeffs, iters, invariant = _lanczos_sweep(
        matvec, v0, max_iters, stop
    )
    return RitzDecomposition(
        ritz_values=values,
        ritz_vectors=vectors,
        residuals=residuals,
        iterations=iters,
        start_coeffs=start_coeffs,
        invariant_subspace=invariant,
        basis=basis,
    )


def leading_eigenvalue(
    op,
    restarts: int = 3,
    tol: float = 1e-8,
    seed: int = 0,
    max_iters: int | None = None,
):
    """Largest eigenvalue and eigenvector, deterministic for a given seed.

    Raises ConvergenceError (carrying the best estimate) if no restart
    reaches residual <= tol * spectral-scale.
    """
    matvec, dim, basis = _as_operator(op)
    best = None
    for attempt in range(max(1, restarts)):
        v0 = derived_rng(seed, "leading-eigenvalue-start", attempt).standard_normal(dim)
        ritz = lanczos(op, v0, max_iters=max_iters, tol=tol, num_wanted=1)
        lam = float(ritz.ritz_values[0])
        res = float(ritz.residuals[0])
        scale = max(1.0, float(np.abs(ritz.ritz_values).max()))
        if best is None or lam > best[0]:
            best = (lam, ritz.ritz_vectors[:, 0], res)
        if res <= tol * scale or ritz.invariant_subspace:
            vec = ritz.ritz_vectors[:, 0]
            return lam, _wrap_vector(vec, basis)
    raise ConvergenceError(
        f"leading eigenvalue residual {best[2]:.3e} after {restarts} restarts",
        best=best[0],
    )


def full_spectrum(op, dense_limit: int = DENSE_LIMIT) -> SpectrumSummary:
    """All eigenvalues through a dense symmetric eigensolve (descending)."""
    dense = _dense_matrix(op, dense_limit)
    vals = np.linalg.eigvalsh(dense)[::-1]
    return SpectrumSummary(eigenvalues=vals, source="dense")


def _dense_matrix(op, dense_limit: int) -> np.ndarray:
    if isinstance(op, HamiltonianOperator):
        return op.materialize_dense(dense_limit=dense_limit)
    if isinstance(op, np.ndarray):
        if op.shape[0] > dense_limit:
            raise CapacityError(f"dense limit {dense_limit} < dimension {op.shape[0]}")
        return op
    if sp.issparse(op):
        if op.shape[0] > dense_limit:
            raise CapacityError(f"dense limit {dense_limit} < dimension {op.shape[0]}")
        return op.toarray()
    raise InvalidParameterError(f"unsupported operator type {type(op)!r}")


def project_above(
    op,
    x,
    e_lower: float,
    e_upper: float,
    tol: float = 1e-8,
    method: str = "auto",
    dense_limit: int = DENSE_LIMIT,
    max_iters: int | None = None,
    chebyshev_degree: int | None = None,
):
    """Filtered weight of x on the eigenspace above the cutoff window.

    Returns (projected, norm_sq, projector).  Eigencomponents above
    e_upper survive with weight >= 1 - tol, those below e_lower with
    weight <= tol; between the cutoffs the filter is monotone but
    otherwise unspecified.  The realized filter cuts at the window
    midpoint: exactly (dense), via Ritz pairs from a Lanczos sweep
    started at x (ritz), or by a damped polynomial filter (chebyshev).
    """
    if not e_lower < e_upper:
        raise InvalidParameterError(f"need e_lower < e_upper, got [{e_lower}, {e_upper}]")
    matvec, dim, op_basis = _as_operator(op)
    vec, vec_basis = _as_vector(x)
    basis = op_basis if op_basis is not None else vec_basis
    if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
        raise InvalidParameterError("project_above expects a normalized state")
    if method == "auto":
        method = "dense" if dim <= dense_limit else "ritz"
    mid = 0.5 * (e_lower + e_upper)

    if method == "dense":
        dense = _dense_matrix(op, dense_limit)
        vals, vecs = np.linalg.eigh(dense)
        keep = vals >= mid
        coefs = vecs.conj().T @ vec
        projected = vecs[:, keep] @ coefs[keep]
        norm_sq = float(np.sum(np.abs(coefs[keep]) ** 2))
        proj = ApproxProjector(e_lower, e_upper, "dense", dim, achieved_error=1e-14)
        return _wrap_vector(projected, basis), norm_sq, proj

    if method == "ritz":
        return _project_ritz(matvec, dim, basis, vec, e_lower, e_upper, mid, tol, max_iters)

    if method == "chebyshev":
        return _project_chebyshev(
            op, matvec, dim, basis, vec, e_lower, e_upper, tol, chebyshev_degree
        )

    raise InvalidParameterError(f"unknown projector method {method!r}")


def _project_ritz(matvec, dim, basis, vec, e_lower, e_upper, mid, tol, max_iters):
    if max_iters is None:
        max_iters = dim
    state = {"prev_weight": None, "stable": 0}

    def stop(values, residuals, first_row):
        keep = values >= mid
        weight = float(np.sum(np.abs(first_row[keep]) ** 2))
        prev = state["prev_weight"]
        state["prev_weight"] = weight
        scale = max(1.0, float(np.abs(values).max()))
        # every pair near the cut must be resolved to its side of the cut
        boundary_ok = np.all(
            (residuals <= tol * scale) | (np.abs(values - mid) > residuals)
        )
        if prev is not None and abs(weight - prev) <= 0.1 * tol * max(weight, 1e-3):
            state["stable"] += 1
        else:
            state["stable"] = 0
        return bool(boundary_ok and state["stable"] >= 2)

    values, vectors, residuals, start_coeffs, iters, invariant = _lanczos_sweep(
        matvec, vec, max_iters, stop
    )
    keep = values >= mid
    coefs = start_coeffs[keep]
    projected = vectors[:, keep] @ coefs
    norm_sq = float(np.sum(np.abs(coefs) ** 2))
    if invariant:
        achieved = 1e-14
    else:
        # only weight whose Ritz interval straddles the cut is uncertain;
        # pairs resolved to one side contribute their mass exactly
        scale = max(1.0, float(np.abs(values).max()))
        uncertain = (np.abs(values - mid) <= residuals) & (residuals > tol * scale)
        achieved = float(np.sum(np.abs(start_coeffs[uncertain]) ** 2))
        if np.any(uncertain):
            achieved += float(residuals[uncertain].max() / scale)
        if achieved > tol:
            raise ConvergenceError(
                f"filtered projection unresolved near the cutoff (error {achieved:.3e})",
                best=norm_sq,
            )
        achieved = max(achieved, 1e-14)
    proj = ApproxProjector(e_lower, e_upper, "ritz", iters, achieved_error=achieved)
    return _wrap_vector(projected, basis), norm_sq, proj


def _chebyshev_step_coeffs(degree: int, cut: float) -> np.ndarray:
    """Jackson-damped Chebyshev coefficients of the step 1[t >= cut] on [-1, 1].

    With theta_c = arccos(cut): a_0 = theta_c/pi, a_k = 2 sin(k theta_c)/(k pi).
    """
    k = np.arange(degree + 1)
    theta_c = np.arccos(np.clip(cut, -1.0, 1.0))
    coeffs = np.empty(degree + 1)
    coeffs[0] = theta_c / np.pi
    kk = k[1:]
    coeffs[1:] = 2.0 * np.sin(kk * theta_c) / (kk * np.pi)
    # Jackson damping suppresses Gibbs oscillation at the jump
    g = ((degree + 1 - k) * np.cos(np.pi * k / (degree + 1))
         + np.sin(np.pi * k / (degree + 1)) / np.tan(np.pi / (degree + 1))) / (degree + 1)
    return coeffs * g


def _project_chebyshev(op, matvec, dim, basis, vec, e_lower, e_upper, tol, degree):
    # spectral interval estimate with safety margin from a short sweep
    probe = lanczos(op, vec, max_iters=min(dim, 60), tol=1e-6, num_wanted=1)
    lo = float(probe.ritz_values.min())
    hi = float(probe.ritz_values.max())
    pad = 0.1 * max(hi - lo, 1e-12) + 1e-12
    lo, hi = lo - pad, hi + pad
    scale_to_unit = lambda e: (2.0 * e - (hi + lo)) / (hi - lo)
    cut = scale_to_unit(0.5 * (e_lower + e_upper))

    def band_error(coeffs):
        grid = np.linspace(-1.0, 1.0, 4001)
        tvals = np.polynomial.chebyshev.chebval(grid, coeffs)
        pass_band = grid >= scale_to_unit(e_upper)
        stop_band = grid <= scale_to_unit(e_lower)
        err = 0.0
        if pass_band.any():
            err = max(err, float(np.abs(tvals[pass_band] - 1.0).max()))
        if stop_band.any():
            err = max(err, float(np.abs(tvals[stop_band]).max()))
        return err

    if degree is None:
        # grow the degree until the measured band deviation meets tol
        width = max(scale_to_unit(e_upper) - scale_to_unit(e_lower), 1e-6)
        degree = max(8, int(ceil(4.0 / width)))
        coeffs = _chebyshev_step_coeffs(degree, cut)
        achieved = band_error(coeffs)
        while achieved > tol and degree < 6000:
            degree = min(2 * degree, 6000)
            coeffs = _chebyshev_step_coeffs(degree, cut)
            achieved = band_error(coeffs)
    else:
        coeffs = _chebyshev_step_coeffs(degree, cut)
        achieved = band_error(coeffs)
    if achieved > tol:
        raise ConvergenceError(
            f"chebyshev filter error {achieved:.3e} > tol {tol:.3e} at degree {degree}",
            best=achieved,
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
    proj = ApproxProjector(e_lower, e_upper, "chebyshev", degree, achieved_error=achieved)
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

    N: int
    n_bos: int
    p: int
    lambda_bar: float
    ensemble: str
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


def analytic_bounds(params: ModelParams, ensemble: str | None = None) -> AnalyticBounds:
    if params.N < 2:
        raise InvalidParameterError("analytic bounds need N >= 2 (log N)")
    if ensemble is None:
        ensemble = params.ensemble
    N, n = params.N, params.n_bos
    j = _j_const(n, ensemble)
    e_max = _e_max_at(n, N, ensemble)
    xi = np.sqrt(j) * n**0.5 * N / np.sqrt(2.0 * log(N))
    e_zero = _e_zero_at(n, N, params.lambda_bar)
    e_cut = 0.5 * (e_zero + e_max)
    nbos_eq = _solve_nbos_eq(N, params.lambda_bar, ensemble)
    return AnalyticBounds(
        N=N,
        n_bos=n,
        p=params.p,
        lambda_bar=params.lambda_bar,
        ensemble=ensemble,
        j_const=j,
        e_max=e_max,
        xi=float(xi),
        e_zero=e_zero,
        e_cut=e_cut,
        nbos_eq=nbos_eq,
        nbos_eq_int=int(ceil(nbos_eq)) if np.isfinite(nbos_eq) else -1,
    )


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
    """Estimated fraction of unspiked eigenvalues above x * e_max_ref."""

    x_grid: np.ndarray
    p_greater: np.ndarray
    stderr: np.ndarray
    g_hat: np.ndarray
    g_lower_bound: np.ndarray  # True where every trial had zero counts
    trials: int
    e_max_ref: float
    N: int
    n_bos: int
    seed: int
    emax_reference: str
    mean_lambda1: float


def density_of_states(
    params: ModelParams,
    x_grid,
    trials: int,
    seed: int | None = None,
    dense_limit: int = DENSE_LIMIT,
    emax_reference: str = "theorem",
    threads: int = 1,
    variance_convention: str = "average",
) -> DosEstimate:
    """Monte-Carlo estimate of the high-eigenvalue fraction of unspiked
    operators, with the per-boson base-N decay exponent.

    For each trial an unspiked noise tensor is drawn, the full spectrum is
    computed densely, and eigenvalues >= x * e_max_ref are counted for
    every grid point x.  e_max_ref is the analytic bound ("theorem") or
    the mean observed leading eigenvalue ("empirical").
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    if emax_reference not in ("theorem", "empirical"):
        raise InvalidParameterError(f"unknown e_max reference {emax_reference!r}")
    x_grid = np.asarray(x_grid, dtype=float)
    if seed is None:
        seed = params.seed
    basis = build_basis(params.N, params.n_bos)
    if basis.dim > dense_limit:
        raise CapacityError(f"density of states needs dim <= {dense_limit}, got {basis.dim}")

    def one_trial(t: int) -> np.ndarray:
        rng = derived_rng(seed, "dos-trial", t)
        g = sample_gaussian_tensor(
            params.N, rng, ensemble=params.ensemble, variance_convention=variance_convention
        )
        h = HamiltonianOperator(g, basis)
        return full_spectrum(h, dense_limit=dense_limit).eigenvalues

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
        x_grid=x_grid,
        p_greater=p_greater,
        stderr=stderr,
        g_hat=g_hat,
        g_lower_bound=(p_greater == 0.0),
        trials=trials,
        e_max_ref=float(e_ref),
        N=params.N,
        n_bos=params.n_bos,
        seed=int(seed),
        emax_reference=emax_reference,
        mean_lambda1=mean_lambda1,
    )
