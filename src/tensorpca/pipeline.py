"""Detection pipelines: the spectral baseline, the projection-accelerated
classical algorithm, simulated quantum variants with query accounting, and
the multistep cascade.

The quantum algorithms are simulated faithfully at the outcome level: the
projective measurement implemented by phase estimation succeeds with
exactly the filtered spectral weight of the input state, so the simulators
compute that weight classically and draw the measurement outcomes, counting
projector applications as the unit of query cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from math import asin, ceil, inf, pi, sin, sqrt

import numpy as np

from ._util import DENSE_LIMIT, InvalidParameterError, derived_rng, falling_factorial
from .fock import StateVector, build_basis, embed_power_state, symmetrized_product
from .hamiltonian import HamiltonianOperator
from .instance import (
    DecorrelatedPair,
    ModelParams,
    SpikedTensor,
    decorrelate,
    lambda_effective,
    noise_power_per_entry,
    sample_gaussian_tensor,
)
from .spectral import (
    _keep_above,
    _spectrum_below,
    analytic_bounds,
    lanczos,
    leading_eigenvalue,
    project_above,
)


@dataclass(frozen=True)
class DetectionConfig:
    """Knobs shared by the projection-based detectors.

    c_prime: cutoff slack below the ideal-state energy (0 < c' < 1).
    slack: safety divisor applied to the success threshold.
    c_doubleprime: retry budget multiplier for the unamplified simulator.
    tol: filtered-projector tolerance in the pass/stop bands (0 < tol < 1).
    use_symmetrize: include the symmetric-subspace projection weight in the
        success statistic (the measurement picture where symmetrization is
        itself a projective step).
    add_imaginary: add pure-imaginary noise to t_minus (analysis setting;
        off by default); the threshold then counts twice the noise power.
    dense_limit: largest basis dimension the filter projects densely (any
        value up to 128 acts as 128: such steps project with their own
        eigensystem); larger ones use the Ritz projector.  It picks the
        projector only: the window, hence the cut, does not depend on it.
    """

    c_prime: float = 0.2
    slack: float = 10.0
    c_doubleprime: float = 20.0
    tol: float = 1e-8
    use_symmetrize: bool = True
    add_imaginary: bool = False
    dense_limit: int = DENSE_LIMIT

    def __post_init__(self):
        if not 0.0 < self.c_prime < 1.0:
            raise InvalidParameterError(f"c_prime must be in (0, 1), got {self.c_prime}")
        if self.slack < 1.0:
            raise InvalidParameterError(f"slack must be >= 1, got {self.slack}")
        if self.c_doubleprime < 1.0:
            raise InvalidParameterError(f"c_doubleprime must be >= 1, got {self.c_doubleprime}")
        if not 0.0 < self.tol < 1.0:
            raise InvalidParameterError(f"tol must lie in (0, 1), got {self.tol}")


@dataclass
class DetectionReport:
    """Outcome of one detection run.

    For the deterministic detectors the verdict is exactly
    statistic >= threshold; the quantum simulators report the same exact
    statistic but draw their verdict from the simulated measurements
    (verdict_source = "sampled").

    The report also hands over the state that recovery starts from:
    `state` is the leading eigenvector (spectral) or the filtered input
    state (projection detectors), and `pair` the decorrelated pair, None
    for spectral.  Neither is serialized.
    """

    algorithm: str
    verdict: str
    statistic: float
    threshold: float
    cutoff_energy: float | None
    seed: int
    params: dict
    config: dict | None = None
    trials_used: int | None = None
    amplification_rounds: int | None = None
    boosted_probability: float | None = None
    verdict_source: str = "threshold"
    separation: float | None = None
    query_counts: dict = field(default_factory=dict)
    state: StateVector | None = field(default=None, repr=False, compare=False)
    pair: DecorrelatedPair | None = field(default=None, repr=False, compare=False)

    @property
    def spiked(self) -> bool:
        return self.verdict == "spiked"

    def row(self) -> dict:
        """The serialized report."""
        unserialized = ("state", "pair")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in unserialized}


def _verdict(statistic: float, threshold: float) -> str:
    """The threshold rule of every detector.  A non-positive threshold means
    the route carries no signal (lambda_bar = 0); reporting detection there
    would flag pure noise."""
    return "spiked" if threshold > 0.0 and statistic >= threshold else "unspiked"


def _fields_dict(obj) -> dict:
    """dataclasses.asdict for a dataclass of scalars, without its deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _params_echo(params: ModelParams) -> dict:
    d = _fields_dict(params)
    d["zeta"] = params.effective_zeta if params.N >= 2 else params.zeta
    return d


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------


def projection_cutoff(params: ModelParams, cfg: DetectionConfig, n_bos: int | None = None) -> float:
    """(1 - c') * lambda_bar_plus * N^2 * n(n-1): just below the mean energy
    of the ideal signal state, so the ideal state passes the filter."""
    n = params.n_bos if n_bos is None else n_bos
    lam_plus, _ = lambda_effective(params.lambda_bar, params.effective_zeta)
    return (1.0 - cfg.c_prime) * lam_plus * params.N**2 * n * (n - 1)


def p_threshold(params: ModelParams, cfg: DetectionConfig) -> float:
    """Success threshold for the projected input state.

    Per 4-boson block the squared overlap of the normalized input tensor
    with the signal direction concentrates at
    lam_minus^2 N^4 / (lam_minus^2 N^4 + s N^4); the threshold is that
    ratio to the power n_bos/4, divided by the safety slack.  With no
    signal on the route (lambda_bar_minus = 0) it is 0, which every
    detector reads as unspiked.
    """
    n = params.n_bos
    if n % 4 != 0:
        raise InvalidParameterError(f"threshold needs n_bos divisible by 4, got {n}")
    _, lam_minus = lambda_effective(params.lambda_bar, params.effective_zeta)
    if lam_minus == 0.0:
        return 0.0
    s = noise_power_per_entry(params.N)
    if cfg.add_imaginary:
        s *= 2.0
    signal = lam_minus**2 * params.N**4
    ratio = signal / (signal + s * params.N**4)
    return ratio ** (n // 4) / cfg.slack


def projection_nbos(params: ModelParams) -> int:
    """Boson count for the projection route: half the bound-crossing point,
    rounded up to the smallest feasible multiple of four.

    At desk scale the crossing point is often below 8, in which case the
    constraint that input states need blocks of four bosons floors the
    reduced size at 4.
    """
    bounds = analytic_bounds(params)
    if not np.isfinite(bounds.nbos_eq):
        raise InvalidParameterError(
            "the spiked and unspiked bounds never cross; pick a larger lambda_bar"
        )
    half = bounds.nbos_eq / 2.0
    return max(4, 4 * int(ceil(half / 4.0)))


# ---------------------------------------------------------------------------
# Spectral baseline
# ---------------------------------------------------------------------------


def detect_spectral(
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig | None = None,
    seed: int | None = None,
) -> DetectionReport:
    """Leading-eigenvalue detection against the midpoint cut e_cut of the
    analytic bounds.

    At lambda_bar = 0 the threshold is 0, so the verdict is unspiked: e_cut
    then falls to e_max/2, below the noise edge, and would flag pure noise.
    `cfg` only gives the detectors one signature; no knob in it applies.
    """
    if seed is None:
        seed = params.seed
    basis = build_basis(params.N, params.n_bos)
    h = HamiltonianOperator(t0.tensor, basis)
    threshold = analytic_bounds(params).e_cut if params.lambda_bar > 0 else 0.0
    lam1, vec = leading_eigenvalue(h, seed=seed)
    return DetectionReport(
        algorithm="spectral",
        verdict=_verdict(lam1, threshold),
        statistic=float(lam1),
        threshold=float(threshold),
        cutoff_energy=None,
        seed=int(seed),
        params=_params_echo(params),
        separation=float(lam1 / threshold) if threshold else None,
        query_counts={"matvec": h.matvec_count},
        state=vec,
    )


# ---------------------------------------------------------------------------
# Projection pipeline building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionOutcome:
    """The filtered input state and its success statistic.

    [e_lower, cutoff] is the filter window; the realized cut is its
    midpoint.  A step certified empty (see _project_step) has proj_weight
    and statistic 0.0, a zero projected vector, range_probe_matvecs 0,
    matvec_count D when its dense operator gave the certificate and 0 when
    its pair-weight matrix did, and as e_lower the lower edge of the widest
    window any range could have set: every eigenvalue of H lies below that
    window's midpoint.

    range_probe_matvecs counts the matvecs that went to the window's range
    alone (see _project_step): none up to _EXACT_RANGE_CAP, where one
    eigensystem gives the range and the projection; above it the steps of
    the range probe, a Lanczos sweep from input_state.  A Ritz projector
    continues that sweep, so matvec_count adds only the steps it took
    beyond the probe's, and a dense projection adds D, whether its
    eigensolve ran or a proof at the window's midpoint made it needless.
    """

    statistic: float
    proj_weight: float
    cutoff: float
    e_lower: float
    projected: StateVector
    input_state: StateVector
    pair: DecorrelatedPair
    matvec_count: int  # every matvec of the step, the range probe's included
    range_probe_matvecs: int  # included in matvec_count


def _make_pair(
    t0: SpikedTensor, params: ModelParams, cfg: DetectionConfig, rng: np.random.Generator
) -> DecorrelatedPair:
    return decorrelate(t0, params.effective_zeta, rng, add_imaginary=cfg.add_imaginary)


# The range probe's Krylov step cap.  An operator of at most this dimension
# takes its range from its exact spectrum instead: the probe could span the
# whole space there, and one dense eigensolve costs less
_RANGE_PROBE_STEPS = 60
# The exact-range cap: up to this dimension a step that its pair weights
# cannot prove empty takes its range from the exact spectrum too, after
# trying the proof on its dense operator.  Timed per step on seeded draws
# with one BLAS thread, that route beat the probe by 18-58% at D=70, 91 and
# 126 (spiked or not, lambda_bar 0.1-1.0), but lost on some unspiked draws
# at D=165 (9%) and D=330 (28%), where an eigensolve replaced a probe
_EXACT_RANGE_CAP = 128
# The window's range is this multiple of the spread of the spectrum (or of
# the probe's Ritz values)
_RANGE_PAD = 1.2
# The computed largest diagonal entry of A^T A exceeds n(n-1) by a few ulps
# (56.000000000000014 at n = 4); the norm certificate allows this much more
_GRAM_SLACK = 1e-12


def _spectral_range(h: HamiltonianOperator, state: StateVector) -> tuple:
    """Padded spectral-range estimate from a short Krylov probe started at
    the step's state, and the probe's RitzDecomposition, whose sweep the
    Ritz projector continues from where the probe stopped.

    _project_step runs it above _EXACT_RANGE_CAP, on steps it cannot
    prove empty.  Its stop rule does not look at the window, so the window
    does not depend on how the filter then runs.

    The probe stops once its top Ritz pair has residual r <= 1e-3 * scale
    (or at _RANGE_PROBE_STEPS steps).  That is enough for a window width:
    the top Ritz value is then within r of an eigenvalue, and within about
    r^2/gap of it when the gap to the rest of the spectrum is wide
    (Parlett, The Symmetric Eigenvalue Problem, ch. 11).  The bottom Ritz
    value is never checked for convergence.  Ritz values from any start
    vector interlace the spectrum (ch. 10), so the estimate never exceeds
    1.2 * (lambda_max - lambda_min).  A state inside an invariant subspace
    of H ends the probe at the Krylov breakdown with exact Ritz pairs, and
    the estimate is then 1.2 times the spread of that subspace's
    eigenvalues; the projector takes no further step there.
    """
    ritz = lanczos(h, state, max_iters=min(h.dim, _RANGE_PROBE_STEPS), tol=1e-3)
    lo, hi = float(ritz.ritz_values.min()), float(ritz.ritz_values.max())
    return _RANGE_PAD * (hi - lo), ritz


def _two_sided_below(dense: np.ndarray, bound: float) -> bool:
    """True when spectral._spectrum_below puts the spectra of dense and
    -dense below bound, which proves ||dense||_2 < bound.  dense goes
    first: a spiked draw's top eigenvalue fails its first factorization."""
    return _spectrum_below(dense, bound) and _spectrum_below(np.negative(dense), bound)


def _norm_below(h: HamiltonianOperator, bound: float) -> bool:
    """True when _two_sided_below proves ||W||_2 < sigma =
    bound / (n(n-1) (1 + _GRAM_SLACK)), hence ||H||_2 < bound; see
    _project_step."""
    sigma = bound / (falling_factorial(h.basis.n_bos, 2) * (1.0 + _GRAM_SLACK))
    return _two_sided_below(h.pair_weights, sigma)


def _project_step(
    pair: DecorrelatedPair,
    state: StateVector,
    sym_weight: float,
    params: ModelParams,
    cfg: DetectionConfig,
) -> ProjectionOutcome:
    """Filter a prepared state above the projection cutoff of its own size
    under H(t_plus) on its own basis, and fold in its symmetric-projection
    weight when configured.

    This is the one place that picks how the filter is realized, in two
    stages by the dimension D:
    1. The range: up to _EXACT_RANGE_CAP exactly, from one eigensolve of
       the dense operator; above, from the range probe (_spectral_range).
       So the window, and its midpoint cut, does not depend on
       cfg.dense_limit.
    2. The projection:
       - a range from an eigensystem: that eigensystem (spectral._keep_above).
       - a probe above cfg.dense_limit: the Ritz projector (project_above),
         which continues the probe's sweep.
       - otherwise the dense H, whose eigensolve runs only if
         spectral._spectrum_below cannot prove that no eigenvalue reaches
         the cut; a proven step keeps nothing (a zero vector, weight 0.0).
    range_probe_matvecs counts the matvecs spent on the range alone: none
    when the range's eigensystem projects too, and otherwise the probe's
    steps, which a continuing Ritz projector does not repeat.

    Above _RANGE_PROBE_STEPS the step first tries to prove itself empty:
    from the pair weights W (_norm_below, two P x P Cholesky
    factorizations and no matvec), then, up to _EXACT_RANGE_CAP, on the
    dense H it materializes for its range (_two_sided_below, two D x D
    factorizations).  Such a proof shows that no window any range could
    set keeps anything, and the step then skips both stages:
    - A range, exact or the probe's (whose Ritz values lie between
      lambda_min(H) and lambda_max(H)), is at most 2 _RANGE_PAD ||H||.
      The gap is that over N or its floor, so the window's midpoint,
      cutoff - gap / 2, is at least
      cutoff - max(_RANGE_PAD ||H|| / N, floor / 2).
    - With bound = min(cutoff / (1 + _RANGE_PAD / N), cutoff - floor / 2),
      ||H|| < bound puts every eigenvalue below every such midpoint, so
      every projector keeps nothing.
    - On H, _two_sided_below puts lambda_max(H) and lambda_max(-H) below
      bound - 0.9 delta (see spectral._spectrum_below).
    - On W, ||H||_2 <= n(n-1) ||W||_2 (HamiltonianOperator.pair_weights),
      and _norm_below proves ||W|| < sigma =
      bound / (n(n-1) (1 + _GRAM_SLACK)) by two P x P factorizations.
      _GRAM_SLACK covers the rounded coefficients of A; the Krylov sweeps'
      own rounding, near u ||H||, sits far inside delta >= 1e-6 sigma.
    A certified step returns what the projectors return with nothing kept:
    weight and statistic 0.0 and a zero vector of dtype
    result_type(W, state), with the dense operator's D matvecs or none.
    Its window is the widest any range could have set (padded range
    2 _RANGE_PAD bound), so its midpoint is at least bound.
    """
    cutoff = projection_cutoff(params, cfg, n_bos=state.basis.n_bos)
    floor = 1e-9 * max(abs(cutoff), 1.0)
    h = HamiltonianOperator(pair.t_plus, state.basis)
    bound = min(cutoff / (1.0 + _RANGE_PAD / params.N), cutoff - 0.5 * floor)
    certify = h.dim > _RANGE_PROBE_STEPS and bound > 0.0
    empty, dense = certify and _norm_below(h, bound), None
    if not empty and h.dim <= _EXACT_RANGE_CAP:
        dense = h.materialize_dense()
        empty = certify and _two_sided_below(dense, bound)
    projected, weight = None, 0.0  # None: the step keeps nothing
    if empty:
        # proven empty: no eigensolve, no probe and no projector
        gap = max(2.0 * _RANGE_PAD * bound / params.N, floor)
        range_probe_matvecs = 0
    else:
        # stage 1, the range: the step's own eigensystem, or the probe
        eigensystem = probe = None
        if dense is not None:
            eigensystem = np.linalg.eigh(dense)  # eigenvalues ascending
            span = _RANGE_PAD * float(eigensystem[0][-1] - eigensystem[0][0])
            range_probe_matvecs = 0  # the range's eigensystem projects too
        else:
            span, probe = _spectral_range(h, state)
            range_probe_matvecs = h.matvec_count  # h is fresh: all of them went to the range
        gap = max(span / params.N, floor)
        mid = 0.5 * ((cutoff - gap) + cutoff)  # where every route cuts
        # stage 2, the projection: a probed step by Ritz above the dense limit
        if probe is not None and h.dim > cfg.dense_limit:
            projected, weight, _ = project_above(
                h, state, cutoff - gap, cutoff, method="ritz", tol=cfg.tol, probe=probe
            )
        elif probe is not None:
            dense = h.materialize_dense(dense_limit=cfg.dense_limit)
            eigensystem = None if _spectrum_below(dense, mid) else np.linalg.eigh(dense)
        if eigensystem is not None:
            amps, weight = _keep_above(*eigensystem, state.amps, mid)
            projected = StateVector(state.basis, amps)
    if projected is None:
        amps = np.zeros(h.dim, dtype=np.result_type(h.pair_weights, state.amps))
        projected = StateVector(state.basis, amps)
    statistic = weight * sym_weight**2 if cfg.use_symmetrize else weight
    return ProjectionOutcome(
        statistic=float(statistic),
        proj_weight=float(weight),
        cutoff=float(cutoff),
        e_lower=float(cutoff - gap),
        projected=projected,
        input_state=state,
        pair=pair,
        matvec_count=h.matvec_count,
        range_probe_matvecs=range_probe_matvecs,
    )


def _filtered_statistic(
    pair: DecorrelatedPair,
    params: ModelParams,
    cfg: DetectionConfig,
    n_bos: int | None = None,
) -> ProjectionOutcome:
    """Embed the power input state of t_minus and filter it above the cutoff."""
    n = params.n_bos if n_bos is None else n_bos
    state, pre_norm = embed_power_state(build_basis(params.N, n), pair.t_minus)
    sym_weight = pre_norm / pair.t_minus.norm() ** (n // 4)
    return _project_step(pair, state, sym_weight, params, cfg)


def projection_statistic(
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig,
    seed: int | None = None,
    pair: DecorrelatedPair | None = None,
) -> ProjectionOutcome:
    """Shared statistic of the projection detector and quantum simulators."""
    params.require_input_state()
    if seed is None:
        seed = params.seed
    if pair is None:
        pair = _make_pair(t0, params, cfg, derived_rng(seed, "decorrelate"))
    return _filtered_statistic(pair, params, cfg)


def _projection_report(
    algorithm: str,
    measure,
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig | None,
    seed: int | None,
    pair: DecorrelatedPair | None,
) -> DetectionReport:
    """The report of one projection detector.

    measure(statistic, threshold, cfg, seed) turns the filtered statistic
    into (verdict, projector applications, detector-specific report fields).
    p_threshold returns 0 when the route carries no signal; the simulated
    measurements are then never made.
    """
    cfg = cfg or DetectionConfig()
    if seed is None:
        seed = params.seed
    outcome = projection_statistic(t0, params, cfg, seed=seed, pair=pair)
    thr = p_threshold(params, cfg)
    verdict, applications, extra = measure(outcome.statistic, thr, cfg, seed)
    return DetectionReport(
        algorithm=algorithm,
        verdict=verdict,
        statistic=outcome.statistic,
        threshold=thr,
        cutoff_energy=outcome.cutoff,
        seed=int(seed),
        params=_params_echo(params),
        config=_fields_dict(cfg),
        separation=outcome.statistic / thr if thr else None,
        query_counts={
            "matvec": outcome.matvec_count,
            "range_probe": outcome.range_probe_matvecs,
            "projector_applications": applications,
        },
        state=outcome.projected,
        pair=outcome.pair,
        **extra,
    )


def _threshold_measure(statistic: float, thr: float, cfg: DetectionConfig, seed: int):
    return _verdict(statistic, thr), 1, {"trials_used": 1}


def detect_projection(
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig | None = None,
    seed: int | None = None,
    pair: DecorrelatedPair | None = None,
) -> DetectionReport:
    """Accelerated classical detection: filtered weight of the chosen
    input state against the success threshold."""
    return _projection_report("projection", _threshold_measure, t0, params, cfg, seed, pair)


# ---------------------------------------------------------------------------
# Simulated quantum variants
# ---------------------------------------------------------------------------


def repeated_measurement(p: float, budget: int, rng: np.random.Generator) -> tuple[bool, int]:
    """Bernoulli(p) draws until the first success or the budget runs out.

    Returns (succeeded, trials_used).
    """
    for i in range(budget):
        if rng.random() < p:
            return True, i + 1
    return False, budget


def amplification_rounds(p_target: float) -> int:
    """Amplitude-amplification round count targeting success level p_target."""
    if not 0.0 < p_target <= 1.0:
        raise InvalidParameterError(f"p_target must be in (0, 1], got {p_target}")
    return int(ceil(pi / (4.0 * asin(sqrt(p_target)))))


def boosted_probability(p: float, rounds: int) -> float:
    """Success probability after the given number of amplification rounds."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    theta = asin(sqrt(p))
    return sin((2 * rounds + 1) * theta) ** 2


def _repeated_measure(statistic: float, thr: float, cfg: DetectionConfig, seed: int):
    budget = int(ceil(cfg.c_doubleprime / thr)) if thr else 0
    rng = derived_rng(seed, "measurement")
    success, trials = repeated_measurement(min(statistic, 1.0), budget, rng)
    extra = dict(trials_used=trials, verdict_source="sampled")
    return ("spiked" if success else "unspiked"), trials, extra


def _amplified_measure(statistic: float, thr: float, cfg: DetectionConfig, seed: int):
    rounds = amplification_rounds(thr) if thr else 0
    boosted = boosted_probability(min(statistic, 1.0), rounds) if rounds else 0.0
    success = derived_rng(seed, "measurement").random() < boosted
    extra = dict(amplification_rounds=rounds, boosted_probability=boosted, verdict_source="sampled")
    return ("spiked" if success else "unspiked"), rounds, extra


def simulate_quantum_unamplified(
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig | None = None,
    seed: int | None = None,
    pair: DecorrelatedPair | None = None,
) -> DetectionReport:
    """Repeated projective measurement with a c''/P_> retry budget."""
    return _projection_report(
        "quantum-unamplified", _repeated_measure, t0, params, cfg, seed, pair
    )


def simulate_quantum_amplified(
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig | None = None,
    seed: int | None = None,
    pair: DecorrelatedPair | None = None,
) -> DetectionReport:
    """Amplitude-amplified projective measurement.

    The round count targets the success threshold, the boosted success
    probability follows the closed-form amplification curve at the exact
    statistic, and one Bernoulli draw decides the verdict.  Rounds are the
    query cost.
    """
    return _projection_report(
        "quantum-amplified", _amplified_measure, t0, params, cfg, seed, pair
    )


# the detectors by method name; each takes (t0, params, cfg=None, seed=None)
DETECTORS = {
    "spectral": detect_spectral,
    "projection": detect_projection,
    "q-unamp": simulate_quantum_unamplified,
    "q-amp": simulate_quantum_amplified,
}


# ---------------------------------------------------------------------------
# Multistep cascade
# ---------------------------------------------------------------------------


def _split_size(n: int) -> tuple[int, int]:
    if n % 4 != 0 or n < 8:
        raise InvalidParameterError(f"cannot split a subsystem of {n} bosons")
    if n % 8 == 0:
        return (n // 2, n // 2)
    return ((n + 4) // 2, (n - 4) // 2)  # larger half first


def multistep_levels(n_bos: int, k: int) -> tuple:
    """Subsystem boson counts at each depth of k halvings, level 0 being the
    full system: multistep_levels(16, 2) == ((16,), (8, 8), (4, 4, 4, 4)).
    Every size is a multiple of 4, and sibling sizes are equal or differ
    by four."""
    if k < 0:
        raise InvalidParameterError(f"k must be nonnegative, got {k}")
    levels = [(n_bos,)]
    for _ in range(k):
        levels.append(tuple(half for size in levels[-1] for half in _split_size(size)))
    return tuple(levels)


@dataclass
class MultistepReport:
    """Cascade outcome: per-level conditional success probabilities p_j,
    unconditioned unspiked probabilities q_j, the survival-chain product
    to compare against q_j[0], and the unit-query cost estimate, over the
    subsystem sizes of multistep_levels.  row() is the serialized
    summary."""

    verdict: str
    statistic: float
    threshold: float
    p_j: tuple
    q_j: tuple
    chain_product: float
    cost_estimate: float
    p_threshold: float
    level_sizes: tuple
    seed: int

    @property
    def spiked(self) -> bool:
        return self.verdict == "spiked"

    def row(self) -> dict:
        """The serialized summary of the cascade."""
        return {
            "algorithm": f"multistep-k{len(self.level_sizes) - 1}",
            "verdict": self.verdict,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "seed": self.seed,
            "cost_estimate": self.cost_estimate,
            "chain_product": self.chain_product,
            "q_j": list(self.q_j),
        }


def multistep_q_j(params: ModelParams, cfg: DetectionConfig, seed: int, k: int) -> tuple:
    """The cascade's unconditioned unspiked success probabilities q_j: at
    every level of multistep_levels(params.n_bos, k), the filtered
    statistic of a fresh unspiked draw per subsystem, drawn from seed and
    the subsystem's place, never from the cascaded instance."""
    q_j = []
    for j, level in enumerate(multistep_levels(params.n_bos, k)):
        qs = []
        for idx, size in enumerate(level):
            rng_q = derived_rng(seed, f"multistep-unspiked-{j}", idx)
            g = sample_gaussian_tensor(params.N, rng_q, ensemble=params.ensemble)
            unsp = SpikedTensor(tensor=g, lam=0.0)
            pair_q = _make_pair(unsp, params, cfg, rng_q)
            qs.append(_filtered_statistic(pair_q, params, cfg, n_bos=size).statistic)
        # one scalar per level: geometric mean over subsystems (equal for
        # equal-size halves, which is the tested configuration)
        q_j.append(float(np.exp(np.mean(np.log(np.maximum(qs, 1e-300))))))
    return tuple(q_j)


def multistep_run(
    t0: SpikedTensor,
    params: ModelParams,
    cfg: DetectionConfig | None = None,
    seed: int | None = None,
    k: int = 0,
    pair: DecorrelatedPair | None = None,
    q_j: tuple | None = None,
) -> MultistepReport:
    """Run the cascade bottom-up.

    Every level prepares its state and applies the level projector: leaves
    embed the power input state at their size, internal levels take the
    symmetrized product of their two children.  p_j records the projection
    success probability at each level (conditional on the children), q_j
    the unconditioned success of a fresh unspiked draw at the same size.
    The final verdict compares the level-0 conditional statistic to the
    threshold adjusted for survival of the deeper levels.  A subsystem
    whose projected state is annihilated leaves p = 0 to each of its
    ancestors; the other subsystems are computed as usual.

    A subsystem is fixed by its size and the number of levels below it:
    equal ones run the same computation (same pair, seed and basis), so
    each distinct subsystem is computed once: k=1 at n_bos=8 takes 5
    projection steps, not 6.  A per-cascade query count should count a
    shared subsystem once.
    The q_j draws are independent per subsystem and never shared.  They
    do not depend on t0, so a caller that cascades several instances under
    one seed can pass the q_j of an earlier report (or of multistep_q_j)
    instead of computing them again.
    """
    cfg = cfg or DetectionConfig()
    params.require_input_state()
    if seed is None:
        seed = params.seed
    level_sizes = multistep_levels(params.n_bos, k)
    if pair is None:
        pair = _make_pair(t0, params, cfg, derived_rng(seed, "decorrelate"))

    @cache
    def subsystem(size: int, below: int) -> tuple[float, StateVector | None]:
        """(statistic, normalized projected state or None if annihilated) of
        the subsystem of `size` bosons with `below` levels under it: a leaf
        embeds the power input state, an internal one merges its children."""
        if below == 0:
            out = _filtered_statistic(pair, params, cfg, n_bos=size)
        else:
            children = [subsystem(half, below - 1)[1] for half in _split_size(size)]
            if any(state is None for state in children):
                return 0.0, None
            merged, w_merge = symmetrized_product(*children)
            out = _project_step(pair, merged, w_merge, params, cfg)
        return out.statistic, out.projected.normalized() if out.proj_weight > 0.0 else None

    p_j = [[subsystem(size, k - j)[0] for size in level] for j, level in enumerate(level_sizes)]
    # subsystem reaches itself through its closure; breaking that cycle
    # frees its cache now rather than at the next full garbage collection
    del subsystem

    if q_j is None:
        q_j = multistep_q_j(params, cfg, seed, k)
    elif len(q_j) != len(level_sizes):
        raise InvalidParameterError(f"need one q_j per level ({len(level_sizes)}), got {len(q_j)}")

    chain_product = float(np.prod([np.prod(level) for level in p_j]))

    base_threshold = p_threshold(params, cfg)
    survival_below = float(np.prod([np.prod(level) for level in p_j[1:]]))
    tiny = np.finfo(float).tiny
    threshold = base_threshold / max(survival_below, tiny)
    statistic = p_j[0][0]
    verdict = _verdict(statistic, threshold)

    cost = sqrt(1.0 / max(base_threshold, tiny))
    for q in q_j[1:]:
        cost *= sqrt(1.0 / max(q, tiny))

    return MultistepReport(
        verdict=verdict,
        statistic=float(statistic),
        threshold=float(threshold),
        p_j=tuple(tuple(level) for level in p_j),
        q_j=tuple(q_j),
        chain_product=chain_product,
        cost_estimate=float(cost),
        p_threshold=float(base_threshold),
        level_sizes=level_sizes,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Cost exponents
# ---------------------------------------------------------------------------


@dataclass
class CostExponentTable:
    """log_N runtime exponents of the four algorithm families, as multiples
    of the boson count where the spiked and unspiked bounds cross."""

    nbos_eq: float
    ratios: dict
    exponents: dict
    measured: dict

    ORDER = ("original_classical", "accelerated_classical", "quantum_amplified", "quantum_multistep")


def cost_exponents(params: ModelParams, reports: list | None = None) -> CostExponentTable:
    """Theoretical exponent table plus measured query counts.

    `reports` holds serialized report rows, as the CLI logs them; the query
    counts are summed per algorithm, and error rows are skipped.
    """
    from fractions import Fraction  # imported here: it loads decimal, which only this table needs

    bounds = analytic_bounds(params)
    ratios = {
        "original_classical": Fraction(1, 1),
        "accelerated_classical": Fraction(1, 2),
        "quantum_amplified": Fraction(1, 8),
        "quantum_multistep": Fraction(1, 12),
    }
    exponents = {
        name: (float(r) * bounds.nbos_eq if np.isfinite(bounds.nbos_eq) else inf)
        for name, r in ratios.items()
    }
    measured = {}
    for row in reports or []:
        if "error" in row:
            continue
        agg = measured.setdefault(row.get("algorithm", "unknown"), {})
        for key, val in (row.get("query_counts") or {}).items():
            agg[key] = agg.get(key, 0) + int(val)
    return CostExponentTable(
        nbos_eq=bounds.nbos_eq, ratios=ratios, exponents=exponents, measured=measured
    )
