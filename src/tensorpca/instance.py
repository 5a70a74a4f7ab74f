"""Problem instances: signal vectors, Gaussian noise tensors, spikes,
and the anti-correlated noise split (t_plus, t_minus).

Conventions fixed here:
  * signal vectors have norm sqrt(N) exactly;
  * Gaussian tensors are the average over all 24 index permutations of an
    i.i.d. unit-variance tensor ("average" convention, the permutation-
    symmetrized spiked Gaussian model of Hastings, arXiv:1907.12724), so
    the canonical entry for a sorted tuple has variance
    prod(multiplicities!) / 24;
  * the complex ensemble draws independent real and imaginary parts with
    variance 1/2 each.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from ._util import (
    InvalidParameterError,
    derived_rng,
    load_record,
    save_record,
    symmetric_dimension,
)
from .symtensor import SymmetricTensor4, layout, rank_one


@dataclass(frozen=True)
class ModelParams:
    """Model parameters shared by every algorithm.

    N: mode count; n_bos: boson count; lambda_bar: claimed signal
    strength; zeta: decorrelation strength (None means the 1/ln N rule);
    seed: base RNG seed.  The tensor order is always 4.
    """

    N: int
    n_bos: int
    lambda_bar: float = 0.0
    zeta: float | None = None
    seed: int = 0
    ensemble: str = "real"

    def __post_init__(self):
        if self.N < 1:
            raise InvalidParameterError(f"N must be >= 1, got {self.N}")
        if self.n_bos < 2:
            raise InvalidParameterError(f"n_bos must be >= 2, got {self.n_bos}")
        if self.lambda_bar < 0:
            raise InvalidParameterError("lambda_bar must be nonnegative")
        if self.zeta is not None and self.zeta <= 0:
            raise InvalidParameterError("zeta must be positive")
        if self.ensemble not in ("real", "complex"):
            raise InvalidParameterError(f"unknown ensemble {self.ensemble!r}")

    @property
    def effective_zeta(self) -> float:
        return self.zeta if self.zeta is not None else default_zeta(self.N)

    def require_input_state(self):
        """The power input state needs n_bos to be a multiple of 4."""
        if self.n_bos % 4 != 0:
            raise InvalidParameterError(
                f"input-state construction needs n_bos divisible by 4, got {self.n_bos}"
            )


@dataclass(frozen=True)
class SpikedTensor:
    """An order-4 instance tensor and the strength lam of its planted spike
    (0 for pure noise)."""

    tensor: SymmetricTensor4
    lam: float

    @property
    def provenance(self) -> str:
        return "spiked" if self.lam != 0.0 else "unspiked"

    @property
    def ensemble(self) -> str:
        return "complex" if self.tensor.is_complex else "real"


@dataclass(frozen=True)
class DecorrelatedPair:
    """The split (t_plus, t_minus) with anti-correlated injected noise."""

    t_plus: SymmetricTensor4
    t_minus: SymmetricTensor4
    zeta: float
    lambda_plus: float
    lambda_minus: float


def default_zeta(N: int) -> float:
    """Decorrelation strength rule 1/ln(N) (natural log)."""
    if N < 2:
        raise InvalidParameterError(f"the 1/ln(N) rule needs N >= 2, got N={N}")
    return 1.0 / log(N)


def sample_signal(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform vector on the radius-sqrt(N) sphere in R^N."""
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    v = rng.standard_normal(N)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # probability zero, but keep the contract airtight
        v = rng.standard_normal(N)
        norm = np.linalg.norm(v)
    return v / norm * np.sqrt(N)


def sample_gaussian_tensor(
    N: int, rng: np.random.Generator, ensemble: str = "real"
) -> SymmetricTensor4:
    """Symmetrized Gaussian noise tensor.

    Sampling happens directly in canonical storage: averaging an i.i.d.
    tensor over the 24 permutations makes the canonical entry for a sorted
    tuple with multiplicities c_i a Gaussian of variance prod(c_i!) / 24
    (the reciprocal of its orbit size), which is drawn in one shot.
    """
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    lay = layout(N)
    m = lay.size
    if ensemble == "real":
        vals = rng.standard_normal(m)
    elif ensemble == "complex":
        vals = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.sqrt(0.5)
    else:
        raise InvalidParameterError(f"unknown ensemble {ensemble!r}")
    return SymmetricTensor4(N, vals / lay.orbit_roots)


def noise_power_per_entry(N: int) -> float:
    """Mean squared Frobenius norm of the noise tensor divided by N^4.

    This is the s-parameter entering the projection success threshold.
    Each canonical entry fills its whole orbit with variance 1/(orbit
    size), so it adds 1 to the squared norm, and the power is (number of
    canonical entries)/N^4.
    """
    return symmetric_dimension(N, 4) / float(N) ** 4


def make_spiked(lam: float, v: np.ndarray, g: SymmetricTensor4) -> SpikedTensor:
    """T = lam * v^{x4} + g, stored canonically."""
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_modes,):
        raise InvalidParameterError(
            f"signal length {v.shape} does not match tensor modes {g.n_modes}"
        )
    tensor = g if lam == 0.0 else rank_one(v) * lam + g
    return SpikedTensor(tensor=tensor, lam=lam)


def sample_instance(
    params: ModelParams, spiked: bool, rng: np.random.Generator | None = None
) -> tuple[SpikedTensor, np.ndarray]:
    """Draw (instance tensor, signal vector) for the given parameters.

    The signal vector is returned even in the unspiked case so that
    experiments can score recovery against the direction that would have
    been planted.
    """
    if rng is None:
        rng = derived_rng(params.seed, "instance")
    v = sample_signal(params.N, rng)
    g = sample_gaussian_tensor(params.N, rng, ensemble=params.ensemble)
    lam = params.lambda_bar if spiked else 0.0
    return make_spiked(lam, v, g), v


def decorrelate(
    t0: SpikedTensor | SymmetricTensor4,
    zeta: float,
    rng: np.random.Generator | None = None,
    add_imaginary: bool = False,
    g_prime: SymmetricTensor4 | None = None,
) -> DecorrelatedPair:
    """Split t0 into (t_plus, t_minus) with anti-correlated extra noise.

    t_plus = (t0 + zeta * g') / sqrt(1 + zeta^2)
    t_minus = (t0 - g'/zeta) / sqrt(1 + zeta^2)

    where g' is fresh noise from the same distribution as the instance
    noise (injectable through g_prime for oracle tests).  The effective
    signal strengths lambda_pm = lam * (1 + zeta^{+-2})^{-1/2} are recorded;
    they are measured against unit-variance noise, so the overall 1/zeta
    scale sitting on t_minus is immaterial once states are normalized.

    With add_imaginary=True an independent imaginary tensor is added to
    t_minus so its noise matches the complex ensemble shape (equal and
    independent real and imaginary noise parts).
    """
    if zeta <= 0:
        raise InvalidParameterError(f"zeta must be positive, got {zeta}")
    if isinstance(t0, SpikedTensor):
        tensor, lam = t0.tensor, t0.lam
    else:
        tensor, lam = t0, 0.0
    if g_prime is None:
        if rng is None:
            raise InvalidParameterError("decorrelate needs an rng when g_prime is not given")
        g_prime = sample_gaussian_tensor(tensor.n_modes, rng)
    elif g_prime.n_modes != tensor.n_modes:
        raise InvalidParameterError("g_prime mode count does not match the instance")

    scale = 1.0 / np.sqrt(1.0 + zeta**2)
    t_plus = (tensor + zeta * g_prime) * scale
    t_minus = (tensor - (1.0 / zeta) * g_prime) * scale
    if add_imaginary:
        if rng is None:
            raise InvalidParameterError("add_imaginary needs an rng")
        extra = sample_gaussian_tensor(tensor.n_modes, rng)
        # match the real-noise power of t_minus, which is (1 + zeta^-2) in
        # base-noise units before the overall 1/sqrt(1+zeta^2)
        amp = np.sqrt(1.0 + zeta**-2) * scale
        t_minus = SymmetricTensor4(tensor.n_modes, t_minus.values + 1j * amp * extra.values)
    lam_plus, lam_minus = lambda_effective(lam, zeta)
    return DecorrelatedPair(
        t_plus=t_plus, t_minus=t_minus, zeta=zeta, lambda_plus=lam_plus, lambda_minus=lam_minus
    )


def lambda_effective(lambda_bar: float, zeta: float) -> tuple[float, float]:
    """Claimed-signal analogues (lambda_bar_plus, lambda_bar_minus)."""
    return (
        lambda_bar * (1.0 + zeta**2) ** -0.5,
        lambda_bar * (1.0 + zeta**-2) ** -0.5,
    )


# ---------------------------------------------------------------------------
# Tensor file format: JSON header plus canonical entries; see FORMATS.md.
# ---------------------------------------------------------------------------

_MAGIC = "tensorpca/tensor-v1"


def save_tensor(path, spiked: SpikedTensor, fmt: str = "json") -> None:
    header = {
        "format": _MAGIC,
        "N": spiked.tensor.n_modes,
        "p": 4,
        "ensemble": spiked.ensemble,
        "layout": "sorted-tuples",
        "lambda": spiked.lam,
        "provenance": spiked.provenance,
    }
    save_record(path, header, "entries", spiked.tensor.values, fmt)


def load_tensor(path) -> SpikedTensor:
    """Read a tensor file; a provenance that contradicts its lambda, or an
    ensemble that contradicts its complex flag, is malformed."""
    header, vals = load_record(path, _MAGIC, "entries", ("N", "lambda", "provenance"))
    spiked = SpikedTensor(tensor=SymmetricTensor4(header["N"], vals), lam=header["lambda"])
    for name in ("provenance", "ensemble"):
        derived = getattr(spiked, name)
        if header.get(name, derived) != derived:
            raise InvalidParameterError(
                f"{path}: {name} {header[name]!r} contradicts the header's lambda and complex flag"
            )
    return spiked
