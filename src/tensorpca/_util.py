"""Shared plumbing: error types, seeded RNG streams, binomial tables and the
file codec shared by tensor files and state snapshots."""

from __future__ import annotations

import json
import zlib
from math import comb, log

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition."""


class CapacityError(RuntimeError):
    """A requested object exceeds the configured size limits."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the best estimate produced so far in ``best`` and, where the
    solver states it, the work it spent in ``iterations`` (Krylov steps, or
    the degree of a polynomial filter).
    """

    def __init__(self, message, best=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


# Default size limits.  All are overridable through function arguments;
# these values keep every desk-scale experiment comfortably in memory.
MAX_BASIS_DIM = 5_000_000
MAX_FULL_DIM = 1_000_000        # full-space state vectors (oracles)
DENSE_LIMIT = 4000              # dense symmetric-subspace matrices
FULL_DENSE_LIMIT = 4096         # dense full-space matrices
DENSE_TENSOR_LIMIT = 48         # N above which order-4 dense views are refused


def derived_rng(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Deterministic per-purpose RNG stream.

    Streams are derived from (seed, tag, index) so independent trials and
    independent operations never share state, regardless of execution order.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(tag.encode()), int(index)])
    )


def binom_table(n_modes: int, n_bos: int) -> np.ndarray:
    """Int64 array B[j, s] = C(j + s, j), j < n_modes, s <= n_bos: the
    number of ways to put s bosons in j + 1 modes.  Row j is the running
    sum of row j - 1.  Every entry is at most B[n_modes - 1, n_bos], the
    basis dimension, so none can overflow where the basis itself fits."""
    table = np.ones((n_modes, n_bos + 1), dtype=np.int64)
    for j in range(1, n_modes):
        np.cumsum(table[j - 1], out=table[j])
    return table


# Rational and asymptotic coefficients of cephes lgam (Moshier, Cephes Math
# Library), the routine behind scipy.special.gammaln
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """log Gamma(x) for x >= 1, operation for operation as cephes lgam, so
    the result matches scipy.special.gammaln bit for bit."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return log(z)
        x += p - 2.0
        num, den = _LGAM_B[0], x + _LGAM_C[0]
        for b, c in zip(_LGAM_B[1:], _LGAM_C[1:]):
            num, den = num * x + b, den * x + c
        return log(z) + x * num / den
    q = (x - 0.5) * log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, equal bit for bit to scipy.special.gammaln(k + 1)."""
    return np.array([_lgam(k + 1.0) for k in range(n + 1)])


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); zero whenever k > n >= 0."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def symmetric_dimension(n_modes: int, n_bos: int) -> int:
    """Number of occupation vectors: C(n_modes + n_bos - 1, n_bos)."""
    return comb(n_modes + n_bos - 1, n_bos)


# ---------------------------------------------------------------------------
# File codec: a JSON header plus one float64 or complex128 array; see FORMATS.md
# ---------------------------------------------------------------------------


def save_record(path, header: dict, key: str, values: np.ndarray, fmt: str) -> None:
    """Write header and values in the JSON or the binary layout.

    The header gains a "complex" flag.  The JSON variant stores the array
    under key (or key_re and key_im when complex) inside the header object;
    the binary variant writes the header on one line followed by the raw
    little-endian float64 values, real and imaginary parts interleaved when
    complex.
    """
    header = {**header, "complex": bool(np.iscomplexobj(values))}
    if fmt == "json":
        if header["complex"]:
            header[key + "_re"] = values.real.tolist()
            header[key + "_im"] = values.imag.tolist()
        else:
            header[key] = values.tolist()
        with open(path, "w") as fh:
            json.dump(header, fh, sort_keys=True, indent=1)
            fh.write("\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode())
            fh.write(b"\n")
            fh.write(values.astype("<c16" if header["complex"] else "<f8").tobytes())
    else:
        raise InvalidParameterError(f"unknown file format {fmt!r}")


def load_record(path, magic: str, key: str, fields: tuple) -> tuple[dict, np.ndarray]:
    """Read a file written by save_record: (header, values).

    The header must carry format == magic and every name in fields.  A
    file that cannot be read or is malformed -- not JSON, another format, a
    missing header field or array, or a binary payload that is not a whole
    number of values -- raises InvalidParameterError.
    """
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            rest = fh.read()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc.strerror}") from None
    try:
        # one line: the binary header, or a whole JSON file written compactly
        header, payload = json.loads(first), rest or None
    except ValueError:
        try:
            header, payload = json.loads(first + rest), None  # json variant: whole file
        except ValueError as exc:
            raise InvalidParameterError(f"{path} has no JSON header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != magic:
        raise InvalidParameterError(f"{path} is not a {magic} file")
    missing = [name for name in ("complex", *fields) if name not in header]
    if missing:
        raise InvalidParameterError(f"{path} header lacks {', '.join(missing)}")
    is_complex = bool(header["complex"])
    if payload is not None:
        dtype = np.dtype("<c16" if is_complex else "<f8")
        if len(payload) % dtype.itemsize:
            unit = "(re, im) pairs" if is_complex else "float64 values"
            raise InvalidParameterError(
                f"{path} payload of {len(payload)} bytes is not a whole number of {unit}"
            )
        return header, np.frombuffer(payload, dtype=dtype)
    try:
        if is_complex:
            re, im = np.array([header[key + "_re"], header[key + "_im"]], dtype=float)
            return header, re + 1j * im
        return header, np.asarray(header[key], dtype=float)
    except KeyError as exc:
        raise InvalidParameterError(f"{path} lacks the array {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{path} holds a malformed array: {exc}") from None
