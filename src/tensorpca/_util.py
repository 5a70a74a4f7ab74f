"""Shared plumbing: error types, seeded RNG streams, binomial tables and the
file codec shared by tensor files and state snapshots."""

from __future__ import annotations

import json
import zlib
from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition."""


class CapacityError(RuntimeError):
    """A requested object exceeds the configured size limits."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the best estimate produced so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


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
    independent operations never share state, regardless of execution order
    or thread scheduling.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(tag.encode()), int(index)])
    )


def run_trials(fn, n_trials: int, threads: int = 1) -> list:
    """Evaluate fn(i) for i in range(n_trials), optionally on a thread pool.

    Results are returned in trial order, so output is independent of the
    thread count as long as each trial derives its own RNG stream.
    """
    if threads <= 1 or n_trials <= 1:
        return [fn(i) for i in range(n_trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_trials)))


def binom_table(max_n: int) -> np.ndarray:
    """Pascal triangle as an int64 array B[a, b] = C(a, b), a, b <= max_n."""
    table = np.zeros((max_n + 1, max_n + 1), dtype=np.int64)
    for a in range(max_n + 1):
        table[a, 0] = 1
        for b in range(1, a + 1):
            table[a, b] = table[a - 1, b - 1] + table[a - 1, b]
    return table


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
    malformed file -- not JSON, another format, a missing header field or
    array, or a binary payload that is not a whole number of values --
    raises InvalidParameterError.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        rest = fh.read()
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
