"""Occupation-number basis of the bosonic symmetric subspace and state
vectors over it.

The symmetric subspace of (C^N)^{x n_bos} is indexed by occupation
vectors: length-N nonnegative integer vectors summing to n_bos.  States
are enumerated in colexicographic order (sorted by the last mode's
occupancy, then the second-to-last, and so on), which makes ranking an
O(N) prefix-sum formula.

The orthonormal occupation basis state for occupation n corresponds in
the full space to the normalized average of the |S_n| = n_bos!/prod(n_mu!)
distinct mode sequences with that content; a symmetric full-space vector
with per-sequence amplitude c_n therefore has occupation amplitude
sqrt(|S_n|) * c_n.  Oracles for that isometry and a brute-force
permutation symmetrizer live at the bottom of the module.

lowering_map caches, per basis, the sparse maps that remove one boson
(a_mu, used by the density matrix) or a pair (a_rho a_sigma, the factor
the operator H(T) is applied through).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from ._util import (
    MAX_BASIS_DIM,
    MAX_FULL_DIM,
    CapacityError,
    InvalidParameterError,
    binom_table,
    symmetric_dimension,
)
from .symtensor import SymmetricTensor4, layout


class OccupationBasis:
    """Colex-ordered index of occupation vectors for (N, n_bos)."""

    def __init__(self, n_modes: int, n_bos: int, max_dim: int = MAX_BASIS_DIM):
        if n_modes < 1:
            raise InvalidParameterError(f"need at least one mode, got N={n_modes}")
        if n_bos < 0:
            raise InvalidParameterError(f"boson count must be nonnegative, got {n_bos}")
        dim = symmetric_dimension(n_modes, n_bos)
        if dim > max_dim:
            raise CapacityError(
                f"basis for N={n_modes}, n_bos={n_bos} has dimension {dim} > limit {max_dim}"
            )
        self.n_modes = n_modes
        self.n_bos = n_bos
        self.dim = dim
        self._binom = binom_table(n_modes + n_bos + 1)
        self.states = _enumerate_colex(n_modes, n_bos)
        self._log_seq_count = None

    # -- ranking --------------------------------------------------------
    def rank(self, occ) -> int:
        occ = np.asarray(occ, dtype=np.int64)
        self._validate_occ(occ)
        return int(self.rank_array(occ[None, :])[0])

    def rank_array(self, occs: np.ndarray) -> np.ndarray:
        """Vectorized colex rank of rows of a (M, N) occupation array."""
        occs = np.asarray(occs, dtype=np.int64)
        if self.n_modes == 1:
            return np.zeros(occs.shape[0], dtype=np.int64)
        pre = np.cumsum(occs, axis=1)
        j = np.arange(1, self.n_modes)
        hi = self._binom[j + pre[:, 1:], j]
        lo = self._binom[j + pre[:, :-1], j]
        return np.sum(hi - lo, axis=1)

    def unrank(self, index: int) -> np.ndarray:
        if not 0 <= index < self.dim:
            raise InvalidParameterError(f"index {index} outside [0, {self.dim})")
        occ = np.zeros(self.n_modes, dtype=np.int64)
        remaining = int(index)
        s = self.n_bos
        for j in range(self.n_modes - 1, 0, -1):
            m = 0
            while True:
                block = int(self._binom[j - 1 + s - m, s - m])
                if remaining < block:
                    break
                remaining -= block
                m += 1
            occ[j] = m
            s -= m
        occ[0] = s
        return occ

    def _validate_occ(self, occ: np.ndarray):
        if occ.shape != (self.n_modes,) or np.any(occ < 0) or occ.sum() != self.n_bos:
            raise InvalidParameterError(
                f"malformed occupation vector {occ!r} for N={self.n_modes}, n_bos={self.n_bos}"
            )

    @property
    def log_seq_count(self) -> np.ndarray:
        """log |S_n| per basis state, |S_n| = n_bos!/prod(n_mu!)."""
        if self._log_seq_count is None:
            self._log_seq_count = gammaln(self.n_bos + 1) - np.sum(
                gammaln(self.states + 1.0), axis=1
            )
        return self._log_seq_count

    def same_space(self, other: "OccupationBasis") -> bool:
        return self.n_modes == other.n_modes and self.n_bos == other.n_bos

    def __repr__(self):
        return f"OccupationBasis(N={self.n_modes}, n_bos={self.n_bos}, dim={self.dim})"


def _enumerate_colex(n_modes: int, n_bos: int) -> np.ndarray:
    if n_modes == 1:
        return np.array([[n_bos]], dtype=np.int32)
    blocks = []
    for m in range(n_bos + 1):
        inner = _enumerate_colex(n_modes - 1, n_bos - m)
        col = np.full((inner.shape[0], 1), m, dtype=np.int32)
        blocks.append(np.hstack([inner, col]))
    return np.vstack(blocks)


_BASIS_CACHE: dict[tuple[int, int], OccupationBasis] = {}


def build_basis(n_modes: int, n_bos: int, max_dim: int = MAX_BASIS_DIM) -> OccupationBasis:
    """Construct (and memoize) the occupation basis for (N, n_bos)."""
    key = (n_modes, n_bos)
    basis = _BASIS_CACHE.get(key)
    if basis is None or basis.dim > max_dim:
        basis = OccupationBasis(n_modes, n_bos, max_dim=max_dim)
        _BASIS_CACHE[key] = basis
    return basis


_LOWERING_CACHE: dict[tuple[int, int, int], sp.csr_matrix] = {}


def lowering_map(basis: OccupationBasis, bosons: int) -> sp.csr_matrix:
    """Memoized stack of the maps that remove one or two bosons from basis.

    bosons=1: an (N*D1, D) CSR whose row block mu is a_mu onto the
    (n_bos-1)-boson basis of dimension D1.  bosons=2: a (P*D2, D) CSR whose
    row block p is a_rho a_sigma onto the (n_bos-2)-boson basis, for the
    P = N(N+1)/2 mode pairs (rho, sigma) in np.triu_indices(N) order; it is
    composed from the bosons=1 maps.  Every lowered state has exactly one
    source, so each row holds one entry and the transpose raises bosons
    back.  With fewer than `bosons` bosons the map has no rows.  Keyed by
    (N, n_bos) like build_basis.
    """
    if bosons not in (1, 2):
        raise InvalidParameterError(f"lowering maps remove 1 or 2 bosons, not {bosons}")
    n_modes, n_bos = basis.n_modes, basis.n_bos
    key = (n_modes, n_bos, bosons)
    lowering = _LOWERING_CACHE.get(key)
    if lowering is not None:
        return lowering
    if n_bos < bosons:
        sources = np.zeros(0, dtype=np.int64)
        coefs = np.zeros(0)
    elif bosons == 1:
        # row (mu, r) reads the state with one more boson in mu than state r below
        occ = build_basis(n_modes, n_bos - 1).states.astype(np.int64)
        source_blocks, coef_blocks = [], []
        for mu in range(n_modes):
            occ[:, mu] += 1
            source_blocks.append(basis.rank_array(occ))
            coef_blocks.append(np.sqrt(occ[:, mu]))
            occ[:, mu] -= 1
        sources = np.concatenate(source_blocks)
        coefs = np.concatenate(coef_blocks)
    else:
        first = lowering_map(basis, 1)  # a_sigma: n_bos -> n_bos - 1
        second = lowering_map(build_basis(n_modes, n_bos - 1), 1)  # a_rho: -> n_bos - 2
        rho, sigma = np.triu_indices(n_modes)
        mid = second.indices.reshape(n_modes, -1)[rho]
        sources = first.indices.reshape(n_modes, -1)[sigma[:, None], mid].ravel()
        coefs = (
            second.data.reshape(n_modes, -1)[rho]
            * first.data.reshape(n_modes, -1)[sigma[:, None], mid]
        ).ravel()
    lowering = sp.csr_matrix(
        (coefs, sources, np.arange(sources.size + 1)), shape=(sources.size, basis.dim)
    )
    _LOWERING_CACHE[key] = lowering
    return lowering


class StateVector:
    """Amplitude vector over an occupation basis.

    Amplitudes stay float64 whenever the state is real (the common case:
    states built from real tensors) and complex128 otherwise.
    """

    __slots__ = ("basis", "amps")

    def __init__(self, basis: OccupationBasis, amps: np.ndarray):
        amps = np.asarray(amps)
        if amps.shape != (basis.dim,):
            raise InvalidParameterError(
                f"amplitude vector has shape {amps.shape}, basis dimension is {basis.dim}"
            )
        if not np.all(np.isfinite(amps)):
            raise InvalidParameterError("amplitudes must be finite")
        dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
        self.basis = basis
        self.amps = amps.astype(dtype, copy=True)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise InvalidParameterError("cannot normalize the zero state")
        return StateVector(self.basis, self.amps / n)

    def inner(self, other: "StateVector") -> complex:
        if not self.basis.same_space(other.basis):
            raise InvalidParameterError("inner product between different bases")
        val = np.vdot(self.amps, other.amps)
        if np.iscomplexobj(self.amps) or np.iscomplexobj(other.amps):
            return complex(val)
        return float(val.real) if np.iscomplexobj(val) else float(val)

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amps)

    def __repr__(self):
        return f"StateVector({self.basis!r}, norm={self.norm():.6g})"


def inner(x: StateVector, y: StateVector) -> complex:
    return x.inner(y)


def norm(x: StateVector) -> float:
    return x.norm()


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


def embed_product_state(basis: OccupationBasis, v: np.ndarray) -> StateVector:
    """Normalized n_bos-fold product state of the single-particle vector v.

    The occupation-n amplitude is sqrt(n_bos!/prod(n_mu!)) * prod(v_mu^n_mu),
    scaled by |v|^{-n_bos}; the result has unit norm by the multinomial
    theorem.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.n_modes,):
        raise InvalidParameterError(
            f"vector length {v.shape} does not match mode count {basis.n_modes}"
        )
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        raise InvalidParameterError("cannot embed the zero vector")
    u = v / vnorm
    with np.errstate(divide="ignore", invalid="ignore"):
        prods = np.prod(np.power(u[None, :], basis.states), axis=1)
    amps = np.exp(0.5 * basis.log_seq_count) * prods
    return StateVector(basis, amps)


def tensor_occupation_amplitudes(t: SymmetricTensor4) -> StateVector:
    """|T> as a raw (unnormalized) state on 4 bosons in occupation coordinates.

    The amplitude on the occupation with mode multiset {i,j,k,l} is
    sqrt(|S|) * T_{ijkl} with |S| the number of distinct orderings.
    """
    n = t.n_modes
    basis4 = build_basis(n, 4)
    lay = layout(n)
    occs = np.zeros((len(lay.tuples), n), dtype=np.int64)
    rows = np.repeat(np.arange(len(lay.tuples)), 4)
    np.add.at(occs, (rows, lay.tuples_array.ravel()), 1)
    ranks = basis4.rank_array(occs)
    amps = np.zeros(basis4.dim, dtype=t.values.dtype)
    amps[ranks] = np.sqrt(lay.orbit_sizes) * t.values
    return StateVector(basis4, amps)


def _convolve_raw(x: StateVector, y: StateVector, out_basis: OccupationBasis) -> StateVector:
    """Raw occupation amplitudes of the symmetric projection of x (x) y.

    Inputs are occupation-coordinate vectors on n_a and n_b bosons; the
    output lives on n_a + n_b bosons.  The weight for merging occupations
    m_a + m_b = n is sqrt(|S_{m_a}| |S_{m_b}| / |S_n|).
    """
    ba, bb = x.basis, y.basis
    if ba.n_modes != bb.n_modes or ba.n_modes != out_basis.n_modes:
        raise InvalidParameterError("mode counts differ in symmetrized product")
    if ba.n_bos + bb.n_bos != out_basis.n_bos:
        raise InvalidParameterError("boson counts do not add up in symmetrized product")
    ia, ib = np.meshgrid(np.arange(ba.dim), np.arange(bb.dim), indexing="ij")
    ia, ib = ia.ravel(), ib.ravel()
    target_occ = ba.states[ia].astype(np.int64) + bb.states[ib].astype(np.int64)
    ranks = out_basis.rank_array(target_occ)
    log_w = 0.5 * (
        ba.log_seq_count[ia] + bb.log_seq_count[ib] - out_basis.log_seq_count[ranks]
    )
    contrib = x.amps[ia] * y.amps[ib] * np.exp(log_w)
    if np.iscomplexobj(contrib):
        amps = np.bincount(ranks, weights=contrib.real, minlength=out_basis.dim) + 1j * np.bincount(
            ranks, weights=contrib.imag, minlength=out_basis.dim
        )
    else:
        amps = np.bincount(ranks, weights=contrib, minlength=out_basis.dim)
    return StateVector(out_basis, amps)


def symmetrized_product(x: StateVector, y: StateVector) -> tuple[StateVector, float]:
    """Symmetric projection of the tensor product of two normalized states.

    Returns the normalized merged state and the projection weight
    w = |Pi_symm (x (x) y)| in (0, 1].
    """
    out_basis = build_basis(x.basis.n_modes, x.basis.n_bos + y.basis.n_bos)
    raw = _convolve_raw(x, y, out_basis)
    w = raw.norm()
    if w == 0.0:
        raise InvalidParameterError("symmetrized product vanished")
    return StateVector(out_basis, raw.amps / w), float(w)


def embed_power_state(
    basis: OccupationBasis, t: SymmetricTensor4, k: int | None = None
) -> tuple[StateVector, float]:
    """Normalized symmetric projection of the k-fold tensor power of |T>.

    Returns (state, pre_norm) where pre_norm = |Pi_symm |T>^{(x)k}| is the
    norm of the raw projected amplitudes before normalization (the
    symmetric projector shrinks the state, and callers need that weight).
    """
    if basis.n_bos % 4 != 0:
        raise InvalidParameterError(f"power state needs n_bos divisible by 4, got {basis.n_bos}")
    if k is None:
        k = basis.n_bos // 4
    if 4 * k != basis.n_bos:
        raise InvalidParameterError(f"k={k} inconsistent with n_bos={basis.n_bos}")
    if t.n_modes != basis.n_modes:
        raise InvalidParameterError("tensor mode count does not match basis")
    if t.norm() == 0.0:
        raise InvalidParameterError("cannot embed the zero tensor")
    block = tensor_occupation_amplitudes(t)
    raw = block
    for j in range(1, k):
        raw = _convolve_raw(raw, block, build_basis(basis.n_modes, 4 * (j + 1)))
    pre_norm = raw.norm()
    return StateVector(basis, raw.amps / pre_norm), float(pre_norm)


# ---------------------------------------------------------------------------
# Full-space oracles (brute force; small sizes only)
# ---------------------------------------------------------------------------


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
    from itertools import permutations

    tensor = vec.amps.reshape((n,) * nb)
    acc = np.zeros_like(tensor, dtype=np.result_type(tensor, np.float64))
    count = 0
    for perm in permutations(range(nb)):
        acc += np.transpose(tensor, perm)
        count += 1
    return FullSpaceVector(n, nb, (acc / count).reshape(-1))


def full_space_sequences(n_modes: int, n_bos: int) -> np.ndarray:
    """(N^n_bos, n_bos) array: row f holds the mode sequence of flat index f."""
    full_dim = n_modes**n_bos
    if full_dim > MAX_FULL_DIM:
        raise CapacityError(f"full space of dimension {full_dim} exceeds {MAX_FULL_DIM}")
    flat = np.arange(full_dim)
    powers = n_modes ** np.arange(n_bos - 1, -1, -1)
    return (flat[:, None] // powers) % n_modes


def full_to_occupation(vec: FullSpaceVector, basis: OccupationBasis) -> StateVector:
    """Components of a full-space vector on the occupation basis.

    For occupation n the component is |S_n|^{-1/2} times the sum of the
    amplitudes over all sequences with content n (this is <n|psi> and does
    not require psi to be symmetric).
    """
    if basis.n_modes != vec.n_modes or basis.n_bos != vec.n_bos:
        raise InvalidParameterError("basis does not match the full-space vector")
    seqs = full_space_sequences(vec.n_modes, vec.n_bos)
    occs = np.zeros((seqs.shape[0], vec.n_modes), dtype=np.int64)
    rows = np.repeat(np.arange(seqs.shape[0]), vec.n_bos)
    np.add.at(occs, (rows, seqs.ravel()), 1)
    ranks = basis.rank_array(occs)
    if np.iscomplexobj(vec.amps):
        sums = np.bincount(ranks, weights=vec.amps.real, minlength=basis.dim) + 1j * np.bincount(
            ranks, weights=vec.amps.imag, minlength=basis.dim
        )
    else:
        sums = np.bincount(ranks, weights=vec.amps, minlength=basis.dim)
    return StateVector(basis, sums * np.exp(-0.5 * basis.log_seq_count))


def occupation_to_full(state: StateVector) -> FullSpaceVector:
    """Isometric embedding of an occupation-basis state into the full space."""
    basis = state.basis
    seqs = full_space_sequences(basis.n_modes, basis.n_bos)
    occs = np.zeros((seqs.shape[0], basis.n_modes), dtype=np.int64)
    rows = np.repeat(np.arange(seqs.shape[0]), basis.n_bos)
    np.add.at(occs, (rows, seqs.ravel()), 1)
    ranks = basis.rank_array(occs)
    amps = state.amps[ranks] * np.exp(-0.5 * basis.log_seq_count[ranks])
    return FullSpaceVector(basis.n_modes, basis.n_bos, amps)


# ---------------------------------------------------------------------------
# State snapshots; see FORMATS.md
# ---------------------------------------------------------------------------

_MAGIC = "tensorpca/state-v1"


def save_state(path, state: StateVector, fmt: str = "json") -> None:
    header = {
        "format": _MAGIC,
        "N": state.basis.n_modes,
        "n_bos": state.basis.n_bos,
        "ordering": "colex",
        "complex": bool(np.iscomplexobj(state.amps)),
    }
    if fmt == "json":
        if header["complex"]:
            header["amps_re"] = state.amps.real.tolist()
            header["amps_im"] = state.amps.imag.tolist()
        else:
            header["amps"] = state.amps.tolist()
        with open(path, "w") as fh:
            json.dump(header, fh, sort_keys=True, indent=1)
            fh.write("\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode())
            fh.write(b"\n")
            if header["complex"]:
                interleaved = np.empty(2 * state.amps.size)
                interleaved[0::2] = state.amps.real
                interleaved[1::2] = state.amps.imag
                fh.write(interleaved.astype("<f8").tobytes())
            else:
                fh.write(state.amps.astype("<f8").tobytes())
    else:
        raise InvalidParameterError(f"unknown state format {fmt!r}")


def load_state(path) -> StateVector:
    with open(path, "rb") as fh:
        first = fh.readline()
        rest = fh.read()
    try:
        header = json.loads(first)
        payload = rest
    except json.JSONDecodeError:
        header = json.loads(first + rest)
        payload = None
    if header.get("format") != _MAGIC:
        raise InvalidParameterError(f"{path} is not a state snapshot")
    basis = build_basis(header["N"], header["n_bos"])
    if payload is not None:
        raw = np.frombuffer(payload, dtype="<f8")
        amps = raw[0::2] + 1j * raw[1::2] if header["complex"] else raw
    else:
        if header["complex"]:
            amps = np.asarray(header["amps_re"]) + 1j * np.asarray(header["amps_im"])
        else:
            amps = np.asarray(header["amps"], dtype=float)
    return StateVector(basis, amps)
