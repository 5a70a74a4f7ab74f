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
sqrt(|S_n|) * c_n.  _full_space_ranks, at the bottom of the module,
maps every full-space sequence to the rank of its content, for the dense
first-quantized oracle in hamiltonian.

Every table that depends only on (N, n_bos) is built once: build_basis
and lowering_map (the maps that remove one boson, a_mu, used by the
density matrix, or a pair, a_rho a_sigma, the factor the operator H(T) is
applied through) call functools.cache builders, and the 4-boson power
table is cached per N the same way.

The merge tables of symmetrized products depend only on the two input
bases, and are kept per (N, n_a, n_b).  A table holds, for every index
pair (ia, ib) of an n_a- and an n_b-boson state in C order, the rank of
the merged occupation on n_a + n_b bosons and the merge weight
sqrt(|S_a| |S_b| / |S_n|), 16 bytes per pair.  A table is kept only up to
2^18 pairs (4 MiB), the kept tables hold at most 2^20 pairs (16 MiB) in
all, and the oldest are dropped to make room.  A larger product, such as
the 15 M pairs of the N=16, n_bos=8 power state, streams its table 64
rows of x at a time and keeps nothing.
"""

from __future__ import annotations

import threading
from functools import cache, cached_property

import numpy as np

from ._util import (
    MAX_BASIS_DIM,
    MAX_FULL_DIM,
    CapacityError,
    InvalidParameterError,
    binom_table,
    load_record,
    log_factorials,
    save_record,
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
        self._binom = binom_table(n_modes, n_bos)
        self.states = _enumerate_colex(n_modes, n_bos)

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
        hi = self._binom[j, pre[:, 1:]]
        lo = self._binom[j, pre[:, :-1]]
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
                block = int(self._binom[j - 1, s - m])
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

    @cached_property
    def log_seq_count(self) -> np.ndarray:
        """log |S_n| per basis state, |S_n| = n_bos!/prod(n_mu!)."""
        lf = log_factorials(self.n_bos)
        return lf[self.n_bos] - np.sum(lf[self.states], axis=1)

    def same_space(self, other: "OccupationBasis") -> bool:
        return self.n_modes == other.n_modes and self.n_bos == other.n_bos

    def __repr__(self):
        return f"OccupationBasis(N={self.n_modes}, n_bos={self.n_bos}, dim={self.dim})"


def _enumerate_colex(n_modes: int, n_bos: int) -> np.ndarray:
    """All occupation vectors in colex order, as an int32 (D, N) array.

    table[s] holds the states of s bosons in the first j modes.  Each
    table is built once from the one for j - 1 modes; the last mode needs
    only the states of n_bos bosons.
    """
    table = [np.array([[s]], dtype=np.int32) for s in range(n_bos + 1)]
    for j in range(2, n_modes):
        table = [_append_mode(table, j, s) for s in range(n_bos + 1)]
    return _append_mode(table, n_modes, n_bos) if n_modes > 1 else table[n_bos]


def _append_mode(table: list[np.ndarray], j: int, s: int) -> np.ndarray:
    """The states of s bosons in j modes: those of j - 1 modes and s - m
    bosons (table[s - m]) with m appended as mode j, stacked by m."""
    states = np.empty((symmetric_dimension(j, s), j), dtype=np.int32)
    row = 0
    for m in range(s + 1):
        inner = table[s - m]
        states[row : row + len(inner), :-1] = inner
        states[row : row + len(inner), -1] = m
        row += len(inner)
    return states


def build_basis(n_modes: int, n_bos: int, max_dim: int = MAX_BASIS_DIM) -> OccupationBasis:
    """Construct (and memoize) the occupation basis for (N, n_bos).

    A plain function, so that tracers which wrap module functions see every
    call; the positional call keys the cache the same however the caller
    passed max_dim.  A refused request raises and is not memoized."""
    return _basis(n_modes, n_bos, max_dim)


@cache
def _basis(n_modes: int, n_bos: int, max_dim: int) -> OccupationBasis:
    return OccupationBasis(n_modes, n_bos, max_dim=max_dim)


def lowering_map(basis: OccupationBasis, bosons: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized stack of the maps that remove one or two bosons from basis.

    Every lowered state has exactly one source, so the stack is a pair of
    arrays (sources, coefs) with one entry per row: row i of the map reads
    basis state sources[i] with coefficient coefs[i], so applying it to x
    is the gather coefs * x[sources], and its transpose (a scatter onto
    sources) raises bosons back.  bosons=1: N*D1 rows, row block mu is
    a_mu onto the (n_bos-1)-boson basis of dimension D1.  bosons=2: P*D2
    rows, row block p is a_rho a_sigma onto the (n_bos-2)-boson basis, for
    the P = N(N+1)/2 mode pairs (rho, sigma) in np.triu_indices(N) order;
    it is composed from the bosons=1 maps.  With fewer than `bosons` bosons
    the map has no rows.  Keyed by (N, n_bos, bosons).
    """
    if bosons not in (1, 2):
        raise InvalidParameterError(f"lowering maps remove 1 or 2 bosons, not {bosons}")
    return _lowering(basis.n_modes, basis.n_bos, bosons)


@cache
def _lowering(n_modes: int, n_bos: int, bosons: int) -> tuple[np.ndarray, np.ndarray]:
    if n_bos < bosons:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if bosons == 1:
        # row (mu, r) reads the state with one more boson in mu than state r below
        basis = build_basis(n_modes, n_bos)
        occ = build_basis(n_modes, n_bos - 1).states.astype(np.int64)
        source_blocks, coef_blocks = [], []
        for mu in range(n_modes):
            occ[:, mu] += 1
            source_blocks.append(basis.rank_array(occ))
            coef_blocks.append(np.sqrt(occ[:, mu]))
            occ[:, mu] -= 1
        return np.concatenate(source_blocks), np.concatenate(coef_blocks)
    first = _lowering(n_modes, n_bos, 1)  # a_sigma: n_bos -> n_bos - 1
    second = _lowering(n_modes, n_bos - 1, 1)  # a_rho: -> n_bos - 2
    rho, sigma = np.triu_indices(n_modes)
    first_sources, first_coefs = (a.reshape(n_modes, -1) for a in first)
    second_sources, second_coefs = (a.reshape(n_modes, -1) for a in second)
    mid = second_sources[rho]
    sources = first_sources[sigma[:, None], mid].ravel()
    coefs = (second_coefs[rho] * first_coefs[sigma[:, None], mid]).ravel()
    return sources, coefs


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

    def __repr__(self):
        return f"StateVector({self.basis!r}, norm={self.norm():.6g})"


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
    basis4 = build_basis(t.n_modes, 4)
    ranks, sqrt_orbits = _power_table(t.n_modes)
    amps = np.zeros(basis4.dim, dtype=t.values.dtype)
    amps[ranks] = sqrt_orbits * t.values
    return StateVector(basis4, amps)


@cache
def _power_table(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized (ranks, sqrt(orbit_sizes)) of the canonical tensor slots on
    the 4-boson basis: slot i, the sorted tuple {i,j,k,l}, is the occupation
    state of rank ranks[i]."""
    lay = layout(n_modes)
    occs = np.zeros((lay.size, n_modes), dtype=np.int64)
    rows = np.repeat(np.arange(lay.size), 4)
    np.add.at(occs, (rows, lay.tuples_array.ravel()), 1)
    return build_basis(n_modes, 4).rank_array(occs), np.sqrt(lay.orbit_sizes)


# Merge tables (see the module docstring) are built _CONVOLVE_ROWS rows of
# x at a time; a table is kept up to _MERGE_TABLE_PAIRS index pairs, and
# the kept tables hold at most _MERGE_CACHE_PAIRS pairs in all.
_CONVOLVE_ROWS = 64
_MERGE_TABLE_PAIRS = 1 << 18
_MERGE_CACHE_PAIRS = 1 << 20
_merge_tables: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_merge_lock = threading.Lock()


def _merge_rows(ba: OccupationBasis, bb: OccupationBasis, out_basis: OccupationBasis):
    """Yield (rows, ranks, weights) for blocks of _CONVOLVE_ROWS rows of ba:
    the output rank and merge weight of each index pair (ia, ib), ia in the
    slice rows, in C order."""
    for start in range(0, ba.dim, _CONVOLVE_ROWS):
        rows = slice(start, min(start + _CONVOLVE_ROWS, ba.dim))
        ia, ib = np.meshgrid(np.arange(rows.start, rows.stop), np.arange(bb.dim), indexing="ij")
        ia, ib = ia.ravel(), ib.ravel()
        target_occ = ba.states[ia].astype(np.int64) + bb.states[ib].astype(np.int64)
        ranks = out_basis.rank_array(target_occ)
        weights = 0.5 * (
            ba.log_seq_count[ia] + bb.log_seq_count[ib] - out_basis.log_seq_count[ranks]
        )
        # in place, so that a streamed block holds no second array of weights
        yield rows, ranks, np.exp(weights, out=weights)


def _merge_blocks(ba: OccupationBasis, bb: OccupationBasis, out_basis: OccupationBasis):
    """The merge table of (N, n_a, n_b) as _merge_rows blocks: the kept
    table as one block, or a table too large to keep streamed block by
    block."""
    key = (ba.n_modes, ba.n_bos, bb.n_bos)
    table = _merge_tables.get(key)
    if table is None:
        pairs = ba.dim * bb.dim
        if pairs > _MERGE_TABLE_PAIRS:
            return _merge_rows(ba, bb, out_basis)
        table = np.empty(pairs, dtype=np.int64), np.empty(pairs)
        for rows, ranks, weights in _merge_rows(ba, bb, out_basis):
            block = slice(rows.start * bb.dim, rows.stop * bb.dim)
            table[0][block], table[1][block] = ranks, weights
        with _merge_lock:
            while sum(r.size for r, _ in _merge_tables.values()) + pairs > _MERGE_CACHE_PAIRS:
                del _merge_tables[next(iter(_merge_tables))]
            _merge_tables[key] = table
    return [(slice(0, ba.dim), *table)]


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
    # np.add.at adds in index order, so every output bin sees the same
    # sequence of additions whether the table comes whole or in blocks
    amps = np.zeros(out_basis.dim, dtype=np.result_type(x.amps, y.amps))
    for rows, ranks, weights in _merge_blocks(ba, bb, out_basis):
        np.add.at(amps, ranks, np.multiply.outer(x.amps[rows], y.amps).ravel() * weights)
    return StateVector(out_basis, amps)


def _bincount(ranks: np.ndarray, weights: np.ndarray, dim: int) -> np.ndarray:
    """Sum real or complex weights into `dim` bins by rank."""
    if np.iscomplexobj(weights):
        return np.bincount(ranks, weights.real, dim) + 1j * np.bincount(ranks, weights.imag, dim)
    return np.bincount(ranks, weights, dim)


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


def embed_power_state(basis: OccupationBasis, t: SymmetricTensor4) -> tuple[StateVector, float]:
    """Normalized symmetric projection of the k-fold tensor power of |T>,
    k = n_bos / 4.

    Returns (state, pre_norm) where pre_norm = |Pi_symm |T>^{(x)k}| is the
    norm of the raw projected amplitudes before normalization (the
    symmetric projector shrinks the state, and callers need that weight).
    """
    if basis.n_bos % 4 != 0:
        raise InvalidParameterError(f"power state needs n_bos divisible by 4, got {basis.n_bos}")
    if t.n_modes != basis.n_modes:
        raise InvalidParameterError("tensor mode count does not match basis")
    if t.norm() == 0.0:
        raise InvalidParameterError("cannot embed the zero tensor")
    block = tensor_occupation_amplitudes(t)
    raw = block
    for j in range(1, basis.n_bos // 4):
        raw = _convolve_raw(raw, block, build_basis(basis.n_modes, 4 * (j + 1)))
    pre_norm = raw.norm()
    return StateVector(basis, raw.amps / pre_norm), float(pre_norm)


def _full_space_ranks(basis: OccupationBasis) -> np.ndarray:
    """Occupation rank of the content of every full-space sequence, in
    flat-index order: flat index f of (C^N)^{x n_bos}, read row-major, is
    the mode sequence of the base-N digits of f."""
    n_modes, n_bos = basis.n_modes, basis.n_bos
    full_dim = n_modes**n_bos
    if full_dim > MAX_FULL_DIM:
        raise CapacityError(f"full space of dimension {full_dim} exceeds {MAX_FULL_DIM}")
    powers = n_modes ** np.arange(n_bos - 1, -1, -1)
    seqs = (np.arange(full_dim)[:, None] // powers) % n_modes
    occs = np.zeros((full_dim, n_modes), dtype=np.int64)
    rows = np.repeat(np.arange(full_dim), n_bos)
    np.add.at(occs, (rows, seqs.ravel()), 1)
    return basis.rank_array(occs)


# ---------------------------------------------------------------------------
# State snapshots; see FORMATS.md
# ---------------------------------------------------------------------------

_MAGIC = "tensorpca/state-v1"


def save_state(path, state: StateVector, fmt: str = "json") -> None:
    basis = state.basis
    header = {"format": _MAGIC, "N": basis.n_modes, "n_bos": basis.n_bos, "ordering": "colex"}
    save_record(path, header, "amps", state.amps, fmt)


def load_state(path) -> StateVector:
    header, amps = load_record(path, _MAGIC, "amps", ("N", "n_bos"))
    return StateVector(build_basis(header["N"], header["n_bos"]), amps)
