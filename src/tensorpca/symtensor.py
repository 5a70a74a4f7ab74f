"""Canonical storage for order-4 symmetric tensors over N modes.

A symmetric tensor is stored as one value per sorted index 4-tuple
(i <= j <= k <= l), enumerated in lexicographic order.  Permutation
symmetry is therefore structural: every rearrangement of an index tuple
reads the same storage slot.  Dense (N, N, N, N) views are available for
N <= DENSE_TENSOR_LIMIT as a debug/oracle device and for the routines that
contract the full tensor (boosting, rotations, the first-quantized oracle).
The dense view is not on the path to H(T): the operator reads its P x P
pair weights through a per-N slot table taken once from dense_index.  Every
per-N table (sorted tuples, orbit sizes, dense index) is a numpy build done
once per N: layout is a functools.cache builder, and the tables it does
not need at once are cached properties.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import permutations
from math import factorial

import numpy as np

from ._util import DENSE_TENSOR_LIMIT, InvalidParameterError

_ORDER = 4


class _IndexLayout:
    """Shared per-N index structures for canonical sorted-tuple storage.

    tuples_array (M, 4) lists the sorted tuples in lexicographic order, the
    order of itertools.combinations_with_replacement, and orbit_sizes the
    number of distinct orderings of each.  Both are built with numpy in
    O(M); the Python `tuples` list and `index` dict are built only when
    element access asks for them.
    """

    def __init__(self, n_modes: int):
        self.n_modes = n_modes
        # the sorted r-tuples starting at a are a followed by the sorted
        # (r-1)-tuples whose entries are all >= a: a suffix of the table
        tuples = np.arange(n_modes, dtype=np.int64)[:, None]
        for _ in range(_ORDER - 1):
            starts = np.searchsorted(tuples[:, 0], np.arange(n_modes))
            lead = np.repeat(np.arange(n_modes, dtype=np.int64), len(tuples) - starts)
            tuples = np.column_stack([lead, np.concatenate([tuples[s:] for s in starts])])
        self.tuples_array = tuples
        self.size = len(tuples)
        # orbit size 4!/prod(c_v!): along the sorted tuple, multiplying the
        # running length of each run of equal entries gives prod(c_v!)
        run = np.ones(self.size, dtype=np.int64)
        denom = np.ones(self.size, dtype=np.int64)
        for c in range(1, _ORDER):
            run = np.where(tuples[:, c] == tuples[:, c - 1], run + 1, 1)
            denom *= run
        self.orbit_sizes = factorial(_ORDER) // denom

    @cached_property
    def tuples(self) -> list[tuple[int, ...]]:
        return [tuple(t) for t in self.tuples_array.tolist()]

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.tuples)}

    @cached_property
    def dense_index(self) -> np.ndarray:
        """(N, N, N, N) map from an arbitrary index tuple to its slot."""
        n = self.n_modes
        if n > DENSE_TENSOR_LIMIT:
            raise InvalidParameterError(
                f"dense order-4 view limited to N <= {DENSE_TENSOR_LIMIT}, got N={n}"
            )
        # scatter each slot to every ordering of its tuple; orderings
        # that coincide (repeated indices) write the same slot.  The
        # ordering perm of tuple t sits at flat position
        # sum_c t[perm[c]] * n**(3 - c) = t @ strides[argsort(perm)].
        flat = np.empty(n**_ORDER, dtype=np.int64)
        strides = n ** np.arange(_ORDER - 1, -1, -1)
        slots = np.arange(self.size)
        for perm in permutations(range(_ORDER)):
            flat[self.tuples_array @ strides[np.argsort(perm)]] = slots
        return flat.reshape((n,) * _ORDER)


@cache
def layout(n_modes: int) -> _IndexLayout:
    if n_modes < 1:
        raise InvalidParameterError(f"need at least one mode, got N={n_modes}")
    return _IndexLayout(n_modes)


class SymmetricTensor4:
    """Order-4 symmetric tensor in canonical sorted-tuple storage.

    Attributes:
        n_modes: number of modes N.
        values: canonical entries, one per sorted 4-tuple, float64 or
            complex128.
    """

    __slots__ = ("n_modes", "values")

    def __init__(self, n_modes: int, values: np.ndarray):
        lay = layout(n_modes)
        values = np.asarray(values)
        if values.shape != (lay.size,):
            raise InvalidParameterError(
                f"expected {lay.size} canonical entries for N={n_modes}, "
                f"got shape {values.shape}"
            )
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        self.n_modes = n_modes
        self.values = values.astype(dtype, copy=True)

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, n_modes: int, complex_values: bool = False) -> "SymmetricTensor4":
        m = layout(n_modes).size
        dtype = np.complex128 if complex_values else np.float64
        return cls(n_modes, np.zeros(m, dtype=dtype))

    @classmethod
    def from_dense(cls, dense: np.ndarray, symmetrize: bool = False) -> "SymmetricTensor4":
        """Read a dense (N, N, N, N) array.

        With symmetrize=False the array must already be permutation
        symmetric; with symmetrize=True it is averaged over the 24 index
        permutations first.
        """
        dense = np.asarray(dense)
        if dense.ndim != 4 or len(set(dense.shape)) != 1:
            raise InvalidParameterError(f"expected an (N,N,N,N) array, got shape {dense.shape}")
        n = dense.shape[0]
        if symmetrize:
            dense = symmetrize_dense(dense)
        lay = layout(n)
        vals = dense[tuple(lay.tuples_array.T)]
        tensor = cls(n, vals)
        if not symmetrize:
            # cheap spot check that the caller really passed a symmetric array
            back = tensor.to_dense()
            if not np.allclose(back, dense, rtol=0, atol=1e-12 * max(1.0, float(np.abs(dense).max()))):
                raise InvalidParameterError("dense input is not permutation symmetric")
        return tensor

    # -- element access ------------------------------------------------
    def __getitem__(self, index_tuple) -> complex:
        key = tuple(sorted(int(i) for i in index_tuple))
        return self.values[layout(self.n_modes).index[key]]

    def to_dense(self) -> np.ndarray:
        return self.values[layout(self.n_modes).dense_index]

    # -- algebra --------------------------------------------------------
    def _check_same_shape(self, other: "SymmetricTensor4"):
        if self.n_modes != other.n_modes:
            raise InvalidParameterError(
                f"mode count mismatch: {self.n_modes} vs {other.n_modes}"
            )

    def __add__(self, other: "SymmetricTensor4") -> "SymmetricTensor4":
        self._check_same_shape(other)
        return SymmetricTensor4(self.n_modes, self.values + other.values)

    def __sub__(self, other: "SymmetricTensor4") -> "SymmetricTensor4":
        self._check_same_shape(other)
        return SymmetricTensor4(self.n_modes, self.values - other.values)

    def __mul__(self, scalar) -> "SymmetricTensor4":
        return SymmetricTensor4(self.n_modes, self.values * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SymmetricTensor4":
        return SymmetricTensor4(self.n_modes, self.values / scalar)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def norm(self) -> float:
        """Frobenius norm over all N^4 entries (orbit-weighted)."""
        w = layout(self.n_modes).orbit_sizes
        return float(np.sqrt(np.sum(w * np.abs(self.values) ** 2)))


def symmetrize_dense(dense: np.ndarray) -> np.ndarray:
    """Average a dense order-4 array over all 24 index permutations."""
    acc = np.zeros_like(np.asarray(dense, dtype=np.result_type(dense, np.float64)))
    for perm in permutations(range(4)):
        acc += np.transpose(dense, perm)
    return acc / 24.0


def rank_one(v: np.ndarray) -> SymmetricTensor4:
    """The tensor with entries v_i v_j v_k v_l."""
    v = np.asarray(v, dtype=float)
    lay = layout(v.shape[0])
    vals = np.prod(v[lay.tuples_array], axis=1)
    return SymmetricTensor4(v.shape[0], vals)
