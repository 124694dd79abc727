"""Truncated Fock-space linear algebra, stored as nonzero entries.

Everything downstream works in a finite-dimensional slice of the bosonic
Fock space: each mode keeps occupations 0..n_max, so one mode lives in
dimension n_max + 1.  States and density matrices carry an explicit
`FactorLayout` so that partial traces can be done by label instead of by
hand-counted index arithmetic.

All amplitudes in this problem are real and nonnegative, so states are
real vectors and density matrices are real symmetric.  Truncation is never
hidden: a state whose squared norm falls short of 1 reports the deficit
instead of renormalizing; :mod:`unruhsim.rindler` gives those deficits in
closed form.

A state or density matrix is stored as its nonzero entries only: flat
indices over the layout, ascending, and their values.  Every state of this
problem has O(N) of them, so storage is O(nnz), a partial trace or a
reduction pairs the entries that share a traced index, and the symmetry
check looks up each entry's mirror in O(nnz log nnz).  Every state is
built from its entries (``from_entries``), and a dense array (``.mat``,
``.amps``, ``reshaped()``) is formed only when a caller asks for one.

The spectra here are the oracle's.  :func:`sym_eigenvalues` splits a matrix
into the connected blocks of its exact nonzero pattern and eigensolves each
block, so the 2 x 2 blocks of rho_AR and the diagonal reductions of Rob and
wedge II cost O(N) solves instead of one O(N^3) solve.  The split is read
off the entries alone, never assumed from the physics: an off-block entry
of any size joins its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable

import numpy as np

from .errors import (
    ConfigError,
    LayoutMismatchError,
    NotSymmetricError,
    PositivityError,
)

# The one rounding slack of the symmetric checks: symmetry in DensityMatrix,
# the [-SYMMETRY_TOL, 0) clamp of sym_eigenvalues, and assert_psd's
# positivity.
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class TruncationConfig:
    """Fock cutoff shared by every series and matrix.

    Parameters
    ----------
    n_max : int
        Maximum Fock occupation kept per bosonic mode; each mode then has
        dimension ``n_max + 1``.  Any integer type >= 1 but bool; stored as
        a Python int.
    """

    n_max: int

    def __post_init__(self) -> None:
        n_max = self.n_max
        if isinstance(n_max, bool) or not isinstance(n_max, Integral) or n_max < 1:
            raise ConfigError(f"n_max must be an integer >= 1, got {n_max!r}")
        object.__setattr__(self, "n_max", int(n_max))

    @property
    def dim(self) -> int:
        """Dimension of a single truncated bosonic factor."""
        return self.n_max + 1


@dataclass(frozen=True)
class FactorLayout:
    """Ordered tensor factors with unique labels.

    ``dims[k]`` is the dimension of factor ``labels[k]``; the total space is
    the Kronecker product in this order.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.dims) != len(self.labels):
            raise LayoutMismatchError(
                f"{len(self.dims)} dims for {len(self.labels)} labels"
            )
        if not self.dims:
            raise LayoutMismatchError("layout needs at least one factor")
        if any(d < 1 for d in self.dims):
            raise LayoutMismatchError(f"factor dimensions must be >= 1: {self.dims}")
        if len(set(self.labels)) != len(self.labels):
            raise LayoutMismatchError(f"duplicate factor labels: {self.labels}")

    @property
    def dim(self) -> int:
        """Total dimension, the product of the factor dimensions."""
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutMismatchError(
                f"unknown factor label {label!r}; have {self.labels}"
            ) from None

    def subset(self, keep: Iterable[str]) -> "FactorLayout":
        """Layout restricted to `keep`, preserving the original factor order."""
        keep_set = set(keep)
        for label in keep_set:
            self.axis(label)  # raises on unknown labels
        kept = [k for k, lab in enumerate(self.labels) if lab in keep_set]
        return FactorLayout(
            tuple(self.dims[k] for k in kept),
            tuple(self.labels[k] for k in kept),
        )


def _entries(key, vals, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat keys in [0, size) and their values: sorted, summed, zeros dropped.

    Values listed at one key are added in the order listed, starting from
    0.0, so a caller fixes the rounding of a sum by the order of its
    terms; a key listed once keeps its value.  Exact zeros are dropped, so
    the stored entries are exactly the nonzero pattern; NaN is kept.  A
    key out of range is refused.  The arrays returned are read-only.
    """
    key = np.asarray(key, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if key.shape != vals.shape:
        raise LayoutMismatchError(f"{key.size} indices for {vals.size} values")
    order = np.argsort(key, kind="stable")  # listed order within a key
    key, vals = key[order], vals[order]
    if key.size and not (0 <= key[0] and key[-1] < size):
        raise LayoutMismatchError(f"entry index outside 0..{size - 1}")
    first = np.diff(key, prepend=-1) != 0  # where each run of one key starts
    vals = np.bincount(np.cumsum(first) - 1, weights=vals)
    key = key[first]
    nonzero = vals != 0.0
    key, vals = key[nonzero], vals[nonzero]
    key.setflags(write=False)
    vals.setflags(write=False)
    return key, vals


@dataclass(frozen=True, init=False, eq=False)
class StateVector:
    """Real amplitudes over a labeled tensor-product basis.

    Stored as entries: `index` holds the flat basis indices of the nonzero
    amplitudes, ascending, and `vals` the amplitudes.  It is built by
    :meth:`from_entries` only.  The squared norm may fall below 1 by the
    truncation tail; the deficit is ``1 - norm_sq``, never repaired by
    renormalization.
    """

    layout: FactorLayout
    index: np.ndarray
    vals: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("build a StateVector with StateVector.from_entries")

    @classmethod
    def from_entries(cls, layout: FactorLayout, index, vals) -> "StateVector":
        """The state with amplitude vals[k] at flat basis index index[k].

        Amplitudes listed at one index are added in the order listed.
        """
        index, vals = _entries(index, vals, layout.dim)
        psi = object.__new__(cls)
        object.__setattr__(psi, "layout", layout)
        object.__setattr__(psi, "index", index)
        object.__setattr__(psi, "vals", vals)
        norm_sq = psi.norm_sq
        if not norm_sq <= 1.0 + 1e-8:  # a NaN norm fails too
            raise ConfigError(f"state norm^2 = {norm_sq} is not at most 1")
        return psi

    @property
    def norm_sq(self) -> float:
        return float(self.vals @ self.vals)

    @property
    def amps(self) -> np.ndarray:
        """The dense amplitude vector, built on each access."""
        amps = np.zeros(self.layout.dim)
        amps[self.index] = self.vals
        return amps

    def reshaped(self) -> np.ndarray:
        """Dense amplitudes with one axis per factor, built on each call."""
        return self.amps.reshape(self.layout.dims)

    def reduced_density(self, keep: Iterable[str]) -> "DensityMatrix":
        """Reduced density matrix of the factors in `keep`.

        Equals ``partial_trace(|psi><psi|, keep)`` but never forms the
        projector: the amplitudes are grouped by their traced multi-index,
        and each group adds psi_i psi_j at every pair (i, j) of its kept
        indices.
        """
        sub = self.layout.subset(keep)
        dims = self.layout.dims
        kept = [self.layout.axis(lab) for lab in sub.labels]
        rest = [k for k in range(len(dims)) if k not in kept]
        coords = np.unravel_index(self.index, dims)
        k = np.ravel_multi_index([coords[a] for a in kept], sub.dims)
        t = np.zeros_like(k)
        if rest:
            t = np.ravel_multi_index([coords[a] for a in rest], [dims[a] for a in rest])
        order = np.argsort(t, kind="stable")
        t, k, v = t[order], k[order], self.vals[order]
        # every ordered pair (left, right) of entries in one traced group
        first = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
        size = np.diff(np.append(first, t.size))
        group = np.repeat(size, size)  # the group size of each entry
        left = np.repeat(np.arange(t.size), group)
        offset = np.arange(left.size) - np.repeat(np.cumsum(group) - group, group)
        right = np.repeat(np.repeat(first, size), group) + offset
        return DensityMatrix.from_entries(sub, k[left], k[right], v[left] * v[right])


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Real symmetric PSD matrix with factor metadata for partial tracing.

    Stored as entries: (`rows[k]`, `cols[k]`) is the flat position of the
    nonzero value `vals[k]`, in ascending row-major order.  It is built by
    :meth:`from_entries` only.  Symmetry is enforced at construction
    (within :data:`SYMMETRY_TOL`); positivity is checked on demand by
    :meth:`assert_psd` because it costs an eigensolve.  The trace may fall
    short of 1 by the truncation tail.
    """

    layout: FactorLayout
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("build a DensityMatrix with DensityMatrix.from_entries")

    @classmethod
    def from_entries(cls, layout: FactorLayout, rows, cols, vals) -> "DensityMatrix":
        """The matrix with value vals[k] at (rows[k], cols[k]) and 0 elsewhere.

        Values listed at one position are added in the order listed,
        starting from 0.0, so a caller fixes the rounding of a sum by the
        order of its terms.
        """
        d = layout.dim
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if np.any((rows < 0) | (rows >= d) | (cols < 0) | (cols >= d)):
            raise LayoutMismatchError(f"entry index outside 0..{d - 1}")
        key, vals = _entries(rows * d + cols, vals, d * d)
        rows, cols = np.divmod(key, d)
        _check_symmetric(key, cols * d + rows, vals)
        rows.setflags(write=False)
        cols.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "layout", layout)
        object.__setattr__(rho, "rows", rows)
        object.__setattr__(rho, "cols", cols)
        object.__setattr__(rho, "vals", vals)
        return rho

    @property
    def shape(self) -> tuple[int, int]:
        d = self.layout.dim
        return (d, d)

    @property
    def mat(self) -> np.ndarray:
        """The dense matrix, built on each access."""
        mat = np.zeros(self.shape)
        mat[self.rows, self.cols] = self.vals
        return mat

    @property
    def trace(self) -> float:
        return float(self.vals[self.rows == self.cols].sum())

    def assert_psd(self) -> np.ndarray:
        """Eigenvalues if PSD within the clamp window, else PositivityError."""
        ev = sym_eigenvalues(self)
        if ev.size and ev[-1] < -SYMMETRY_TOL:
            raise PositivityError(f"eigenvalue {ev[-1]:.3e} below -{SYMMETRY_TOL}")
        return ev


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in `keep`.

    Pairs the entries whose row and column share every traced index and
    sums them, in entry order, at their kept indices.  The trace is
    preserved exactly (up to float summation reordering).  Keeping every
    label returns the input unchanged.
    """
    sub = rho.layout.subset(keep)
    if sub.labels == rho.layout.labels:
        return rho
    dims = rho.layout.dims
    kept = [rho.layout.axis(lab) for lab in sub.labels]
    row = np.unravel_index(rho.rows, dims)
    col = np.unravel_index(rho.cols, dims)
    same = np.ones(rho.vals.size, dtype=bool)
    for k in range(len(dims)):
        if k not in kept:
            same &= row[k] == col[k]
    return DensityMatrix.from_entries(
        sub,
        np.ravel_multi_index([row[k][same] for k in kept], sub.dims),
        np.ravel_multi_index([col[k][same] for k in kept], sub.dims),
        rho.vals[same],
    )


def _check_symmetric(key, mirror, vals) -> None:
    """NotSymmetricError unless the entries are finite and symmetric within SYMMETRY_TOL.

    The entries at ascending flat row-major keys `key`, and `mirror` the
    key of each one's transpose position.  Each mirror is looked up by
    binary search, 0.0 where it is not listed, and the skew max|a - a^T|
    decides; a NaN or inf entry, on the diagonal too, makes it NaN or inf
    and fails.
    """
    if not vals.size:
        return
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    mirror_vals = np.where(key[at] == mirror, vals[at], 0.0)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and refused below
        skew = float(np.abs(vals - mirror_vals).max())
    if not skew <= SYMMETRY_TOL:  # a NaN skew fails too
        raise NotSymmetricError(f"matrix asymmetry {skew:.3e} > {SYMMETRY_TOL}")


def _components(d: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label each of d indices with the smallest index of its connected component.

    The graph joins i and j wherever an entry sits at (i, j) or (j, i): the
    exact pattern, with no threshold.  Every label points at a smaller or
    equal index, so the labels form a forest whose roots are the labels of
    the components.  Each round hooks the root at one end of every edge
    that still joins two trees onto the smaller root and flattens the
    forest by pointer jumping.  Hooking roots onto roots at least halves
    the trees of a component every two rounds, so a long chain costs
    O(log N) rounds, not O(N).
    """
    label = np.arange(d)
    off = rows != cols
    u, v = rows[off], cols[off]  # an edge that stops crossing never crosses again
    while u.size:
        lu, lv = label[u], label[v]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        label = _flatten(label)
        cross = label[u] != label[v]
        u, v = u[cross], v[cross]
    return label


def _flatten(label: np.ndarray) -> np.ndarray:
    """Point every index of a forest of smaller-index pointers at its root."""
    while True:
        up = label[label]
        if np.array_equal(up, label):
            return label
        label = up


def sym_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a :class:`DensityMatrix`, sorted descending.

    Its symmetry (finite entries, skew within :data:`SYMMETRY_TOL`) was
    checked when it was built.  The matrix is split into the connected
    components of its nonzero pattern (see :func:`_components`); each
    component's block, with its indices in ascending order, is filled from
    its entries, symmetrized and solved by LAPACK
    (``np.linalg.eigvalsh``), batched over the blocks of one size.  A
    matrix with one component is one block, the whole matrix, so its
    spectrum is bit for bit ``eigvalsh(0.5 * (a + a.T))`` of ``a =
    rho.mat``.  Eigenvalues inside the rounding window [-SYMMETRY_TOL, 0)
    are clamped to 0; genuinely negative eigenvalues pass through
    untouched, so positivity enforcement stays with the callers that
    require it.
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError(
            f"sym_eigenvalues takes a DensityMatrix, not {type(rho).__name__}; "
            "build one with DensityMatrix.from_entries"
        )
    d, rows, cols, vals = rho.shape[0], rho.rows, rho.cols, rho.vals
    label = _components(d, rows, cols)
    order = np.argsort(label, kind="stable")
    _, start, size = np.unique(label[order], return_index=True, return_counts=True)
    comp = np.empty(d, dtype=np.intp)  # component of each index, by ascending label
    comp[order] = np.repeat(np.arange(size.size), size)
    pos = np.empty(d, dtype=np.intp)  # place of each index within its block
    pos[order] = np.arange(d) - np.repeat(start, size)
    entry_size = size[comp[rows]]
    parts = []
    for s in np.unique(size):
        slot = np.cumsum(size == s) - 1  # rank of each component among size s
        sel = entry_size == s
        blocks = np.zeros((slot[-1] + 1, s, s))
        blocks[slot[comp[rows[sel]]], pos[rows[sel]], pos[cols[sel]]] = vals[sel]
        parts.append(np.linalg.eigvalsh(0.5 * (blocks + blocks.swapaxes(1, 2))).ravel())
    ev = np.sort(np.concatenate(parts))[::-1].copy()
    ev[(ev >= -SYMMETRY_TOL) & (ev < 0.0)] = 0.0
    return ev
