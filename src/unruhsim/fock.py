"""Truncated Fock-space linear algebra.

Everything downstream works in a finite-dimensional slice of the bosonic
Fock space: each mode keeps occupations 0..n_max, so one mode lives in
dimension n_max + 1.  States and density matrices carry an explicit
`FactorLayout` so that partial traces can be done by label instead of by
hand-counted index arithmetic.

All amplitudes in this problem are real and nonnegative, so states are
real vectors and density matrices are real symmetric.  Truncation is never
hidden: a state whose squared norm falls short of 1 reports the deficit
instead of renormalizing, and :func:`truncation_tail_bound` bounds those
deficits in closed form, for one (r, cutoff) pair or for arrays of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    ConfigError,
    LayoutMismatchError,
    NotSymmetricError,
    PositivityError,
)

# The one rounding slack of the dense checks: symmetry in DensityMatrix and
# sym_eigenvalues, the [-SYMMETRY_TOL, 0) clamp, and assert_psd's positivity.
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class TruncationConfig:
    """Fock cutoff shared by every series and matrix.

    Parameters
    ----------
    n_max : int
        Maximum Fock occupation kept per bosonic mode; each mode then has
        dimension ``n_max + 1``.
    """

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")

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
        return int(np.prod(self.dims))

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


def _frozen_array(data, shape=None) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise LayoutMismatchError(f"array shape {arr.shape} != layout shape {shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Real amplitudes over a labeled tensor-product basis.

    The constructor takes ownership of `amps` and marks it read-only.  The
    squared norm may fall below 1 by the truncation tail; the deficit is
    ``1 - norm_sq``, never repaired by renormalization.
    """

    layout: FactorLayout
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_array(self.amps)
        if amps.ndim != 1 or amps.size != self.layout.dim:
            raise LayoutMismatchError(
                f"amplitude vector of size {amps.size} does not fit layout "
                f"dimension {self.layout.dim}"
            )
        object.__setattr__(self, "amps", amps)
        norm_sq = float(amps @ amps)
        if norm_sq > 1.0 + 1e-8:
            raise ConfigError(f"state norm^2 = {norm_sq} exceeds 1")

    @property
    def norm_sq(self) -> float:
        return float(self.amps @ self.amps)

    def reshaped(self) -> np.ndarray:
        """Amplitudes as an ndarray with one axis per factor."""
        return self.amps.reshape(self.layout.dims)

    def reduced_density(self, keep: Iterable[str]) -> "DensityMatrix":
        """Reduced density matrix of the factors in `keep`.

        Equals ``partial_trace(|psi><psi|, keep)`` but never materializes the
        projector: with the kept axes moved in front, rho = M M^T where M is
        the (kept, traced) amplitude matrix.
        """
        sub = self.layout.subset(keep)
        axes_keep = [self.layout.axis(lab) for lab in sub.labels]
        axes_rest = [k for k in range(len(self.layout.dims)) if k not in axes_keep]
        m = np.transpose(self.reshaped(), axes_keep + axes_rest).reshape(sub.dim, -1)
        return DensityMatrix(sub, m @ m.T)


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric PSD matrix with factor metadata for partial tracing.

    Symmetry is enforced at construction (within :data:`SYMMETRY_TOL`);
    positivity is checked on demand by :meth:`assert_psd` because it costs an
    eigensolve.  The trace may fall short of 1 by the truncation tail.
    """

    layout: FactorLayout
    mat: np.ndarray

    def __post_init__(self) -> None:
        d = self.layout.dim
        mat = _frozen_array(self.mat, shape=(d, d))
        skew = float(np.abs(mat - mat.T).max())
        if not skew <= SYMMETRY_TOL:  # a NaN skew fails too
            raise NotSymmetricError(f"matrix asymmetry {skew:.3e} > {SYMMETRY_TOL}")
        object.__setattr__(self, "mat", mat)

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat))

    def assert_psd(self) -> np.ndarray:
        """Eigenvalues if PSD within the clamp window, else PositivityError."""
        ev = sym_eigenvalues(self.mat)
        if ev.size and ev[-1] < -SYMMETRY_TOL:
            raise PositivityError(f"eigenvalue {ev[-1]:.3e} below -{SYMMETRY_TOL}")
        return ev


def creation_matrix(cfg: TruncationConfig) -> np.ndarray:
    """Matrix of the bosonic creation operator b^dag in the truncated basis.

    Entry (m+1, m) is sqrt(m+1) for 0 <= m < n_max.  The action on the edge
    state |n_max> would leave the truncated space and is dropped: column
    n_max is identically zero.  Repeated application therefore loses the
    weight that crosses the edge; callers account for it through the
    geometric tail formulas rather than through wrap-around.
    """
    dim = cfg.dim
    mat = np.zeros((dim, dim))
    m = np.arange(cfg.n_max)
    mat[m + 1, m] = np.sqrt(m + 1.0)
    return mat


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in `keep`.

    The trace is preserved exactly (up to float summation reordering) and the
    result is symmetric because the input is.  Keeping every label returns
    the input unchanged.
    """
    sub = rho.layout.subset(keep)
    if sub.labels == rho.layout.labels:
        return rho
    dims = rho.layout.dims
    nfac = len(dims)
    t = rho.mat.reshape(dims + dims)
    keep_axes = [rho.layout.axis(lab) for lab in sub.labels]
    # einsum subscripts: traced factors share a symbol between row and column
    # sides, kept factors get independent row/column symbols.
    row = list(range(nfac))
    col = [k if k not in keep_axes else nfac + k for k in range(nfac)]
    out = [k for k in keep_axes] + [nfac + k for k in keep_axes]
    reduced = np.einsum(t, row + col, out)
    return DensityMatrix(sub, reduced.reshape(sub.dim, sub.dim))


def sym_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    LAPACK (``np.linalg.eigvalsh``) on the symmetrized input.  Input
    asymmetric beyond :data:`SYMMETRY_TOL` is rejected.  Eigenvalues inside
    the rounding window [-SYMMETRY_TOL, 0) are clamped to 0; genuinely
    negative eigenvalues pass through untouched, so positivity enforcement
    stays with the callers that require it.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    skew = float(np.abs(a - a.T).max()) if a.size else 0.0
    if not skew <= SYMMETRY_TOL:  # a NaN skew fails too
        raise NotSymmetricError(f"matrix asymmetry {skew:.3e} > {SYMMETRY_TOL}")
    ev = np.linalg.eigvalsh(0.5 * (a + a.T))[::-1].copy()
    ev[(ev >= -SYMMETRY_TOL) & (ev < 0.0)] = 0.0
    return ev


def truncation_tail_bound(
    r: float | np.ndarray, n_max: int | np.ndarray
) -> float | np.ndarray:
    """Bound on the weight a cutoff at n_max drops, with q = tanh^2 r.

    The larger of (n_max + 2) q^(n_max + 1), which majorizes the vacuum
    branch's tail q^(n_max + 1) and the remainder of an (n_max + 1)-term
    one-particle series, and q^n_max ((n_max + 1) - n_max q), the exact
    weight the one-particle branch drops because it keeps only n_max
    levels.  The first term wins for q >= 1/2; the second for q < 1/2.

    r and n_max broadcast against each other.  The bound is always
    evaluated on arrays of at least one dimension, because numpy's array
    pow can differ in the last ulp from the scalar pow of Python and of a
    0-d array: a scalar call is the length-1 case, returned as a float, and
    equals the matching element of any array call.
    """
    q = np.tanh(np.atleast_1d(r)) ** 2
    n = np.atleast_1d(n_max)
    bound = np.maximum((n + 2) * q ** (n + 1), q**n * ((n + 1) - n * q))
    if np.ndim(r) == 0 and np.ndim(n_max) == 0:
        return float(bound[0])
    return bound
