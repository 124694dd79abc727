"""Truncated Fock-space linear algebra.

Everything downstream works in a finite-dimensional slice of the bosonic
Fock space: each mode keeps occupations 0..n_max, so one mode lives in
dimension n_max + 1.  States and density matrices carry an explicit
`FactorLayout` so that tensor products and partial traces can be done by
label instead of by hand-counted index arithmetic.

All amplitudes in this problem are real and nonnegative, so states are
real vectors and density matrices are real symmetric.  Truncation is never
hidden: a state whose squared norm falls short of 1 reports the deficit
instead of renormalizing, and the closed-form geometric tails that bound
those deficits are available from :func:`geometric_closed_forms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    LayoutMismatchError,
    NotSymmetricError,
    PositivityError,
)

# Symmetry slack accepted when wrapping a matrix as a DensityMatrix.  Matches
# the default TruncationConfig.abs_tol.
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class TruncationConfig:
    """Numerical policy shared by every series and matrix.

    Parameters
    ----------
    n_max : int
        Maximum Fock occupation kept per bosonic mode; each mode then has
        dimension ``n_max + 1``.
    abs_tol : float
        Absolute tolerance used for symmetry checks, PSD clamping and
        trace/norm accounting.
    """

    n_max: int
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.abs_tol <= 0.0:
            raise ConfigError(f"abs_tol must be positive, got {self.abs_tol}")

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

    @staticmethod
    def concat(a: "FactorLayout", b: "FactorLayout") -> "FactorLayout":
        return FactorLayout(a.dims + b.dims, a.labels + b.labels)


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
    squared norm may fall below 1 by the truncation tail; it is reported by
    :attr:`norm_deficit`, never repaired by renormalization.
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

    @property
    def norm_deficit(self) -> float:
        """Truncation tail ``1 - ||psi||^2`` (may be a tiny negative rounding)."""
        return 1.0 - self.norm_sq

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
        if skew > SYMMETRY_TOL:
            raise NotSymmetricError(f"matrix asymmetry {skew:.3e} > {SYMMETRY_TOL}")
        object.__setattr__(self, "mat", mat)

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat))

    def eigenvalues(self, cfg: TruncationConfig) -> np.ndarray:
        return sym_eigenvalues(self.mat, cfg)

    def assert_psd(self, cfg: TruncationConfig) -> np.ndarray:
        """Eigenvalues if PSD within the clamp window, else PositivityError."""
        ev = self.eigenvalues(cfg)
        if ev.size and ev[-1] < -cfg.abs_tol:
            raise PositivityError(
                f"eigenvalue {ev[-1]:.3e} below -abs_tol = {-cfg.abs_tol:.1e}"
            )
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


def tensor_product(a, b):
    """Kronecker composition of two states, density matrices, or raw arrays.

    StateVector x StateVector and DensityMatrix x DensityMatrix concatenate
    their factor layouts; plain ndarrays must agree in rank (both vectors or
    both matrices).  Anything else is a layout mismatch.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        layout = FactorLayout.concat(a.layout, b.layout)
        return StateVector(layout, np.kron(a.amps, b.amps))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        layout = FactorLayout.concat(a.layout, b.layout)
        return DensityMatrix(layout, np.kron(a.mat, b.mat))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.ndim != b.ndim or a.ndim not in (1, 2):
            raise LayoutMismatchError(
                f"cannot combine arrays of rank {a.ndim} and {b.ndim}"
            )
        return np.kron(a, b)
    raise LayoutMismatchError(
        f"operands must be two StateVectors, two DensityMatrices, or two "
        f"ndarrays, got {type(a).__name__} and {type(b).__name__}"
    )


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


def sym_eigenvalues(mat: np.ndarray, cfg: TruncationConfig) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    LAPACK (``np.linalg.eigvalsh``) on the symmetrized input.  Input
    asymmetric beyond ``cfg.abs_tol`` is rejected.  Eigenvalues inside the
    float-noise window [-abs_tol, 0) are clamped to 0; genuinely negative
    eigenvalues pass through untouched, so positivity enforcement stays with
    the callers that require it.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    skew = float(np.abs(a - a.T).max()) if a.size else 0.0
    if skew > cfg.abs_tol:
        raise NotSymmetricError(f"matrix asymmetry {skew:.3e} > abs_tol {cfg.abs_tol}")
    if a.shape[0] == 1:
        return a[:1, 0].copy()
    ev = np.linalg.eigvalsh(0.5 * (a + a.T))[::-1].copy()
    ev[(ev >= -cfg.abs_tol) & (ev < 0.0)] = 0.0
    return ev


@dataclass(frozen=True)
class GeometricSums:
    """Closed forms, partial sums, and tails of the two squeezing series.

    ``vacuum``   : (1/cosh^2 r) * sum_n (tanh^2 r)^n          = 1
    ``one_particle`` : (1/cosh^4 r) * sum_n (n+1)(tanh^2 r)^n = 1

    The partial sums run to n_max.  `tail_vacuum` and `tail_one_particle`
    are the exact remainders; `tail_one_particle_bound` is the simpler
    (n_max + 2) q^(n_max + 1) majorant used for truncation budgeting.
    """

    closed_vacuum: float
    closed_one_particle: float
    partial_vacuum: float
    partial_one_particle: float
    tail_vacuum: float
    tail_one_particle: float
    tail_one_particle_bound: float


def geometric_closed_forms(r: float, cfg: TruncationConfig) -> GeometricSums:
    """Evaluate the normalized geometric series that certify trace budgets.

    With q = tanh^2 r, the normalized vacuum series sums to exactly 1 with
    remainder q^(n_max+1) past the cutoff; the weighted one-particle series
    also sums to 1 with remainder q^(N+1) * ((N+2) - (N+1) q), which the
    bound (N+2) q^(N+1) majorizes.
    """
    if r < 0 or not math.isfinite(r):
        raise ConfigError(f"acceleration parameter must be finite and >= 0, got {r}")
    q = math.tanh(r) ** 2
    big_n = cfg.n_max
    n = np.arange(big_n + 1)
    qn = q**n
    partial_vac = float(qn.sum()) / math.cosh(r) ** 2
    partial_one = float(((n + 1) * qn).sum()) / math.cosh(r) ** 4
    tail_vac = q ** (big_n + 1)
    tail_one = q ** (big_n + 1) * ((big_n + 2) - (big_n + 1) * q)
    return GeometricSums(
        closed_vacuum=1.0,
        closed_one_particle=1.0,
        partial_vacuum=partial_vac,
        partial_one_particle=partial_one,
        tail_vacuum=tail_vac,
        tail_one_particle=tail_one,
        tail_one_particle_bound=(big_n + 2) * q ** (big_n + 1),
    )


def truncation_tail_bound(r: float, n_max: int) -> float:
    """(n_max + 2) (tanh^2 r)^(n_max + 1): majorant for every series tail here."""
    q = math.tanh(r) ** 2
    return (n_max + 2) * q ** (n_max + 1)


def basis_state(layout: FactorLayout, occupations: Sequence[int]) -> StateVector:
    """Unit StateVector at the given multi-index."""
    if len(occupations) != len(layout.dims):
        raise LayoutMismatchError(
            f"{len(occupations)} occupations for {len(layout.dims)} factors"
        )
    for occ, d in zip(occupations, layout.dims):
        if not 0 <= occ < d:
            raise LayoutMismatchError(f"occupation {occ} outside factor of dim {d}")
    amps = np.zeros(layout.dim)
    amps[int(np.ravel_multi_index(tuple(occupations), layout.dims))] = 1.0
    return StateVector(layout, amps)
