"""Dense test fixtures and references.

`from_dense` turns an array into a state through from_entries.
`creation_matrix` and `kraus_operator` are the dense ladder and Kraus
matrices that the entry routes of unruhsim are pinned against.
"""

import math

import numpy as np

from unruhsim import ConfigError, DensityMatrix, StateVector, TruncationConfig
from unruhsim.channel import _tanh_powers
from unruhsim.rindler import check_r


def from_dense(layout, array):
    """The StateVector of a 1-D array, or the DensityMatrix of a 2-D one.

    Its entries are the array's nonzeros, in ascending (row-major) order.
    """
    array = np.asarray(array, dtype=np.float64)
    assert array.shape == (layout.dim,) * array.ndim, (array.shape, layout.dim)
    if array.ndim == 1:
        (index,) = np.nonzero(array)
        return StateVector.from_entries(layout, index, array[index])
    rows, cols = np.nonzero(array)
    return DensityMatrix.from_entries(layout, rows, cols, array[rows, cols])


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


def kraus_operator(n: int, r: float, cfg: TruncationConfig) -> np.ndarray:
    """The n-th Kraus operator as a dense matrix on Alice x wedge I.

    Built from :func:`creation_matrix` by dense products, so it is an
    independent reference for :meth:`unruhsim.KrausSet.sub_diagonals`.
    The ladder power is accumulated as in the :mod:`unruhsim.channel`
    docstring.  Actions on the initial subspace:
        A_n |0,1> = (tanh^n r / cosh^2 r) sqrt(n+1) |0, n+1>
        A_n |1,0> = (tanh^n r / cosh r) |1, n>
    """
    if not 0 <= n <= cfg.n_max:
        raise ConfigError(f"Kraus index {n} outside 0..{cfg.n_max}")
    check_r(r)
    step = creation_matrix(cfg)
    ladder = np.eye(cfg.dim)
    for k in range(1, n + 1):
        ladder = (step / math.sqrt(k)) @ ladder
    ladder = ladder * _tanh_powers(r, n + 1)[n]
    alice = np.diag([1.0, math.cosh(r)])  # (cosh r)^{N_A}
    return np.kron(alice, ladder) * (1.0 / math.cosh(r) ** 2)
