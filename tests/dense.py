"""Dense test fixtures as states: the nonzeros of an array, through from_entries."""

import numpy as np

from unruhsim import DensityMatrix, StateVector


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
