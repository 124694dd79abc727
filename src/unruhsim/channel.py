"""The acceleration noise channel in operator-sum form.

The map takes the stationary shared state of Alice and Rob to the state an
accelerated Rob actually holds.  Its Kraus family on Alice x wedge I is

    A_n = (tanh^n r / (sqrt(n!) cosh^2 r)) * (cosh r)^{N_A} (x) (bdag)^n,

where (cosh r)^{N_A} = diag(1, cosh r) weights Alice's occupation and
(bdag)^n raises Rob's mode by n quanta.  Summed over n the map reproduces
the closed-form reduced state block by block, and sum_n A_n^T A_n restricted
to the initial-state subspace span{|0,1>, |1,0>} is the identity up to the
geometric truncation tail.  Off that subspace the map is *not* trace
preserving; the deviation has a closed form and is asserted, not hidden.

Construction note: the ladder power in A_n is accumulated as
Q_n = Q_{n-1} (tanh r * bdag) / sqrt(n), folding the scalar into the
product so no bare factorial ever overflows.  Weight that the truncated
bdag pushes past |n_max> is dropped, consistent with the tail accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import ConfigError, LayoutMismatchError
from .fock import (
    DensityMatrix,
    FactorLayout,
    StateVector,
    TruncationConfig,
    creation_matrix,
)
from .rindler import check_r, joint_layout


def _alice_weight(r: float) -> np.ndarray:
    """(cosh r)^{N_A} on the qubit factor: diag(1, cosh r)."""
    return np.diag([1.0, math.cosh(r)])


def _ladder_powers(cfg: TruncationConfig, tanh_r: float) -> Iterator[np.ndarray]:
    """Q_n = (tanh^n r / sqrt(n!)) (bdag)^n as dense matrices, n = 0..n_max.

    Accumulated as in the module docstring.  Powers are produced lazily, so
    a caller that needs only the n-th pays n steps.
    """
    step = tanh_r * creation_matrix(cfg)
    power = np.eye(cfg.dim)
    yield power
    for n in range(1, cfg.n_max + 1):
        power = step @ power / math.sqrt(n)
        yield power


def _ladder_diagonals(
    n_max: int, tanh_r: float | None = None
) -> Iterator[np.ndarray]:
    """The one nonzero sub-diagonal of (bdag)^n, n = 0..n_max.

    Entry m of the n-th array is <m+n| (bdag)^n |m>, length n_max + 1 - n.
    With `tanh_r` each carries its Kraus scalar as Q_n does in
    :func:`_ladder_powers`: the recurrence q_n[m] = (tanh r sqrt(m+n))
    q_{n-1}[m] / sqrt(n) is the dense one restricted to its nonzeros, with
    the operations in the same order, so every entry is bitwise equal to
    the matching entry of the dense power.
    """
    step = np.sqrt(np.arange(1, n_max + 1, dtype=np.float64))
    if tanh_r is not None:
        step = tanh_r * step
    diag = np.ones(n_max + 1)
    yield diag
    for n in range(1, n_max + 1):
        diag = step[n - 1 :] * diag[:-1]
        if tanh_r is not None:
            diag = diag / math.sqrt(n)
        yield diag


def kraus_operator(n: int, r: float, cfg: TruncationConfig) -> np.ndarray:
    """The n-th Kraus operator as a dense matrix on Alice x wedge I.

    Built from :func:`~unruhsim.fock.creation_matrix` by dense products, so
    it is an independent reference for the sub-diagonals of
    :class:`KrausSet`.  Actions on the initial subspace:
        A_n |0,1> = (tanh^n r / cosh^2 r) sqrt(n+1) |0, n+1>
        A_n |1,0> = (tanh^n r / cosh r) |1, n>
    """
    if not 0 <= n <= cfg.n_max:
        raise ConfigError(f"Kraus index {n} outside 0..{cfg.n_max}")
    check_r(r)
    ladder = next(islice(_ladder_powers(cfg, math.tanh(r)), n, None))
    return np.kron(_alice_weight(r), ladder) * (1.0 / math.cosh(r) ** 2)


@dataclass(frozen=True)
class KrausSet:
    """The full family {A_n, n = 0..n_max} at fixed r and truncation.

    A_n maps |a, m> to |a, m+n> and nothing else, so it is stored as its
    one nonzero sub-diagonal: ``diagonals[n]`` has shape (2, n_max + 1 - n)
    with ``diagonals[n][a, m] = <a, m+n| A_n |a, m>``.  The whole family
    takes 8 (n_max + 1)(n_max + 2) bytes.  Immutable after construction;
    the arrays are read-only.  The index range is tied to the Fock
    truncation so one knob governs both.  Dense matrices come from
    :func:`kraus_operator`.
    """

    r: float
    cfg: TruncationConfig
    diagonals: tuple[np.ndarray, ...]

    @property
    def layout(self) -> FactorLayout:
        return joint_layout(self.cfg)

    @classmethod
    def build(cls, r: float, cfg: TruncationConfig) -> "KrausSet":
        check_r(r)
        alice = np.diag(_alice_weight(r))[:, None]
        inv_ch2 = 1.0 / math.cosh(r) ** 2
        diagonals = []
        for ladder in _ladder_diagonals(cfg.n_max, math.tanh(r)):
            diag = alice * ladder * inv_ch2
            diag.setflags(write=False)
            diagonals.append(diag)
        return cls(r=r, cfg=cfg, diagonals=tuple(diagonals))

    def with_scalar_offset(self, index: int, offset: float) -> "KrausSet":
        """Copy with the scalar prefactor of A_index shifted by `offset`.

        Used for fault-injection smoke tests: the shifted operator is
        (scalar_n + offset) * (cosh r)^{N_A} (x) (bdag)^n.
        """
        if not 0 <= index <= self.cfg.n_max:
            raise ConfigError(f"Kraus index {index} outside 0..{self.cfg.n_max}")
        power = next(islice(_ladder_diagonals(self.cfg.n_max), index, None))
        alice = np.diag(_alice_weight(self.r))[:, None]
        diagonals = list(self.diagonals)
        diagonals[index] = diagonals[index] + offset * (alice * power)
        diagonals[index].setflags(write=False)
        return KrausSet(r=self.r, cfg=self.cfg, diagonals=tuple(diagonals))


def bell_input_density(cfg: TruncationConfig) -> DensityMatrix:
    """The stationary shared state (1/2)(|0,1>+|1,0>)(<0,1|+<1,0|) on Alice x wedge I."""
    layout = joint_layout(cfg)
    amps = np.zeros(layout.dim)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    amps[0 * cfg.dim + 1] = inv_sqrt2
    amps[1 * cfg.dim + 0] = inv_sqrt2
    return DensityMatrix(layout, np.outer(amps, amps))


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Operator-sum application sum_n A_n rho A_n^T, ascending n.

    A_n moves the (a, m) row and column of rho to (a, m+n) and scales them
    by its sub-diagonal, so each term is one broadcast product.  Only the
    Fock window lo..hi of rho's support enters it: lo and hi are the first
    and last level m whose row or column (a, m) is nonzero for either a.
    Every product skipped outside that window is an exact 0.0 (for finite
    diagonals), so the result is bit for bit the full-width sum.  With
    w = hi - lo + 1 the cost is O(N w^2) time and O(N^2) memory: O(N) work
    for the Bell input (w = 2), O(N^3) for a full-width rho.  For inputs
    supported on span{|0,1>, |1,0>} the output trace equals the input
    trace minus the geometric truncation tail.
    """
    if rho.layout != ks.layout:
        raise LayoutMismatchError(
            f"density matrix layout {rho.layout} does not match channel "
            f"layout {ks.layout}"
        )
    dim = ks.cfg.dim
    rho4 = rho.mat.reshape(2, dim, 2, dim)
    out = np.zeros_like(rho4)
    nonzero = rho4 != 0.0
    live = np.flatnonzero(nonzero.any(axis=(0, 2, 3)) | nonzero.any(axis=(0, 1, 2)))
    if live.size:
        lo, hi = int(live[0]), int(live[-1])
        for n, d in enumerate(ks.diagonals):
            top = min(hi + 1, dim - n)
            if top <= lo:
                break
            dw = d[:, lo:top]
            out[:, lo + n : top + n, :, lo + n : top + n] += (
                dw[:, :, None, None] * rho4[:, lo:top, :, lo:top] * dw[None, None]
            )
    return DensityMatrix(rho.layout, out.reshape(rho.mat.shape))


def trace_preservation_defect(ks: KrausSet, probe: StateVector) -> float:
    """| sum_n <probe| A_n^T A_n |probe> - 1 |.

    For normalized probes inside span{|0,1>, |1,0>} this is bounded, up to
    rounding, by `truncation_tail_bound(r, n_max)`.  Probes outside that
    subspace are allowed and expose that the map is trace preserving only
    on the initial subspace: |1,1> for instance yields sum = cosh^2 r, i.e.
    a defect of sinh^2 r (up to tail).

    As in :func:`apply_channel`, each term covers only the Fock window
    lo..hi of the probe's support, so sub-diagonal entries far from it,
    which overflow to inf at large n_max and r, never meet a zero
    amplitude and turn the sum into NaN.
    """
    if probe.layout != ks.layout:
        raise LayoutMismatchError(
            f"probe layout {probe.layout} does not match channel layout {ks.layout}"
        )
    if abs(probe.norm_sq - 1.0) > 1e-8:
        raise ConfigError(f"probe must be normalized, norm^2 = {probe.norm_sq}")
    dim = ks.cfg.dim
    amps = probe.amps.reshape(2, dim)
    live = np.flatnonzero((amps != 0.0).any(axis=0))
    lo, hi = int(live[0]), int(live[-1])
    total = 0.0
    for n, d in enumerate(ks.diagonals):
        top = min(hi + 1, dim - n)
        if top <= lo:
            break
        image = d[:, lo:top] * amps[:, lo:top]
        total += float(np.vdot(image, image))
    return abs(total - 1.0)


def completeness_operator(ks: KrausSet) -> np.ndarray:
    """sum_n A_n^T A_n, ascending n, as a dense matrix.

    Diagonal in the product basis, since each A_n maps basis states to
    multiples of basis states; without truncation the entry at Alice
    occupation a and mode occupation m is cosh^(2(m+a-1)) r, so it equals 1
    exactly at (0,1) and (1,0), the initial-state subspace.
    """
    diag = np.zeros((2, ks.cfg.dim))
    for d in ks.diagonals:
        diag[:, : d.shape[1]] += d * d
    return np.diag(diag.ravel())
