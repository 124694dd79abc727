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
product so no bare factorial ever overflows.  On the one nonzero
sub-diagonal that is q_n[m] = (tanh r sqrt(m+n)) q_{n-1}[m] / sqrt(n) for
each column m, in the same order of operations, so the entries match the
dense product bit for bit.  They are tanh^n r sqrt(C(m+n, n)), beyond
float64 for large n and m at once, so the family is generated only on
the Fock levels an input occupies, never stored.  Weight that the
truncated bdag pushes past |n_max> is dropped, consistent with the tail
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def kraus_operator(n: int, r: float, cfg: TruncationConfig) -> np.ndarray:
    """The n-th Kraus operator as a dense matrix on Alice x wedge I.

    Built from :func:`~unruhsim.fock.creation_matrix` by dense products, so
    it is an independent reference for :meth:`KrausSet.window`.  The ladder
    power is accumulated as in the module docstring.  Actions on the
    initial subspace:
        A_n |0,1> = (tanh^n r / cosh^2 r) sqrt(n+1) |0, n+1>
        A_n |1,0> = (tanh^n r / cosh r) |1, n>
    """
    if not 0 <= n <= cfg.n_max:
        raise ConfigError(f"Kraus index {n} outside 0..{cfg.n_max}")
    check_r(r)
    step = math.tanh(r) * creation_matrix(cfg)
    ladder = np.eye(cfg.dim)
    for k in range(1, n + 1):
        ladder = step @ ladder / math.sqrt(k)
    return np.kron(_alice_weight(r), ladder) * (1.0 / math.cosh(r) ** 2)


@dataclass(frozen=True)
class KrausSet:
    """The family {A_n, n = 0..n_max} at fixed r and truncation.

    A_n maps |a, m> to |a, m+n> and nothing else, so it is described by its
    one nonzero sub-diagonal, which :meth:`window` generates on the Fock
    levels an input occupies; nothing is stored.  The index range is tied
    to the Fock truncation so one knob governs both.  `fault`, set by
    :meth:`with_scalar_offset`, is (index, offset).  Dense matrices come
    from :func:`kraus_operator`.
    """

    r: float
    cfg: TruncationConfig
    fault: tuple[int, float] | None = None

    @property
    def layout(self) -> FactorLayout:
        return joint_layout(self.cfg)

    @classmethod
    def build(cls, r: float, cfg: TruncationConfig) -> "KrausSet":
        check_r(r)
        return cls(r=r, cfg=cfg)

    def with_scalar_offset(self, index: int, offset: float) -> "KrausSet":
        """Copy with the scalar prefactor of A_index shifted by `offset`.

        Used for fault-injection smoke tests: the shifted operator is
        (scalar_n + offset) * (cosh r)^{N_A} (x) (bdag)^n.
        """
        if not 0 <= index <= self.cfg.n_max:
            raise ConfigError(f"Kraus index {index} outside 0..{self.cfg.n_max}")
        return replace(self, fault=(index, offset))

    def window(self, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        """(n, d) for ascending n, with d[a, k] = <a, m+n| A_n |a, m>, m = lo + k.

        d covers the columns lo..top-1, top = min(hi + 1, n_max + 1 - n), and
        n runs while top > lo.  The rows are slices of one (count, 2, w)
        table, filled by the recurrence of the module docstring.  Each
        column evolves on its own, so its entries are the same in every
        window that holds it, and the columns m <= 1 of the initial
        subspace stay finite at any cutoff.
        """
        n_max = self.cfg.n_max
        count = n_max + 1 - lo
        width = min(hi + 1, n_max + 1) - lo
        if count <= 0 or width <= 0:
            return
        # column lo + k takes step[n - 1 + k] = tanh r sqrt(lo + k + n) at n
        roots = np.sqrt(np.arange(lo + 1, n_max + 1, dtype=np.float64))
        step = math.tanh(self.r) * roots
        ladders = np.zeros((count, width))
        ladders[0] = 1.0
        for n in range(1, count):
            t = min(width, count - n)
            row = ladders[n, :t]
            np.multiply(step[n - 1 : n - 1 + t], ladders[n - 1, :t], out=row)
            row /= math.sqrt(n)
        alice = np.diag(_alice_weight(self.r))[:, None]
        table = alice * ladders[:, None, :] * (1.0 / math.cosh(self.r) ** 2)
        if self.fault is not None and self.fault[0] < count:
            index, offset = self.fault
            t = min(width, count - index)
            power = np.ones(t)  # <m+index| (bdag)^index |m>, the same product bare
            for n in range(1, index + 1):
                power = roots[n - 1 : n - 1 + t] * power
            table[index, :, :t] += offset * (alice * power)
        for n in range(count):
            yield n, table[n, :, : min(width, count - n)]


def bell_state(cfg: TruncationConfig) -> StateVector:
    """The stationary shared state (|0,1> + |1,0>)/sqrt(2) on Alice x wedge I."""
    layout = joint_layout(cfg)
    amps = np.zeros(layout.dim)
    amps[0 * cfg.dim + 1] = amps[1 * cfg.dim + 0] = 1.0 / math.sqrt(2.0)
    return StateVector(layout, amps)


def bell_input_density(cfg: TruncationConfig) -> DensityMatrix:
    """The projector onto :func:`bell_state`, as a dense density matrix."""
    psi = bell_state(cfg)
    return DensityMatrix(psi.layout, np.outer(psi.amps, psi.amps))


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Operator-sum application sum_n A_n rho A_n^T, ascending n.

    A_n moves the (a, m) row and column of rho to (a, m+n) and scales them
    by its sub-diagonal, so each term is one broadcast product.  Only the
    Fock window lo..hi of rho's support enters it: lo and hi are the first
    and last level m whose row or column (a, m) is nonzero for either a.
    Every product skipped outside that window is an exact 0.0 (for finite
    entries), so the result is bit for bit the full-width sum.  With
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
        lo = int(live[0])
        for n, d in ks.window(lo, int(live[-1])):
            top = lo + d.shape[1]
            out[:, lo + n : top + n, :, lo + n : top + n] += (
                d[:, :, None, None] * rho4[:, lo:top, :, lo:top] * d[None, None]
            )
    return DensityMatrix(rho.layout, out.reshape(rho.mat.shape))


def trace_preservation_defect(ks: KrausSet, probe: StateVector) -> float:
    """| sum_n <probe| A_n^T A_n |probe> - 1 |.

    For normalized probes inside span{|0,1>, |1,0>} this is bounded, up to
    rounding, by `truncation_tail_bound(r, n_max)`.  Probes outside that
    subspace are allowed and expose that the map is trace preserving only
    on the initial subspace: |1,1> for instance yields sum = cosh^2 r, i.e.
    a defect of sinh^2 r (up to tail).

    As in :func:`apply_channel`, each term is generated on the Fock window
    lo..hi of the probe's support only, so the cost is O(N w) and entries
    far from it, which exceed float64 at large n_max and r, are never formed.
    """
    if probe.layout != ks.layout:
        raise LayoutMismatchError(
            f"probe layout {probe.layout} does not match channel layout {ks.layout}"
        )
    if not abs(probe.norm_sq - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ConfigError(f"probe must be normalized, norm^2 = {probe.norm_sq}")
    amps = probe.amps.reshape(2, ks.cfg.dim)
    live = np.flatnonzero((amps != 0.0).any(axis=0))
    lo = int(live[0])
    total = 0.0
    for _, d in ks.window(lo, int(live[-1])):
        image = d * amps[:, lo : lo + d.shape[1]]
        total += float(np.vdot(image, image))
    return abs(total - 1.0)
