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
from .rindler import joint_layout


def _alice_weight(r: float) -> np.ndarray:
    """(cosh r)^{N_A} on the qubit factor: diag(1, cosh r)."""
    return np.diag([1.0, math.cosh(r)])


def _ladder_powers(
    cfg: TruncationConfig, tanh_r: float | None = None
) -> Iterator[np.ndarray]:
    """(bdag)^n for n = 0, 1, ..., n_max, one repeated application per step.

    With `tanh_r` each power carries its Kraus scalar,
    Q_n = (tanh^n r / sqrt(n!)) (bdag)^n, accumulated as in the module
    docstring.  Powers are produced lazily, so a caller that needs only
    the n-th pays n steps.
    """
    bdag = creation_matrix(cfg)
    step = bdag if tanh_r is None else tanh_r * bdag
    power = np.eye(cfg.dim)
    yield power
    for n in range(1, cfg.n_max + 1):
        power = step @ power
        if tanh_r is not None:
            power = power / math.sqrt(n)
        yield power


def kraus_operator(n: int, r: float, cfg: TruncationConfig) -> np.ndarray:
    """The n-th Kraus operator as a dense matrix on Alice x wedge I.

    Actions on the initial subspace:
        A_n |0,1> = (tanh^n r / cosh^2 r) sqrt(n+1) |0, n+1>
        A_n |1,0> = (tanh^n r / cosh r) |1, n>
    """
    if not 0 <= n <= cfg.n_max:
        raise ConfigError(f"Kraus index {n} outside 0..{cfg.n_max}")
    if r < 0 or not math.isfinite(r):
        raise ConfigError(f"r must be finite and >= 0, got {r}")
    ladder = next(islice(_ladder_powers(cfg, math.tanh(r)), n, None))
    return np.kron(_alice_weight(r), ladder) / math.cosh(r) ** 2


@dataclass(frozen=True)
class KrausSet:
    """The full family {A_n, n = 0..n_max} at fixed r and truncation.

    Immutable after construction; the operator arrays are read-only.  The
    index range is tied to the Fock truncation so one knob governs both.
    """

    r: float
    cfg: TruncationConfig
    ops: tuple[np.ndarray, ...]

    @property
    def layout(self) -> FactorLayout:
        return joint_layout(self.cfg)

    @classmethod
    def build(cls, r: float, cfg: TruncationConfig) -> "KrausSet":
        if r < 0 or not math.isfinite(r):
            raise ConfigError(f"r must be finite and >= 0, got {r}")
        alice = _alice_weight(r)
        inv_ch2 = 1.0 / math.cosh(r) ** 2
        ops = []
        for ladder in _ladder_powers(cfg, math.tanh(r)):
            op = np.kron(alice, ladder) * inv_ch2
            op.setflags(write=False)
            ops.append(op)
        return cls(r=r, cfg=cfg, ops=tuple(ops))

    def with_scalar_offset(self, index: int, offset: float) -> "KrausSet":
        """Copy with the scalar prefactor of A_index shifted by `offset`.

        Used for fault-injection smoke tests: the shifted operator is
        (scalar_n + offset) * (cosh r)^{N_A} (x) (bdag)^n.
        """
        if not 0 <= index <= self.cfg.n_max:
            raise ConfigError(f"Kraus index {index} outside 0..{self.cfg.n_max}")
        power = next(islice(_ladder_powers(self.cfg), index, None))
        bump = offset * np.kron(_alice_weight(self.r), power)
        ops = list(self.ops)
        ops[index] = ops[index] + bump
        ops[index].setflags(write=False)
        return KrausSet(r=self.r, cfg=self.cfg, ops=tuple(ops))


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

    For inputs supported on span{|0,1>, |1,0>} the output trace equals the
    input trace minus the geometric truncation tail.
    """
    if rho.layout != ks.layout:
        raise LayoutMismatchError(
            f"density matrix layout {rho.layout} does not match channel "
            f"layout {ks.layout}"
        )
    out = np.zeros_like(rho.mat)
    # Reused buffers: fresh temporaries per operator cost page faults that
    # rival the matmuls themselves at n_max = 256.
    left, term = np.empty_like(out), np.empty_like(out)
    for op in ks.ops:
        np.matmul(op, rho.mat, out=left)
        out += np.matmul(left, op.T, out=term)
    return DensityMatrix(rho.layout, out)


def trace_preservation_defect(ks: KrausSet, probe: StateVector) -> float:
    """| sum_n <probe| A_n^T A_n |probe> - 1 |.

    For normalized probes inside span{|0,1>, |1,0>} this is bounded by the
    geometric tail (n_max + 2)(tanh^2 r)^(n_max+1).  Probes outside that
    subspace are allowed and expose that the map is trace preserving only
    on the initial subspace: |1,1> for instance yields sum = cosh^2 r, i.e.
    a defect of sinh^2 r (up to tail).
    """
    if probe.layout != ks.layout:
        raise LayoutMismatchError(
            f"probe layout {probe.layout} does not match channel layout {ks.layout}"
        )
    if abs(probe.norm_sq - 1.0) > 1e-8:
        raise ConfigError(f"probe must be normalized, norm^2 = {probe.norm_sq}")
    total = 0.0
    for op in ks.ops:
        image = op @ probe.amps
        total += float(image @ image)
    return abs(total - 1.0)


def completeness_operator(ks: KrausSet) -> np.ndarray:
    """sum_n A_n^T A_n, ascending n.

    Diagonal in the product basis; without truncation the entry at Alice
    occupation a and mode occupation m is cosh^(2(m+a-1)) r, so it equals 1
    exactly at (0,1) and (1,0), the initial-state subspace.
    """
    out = np.zeros_like(ks.ops[0])
    for op in ks.ops:
        out += op.T @ op
    return out
