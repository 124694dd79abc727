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

Construction note: A_n is nonzero on one sub-diagonal of each Alice block.
Its ladder power Q_n = (bdag / sqrt(n)) Q_{n-1} is accumulated there as
q_n[m] = (sqrt(m+n) / sqrt(n)) q_{n-1}[m] for each column m, so no bare
factorial ever overflows, and then scaled by tanh^n r = exp(n ln tanh r),
rounded once rather than multiplied in n times.  The tests' dense
reference (``tests/dense.py``) forms the matrix product with the same
factors and the same scale, and the entries match it bit for bit.  They
are tanh^n r sqrt(C(m+n, n)), beyond float64 for large n and m at once,
so the family is generated only on the Fock levels an input occupies,
never stored.  Weight that the truncated bdag pushes past |n_max> is
dropped, consistent with the tail accounting.

The operator sum runs on the input's nonzero entries (see
:mod:`unruhsim.fock`), with no loop over Kraus levels: each entry lists
its terms for every n in one array expression and
:meth:`DensityMatrix.from_entries` adds them up, so applying the channel
costs O(nnz N) time and memory, O(N) for the Bell input, and no dense
matrix is formed unless a caller asks for ``.mat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, LayoutMismatchError
from .fock import DensityMatrix, FactorLayout, StateVector, TruncationConfig
from .rindler import check_r, joint_layout

# Most operator-sum terms apply_channel and trace_preservation_defect form
# in one pass, about 2 MB per array (apply_channel hands each pass's terms
# to DensityMatrix.from_entries): the Bell input's 4 (N + 1) terms take one
# pass at any cutoff up to N = 65535, and a full-width input at N = 256
# takes one pass per level.
_TERMS_PER_PASS = 2**18


def _tanh_powers(r: float, count: int) -> np.ndarray:
    """tanh^n r, n = 0..count-1, as exp(n l) with l = ln tanh r; 1, 0, 0, ... at r = 0.

    l = ln(1 - x) - log1p(x) with x = e^(-2r), and ln(1 - x) from expm1
    where x >= 1/2; its own formula, so the Kraus family stays apart from
    rindler.level_weights.
    """
    n = np.arange(count, dtype=np.float64)
    if r == 0.0:
        return (n == 0) * 1.0
    x = math.exp(-2.0 * r)
    ell = (math.log(-math.expm1(-2.0 * r)) if x >= 0.5 else math.log1p(-x)) - math.log1p(x)
    return np.exp(n * ell)


@dataclass(frozen=True)
class KrausSet:
    """The family {A_n, n = 0..n_max} at fixed r and truncation.

    A_n maps |a, m> to |a, m+n> and nothing else, so it is described by its
    one nonzero sub-diagonal.  :meth:`sub_diagonals` generates all of them
    at once on the Fock levels an input occupies; nothing is stored.  The
    index range is tied to the Fock truncation so one knob governs both.
    `fault`, set by :meth:`with_scalar_offset`, is (index, offset).
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
        """Copy with the scalar prefactor of A_index scaled by 1 + `offset`.

        Used for fault-injection smoke tests: the shifted operator is
        (1 + offset) A_index, finite at any index.
        """
        if not 0 <= index <= self.cfg.n_max:
            raise ConfigError(f"Kraus index {index} outside 0..{self.cfg.n_max}")
        return replace(self, fault=(index, offset))

    def sub_diagonals(self, lo: int, hi: int) -> np.ndarray:
        """The (count, 2, w) table d[n, a, k] = <a, m+n| A_n |a, m>, m = lo + k.

        Columns lo..min(hi, n_max), so w = min(hi, n_max) - lo + 1, and
        n = 0..count-1 with count = n_max + 1 - lo.  Column k holds its
        recurrence of the module docstring while m + n <= n_max and 0.0
        past it: one running product down n of the factors
        sqrt(m+n) / sqrt(n), held at 1.0 past the edge so that a column
        that overflowed inside it never forms inf * 0, then row n scaled by
        tanh^n r.  Each column's entries are the same in every table that
        holds it.  The product is sqrt(C(m+n, n)): finite in the columns
        m <= 1 of the initial subspace at any cutoff, and everywhere up to
        n_max = 2053; past it a column overflows once C(m+n, n) > 2^2048
        (from m = 171 on at n_max = 2^18).
        """
        n_max = self.cfg.n_max
        count = max(n_max + 1 - lo, 0)
        width = max(min(hi + 1, n_max + 1) - lo, 0)
        n = np.arange(1, count)[:, None]
        m_n = lo + np.arange(width) + n  # m + n, from 1 + lo
        inside = m_n <= n_max
        factors = np.ones((count, width))
        factors[1:] = np.where(inside, np.sqrt(m_n) / np.sqrt(n), 1.0)
        ladders = np.multiply.accumulate(factors, axis=0) * _tanh_powers(self.r, count)[:, None]
        ladders[1:] = np.where(inside, ladders[1:], 0.0)
        alice = np.array([1.0, math.cosh(self.r)])[:, None]  # (cosh r)^{N_A}
        table = alice * ladders[:, None, :] * (1.0 / math.cosh(self.r) ** 2)
        if self.fault is not None and self.fault[0] < count:
            table[self.fault[0]] *= 1.0 + self.fault[1]
        return table


def bell_state(cfg: TruncationConfig) -> StateVector:
    """The stationary shared state (|0,1> + |1,0>)/sqrt(2) on Alice x wedge I."""
    amp = 1.0 / math.sqrt(2.0)
    index = [0 * cfg.dim + 1, 1 * cfg.dim + 0]
    return StateVector.from_entries(joint_layout(cfg), index, [amp, amp])


def bell_input_density(cfg: TruncationConfig) -> DensityMatrix:
    """The projector onto :func:`bell_state`: its four entries psi_i psi_j."""
    psi = bell_state(cfg)
    size = psi.index.size
    return DensityMatrix.from_entries(
        psi.layout,
        np.repeat(psi.index, size),
        np.tile(psi.index, size),
        np.outer(psi.vals, psi.vals).ravel(),
    )


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Operator-sum application sum_n A_n rho A_n^T, ascending n.

    A_n moves the (a, m; b, k) entry of rho to (a, m+n; b, k+n) and
    scales it by its sub-diagonal: each input entry lists the term
    (d_n[a, m] rho) d_n[b, k] there for every n with both levels within
    the cutoff, in one array expression per pass.  The terms go n-major,
    after the sums of the passes before, to DensityMatrix.from_entries,
    which adds those that land on one entry in ascending n, as the dense
    sum adds them; every other product of that sum is an exact 0.0 (for
    finite entries), so the result is bit for bit the full-width dense
    sum.  The sub-diagonals are generated only on the Fock levels lo..hi
    of rho's entries.  The cost is O(nnz N) time, O(N) for the Bell input,
    in passes of at most _TERMS_PER_PASS terms, so memory stays O(nnz +
    output).  For inputs supported on span{|0,1>, |1,0>} the output trace
    equals the input trace minus the geometric truncation tail.
    """
    if rho.layout != ks.layout:
        raise LayoutMismatchError(
            f"density matrix layout {rho.layout} does not match channel "
            f"layout {ks.layout}"
        )
    if not rho.vals.size:
        return rho  # the zero matrix maps to itself
    dim, n_max = ks.cfg.dim, ks.cfg.n_max
    a, m = np.divmod(rho.rows, dim)  # (Alice, Fock level) of each row
    b, k = np.divmod(rho.cols, dim)
    lo = int(min(m.min(), k.min()))
    table = ks.sub_diagonals(lo, int(max(m.max(), k.max())))
    rows, cols, vals = rho.rows[:0], rho.cols[:0], rho.vals[:0]  # the sums so far
    step = max(1, _TERMS_PER_PASS // rho.vals.size)
    for start in range(0, table.shape[0], step):
        n = np.arange(start, min(start + step, table.shape[0]))[:, None]
        live = (m + n <= n_max) & (k + n <= n_max)
        terms = table[n, a, m - lo] * rho.vals * table[n, b, k - lo]
        # n-major after the earlier passes' sums: each entry adds in ascending n
        out = DensityMatrix.from_entries(
            rho.layout,
            np.concatenate((rows, (rho.rows + n)[live])),
            np.concatenate((cols, (rho.cols + n)[live])),
            np.concatenate((vals, terms[live])),
        )
        rows, cols, vals = out.rows, out.cols, out.vals
    return out


def trace_preservation_defect(ks: KrausSet, probe: StateVector) -> float:
    """| sum_n <probe| A_n^T A_n |probe> - 1 |.

    In exact arithmetic it is the weight the cutoff discards, with tail_c
    and tail_d of :func:`~unruhsim.rindler.discarded_weights`: tail_d for
    |0,1>, tail_c for |1,0> and (tail_c + tail_d)/2 for the Bell state,
    whose two images lie in different Alice blocks.  Probes outside
    span{|0,1>, |1,0>} are allowed and expose that the map is trace
    preserving only on that subspace: |1,1> sums to cosh^2 r (1 - tail_d),
    a defect of sinh^2 r - cosh^2 r tail_d.

    A_n maps distinct basis states to distinct ones, so each amplitude
    psi at (a, m) adds (d_n[a, m] psi)^2 for every n with m + n <= n_max,
    in passes of at most _TERMS_PER_PASS terms: one pass for a probe with
    a few entries.  As in :func:`apply_channel` the sub-diagonals are
    generated on the probe's levels only, so the cost is O(nnz N) and
    entries far from them, which exceed float64 at large n_max and r, are
    never formed.
    """
    if probe.layout != ks.layout:
        raise LayoutMismatchError(
            f"probe layout {probe.layout} does not match channel layout {ks.layout}"
        )
    if not abs(probe.norm_sq - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ConfigError(f"probe must be normalized, norm^2 = {probe.norm_sq}")
    a, m = np.divmod(probe.index, ks.cfg.dim)
    lo = int(m.min())
    table = ks.sub_diagonals(lo, int(m.max()))
    total = 0.0
    step = max(1, _TERMS_PER_PASS // probe.vals.size)
    for start in range(0, table.shape[0], step):
        n = np.arange(start, min(start + step, table.shape[0]))[:, None]
        image = np.where(m + n <= ks.cfg.n_max, table[n, a, m - lo] * probe.vals, 0.0)
        total += float((image * image).sum())
    return abs(total - 1.0)
