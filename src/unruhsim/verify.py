"""Cross-checks bundling every module's invariants into one pass/fail report.

Each check pits two independent routes to the same quantity against each
other at a pinned tolerance: the operator-sum channel against the closed
form, the cut-state series against eigensolves, the untruncated records
against eigensolves of states cut where their entropies are certified
within 1e-12, fidelity against its Kraus trace, the purification
identity, monotonicity along the grid, both sides of sub-additivity, and
the norm deficit of the state cut at the oracle's cutoff for --r-max.  The
operator sum's trace defect is held to the exact weight each cutoff
discards (discarded_weights), at fixed spots and at --r-max.  The records'
oracle and the --r-max spots are cut at adaptive_n_max, the other spots at
the fixed cutoffs 48, 64 and 256.  `fault` scales one Kraus operator.

Every check reports `worst`, its largest signed excess, and passes exactly
when worst < tol: a negative worst is a margin, and NaN never passes.
Maxima are taken with `np.max`, which keeps NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    KrausSet,
    apply_channel,
    bell_input_density,
    bell_state,
    trace_preservation_defect,
)
from .errors import ConfigError, NotSymmetricError
from .fock import StateVector, TruncationConfig, partial_trace
from .measures import (
    adaptive_n_max,
    entanglement_fidelity_closed,
    entanglement_fidelity_kraus,
    entropy_exchange,
    joint_entropy_series,
    measure_records,
    rob_entropy_series,
    von_neumann_entropy,
)
from .rindler import (
    ALICE,
    WEDGE_I,
    discarded_weights,
    joint_layout,
    rho_alice_rob,
    tripartite_state,
)
from .sweep import SweepConfig, r_grid, run_sweep

# Spot-check constants.
_CHANNEL_RS = (0.3, 0.8, 1.5)
_CHANNEL_N_MAX = 48
_FIDELITY_RS = (0.0, 0.5, 1.0, 2.0)
_FIDELITY_N_MAX = 64
_PURITY_RS = (0.5, 1.0)
_PURITY_N_MAX = 64
_ENTROPY_CASES = ((1.0, 256), (2.0, 64))  # (r, n_max)
_RECORD_RS = (0.5, 1.0, 1.5)  # and the row at --r-max
_ORACLE_TAIL = 1e-12  # records-vs-oracle's cutoffs certify this, under its 1e-10


@dataclass(frozen=True)
class KrausScalarFault:
    """Relative offset of one Kraus operator: A_index becomes (1 + offset) A_index."""

    index: int
    offset: float


@dataclass(frozen=True)
class CheckResult:
    """A check's largest signed excess `worst` against its tolerance `tol`."""

    name: str
    worst: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        """worst < tol; False for a NaN worst."""
        return self.worst < self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name:34s} worst {self.worst:.3e}  tol {self.tol:.1e}{extra}"


@dataclass
class _Inputs:
    """What a check may read; the grid checks share one sweep."""

    cfg: SweepConfig
    fault: KrausScalarFault | None

    @cached_property
    def records(self):
        return run_sweep(self.cfg)


def _channel_vs_analytic(inp: _Inputs):
    trunc = TruncationConfig(_CHANNEL_N_MAX)
    rho_in = bell_input_density(trunc)
    deltas = []
    for r in _CHANNEL_RS:
        ks = KrausSet.build(r, trunc)
        if inp.fault is not None:
            ks = ks.with_scalar_offset(inp.fault.index, inp.fault.offset)
        try:
            out = apply_channel(rho_in, ks)
        except NotSymmetricError:  # NaN, inf or asymmetric: no density matrix
            deltas.append(math.nan)
            continue
        deltas.append(np.max(np.abs(out.mat - rho_alice_rob(r, trunc).mat)))
    return float(np.max(deltas)), 1e-10


def _trace_preservation(inp: _Inputs):
    # sum_n <p| A_n^T A_n |p> against the weight each cutoff discards, in
    # exact arithmetic: the defect is tail_d at |0,1>, tail_c at |1,0> and
    # their mean at the Bell state, whose images lie in different Alice
    # blocks; off the initial subspace |1,1> sums to cosh^2 r (1 - tail_d).
    # The spot at --r-max runs at the oracle's cutoff with the Bell probe
    # alone: the |1,1> sum's rounding grows like sinh^2 r
    r_max = inp.cfg.r_max
    n_max = adaptive_n_max(r_max, _ORACLE_TAIL)
    spots = [(r, _CHANNEL_N_MAX, 4) for r in _CHANNEL_RS] + [(r_max, n_max, 1)]
    gaps = []
    for r, cutoff, count in spots:
        trunc = TruncationConfig(cutoff)
        ks = KrausSet.build(r, trunc)
        tail_c, tail_d = discarded_weights(r, cutoff)
        layout, dim = joint_layout(trunc), trunc.dim
        probes = (  # (probe, exact defect); |a,m> is flat index a * dim + m
            (bell_state(trunc), (tail_c + tail_d) / 2.0),
            (StateVector.from_entries(layout, (1,), (1.0,)), tail_d),
            (StateVector.from_entries(layout, (dim,), (1.0,)), tail_c),
            (StateVector.from_entries(layout, (dim + 1,), (1.0,)),
             math.sinh(r) ** 2 - math.cosh(r) ** 2 * tail_d),
        )
        for probe, exact in probes[:count]:
            gaps.append(trace_preservation_defect(ks, probe) - exact)
    return float(np.max(np.abs(gaps))), 1e-12, f"n_max={n_max} at r={r_max:g}"


def _entropy_series_vs_spectral(inp: _Inputs):
    # the cut state's spectra summed directly (measures._cut_spectra), held
    # against the eigensolved spectra at fixed cutoffs; at (2, 64) block N
    # weighs enough to show whether the sums stop at the state's edge
    gaps = []
    for r, n_max in _ENTROPY_CASES:
        trunc = TruncationConfig(n_max)
        rho = rho_alice_rob(r, trunc)
        rho_r = partial_trace(rho, (WEDGE_I,))
        gaps += [
            joint_entropy_series(r, trunc) - von_neumann_entropy(rho, trunc),
            rob_entropy_series(r, trunc) - von_neumann_entropy(rho_r, trunc),
        ]
    return float(np.max(np.abs(gaps))), 1e-10


def _fidelity_consistency(inp: _Inputs):
    trunc = TruncationConfig(_FIDELITY_N_MAX)
    gaps = [
        entanglement_fidelity_kraus(r, trunc) - entanglement_fidelity_closed(r)
        for r in _FIDELITY_RS
    ]
    return float(np.max(np.abs(gaps))), 1e-12


def _purification_identity(inp: _Inputs):
    trunc = TruncationConfig(_PURITY_N_MAX)
    gaps = [
        von_neumann_entropy(rho_alice_rob(r, trunc), trunc) - entropy_exchange(r, trunc)
        for r in _PURITY_RS
    ]
    return float(np.max(np.abs(gaps))), 1e-8


def _records_vs_oracle(inp: _Inputs):
    # untruncated rows against the oracle cut where both entropies are
    # within _ORACLE_TAIL of the untruncated ones; the untruncated state
    # holds one bit for Alice and discards nothing, so the oracle's deficit
    # from one bit and its discarded weight are held too (both are smaller
    # still).  Every cutoff is certified before any state is built
    records = measure_records(_RECORD_RS + (inp.cfg.r_max,), inp.cfg.abs_tol)
    cutoffs = [adaptive_n_max(rec.r, _ORACLE_TAIL) for rec in records]
    gaps = []
    for rec, trunc in zip(records, map(TruncationConfig, cutoffs)):
        rho = rho_alice_rob(rec.r, trunc)
        rho_r = partial_trace(rho, (WEDGE_I,))
        psi = tripartite_state(rec.r, trunc)
        gaps += [
            rec.s_ar - von_neumann_entropy(rho, trunc),
            rec.s_r - von_neumann_entropy(rho_r, trunc),
            rec.s_e - entropy_exchange(rec.r, trunc),
            1.0 - von_neumann_entropy(psi.reduced_density((ALICE,)), trunc),
            rec.fe_kraus - entanglement_fidelity_kraus(rec.r, trunc),
            psi.norm_sq - 1.0,
        ]
    return float(np.max(np.abs(gaps))), 1e-10, f"oracle n_max={','.join(map(str, cutoffs))}"


def _fidelity_monotonic(inp: _Inputs):
    # the smallest positive tol: worst <= 0 passes, so neighbours that tie
    # (F_e rounds to 1.0 below r ~ 1e-8) pass and any increase fails
    fe = entanglement_fidelity_closed(r_grid(inp.cfg))
    return float(np.max(np.diff(fe))), math.ulp(0.0), "max consecutive increase"


def _mutual_information_monotonic(inp: _Inputs):
    mutual = np.array([rec.mutual_info for rec in inp.records])
    return float(np.max(np.diff(mutual))), inp.cfg.abs_tol


def _subadditivity(inp: _Inputs):
    # both sides of 0 <= I <= 2 min(S_A, S_R), I the sub-additivity margin,
    # which is the mutual information, and S_A = 1: untruncated, Alice holds
    # one bit.  The upper side is Araki-Lieb's S_AR >= |S_A - S_R|, tight at
    # r = 0, where a wrong s_r breaks it
    mutual, s_r = np.array([(rec.mutual_info, rec.s_r) for rec in inp.records]).T
    lower = np.max(-mutual)
    upper = np.max(mutual - 2.0 * np.minimum(1.0, s_r))
    side = "I >= 0" if lower >= upper else "I <= 2 min(S_A, S_R)"
    return float(np.max([lower, upper])), inp.cfg.abs_tol, f"worst side: {side}"


def _truncation_tail_bound(inp: _Inputs):
    # the weight the state cut at the oracle's cutoff for --r-max drops, as
    # measured: Rob's tail mass, below the cutoff's entropy bound and so
    # below --tol in exact arithmetic
    r = inp.cfg.r_max
    n_max = adaptive_n_max(r, inp.cfg.abs_tol)
    deficit = 1.0 - tripartite_state(r, TruncationConfig(n_max)).norm_sq
    return deficit, inp.cfg.abs_tol, f"n_max={n_max} at r={r:g}"


# Report order.  Each check returns (worst, tol) or (worst, tol, detail).
_CHECKS = {
    "channel-vs-analytic": _channel_vs_analytic,
    "trace-preservation": _trace_preservation,
    "entropy-series-vs-spectral": _entropy_series_vs_spectral,
    "fidelity-consistency": _fidelity_consistency,
    "purification-identity": _purification_identity,
    "records-vs-oracle": _records_vs_oracle,
    "fidelity-monotonic": _fidelity_monotonic,
    "mutual-information-monotonic": _mutual_information_monotonic,
    "subadditivity": _subadditivity,
    "truncation-tail-bound": _truncation_tail_bound,
}


def run_verify(
    cfg: SweepConfig,
    fault: KrausScalarFault | None = None,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the invariant suite; `names` restricts to a subset of checks.

    Grid-wide checks share a single sweep evaluation.  Returns results in a
    fixed order; callers decide how to report them.  A name that no check
    has raises ConfigError.
    """
    if names is not None:
        unknown = [name for name in names if name not in _CHECKS]
        if unknown:
            raise ConfigError(f"unknown check(s) {unknown}; have {list(_CHECKS)}")
    inp = _Inputs(cfg, fault)
    return [
        CheckResult(name, *check(inp))
        for name, check in _CHECKS.items()
        if names is None or name in names
    ]


def first_failure(results: list[CheckResult]) -> CheckResult | None:
    for res in results:
        if not res.passed:
            return res
    return None
