"""Cross-checks bundling every module's invariants into one pass/fail report.

Each check pits two independent routes to the same quantity against each
other at a pinned tolerance: the operator-sum channel against the closed
form, the series entropies and the sweep records at their own cutoffs
against eigensolves, fidelity against its Kraus trace, the purification
identity, monotonicity along the grid, the truncation-tail budget, and
the tail of the row at --r-max against the operator sum at its cutoff.
`fault` deliberately corrupts one Kraus scalar so the sensitivity of the
channel-equivalence check can be demonstrated.

Every check reports `worst`, its largest signed excess, and passes exactly
when worst < tol: a negative worst is a margin, and NaN never passes.
Maxima are taken with `np.max`, which keeps NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .fock import StateVector, TruncationConfig, partial_trace, truncation_tail_bound
from .measures import (
    adaptive_n_max,
    entanglement_fidelity_closed,
    entanglement_fidelity_kraus,
    entropy_exchange,
    joint_entropy_series,
    measure_record,
    measure_records,
    rob_entropy_series,
    von_neumann_entropy,
)
from .rindler import ALICE, WEDGE_I, joint_layout, rho_alice_rob, tripartite_state
from .sweep import SweepConfig, r_grid, run_sweep

# Spot-check constants.  The trace-preservation probes sit in [1.05, 1.5]:
# below r ~ 1 the geometric bound (n_max+2)(tanh^2 r)^(n_max+1) at n_max = 64
# falls under float64 rounding noise and the comparison stops meaning anything.
_CHANNEL_RS = (0.3, 0.8, 1.5)
_CHANNEL_N_MAX = 48
_TP_RS = (1.05, 1.2, 1.35, 1.5)
_TP_N_MAX = 64
_TP_SPOT_TOL = 1e-9
_FIDELITY_RS = (0.0, 0.5, 1.0, 2.0)
_FIDELITY_N_MAX = 64
_PURITY_RS = (0.5, 1.0)
_PURITY_N_MAX = 64
_ENTROPY_R = 1.0
_ENTROPY_N_MAX = 256
_RECORD_RS = (0.5, 1.0, 1.5)  # cutoffs <= 256 at the default tol


@dataclass(frozen=True)
class KrausScalarFault:
    """Absolute offset applied to the scalar prefactor of one Kraus operator."""

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
    trunc = TruncationConfig(_TP_N_MAX)
    layout = joint_layout(trunc)
    dim = trunc.dim
    probes = []
    for flat in (0 * dim + 1, 1 * dim + 0):
        v = np.zeros(layout.dim)
        v[flat] = 1.0
        probes.append(StateVector(layout, v))
    probes.append(bell_state(trunc))

    ratios = []
    for r in _TP_RS:
        ks = KrausSet.build(r, trunc)
        bound = truncation_tail_bound(r, trunc.n_max)
        for probe in probes:
            ratios.append(trace_preservation_defect(ks, probe) / bound)

    # off the initial subspace the defect is sinh^2 r, not ~0
    out_probe = np.zeros(layout.dim)
    out_probe[1 * dim + 1] = 1.0
    ks1 = KrausSet.build(1.0, trunc)
    off_defect = trace_preservation_defect(ks1, StateVector(layout, out_probe))
    ratios.append(abs(off_defect - math.sinh(1.0) ** 2) / _TP_SPOT_TOL)
    return (
        float(np.max(ratios)),
        1.0,
        f"in-subspace defect/bound, |1,1> gap vs sinh^2(1) / {_TP_SPOT_TOL:.0e}",
    )


def _entropy_series_vs_spectral(inp: _Inputs):
    trunc = TruncationConfig(_ENTROPY_N_MAX)
    rho = rho_alice_rob(_ENTROPY_R, trunc)
    rho_r = partial_trace(rho, (WEDGE_I,))
    gaps = [
        joint_entropy_series(_ENTROPY_R, trunc) - von_neumann_entropy(rho, trunc),
        rob_entropy_series(_ENTROPY_R, trunc) - von_neumann_entropy(rho_r, trunc),
    ]
    return float(np.max(np.abs(gaps))), 1e-8


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
    # sweep rows at their own cutoffs N, which follow --tol.  s_ar sums the
    # blocks 0..N whole: the state cut at N + 1 less its |1, N + 1> entry
    gaps, n_used = [], []
    for rec in measure_records(_RECORD_RS, inp.cfg.abs_tol):
        trunc = TruncationConfig(rec.n_used)
        wide = rho_alice_rob(rec.r, TruncationConfig(rec.n_used + 1))
        mat = wide.mat.copy()
        mat[-1, -1] = 0.0
        rho_r = partial_trace(rho_alice_rob(rec.r, trunc), (WEDGE_I,))
        alice = tripartite_state(rec.r, trunc).reduced_density((ALICE,))
        gaps += [
            rec.s_ar - von_neumann_entropy(replace(wide, mat=mat), trunc),
            rec.s_r - von_neumann_entropy(rho_r, trunc),
            rec.s_e - entropy_exchange(rec.r, trunc),
            rec.s_a - von_neumann_entropy(alice, trunc),
            rec.fe_kraus - entanglement_fidelity_kraus(rec.r, trunc),
        ]
        n_used.append(str(rec.n_used))
    return float(np.max(np.abs(gaps))), 1e-10, f"n_used={','.join(n_used)}"


def _fidelity_monotonic(inp: _Inputs):
    fe = np.array([entanglement_fidelity_closed(r) for r in r_grid(inp.cfg)])
    return float(np.max(np.diff(fe))), 0.0, "max consecutive increase"


def _mutual_information_monotonic(inp: _Inputs):
    mutual = np.array([rec.mutual_info for rec in inp.records])
    return float(np.max(np.diff(mutual))), inp.cfg.abs_tol


def _subadditivity(inp: _Inputs):
    margins = np.array([rec.subadd_margin for rec in inp.records])
    return float(np.max(-margins)), inp.cfg.abs_tol, "minus the minimum margin"


def _alice_entropy(inp: _Inputs):
    # SweepConfig guarantees r_max > r_min >= 0, so some row has r > 0
    gaps = np.array([abs(rec.s_a - 1.0) for rec in inp.records if rec.r > 0])
    return float(np.max(gaps)), inp.cfg.abs_tol


def _truncation_tail_bound(inp: _Inputs):
    # adaptive_n_max refuses an r it cannot certify; the bound is evaluated
    # again here as a cross-check of the cutoff it returns
    r_max = inp.cfg.r_max
    n_used = adaptive_n_max(r_max, inp.cfg.abs_tol)
    bound = truncation_tail_bound(r_max, n_used)
    return bound, inp.cfg.abs_tol, f"n_used={n_used} at r={r_max:g}"


def _operator_sum_tail(inp: _Inputs):
    # the row at --r-max against the operator sum at its own cutoff: A_n|0,1>
    # and A_n|1,0> lie in different Alice blocks, so the Bell probe's defect
    # is (tail_c + tail_d) / 2, the row's tail, in exact arithmetic
    rec = measure_record(inp.cfg.r_max, inp.cfg.abs_tol)
    trunc = TruncationConfig(rec.n_used)
    defect = trace_preservation_defect(KrausSet.build(rec.r, trunc), bell_state(trunc))
    return abs(defect - rec.tail), 1e-12, f"n_used={rec.n_used} at r={rec.r:g}"


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
    "alice-entropy": _alice_entropy,
    "truncation-tail-bound": _truncation_tail_bound,
    "operator-sum-tail": _operator_sum_tail,
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
