"""Cross-checks bundling every module's invariants into one pass/fail report.

Each check pits two independent routes to the same quantity against each
other at a pinned tolerance: the operator-sum channel against the closed
form, the series entropies against eigensolves, fidelity against its Kraus
trace, the purification identity, monotonicity along the grid, and the
truncation-tail budget.  `fault` deliberately corrupts one Kraus scalar so
the sensitivity of the channel-equivalence check can be demonstrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    KrausSet,
    apply_channel,
    bell_input_density,
    trace_preservation_defect,
)
from .fock import StateVector, TruncationConfig, partial_trace, truncation_tail_bound
from .measures import (
    adaptive_n_max,
    entanglement_fidelity_closed,
    entanglement_fidelity_kraus,
    entropy_exchange,
    joint_entropy_series,
    rob_entropy_series,
    von_neumann_entropy,
)
from .rindler import WEDGE_I, joint_layout, rho_alice_rob
from .sweep import SweepConfig, r_grid, run_sweep

# Spot-check constants.  The trace-preservation probes sit in [1.05, 1.5]:
# below r ~ 1 the geometric bound (n_max+2)(tanh^2 r)^(n_max+1) at n_max = 64
# falls under float64 rounding noise and the comparison stops meaning anything.
_CHANNEL_RS = (0.3, 0.8, 1.5)
_CHANNEL_N_MAX = 48
_TP_RS = (1.05, 1.2, 1.35, 1.5)
_TP_N_MAX = 64
_FIDELITY_RS = (0.0, 0.5, 1.0, 2.0)
_FIDELITY_N_MAX = 64
_PURITY_RS = (0.5, 1.0)
_PURITY_N_MAX = 64
_ENTROPY_R = 1.0
_ENTROPY_N_MAX = 256


@dataclass(frozen=True)
class KrausScalarFault:
    """Absolute offset applied to the scalar prefactor of one Kraus operator."""

    index: int
    offset: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name:34s} worst {self.worst:.3e}  tol {self.tol:.1e}{extra}"


def _check_channel_vs_analytic(cfg: SweepConfig, fault) -> CheckResult:
    trunc = TruncationConfig(_CHANNEL_N_MAX, abs_tol=cfg.abs_tol)
    rho_in = bell_input_density(trunc)
    worst = 0.0
    for r in _CHANNEL_RS:
        ks = KrausSet.build(r, trunc)
        if fault is not None:
            ks = ks.with_scalar_offset(fault.index, fault.offset)
        out = apply_channel(rho_in, ks)
        delta = float(np.abs(out.mat - rho_alice_rob(r, trunc).mat).max())
        worst = max(worst, delta)
    return CheckResult("channel-vs-analytic", worst <= 1e-10, worst, 1e-10)


def _check_trace_preservation(cfg: SweepConfig) -> CheckResult:
    trunc = TruncationConfig(_TP_N_MAX, abs_tol=cfg.abs_tol)
    layout = joint_layout(trunc)
    dim = trunc.dim
    probes = []
    for flat in (0 * dim + 1, 1 * dim + 0):
        v = np.zeros(layout.dim)
        v[flat] = 1.0
        probes.append(v)
    sup = np.zeros(layout.dim)
    sup[0 * dim + 1] = sup[1 * dim + 0] = 1.0 / math.sqrt(2.0)
    probes.append(sup)

    worst_ratio = 0.0
    for r in _TP_RS:
        ks = KrausSet.build(r, trunc)
        bound = truncation_tail_bound(r, trunc.n_max)
        for v in probes:
            defect = trace_preservation_defect(ks, StateVector(layout, v))
            worst_ratio = max(worst_ratio, defect / bound)
    in_ok = worst_ratio <= 1.0

    # off the initial subspace the defect is sinh^2 r, not ~0
    out_probe = np.zeros(layout.dim)
    out_probe[1 * dim + 1] = 1.0
    ks1 = KrausSet.build(1.0, trunc)
    off_defect = trace_preservation_defect(ks1, StateVector(layout, out_probe))
    off_gap = abs(off_defect - math.sinh(1.0) ** 2)
    out_ok = off_gap <= 1e-9

    return CheckResult(
        "trace-preservation",
        in_ok and out_ok,
        max(worst_ratio, off_gap),
        1.0,
        detail="in-subspace defect/bound, |1,1> spot gap vs sinh^2(1)",
    )


def _check_entropy_series_vs_spectral(cfg: SweepConfig) -> CheckResult:
    trunc = TruncationConfig(_ENTROPY_N_MAX, abs_tol=cfg.abs_tol)
    rho = rho_alice_rob(_ENTROPY_R, trunc)
    gap_joint = abs(
        joint_entropy_series(_ENTROPY_R, trunc) - von_neumann_entropy(rho, trunc)
    )
    rho_r = partial_trace(rho, (WEDGE_I,))
    gap_rob = abs(
        rob_entropy_series(_ENTROPY_R, trunc) - von_neumann_entropy(rho_r, trunc)
    )
    worst = max(gap_joint, gap_rob)
    return CheckResult("entropy-series-vs-spectral", worst <= 1e-8, worst, 1e-8)


def _check_fidelity_consistency(cfg: SweepConfig) -> CheckResult:
    trunc = TruncationConfig(_FIDELITY_N_MAX, abs_tol=cfg.abs_tol)
    worst = 0.0
    for r in _FIDELITY_RS:
        gap = abs(
            entanglement_fidelity_kraus(r, trunc) - entanglement_fidelity_closed(r)
        )
        worst = max(worst, gap)
    return CheckResult("fidelity-consistency", worst <= 1e-12, worst, 1e-12)


def _check_purification_identity(cfg: SweepConfig) -> CheckResult:
    trunc = TruncationConfig(_PURITY_N_MAX, abs_tol=cfg.abs_tol)
    worst = 0.0
    for r in _PURITY_RS:
        s_joint = von_neumann_entropy(rho_alice_rob(r, trunc), trunc)
        gap = abs(s_joint - entropy_exchange(r, trunc))
        worst = max(worst, gap)
    return CheckResult("purification-identity", worst <= 1e-8, worst, 1e-8)


def _check_fidelity_monotonic(cfg: SweepConfig) -> CheckResult:
    fe = np.array([entanglement_fidelity_closed(r) for r in r_grid(cfg)])
    diffs = np.diff(fe)
    worst = float(diffs.max()) if diffs.size else -1.0
    return CheckResult(
        "fidelity-monotonic", bool((diffs < 0).all()), worst, 0.0,
        detail="max consecutive increase",
    )


def _check_records(cfg: SweepConfig, records) -> list[CheckResult]:
    mutual = np.array([rec.mutual_info for rec in records])
    rises = np.diff(mutual)
    worst_rise = float(rises.max()) if rises.size else 0.0
    mono = CheckResult(
        "mutual-information-monotonic",
        bool((rises <= cfg.abs_tol).all()),
        worst_rise,
        cfg.abs_tol,
    )

    margins = np.array([rec.subadd_margin for rec in records])
    sub = CheckResult(
        "subadditivity",
        bool((margins >= -cfg.abs_tol).all()),
        float(margins.min()),
        -cfg.abs_tol,
        detail="minimum margin",
    )

    gaps = np.array([abs(rec.s_a - 1.0) for rec in records if rec.r > 0])
    alice = CheckResult(
        "alice-entropy",
        bool((gaps <= cfg.abs_tol).all()),
        float(gaps.max()) if gaps.size else 0.0,
        cfg.abs_tol,
    )
    return [mono, sub, alice]


def _check_tail_bound(cfg: SweepConfig) -> CheckResult:
    # adaptive_n_max refuses an r it cannot certify; the bound is evaluated
    # again here as a cross-check of the cutoff it returns
    n_used = adaptive_n_max(cfg.r_max, cfg.abs_tol)
    bound = truncation_tail_bound(cfg.r_max, n_used)
    ok = bound < cfg.abs_tol
    detail = f"n_used={n_used} at r={cfg.r_max:g}"
    if not ok:
        detail = "insufficient truncation: " + detail
    return CheckResult("truncation-tail-bound", ok, bound, cfg.abs_tol, detail)


def run_verify(
    cfg: SweepConfig,
    fault: KrausScalarFault | None = None,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the invariant suite; `names` restricts to a subset of checks.

    Grid-wide checks share a single sweep evaluation.  Returns results in a
    fixed order; callers decide how to report them.
    """
    results: list[CheckResult] = []

    def wanted(name: str) -> bool:
        return names is None or name in names

    if wanted("channel-vs-analytic"):
        results.append(_check_channel_vs_analytic(cfg, fault))
    if wanted("trace-preservation"):
        results.append(_check_trace_preservation(cfg))
    if wanted("entropy-series-vs-spectral"):
        results.append(_check_entropy_series_vs_spectral(cfg))
    if wanted("fidelity-consistency"):
        results.append(_check_fidelity_consistency(cfg))
    if wanted("purification-identity"):
        results.append(_check_purification_identity(cfg))
    if wanted("fidelity-monotonic"):
        results.append(_check_fidelity_monotonic(cfg))
    grid_names = ("mutual-information-monotonic", "subadditivity", "alice-entropy")
    if any(wanted(n) for n in grid_names):
        records = run_sweep(cfg)
        results.extend(
            res for res in _check_records(cfg, records) if wanted(res.name)
        )
    if wanted("truncation-tail-bound"):
        results.append(_check_tail_bound(cfg))
    return results


def first_failure(results: list[CheckResult]) -> CheckResult | None:
    for res in results:
        if not res.passed:
            return res
    return None
