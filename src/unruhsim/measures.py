"""Scalar figures of merit along the acceleration axis.

Entropies are in bits (log base 2) throughout.  A sweep record
(:func:`measure_records`; :func:`measure_record` is its one-point case)
costs O(N) per point: two series passes over the block weights a_n, the
joint spectrum lambda_n = a_n (1 + (n+1)/cosh^2 r) for S(rho_AR) and Rob's
occupations p_n = a_n + n a_{n-1}/cosh^2 r for S(rho_R).  The rest is
closed forms.  Alice's reduction is diag(||d||^2/2, ||c||^2/2), and the
norms of the mode weights c_n and d_n are 1 - tail_c and 1 - tail_d.  The
wedge-II marginal (c_n^2 + d_n^2)/2 equals lambda_n below the cutoff N, so
the entropy exchange is the S(rho_AR) sum with lambda_N replaced by
c_N^2/2 = a_N.  The independent routes are the dense eigensolves kept here
as the oracle that tests and `verify` hold the records against: the
spectra of rho_AR, of Rob's reduction, and of the tripartite state's Alice
and wedge-II (:func:`entropy_exchange`) reductions; and, for the fidelity,
the operator-sum trace sum_n (Tr rho A_n)^2, where every n >= 1 trace
vanishes identically because A_n shifts the mode occupation.

Truncation grows adaptively with r: the mean occupation grows like
sinh^2 r, so honest entropies at r = 3 need thousands of Fock levels.  The
effective cutoff is the smallest one whose tail bound drops below abs_tol;
one bisection over all the points of a grid finds every cutoff, with the
bound evaluated on arrays only, and refuses the first r that no cutoff up
to the cap certifies.  :func:`adaptive_n_max` is its one-point case.  The
cutoff is always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import KrausSet, bell_state
from .errors import ConfigError
from .fock import DensityMatrix, TruncationConfig, truncation_tail_bound
from .rindler import WEDGE_II, block_weights, check_r, tripartite_state

# Cap on adaptively grown truncation; it bounds the length of a record's
# series.  At the default abs_tol 1e-10 the reach lies between r = 3.12962
# (certified at exactly the cap) and r = 3.12964 (refused by adaptive_n_max).
ADAPTIVE_N_CAP = 4096

# Probabilities below this are treated as exact zeros (0 log 0 = 0).
_PROB_FLOOR = 1e-300

# Largest number of Fock levels (summed over rows) that measure_records
# evaluates in one numpy pass: 32 KB per float64 array.  A row with more
# levels is a block of its own.
_BLOCK_LEVELS = 4096


def check_abs_tol(abs_tol: float) -> None:
    """Raise ConfigError unless 0 < abs_tol < 1; NaN and inf fail too."""
    if not 0.0 < abs_tol < 1.0:
        raise ConfigError(f"abs_tol must be in (0, 1), got {abs_tol}")


def entropy_from_probabilities(probs: np.ndarray) -> float:
    """- sum p log2 p with the 0 log 0 = 0 convention; input need not sum to 1."""
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > _PROB_FLOOR]
    return float(-(p * np.log2(p)).sum()) + 0.0


def von_neumann_entropy(rho: DensityMatrix, cfg: TruncationConfig) -> float:
    """Spectral entropy in bits; PositivityError as from ``rho.assert_psd()``.

    `cfg` is unused, kept only because perfbench/run.py passes it.
    """
    ev = rho.assert_psd()
    return entropy_from_probabilities(ev)


def entanglement_fidelity_closed(r: float) -> float:
    """Closed-form entanglement fidelity (1/4) sech^2 r (1 + sech r)^2.

    Equals 1 at r = 0 and decreases strictly to 0 as the acceleration grows.
    """
    check_r(r)
    sech = 1.0 / math.cosh(r)
    return 0.25 * sech**2 * (1.0 + sech) ** 2


def input_overlap_traces(r: float, cfg: TruncationConfig) -> np.ndarray:
    """Tr(rho_in A_n) for every n, computed from the Kraus sub-diagonals.

    rho_in = |psi><psi| for the Bell amplitudes psi, so Tr(rho_in A_n) =
    sum_{a,m} psi[a, m] psi[a, m+n] <a,m+n|A_n|a,m>.  psi is supported on
    levels 0 and 1, so only the window (0, 1) enters, and the cost is O(N).
    Only n = 0 survives: the input's entries n >= 1 levels apart within an
    Alice block are zero and the trace comes out exactly 0.0, not merely
    small.  The n = 0 value is (1/2) sech r (1 + sech r).
    """
    psi = bell_state(cfg).reshaped()
    traces = []
    for n, d in KrausSet.build(r, cfg).window(0, 1):
        width = d.shape[1]
        pairs = psi[:, :width] * psi[:, n : n + width]
        traces.append(float((pairs * d).sum()))
    return np.array(traces)


def entanglement_fidelity_kraus(r: float, cfg: TruncationConfig) -> float:
    """Operator-sum fidelity sum_n (Tr rho A_n)(Tr rho A_n^T).

    All n are computed and summed; the collapse to the single n = 0 term is
    observed numerically, not assumed.
    """
    traces = input_overlap_traces(r, cfg)
    return float((traces * traces).sum())


def joint_entropy_series(r: float, cfg: TruncationConfig) -> float:
    """S(rho_AR) in bits from the block-trace series.

    The nonzero eigenvalues of the joint state are the rank-1 block traces
    lambda_n = a_n (1 + (n+1)/cosh^2 r); the series sums them to n_max.
    """
    check_r(r)
    a = block_weights(r, cfg)
    n = np.arange(cfg.n_max + 1)
    lam = a * (1.0 + (n + 1.0) / math.cosh(r) ** 2)
    return entropy_from_probabilities(lam)


def rob_entropy_series(r: float, cfg: TruncationConfig) -> float:
    """S(rho_R) in bits from the occupation-probability series.

    p_m = a_m (1 + m/sinh^2 r) has a removable 0/0 at r = 0; the equivalent
    division-free form p_m = a_m + m a_{m-1} / cosh^2 r (via a_{m-1} =
    a_m / tanh^2 r) is exact there and is what gets summed.
    """
    check_r(r)
    a = block_weights(r, cfg)
    p = a.copy()
    m = np.arange(1, cfg.n_max + 1)
    p[1:] += m * a[:-1] / math.cosh(r) ** 2
    return entropy_from_probabilities(p)


def wedge_ii_probabilities(psi) -> np.ndarray:
    """Occupation distribution of wedge II in the tripartite state.

    The wedge-II reduction is exactly diagonal in the Fock basis: both
    branches of the state tie the wedge-II occupation to the wedge-I one,
    so distinct wedge-II occupations never share an (Alice, wedge-I) index.
    Its spectrum is therefore this marginal, (c_k^2 + d_k^2)/2.
    """
    return np.ascontiguousarray((psi.reshaped() ** 2).sum(axis=(0, 1)))


def entropy_exchange(r: float, cfg: TruncationConfig) -> float:
    """Entropy acquired by the unobservable wedge, spectrally.

    S of the wedge-II reduction of the pure tripartite state; by purity it
    equals S(rho_AR).  This route eigensolves the dense reduction and is
    meant for moderate truncations.
    """
    psi = tripartite_state(r, cfg)
    rho_env = psi.reduced_density((WEDGE_II,))
    return von_neumann_entropy(rho_env, cfg)


def adaptive_n_max(r: float, abs_tol: float) -> int:
    """Certified truncation for the given r; :func:`_cutoffs` of one row.

    The smallest N >= 1 with truncation_tail_bound(r, N) < abs_tol,
    searched up to ADAPTIVE_N_CAP.  Raises ConfigError for an r that is
    negative or not finite, for an abs_tol outside (0, 1), and for an r
    whose bound at the cap is not below abs_tol, rather than returning an
    uncertified cutoff.
    """
    check_r(r)
    check_abs_tol(abs_tol)
    return _cutoffs([r], abs_tol)[0]


@dataclass(frozen=True)
class MeasureRecord:
    """Everything measured at one acceleration grid point."""

    r: float
    fe_closed: float
    fe_kraus: float
    s_ar: float
    s_r: float
    s_a: float
    s_e: float
    mutual_info: float
    subadd_margin: float
    tail: float
    n_used: int


def measure_record(r: float, abs_tol: float) -> MeasureRecord:
    """The record at one r: :func:`measure_records` of a one-point grid."""
    return measure_records([r], abs_tol)[0]


def measure_records(rs: Iterable[float], abs_tol: float) -> list[MeasureRecord]:
    """Evaluate the full record at every r, in order.

    Each cutoff n_used is :func:`adaptive_n_max`'s, found for all rows by
    one search; the first r in order that no cutoff certifies raises
    ConfigError before any row is evaluated.  s_ar and s_r are bitwise
    joint_entropy_series and rob_entropy_series at n_used, and tail is the
    mean of the exact weights the two truncated branches discard.  fe_kraus
    keeps the one nonzero operator-sum term: on the input support A_0 = diag(1, cosh r) (x)
    1 / cosh^2 r, so Tr(rho_in A_0) = (1 + cosh r) / (2 cosh^2 r).
    """
    rs = [float(r) for r in rs]
    for r in rs:
        check_r(r)
    check_abs_tol(abs_tol)
    n_used = _cutoffs(rs, abs_tol)
    records: list[MeasureRecord] = []
    start = levels = 0
    for k, n in enumerate(n_used):
        if levels and levels + n + 1 > _BLOCK_LEVELS:
            records += _block_records(rs[start:k], n_used[start:k])
            start, levels = k, 0
        levels += n + 1
    if rs:
        records += _block_records(rs[start:], n_used[start:])
    return records


def _cutoffs(rs: list[float], abs_tol: float) -> list[int]:
    """The smallest N >= 1 with truncation_tail_bound(r, N) < abs_tol, per r.

    One bisection over all rows at once, which finds the smallest N because
    a row's certified cutoffs are the interval [N, ADAPTIVE_N_CAP].  The
    bound is evaluated elementwise, so a row's result does not depend on
    the other rows.  The first r in order with no cutoff up to the cap
    raises ConfigError.
    """
    r = np.array(rs, dtype=np.float64)
    lo = np.ones(r.size, dtype=np.int64)
    hi = np.full(r.size, ADAPTIVE_N_CAP + 1, dtype=np.int64)
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        below = truncation_tail_bound(r, mid) < abs_tol
        hi = np.where(active & below, mid, hi)
        lo = np.where(active & ~below, mid + 1, lo)
    refused = np.flatnonzero(lo > ADAPTIVE_N_CAP)
    if refused.size:
        first = rs[refused[0]]
        bound = truncation_tail_bound(first, ADAPTIVE_N_CAP)
        raise ConfigError(
            f"r = {first:g} needs a cutoff above the adaptive cap n_max = "
            f"{ADAPTIVE_N_CAP}: there the tail bound {bound:.3e} is not below "
            f"abs_tol = {abs_tol:g}"
        )
    return lo.tolist()


def _block_records(rs: list[float], n_used: list[int]) -> list[MeasureRecord]:
    """Records for consecutive rows whose levels 0..n_used share one array.

    Every row's values are a contiguous slice, and each sum is taken over
    its own slice (pairwise, as entropy_from_probabilities sums); the
    scalars per row come from math.tanh and math.cosh, as in the series.
    """
    t = [math.tanh(r) for r in rs]
    ch = [math.cosh(r) for r in rs]
    q = [x**2 for x in t]
    ch2 = [x**2 for x in ch]
    counts = np.array(n_used) + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    row = np.repeat(np.arange(len(rs)), counts)
    n = (np.arange(int(ends[-1])) - starts[row]).astype(np.float64)
    edges = np.append(starts, len(n))
    ch2_n = np.array(ch2)[row]

    a = np.array(q)[row] ** n / (2.0 * np.array(ch2))[row]
    lam = a * (1.0 + (n + 1.0) / ch2_n)
    s_ar = _row_entropies(lam, edges)
    lam_edge, a_edge = lam[ends - 1].tolist(), a[ends - 1].tolist()
    a_prev = np.concatenate(([0.0], a[:-1]))  # n * a_prev is 0 at n = 0
    s_r = _row_entropies(a + n * a_prev / ch2_n, edges)

    records = []
    for k, (r, n_k) in enumerate(zip(rs, n_used)):
        trace_0 = 0.5 * (1.0 + ch[k]) / ch2[k]
        tail_c = t[k] ** (2 * (n_k + 1))
        tail_d = q[k] ** n_k * ((n_k + 1) - n_k * q[k])
        s_a = _plogp((1.0 - tail_d) / 2.0) + _plogp((1.0 - tail_c) / 2.0)
        s_e = s_ar[k] - _plogp(lam_edge[k]) + _plogp(a_edge[k])
        records.append(
            MeasureRecord(
                r=r,
                fe_closed=entanglement_fidelity_closed(r),
                fe_kraus=trace_0 * trace_0,
                s_ar=s_ar[k],
                s_r=s_r[k],
                s_a=s_a,
                s_e=s_e,
                mutual_info=1.0 + s_r[k] - s_ar[k],
                subadd_margin=s_a + s_r[k] - s_ar[k],
                tail=(tail_c + tail_d) / 2.0,
                n_used=n_k,
            )
        )
    return records


def _plogp(p: float) -> float:
    """-p log2 p, and 0 for p at or below _PROB_FLOOR (0 log 0 = 0)."""
    return -p * math.log2(p) if p > _PROB_FLOOR else 0.0


def _row_entropies(probs: np.ndarray, edges: np.ndarray) -> list[float]:
    """entropy_from_probabilities(probs[edges[k]:edges[k + 1]]) for every k.

    p log2 p is evaluated once over the kept entries of the whole block;
    each row's run of it is summed on its own, pairwise as in the per-row
    call, so the results are bitwise equal.
    """
    kept = np.flatnonzero(probs > _PROB_FLOOR)
    x = probs[kept]
    plogp = x * np.log2(x)
    cuts = np.searchsorted(kept, edges).tolist()
    return [
        -float(plogp[lo:hi].sum()) + 0.0 if hi > lo else 0.0
        for lo, hi in zip(cuts, cuts[1:])
    ]
