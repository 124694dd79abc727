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
sinh^2 r, so honest entropies at r = 3 need thousands of Fock levels.
:func:`adaptive_n_max` defines the effective cutoff, the smallest one whose
tail bound drops below abs_tol, and refuses an r that no cutoff up to the
cap certifies; a sweep finds the same cutoffs with one bisection over all
its points.  The cutoff is always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import KrausSet, bell_input_density
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

    Tr(rho A_n) = sum_{a,m} <a,m|rho|a,m+n> <a,m+n|A_n|a,m>, and the input
    is supported on levels 0 and 1, so only the window (0, 1) enters.  Only
    n = 0 survives: the input's entries n >= 1 levels apart within an Alice
    block are zero and the trace comes out exactly 0.0, not merely small.
    The n = 0 value is (1/2) sech r (1 + sech r).
    """
    rho4 = bell_input_density(cfg).mat.reshape(2, cfg.dim, 2, cfg.dim)
    alice_blocks = np.einsum("iaib->iab", rho4)
    traces = []
    for n, d in KrausSet.build(r, cfg).window(0, 1):
        overlap = np.diagonal(alice_blocks, n, axis1=1, axis2=2)[:, : d.shape[1]]
        traces.append(float((overlap * d).sum()))
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
    """Certified truncation for the given r.

    The smallest N >= 1 with truncation_tail_bound(r, N) < abs_tol,
    searched up to ADAPTIVE_N_CAP.  Raises ConfigError for an r that is
    negative or not finite, for an abs_tol outside (0, 1), and for an r
    whose bound at the cap is not below abs_tol, rather than returning an
    uncertified cutoff.
    """
    check_r(r)
    check_abs_tol(abs_tol)
    bound = truncation_tail_bound(r, ADAPTIVE_N_CAP)
    if bound >= abs_tol:
        raise ConfigError(
            f"r = {r:g} needs a cutoff above the adaptive cap n_max = "
            f"{ADAPTIVE_N_CAP}: there the tail bound {bound:.3e} is not below "
            f"abs_tol = {abs_tol:g}"
        )
    lo, hi = 1, ADAPTIVE_N_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if truncation_tail_bound(r, mid) < abs_tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


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

    Each cutoff n_used is :func:`adaptive_n_max`'s; an r it cannot certify
    raises its ConfigError (the first such r in order) before any row is
    evaluated.  s_ar and s_r are bitwise joint_entropy_series and
    rob_entropy_series at n_used, and tail is the mean of the exact weights
    the two truncated branches discard.  fe_kraus keeps the one nonzero
    operator-sum term: on the input support A_0 = diag(1, cosh r) (x)
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


def _tail_bounds(q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """truncation_tail_bound over arrays of q = tanh^2 r and cutoffs n."""
    return np.maximum((n + 2) * q ** (n + 1), q**n * ((n + 1) - n * q))


def _cutoffs(rs: list[float], abs_tol: float) -> list[int]:
    """adaptive_n_max(r, abs_tol) for every r, from one bisection over all rows.

    numpy's array pow differs from Python's in the last ulp for a few
    (q, N), so each row's result is confirmed with the scalar bound, and
    stepped where the two disagree: bound(N) < abs_tol, and N == 1 or
    bound(N - 1) >= abs_tol.  N = ADAPTIVE_N_CAP + 1 stands for "no
    cutoff"; such a row goes to adaptive_n_max, which refuses it.
    """
    q = np.array([math.tanh(r) ** 2 for r in rs])
    lo = np.ones(len(rs), dtype=np.int64)
    hi = np.full(len(rs), ADAPTIVE_N_CAP + 1, dtype=np.int64)
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        below = _tail_bounds(q, mid) < abs_tol
        hi = np.where(active & below, mid, hi)
        lo = np.where(active & ~below, mid + 1, lo)
    cutoffs = []
    for r, n in zip(rs, lo.tolist()):
        while n > 1 and truncation_tail_bound(r, n - 1) < abs_tol:
            n -= 1
        while n <= ADAPTIVE_N_CAP and not truncation_tail_bound(r, n) < abs_tol:
            n += 1
        cutoffs.append(n if n <= ADAPTIVE_N_CAP else adaptive_n_max(r, abs_tol))
    return cutoffs


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
