"""Scalar figures of merit along the acceleration axis.

Entropies are in bits (log base 2) throughout.  Sweep records
(:func:`measure_records`; :func:`measure_record` is its one-point case) are
computed from the 1-D mode weights c_n and d_n alone, O(N) work per point.
Consecutive grid points share one numpy pass over their levels, in blocks
of at most 4096 levels (32 KB per array), and every field comes out bitwise
equal to the per-row series below at the same cutoff.  Every quantity in a
record also has an independent route through the dense matrices, kept here
as the oracle that tests and `verify` hold the records against:

  - entanglement fidelity: closed form (1/4) sech^2 r (1 + sech r)^2 versus
    the operator-sum trace sum_n (Tr rho A_n)^2, where every n >= 1 trace
    vanishes identically because A_n shifts the mode occupation;
  - joint entropy S(rho_AR): series over the rank-1 block traces
    a_n (1 + (n+1)/cosh^2 r) versus the eigensolve of the dense matrix;
  - Rob's entropy S(rho_R): series a_n + n a_{n-1}/cosh^2 r (the
    division-free form of a_n (1 + n/sinh^2 r), exact at r = 0) versus the
    eigensolve of the traced reduction;
  - entropy exchange: S of the wedge-II reduction of the pure tripartite
    state, which equals S(rho_AR) because the global state is pure.  The
    reduction is diagonal with entries (c_k^2 + d_k^2)/2;
  - Alice's entropy: her reduction is diag(||d||^2/2, ||c||^2/2) versus
    the eigensolve of the tripartite state's reduction.

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
    if p.size == 0:
        return 0.0
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

    Tr(rho A_n) = sum_{a,m} <a,m|rho|a,m+n> <a,m+n|A_n|a,m>.  Only n = 0
    survives: the input is supported on |0,1> and |1,0>, so its entries
    n >= 1 levels apart within an Alice block are zero and the trace comes
    out exactly 0.0, not merely small.  The n = 0 value is
    (1/2) sech r (1 + sech r).
    """
    ks = KrausSet.build(r, cfg)
    rho4 = bell_input_density(cfg).mat.reshape(2, cfg.dim, 2, cfg.dim)
    alice_blocks = np.einsum("iaib->iab", rho4)
    return np.array(
        [
            float((np.diagonal(alice_blocks, n, axis1=1, axis2=2) * d).sum())
            for n, d in enumerate(ks.diagonals)
        ]
    )


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
    meant for moderate truncations; sweep records use the exact diagonal
    marginal instead.
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
    """Evaluate the full record at every r, in order, from the mode weights.

    Each cutoff n_used is :func:`adaptive_n_max`'s; an r it cannot certify
    raises its ConfigError (the first such r in order) before any row is
    evaluated.  With c and d the vacuum and one-particle weights at n_used:
    s_ar and s_r are the series; s_a is the entropy of Alice's diagonal
    reduction diag(||d||^2/2, ||c||^2/2); s_e that of the diagonal wedge-II
    reduction (c_k^2 + d_k^2)/2; tail is the state's norm deficit, the mean
    of the exact weights the two truncated branches discard; subadd_margin
    is s_a + s_r - s_ar.  fe_kraus keeps the one nonzero operator-sum term:
    on the input support A_0 = diag(1, cosh r) (x) 1 / cosh^2 r, so
    Tr(rho_in A_0) = (1 + cosh r) / (2 cosh^2 r).

    Consecutive rows are evaluated together, at most _BLOCK_LEVELS levels
    per block, with the same float operations on the same values as the
    per-row series (joint_entropy_series, rob_entropy_series and the mode
    weights), so every field is bitwise what those give at n_used.
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

    # tanh^n r gives the mode weights c and d (d's last level per row is
    # unused); Alice's reduction diag(||d||^2/2, ||c||^2/2) and the wedge-II
    # marginal (c_n^2 + d_n^2)/2 need nothing else
    t_n = np.array(t)[row] ** n
    c = t_n / np.array(ch)[row]
    d = np.sqrt(n + 1.0) * t_n / ch2_n
    norms = [
        (float(d[lo : hi - 1] @ d[lo : hi - 1]), float(c[lo:hi] @ c[lo:hi]))
        for lo, hi in zip(starts.tolist(), ends.tolist())
    ]
    s_a = _row_entropies(np.ravel(norms) / 2.0, np.arange(0, 2 * len(rs) + 1, 2))
    half_dd = 0.5 * d * d
    half_dd[ends - 1] = 0.0
    s_e = _row_entropies(0.5 * c * c + half_dd, edges)
    del t_n, c, d, half_dd  # fewer block arrays alive at once

    # q^n gives the block weights a_n, and from them the joint spectrum
    # lambda_n and Rob's occupations p_n
    a = np.array(q)[row] ** n / (2.0 * np.array(ch2))[row]
    s_ar = _row_entropies(a * (1.0 + (n + 1.0) / ch2_n), edges)
    a_prev = np.concatenate(([0.0], a[:-1]))  # n * a_prev is 0 at n = 0
    s_r = _row_entropies(a + n * a_prev / ch2_n, edges)

    records = []
    for k, (r, n_k) in enumerate(zip(rs, n_used)):
        trace_0 = 0.5 * (1.0 + ch[k]) / ch2[k]
        tail_c = t[k] ** (2 * (n_k + 1))
        tail_d = q[k] ** n_k * ((n_k + 1) - n_k * q[k])
        records.append(
            MeasureRecord(
                r=r,
                fe_closed=entanglement_fidelity_closed(r),
                fe_kraus=trace_0 * trace_0,
                s_ar=s_ar[k],
                s_r=s_r[k],
                s_a=s_a[k],
                s_e=s_e[k],
                mutual_info=1.0 + s_r[k] - s_ar[k],
                subadd_margin=s_a[k] + s_r[k] - s_ar[k],
                tail=(tail_c + tail_d) / 2.0,
                n_used=n_k,
            )
        )
    return records


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
