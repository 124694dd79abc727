"""Scalar figures of merit along the acceleration axis.

Entropies are in bits (log base 2) throughout.  Sweep records
(:func:`measure_record`) are computed from the 1-D mode weights c_n and d_n
alone, O(N) work and memory per point.  Every quantity in a record also has
an independent route through the dense matrices, kept here as the oracle
that tests and `verify` hold the records against:

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
:func:`adaptive_n_max` alone chooses the effective cutoff, the smallest one
whose tail bound drops below abs_tol, and refuses an r that no cutoff up to
the cap certifies.  The cutoff is always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import KrausSet, bell_input_density
from .errors import ConfigError
from .fock import DensityMatrix, TruncationConfig, check_abs_tol, truncation_tail_bound
from .rindler import (
    WEDGE_II,
    block_weights,
    check_r,
    one_particle_mode_weights,
    tripartite_state,
    vacuum_mode_weights,
)

# Cap on adaptively grown truncation; it bounds the length of a record's
# series.  Past r ~ 3.14 the tail bound at the cap exceeds the default
# abs_tol, and adaptive_n_max refuses such an r.
ADAPTIVE_N_CAP = 4096

# Probabilities below this are treated as exact zeros (0 log 0 = 0).
_PROB_FLOOR = 1e-300


def entropy_from_probabilities(probs: np.ndarray) -> float:
    """- sum p log2 p with the 0 log 0 = 0 convention; input need not sum to 1."""
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > _PROB_FLOOR]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum()) + 0.0


def von_neumann_entropy(rho: DensityMatrix, cfg: TruncationConfig) -> float:
    """Spectral entropy in bits; PositivityError if an eigenvalue < -abs_tol."""
    ev = rho.assert_psd(cfg)
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
    """Evaluate the full record at one r from the mode weights alone.

    The cutoff n_used is :func:`adaptive_n_max`, which refuses with
    ConfigError an r it cannot certify rather than letting it be returned
    unconverged.  With c and d the vacuum and one-particle weights at
    n_used: s_ar and s_r are the series; s_a is the entropy of Alice's
    diagonal reduction diag(||d||^2/2, ||c||^2/2); s_e that of the
    diagonal wedge-II reduction (c_k^2 + d_k^2)/2; tail is the state's
    norm deficit, the mean of the exact weights the two truncated branches
    discard; subadd_margin is s_a + s_r - s_ar.  fe_kraus keeps the one
    nonzero operator-sum term: on the input support A_0 = diag(1, cosh r)
    (x) 1 / cosh^2 r, so Tr(rho_in A_0) = (1 + cosh r) / (2 cosh^2 r).
    """
    n_used = adaptive_n_max(r, abs_tol)
    eff = TruncationConfig(n_used, abs_tol)
    c, tail_c = vacuum_mode_weights(r, eff)
    d, tail_d = one_particle_mode_weights(r, eff)
    norm_c, norm_d = float(c @ c), float(d @ d)
    wedge_ii = 0.5 * c * c
    wedge_ii[:-1] += 0.5 * d * d

    ch = math.cosh(r)
    trace_0 = 0.5 * (1.0 + ch) / ch**2
    s_ar = joint_entropy_series(r, eff)
    s_r = rob_entropy_series(r, eff)
    s_a = entropy_from_probabilities(np.array([norm_d, norm_c]) / 2.0)
    return MeasureRecord(
        r=float(r),
        fe_closed=entanglement_fidelity_closed(r),
        fe_kraus=trace_0 * trace_0,
        s_ar=s_ar,
        s_r=s_r,
        s_a=s_a,
        s_e=entropy_from_probabilities(wedge_ii),
        mutual_info=1.0 + s_r - s_ar,
        subadd_margin=s_a + s_r - s_ar,
        tail=(tail_c + tail_d) / 2.0,
        n_used=n_used,
    )
