"""Scalar figures of merit along the acceleration axis.

Entropies are in bits (log base 2) throughout.  A sweep record
(:func:`measure_records`; :func:`measure_record` is its one-point case)
costs O(K + J) per point, whatever its cutoff N.  Its entropies are sums
over the block weights a_n = tanh^(2n) r / (2 cosh^2 r): the joint
spectrum lambda_n = a_n (1 + (n+1)/cosh^2 r) for S(rho_AR) and Rob's
occupations p_n = a_n + n a_{n-1}/cosh^2 r for S(rho_R).  One series pass
takes every such sum (:func:`_series_entropies`).  It adds the levels
below K = _EM_HEAD term by term and sums the rest of a longer row by
Euler-Maclaurin (:func:`_series_tails`): the integral in closed form, with
one exp(y) E1(y) (:func:`_scaled_e1`, a fixed quadrature, since numpy has
no E1), the endpoint halves and J = _EM_TERMS Bernoulli terms with
closed-form derivatives.  Each such row has a closed-form majorant of the
remainder, and a row whose majorant is not below _EM_BOUND = 1e-13 is
refused with ConfigError.  A block of _BLOCK_ROWS records is one array
pass (:func:`_block_fields`): the series pass, then closed forms written
once on arrays, whose scalar calls are their length-1 case.  The per-row
series are the series pass on one row, and
:func:`entropy_from_probabilities` is its term-by-term sum on one row.
Alice's reduction is diag(||d||^2/2, ||c||^2/2), and the norms of the
mode weights c_n and d_n are 1 - tail_c and 1 - tail_d.  Every
field describes the tripartite state cut at N = n_used, whose last block
keeps only |1, N> (so lambda_N is a_N); that state is pure, so the entropy
exchange s_e is s_ar.  The independent routes are the blockwise
eigensolves of the entry-list states (see :mod:`unruhsim.fock`), kept
here as the oracle that tests and `verify` hold the records against, at
any cutoff up to the production one:
the spectra of rho_AR, of Rob's reduction, and of the tripartite state's
Alice and wedge-II (:func:`entropy_exchange`) reductions; and, for the
fidelity, the operator-sum trace sum_n (Tr rho A_n)^2, where every n >= 1
trace vanishes identically because A_n shifts the mode occupation.

Truncation grows adaptively with r: the mean occupation grows like
sinh^2 r, so honest entropies at r = 3 need thousands of Fock levels.  The
effective cutoff is the smallest one whose tail bound drops below abs_tol;
one bisection over all the points of a grid finds every cutoff, with the
bound evaluated on arrays only, and refuses the first r that no cutoff up
to the cap certifies.  :func:`adaptive_n_max` is its one-point case.  The
cutoff is always reported.  The cap bounds how far r reaches, not the
work of a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import KrausSet, bell_state
from .errors import ConfigError
from .fock import DensityMatrix, TruncationConfig
from .rindler import (
    WEDGE_II,
    check_r,
    discarded_weights,
    tripartite_state,
    truncation_tail_bound,
)

# Cap on adaptively grown truncation.  It bounds the reach, not the work
# of a record, which is the same at every cutoff.  At the default abs_tol
# 1e-10 the reach lies between r = 3.12962 (certified at exactly the cap)
# and r = 3.12964 (refused by adaptive_n_max).
ADAPTIVE_N_CAP = 4096

# Probabilities below this are treated as exact zeros (0 log 0 = 0).
_PROB_FLOOR = 1e-300

# Rows that measure_records evaluates in one numpy pass.  A row takes at
# most _EM_HEAD + 1 levels of direct sum and a fixed number of tail terms,
# so a pass holds O(_BLOCK_ROWS) values whatever the cutoffs.
_BLOCK_ROWS = 128

# A row longer than _EM_HEAD levels sums its levels from _EM_HEAD on by
# Euler-Maclaurin with _EM_TERMS Bernoulli terms.  With K = 32 and J = 5
# the remainder majorant stays below 3.1e-15 for every r up to the reach
# (largest, for S_R, near r = 1.23); a row whose majorant is not below
# _EM_BOUND is refused.
_EM_HEAD = 32
_EM_TERMS = 5
_EM_BOUND = 1e-13

# Bernoulli numbers B_2, B_4, ..., B_10.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)

# The sign of each end's integral and Bernoulli terms: + at K, - at the last level.
_END_SIGNS = np.array([[1.0], [1.0], [-1.0], [-1.0]])

# exp(y) E1(y) = the integral of e^(-t) / (y + t) over t > 0, by the
# trapezoid rule in tau after t = exp(tau - e^(-tau)), step 1/4 over
# [-4, 4]: 33 nodes t, with weights all positive, so no sum cancels.
# Within 6 ulp of mpmath over y in [1, 1e8].
_E1_TAU = np.arange(-16, 17) / 4.0
_E1_NODES = np.exp(_E1_TAU - np.exp(-_E1_TAU))
_E1_WEIGHTS = 0.25 * _E1_NODES * (1.0 + np.exp(-_E1_TAU)) * np.exp(-_E1_NODES)


def check_abs_tol(abs_tol: float) -> None:
    """Raise ConfigError unless 0 < abs_tol < 1; NaN, inf and non-numbers fail too."""
    try:
        valid = 0.0 < abs_tol < 1.0
    except TypeError:  # None, a string, ...
        valid = False
    if not valid:
        raise ConfigError(f"abs_tol must be in (0, 1), got {abs_tol}")


def entropy_from_probabilities(probs: np.ndarray) -> float:
    """- sum p log2 p (0 log 0 = 0; need not sum to 1): _row_entropies of one row."""
    return float(_row_entropies(np.asarray(probs, dtype=np.float64).reshape(1, -1))[0])


def von_neumann_entropy(rho: DensityMatrix, cfg: TruncationConfig) -> float:
    """Spectral entropy in bits; PositivityError as from ``rho.assert_psd()``.

    `cfg` is unused, kept only because perfbench/run.py passes it.
    """
    ev = rho.assert_psd()
    return entropy_from_probabilities(ev)


def entanglement_fidelity_closed(r: float | np.ndarray) -> float | np.ndarray:
    """Closed-form entanglement fidelity (1/4) sech^2 r (1 + sech r)^2.

    Equals 1 at r = 0 and decreases strictly to 0 as the acceleration grows.
    Evaluated on arrays, like :func:`~unruhsim.rindler.discarded_weights`:
    a scalar r is checked with check_r and is the length-1 case, returned
    as a float.
    """
    if np.ndim(r) == 0:
        check_r(r)
    sech = 1.0 / np.cosh(np.atleast_1d(r))
    fidelity = 0.25 * sech**2 * (1.0 + sech) ** 2
    return float(fidelity[0]) if np.ndim(r) == 0 else fidelity


def input_overlap_traces(r: float, cfg: TruncationConfig) -> np.ndarray:
    """Tr(rho_in A_n) for every n, computed from the Kraus sub-diagonals.

    rho_in = |psi><psi| for the Bell amplitudes psi, so Tr(rho_in A_n) =
    sum_{a,m} psi[a, m] psi[a, m+n] <a,m+n|A_n|a,m>.  psi is supported on
    levels 0 and 1, so only the sub-diagonals on columns 0 and 1 enter,
    for every n at once, and the cost is O(N).
    Only n = 0 survives: the input's entries n >= 1 levels apart within an
    Alice block are zero and the trace comes out exactly 0.0, not merely
    small.  The n = 0 value is (1/2) sech r (1 + sech r).
    """
    psi = bell_state(cfg).reshaped()
    table = KrausSet.build(r, cfg).sub_diagonals(0, 1)  # d[n, a, m], m = 0, 1
    ahead = np.append(psi, np.zeros((2, 1)), axis=1)  # 0.0 past the cutoff
    partner = ahead[:, np.arange(cfg.dim)[:, None] + np.arange(2)]  # psi[a, m + n]
    return (psi[:, None, :2] * partner * table.transpose(1, 0, 2)).sum(axis=(0, 2))


def entanglement_fidelity_kraus(r: float, cfg: TruncationConfig) -> float:
    """Operator-sum fidelity sum_n (Tr rho A_n)(Tr rho A_n^T).

    All n are computed and summed; the collapse to the single n = 0 term is
    observed numerically, not assumed.
    """
    traces = input_overlap_traces(r, cfg)
    return float((traces * traces).sum())


def joint_entropy_series(r: float, cfg: TruncationConfig) -> float:
    """S(rho_AR) in bits: the entropy of rho_alice_rob(r, cfg), as a series.

    The s_ar of :func:`_series_entropies` on this one row, so it is bitwise
    a sweep row's s_ar at the same cutoff.
    """
    return _row_series(r, cfg.n_max)[0]


def rob_entropy_series(r: float, cfg: TruncationConfig) -> float:
    """S(rho_R) in bits: Rob's occupation series of rho_alice_rob(r, cfg).

    The s_r of :func:`_series_entropies` on this one row, so it is bitwise
    a sweep row's s_r at the same cutoff.
    """
    return _row_series(r, cfg.n_max)[1]


def wedge_ii_probabilities(psi) -> np.ndarray:
    """Occupation distribution of wedge II in the tripartite state.

    The wedge-II reduction is exactly diagonal in the Fock basis: both
    branches of the state tie the wedge-II occupation to the wedge-I one,
    so distinct wedge-II occupations never share an (Alice, wedge-I) index.
    Its spectrum is therefore this marginal, (c_k^2 + d_k^2)/2, summed
    from psi's entries.
    """
    axis = psi.layout.axis(WEDGE_II)
    level = np.unravel_index(psi.index, psi.layout.dims)[axis]
    return np.bincount(level, weights=psi.vals**2, minlength=psi.layout.dims[axis])


def entropy_exchange(r: float, cfg: TruncationConfig) -> float:
    """Entropy acquired by the unobservable wedge, spectrally.

    S of the wedge-II reduction of the pure tripartite state; by purity it
    equals S(rho_AR).  This route eigensolves the reduction, built from
    the state's O(N) entries, so it runs at the production cutoff too.
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
    return int(_cutoffs(np.array([r], dtype=np.float64), abs_tol)[0])


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
    ConfigError before any row is evaluated.  The rows are then evaluated
    in passes of _BLOCK_ROWS (:func:`_block_fields`), and the records are
    built once, from the columns.
    """
    rs = list(rs)
    for r in rs:
        check_r(r)
    check_abs_tol(abs_tol)
    r = np.array(rs, dtype=np.float64)
    n_used = _cutoffs(r, abs_tol)
    edges = range(_BLOCK_ROWS, r.size, _BLOCK_ROWS)
    blocks = map(_block_fields, np.split(r, edges), np.split(n_used, edges))
    columns = [np.concatenate(column).tolist() for column in zip(*blocks)]
    return [MeasureRecord(*row) for row in zip(*columns, n_used.tolist())]


def _block_fields(r: np.ndarray, n_used: np.ndarray) -> tuple[np.ndarray, ...]:
    """The fields of consecutive records but n_used, in MeasureRecord order, as arrays.

    One array pass: cosh r once, for :func:`_series_entropies` and
    fe_kraus, then the closed forms.  tail is the mean of the exact weights
    the two truncated branches discard, and s_a the entropy of Alice's
    reduction diag(1 - tail_d, 1 - tail_c) / 2.
    fe_kraus keeps the one nonzero operator-sum term: on the input support
    A_0 = diag(1, cosh r) (x) 1 / cosh^2 r, so Tr(rho_in A_0) =
    (1 + cosh r) / (2 cosh^2 r).
    """
    ch = np.cosh(r)
    s_ar, s_r = _series_entropies(r, n_used, ch)
    tail_c, tail_d = discarded_weights(r, n_used)
    s_a = _row_entropies(np.stack((1.0 - tail_d, 1.0 - tail_c), axis=-1) / 2.0)
    trace_0 = 0.5 * (1.0 + ch) / (ch * ch)
    return (
        r,
        entanglement_fidelity_closed(r),
        trace_0 * trace_0,
        s_ar,
        s_r,
        s_a,
        s_ar,
        1.0 + s_r - s_ar,
        s_a + s_r - s_ar,
        (tail_c + tail_d) / 2.0,
    )


def _cutoffs(r: np.ndarray, abs_tol: float) -> np.ndarray:
    """The smallest N >= 1 with truncation_tail_bound(r, N) < abs_tol, per r.

    One bisection over all rows at once, which finds the smallest N because
    a row's certified cutoffs are the interval [N, ADAPTIVE_N_CAP].  The
    bound is evaluated elementwise, so a row's result does not depend on
    the other rows.  The first r in order with no cutoff up to the cap
    raises ConfigError.
    """
    lo = np.ones(r.size, dtype=np.int64)
    hi = np.full(r.size, ADAPTIVE_N_CAP + 1, dtype=np.int64)
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        below = truncation_tail_bound(r, mid) < abs_tol
        hi = np.where(active & below, mid, hi)
        lo = np.where(active & ~below, mid + 1, lo)
    refused = np.flatnonzero(lo > ADAPTIVE_N_CAP)
    if refused.size:
        first = float(r[refused[0]])
        bound = truncation_tail_bound(first, ADAPTIVE_N_CAP)
        raise ConfigError(
            f"r = {first:g} needs a cutoff above the adaptive cap n_max = "
            f"{ADAPTIVE_N_CAP}: there the tail bound {bound:.3e} is not below "
            f"abs_tol = {abs_tol:g}"
        )
    return lo


def _row_series(r: float, n_used: int) -> list[float]:
    """(s_ar, s_r) of one checked r: :func:`_series_entropies` on length-1 arrays."""
    check_r(r)
    r = np.array([r], dtype=np.float64)
    return _series_entropies(r, np.array([n_used]), np.cosh(r))[:, 0].tolist()


def _series_entropies(r: np.ndarray, n_used: np.ndarray, ch: np.ndarray) -> np.ndarray:
    """[s_ar, s_r] of consecutive rows, given ch = cosh r, as a (2, rows) array.

    The one series pass: the joint spectrum lambda_n and Rob's occupations
    p_n of every row, with the levels 0.._EM_HEAD of a row on one line of
    an array.  A row with n_used = N <= _EM_HEAD is summed there term by
    term; the state cut at N keeps only |1, N> of block N, so its last
    joint eigenvalue is lambda_N = a_N.  A longer row sums its levels below
    _EM_HEAD there and the rest in :func:`_series_tails`.  No step mixes
    rows, so a row's bits do not depend on the rows evaluated with it.
    """
    q, s = np.tanh(r) ** 2, 1.0 / (ch * ch)
    short = (n_used <= _EM_HEAD).nonzero()[0]
    # a short row's slots are its levels 0..N, a long row's 0.._EM_HEAD - 1
    # and a 0.0, which leaves its pairwise sum unchanged, if a short row
    # needs slot _EM_HEAD
    slot = np.arange(_EM_HEAD + (short.size > 0) + 0.0)
    # a_n = q^n s/2, lambda_n = a_n (1 + (n+1) s) and p_n = a_n + n s a_(n-1)
    joint, rob = probs = np.empty((2, r.size, slot.size))
    np.multiply(q[:, None] ** slot, 0.5 * s[:, None], out=rob)
    level_s = (slot + 1.0) * s[:, None]  # (n + 1) s
    np.multiply(rob, 1.0 + level_s, out=joint)
    if short.size:
        edge = n_used[short]
        joint[short, edge] = rob[short, edge]  # lambda_N = a_N
    rob[:, 1:] += level_s[:, :-1] * rob[:, :-1]
    if short.size:
        # zero the slots past a row's last: N, or _EM_HEAD - 1 for a long
        # row, whose level _EM_HEAD is in its tail
        long = n_used > _EM_HEAD
        probs[:, slot > np.where(long, _EM_HEAD - 1, n_used)[:, None]] = 0.0
    sums = _row_entropies(probs)
    if short.size < r.size:  # some row is long
        rows = long if short.size else slice(None)  # all long: views, not copies
        sums[:, rows] += _series_tails(r[rows], n_used[rows], q[rows], s[rows])[0]
    return sums


def _series_tails(
    r: np.ndarray, n_used: np.ndarray, q: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the levels _EM_HEAD..N of both series, and their remainder majorants.

    The summand at level x is -w u ln(w u) / ln 2 with w = (s/2) q^(x - d)
    and u = c + s x, where s = sech^2 r: c = 1 + s and d = 0 for lambda_x,
    which is smooth up to x = N - 1 (lambda_N = a_N = (s/2) q^N is added
    on its own), and c = q and d = 1 for p_x, up to x = N.  Over the levels
    [K, M] the Euler-Maclaurin sum is :func:`_tail_ends` at K plus at M.
    Both results are [s_ar, s_r] arrays of shape (2, rows); a row whose
    majorant is not below _EM_BOUND raises ConfigError.  Every operation
    is elementwise or sums along the last axis, so a row's bits do not
    depend on the rows evaluated with it.
    """
    head = np.full(r.shape, _EM_HEAD + 0.0)
    last = n_used - 1.0
    c_joint = 1.0 + s
    # one line per end: lambda at K, p at K, lambda at N - 1, p at N
    x, c, shift = np.array(
        [
            *(head, head, last, n_used),
            *(c_joint, q, c_joint, q),
            *(head, head - 1.0, last, last),  # x - d
        ]
    ).reshape(3, 4, -1)
    beta = -np.log1p(-s)  # -ln q
    log_half_s = np.log(0.5 * s)
    values, majorants = _tail_ends(x, c, shift, s, beta, log_half_s)
    if not majorants.max() < _EM_BOUND:  # NaN fails too
        k, row = np.argwhere(~(majorants < _EM_BOUND))[0]
        raise ConfigError(
            f"r = {r[row]:g}: the Euler-Maclaurin remainder bound "
            f"{majorants[k, row]:.3e} of {('s_ar', 's_r')[k]} is not below {_EM_BOUND:g}"
        )
    log_edge = log_half_s - beta * n_used  # ln a_N
    sums = values[:2] + values[2:]
    sums[0] += np.exp(log_edge) * log_edge
    return sums / -math.log(2.0), majorants


def _tail_ends(x, c, shift, s, beta, log_half_s):
    """w (+-(I - B) + g / 2) at each end x, and the remainder majorants at the K ends.

    Each line of x, c and shift = x - d is one end; s, beta and ln(s/2)
    are per row.  f = -e^(-beta x) g / ln 2 up to the row's constant, with
    g = u ln(w u); I = the integral of e^(-beta (t - x)) g(t) over
    [x, oo), closed-form with one exp(y) E1(y) at y = (beta / s) u >= 1;
    B = the Bernoulli terms.  Both B and the majorant, read at the K ends
    (the first two lines), are sums over the basis of :func:`_em_tables`
    with coefficients polynomial in beta.
    """
    log_w = log_half_s - beta * shift
    u = c + s * x
    log_f = log_w + np.log(u)
    y = beta / s * u
    rest = s / (beta * beta) * ((y + 1.0) * (log_f - 1.0) + _scaled_e1(y))
    tables = _EM_TABLES[_EM_TERMS]
    basis = np.empty(u.shape + (tables.shape[1],))
    basis[..., 0] = u * log_f
    basis[..., 1] = s * log_f
    basis[..., 2] = u
    basis[..., 3] = rest
    basis[..., 4] = s * log_w
    basis[..., 5:] = (s / u)[..., None]
    basis[..., 5] = s
    np.multiply.accumulate(basis[..., 5:], axis=-1, out=basis[..., 5:])
    powers = beta[:, None] ** np.arange(-1.0, tables.shape[2] - 1.0)
    coefficients = (tables[:, None] * powers[:, None, :]).sum(axis=-1)  # [t, row, m]
    bernoulli, bound = (basis * coefficients[:, None]).sum(axis=-1)
    w = np.exp(log_w)
    values = w * (_END_SIGNS * (rest - bernoulli) + 0.5 * basis[..., 0])
    return values, w[:2] * bound[:2]


def _em_tables(terms: int) -> np.ndarray:
    """Coefficient tables of the Bernoulli terms and the majorant, for J = terms.

    At an end, B is sum_m basis_m sum_p [0, m, p] beta^(p-1) and the
    majorant is the same sum over [1, m, p].  With rho = s / u, the basis at an end is (m = 0..4) u ln f, s ln f, u,
    I and s ln w, then (m = 5 + k) s rho^k for k < 2J.  B is sum_j B_2j /
    (2j)! (d/dx - beta)^(2j-1) g = sum_i c_i(beta) g^(i) by Leibniz, with
    g^(0) = u ln f, g' = s (ln f + 1) - beta u, g'' = s (rho - 2 beta)
    and g^(i) = -s (i-2)! (-rho)^(i-1) for i >= 3.  The majorant is
    |B_2J| / (2J)! / ln 2 times sum_i C(2J, i) beta^(2J-i) b_i, where b_i
    bounds the integral of e^(-beta (t - x)) |g^(i)(t)| over [x, oo):
    b_0 = -I, b_1 = s (3 - ln w) / beta + u, b_2 = 2 s + s rho / beta and
    b_i = |g^(i)| / beta past the second.
    """
    order = 2 * terms
    table = np.zeros((2, 5 + order, order + 2))
    bern, bound = table
    for j, b_2j in enumerate(_BERNOULLI[:terms], start=1):
        for i in range(2 * j):
            e = 2 * j - 1 - i  # c_i gets this times beta^e
            weight = b_2j / math.factorial(2 * j) * math.comb(2 * j - 1, i) * (-1) ** e
            if i == 0:
                bern[0, e + 1] += weight
            elif i == 1:
                bern[1, e + 1] += weight
                bern[2, e + 2] -= weight
                bern[5, e + 1] += weight
            elif i == 2:
                bern[6, e + 1] += weight
                bern[5, e + 2] -= 2.0 * weight
            else:
                bern[4 + i, e + 1] += weight * math.factorial(i - 2) * (-1) ** i
    scale = abs(_BERNOULLI[terms - 1]) / math.factorial(order) / math.log(2.0)
    binomial = [scale * math.comb(order, i) for i in range(order + 1)]
    bound[3, order + 1] = -binomial[0]
    bound[4, order - 1] = -binomial[1]
    bound[2, order] = binomial[1]
    bound[5, order - 1] = 3.0 * binomial[1] + 2.0 * binomial[2]
    bound[6, order - 2] = binomial[2]
    for i in range(3, order + 1):
        bound[4 + i, order - i] = binomial[i] * math.factorial(i - 2)
    return table


# _em_tables(J) for every J that _BERNOULLI allows.
_EM_TABLES = {terms: _em_tables(terms) for terms in range(1, len(_BERNOULLI) + 1)}


def _scaled_e1(y):
    """exp(y) E1(y) for every entry of an array of y >= 1, by the _E1_NODES rule."""
    return (_E1_WEIGHTS / (y[..., None] + _E1_NODES)).sum(axis=-1)


def _row_entropies(probs: np.ndarray) -> np.ndarray:
    """- sum p log2 p along the last axis, 0 log 0 = 0.

    Entries at or below _PROB_FLOOR count as exact zeros; each row is summed
    on its own, pairwise, so a row's result does not depend on the others.
    """
    x = np.where(probs > _PROB_FLOOR, probs, 1.0)
    return 0.0 - np.add.reduce(x * np.log2(x), axis=-1)
