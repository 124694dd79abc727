"""Scalar figures of merit along the acceleration axis.

Entropies are in bits (log base 2) throughout.  A sweep record
(:func:`measure_records`; :func:`measure_record` is its one-point case)
describes the untruncated state and costs O(K + J) per point.  Its
entropies sum all the block weights a_n = tanh^(2n) r / (2 cosh^2 r):
the joint spectrum lambda_n = a_n (1 + (n+1)/cosh^2 r) for S(rho_AR) and
Rob's occupations p_n = a_n + n a_{n-1}/cosh^2 r for S(rho_R).  One
series pass (:func:`_series_entropies`) adds the levels below
K = _EM_HEAD term by term and every level from K on by Euler-Maclaurin
(:func:`_series_tails`), whose end at infinity is zero.  A row's
certified bound is the remainder's closed-form majorant plus a stated
rounding term; a row whose majorant is not below _EM_BOUND, whose bound
is not below abs_tol, or whose r is above R_MAX is refused with
ConfigError, so abs_tol is a ceiling on the error, not an input to the
values.  The state is pure, so the entropy exchange is s_e = s_ar.

The oracle is the states cut at a Fock cutoff N (:func:`adaptive_n_max`
certifies one) and their blockwise eigensolves (see :mod:`unruhsim.fock`):
the spectra of rho_AR, of Rob's reduction and of the tripartite state's
Alice and wedge-II (:func:`entropy_exchange`) reductions, the same cut
spectra summed directly (:func:`joint_entropy_series`,
:func:`rob_entropy_series`), and the operator-sum fidelity
sum_n (Tr rho A_n)^2, whose n >= 1 traces vanish because A_n shifts the
mode occupation.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .channel import KrausSet, bell_state
from .errors import ConfigError
from .fock import DensityMatrix, TruncationConfig
from .rindler import (
    WEDGE_II,
    check_r,
    decay_rate,
    entropy_tail_bound,
    level_weights,
    tripartite_state,
)

# Largest accepted r.  Rows are anchored to 40-digit sums up to here.
# Past it the rounding part of a row's bound grows with S (about 2.9 bits
# per unit of r), and I - 1 falls like e^(-2r) into the rounding of
# 1 + s_r - s_ar.
R_MAX = 6.0

# Cap on the oracle's cutoff from adaptive_n_max, which bounds the oracle's
# memory: a state cut there has O(N) entries.  Its reach is r = 5.159 at
# abs_tol 1e-12 and r = 5.235 at 1e-10.
ADAPTIVE_N_CAP = 2**18

# Probabilities below this are treated as exact zeros (0 log 0 = 0).
_PROB_FLOOR = 1e-300

# Rows that measure_records evaluates in one numpy pass.  A row takes
# _EM_HEAD levels of direct sum and a fixed number of tail terms, so a
# pass holds O(_BLOCK_ROWS) values.
_BLOCK_ROWS = 256

# Every row sums its levels from _EM_HEAD on by Euler-Maclaurin with
# _EM_TERMS Bernoulli terms.  With K = 32 and J = 5 the remainder majorant
# stays below 3.1e-15 for every r up to R_MAX (largest, for S_R, near
# r = 1.23); a row whose majorant is not below _EM_BOUND is refused.
_EM_HEAD = 32
_EM_TERMS = 5
_EM_BOUND = 1e-13

# A row's bound adds _ROUNDING_ULPS eps (S_AR + S_R) for float64 rounding.
# Each entropy is a pairwise sum of _EM_HEAD non-negative terms, each within
# a few ulp (under about 11 eps S), plus a tail that is a short product of
# factors within a few ulp, of which w = exp(ln w) carries |ln w| eps <=
# 12 eps below R_MAX: under 16 eps S <= 16 eps (S_AR + S_R) in all.  Against
# 40-digit sums up to R_MAX the misses stay below 3 eps (S_AR + S_R).
_ROUNDING_ULPS = 16
_EPS = np.finfo(np.float64).eps

# Bernoulli numbers B_2, B_4, ..., B_10.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)

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


def _check_row_r(r: float) -> None:
    """Raise ConfigError unless r is finite, >= 0 and at most R_MAX."""
    check_r(r)
    if r > R_MAX:
        raise ConfigError(
            f"r = {r:g} is above R_MAX = {R_MAX:g}, the largest r whose rows are certified"
        )


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
    """S(rho_AR) in bits: the entropy of rho_alice_rob(r, cfg), summed directly."""
    return entropy_from_probabilities(_cut_spectra(r, cfg.n_max)[0])


def rob_entropy_series(r: float, cfg: TruncationConfig) -> float:
    """S(rho_R) in bits: Rob's occupations in rho_alice_rob(r, cfg), summed directly."""
    return entropy_from_probabilities(_cut_spectra(r, cfg.n_max)[1])


def _cut_spectra(r: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_n, p_n), n = 0..N: the spectra of the state cut at N = n_max and of Rob's part.

    a_n = (s/2) tanh^(2n) r, s = sech^2 r, from :func:`~unruhsim.rindler.level_weights`.
    The cut keeps blocks 0..N-1 whole and only |1, N> of block N, so
    lambda_n = a_n (1 + (n+1) s) for n < N and lambda_N = a_N, and it
    keeps Rob's p_n = a_n + n s a_(n-1) whole.  O(N).
    """
    weights = level_weights(r, n_max)[0]
    s = 1.0 / math.cosh(r) ** 2
    n = np.arange(n_max + 1.0)
    a = 0.5 * s * weights
    lam = a * (1.0 + (n + 1.0) * s)
    lam[-1] = a[-1]
    p = a.copy()
    p[1:] += n[1:] * s * a[:-1]
    return lam, p


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
    the state's O(N) entries, so it runs at large cutoffs too.
    """
    psi = tripartite_state(r, cfg)
    rho_env = psi.reduced_density((WEDGE_II,))
    return von_neumann_entropy(rho_env, cfg)


def adaptive_n_max(r: float, abs_tol: float) -> int:
    """The oracle's cutoff for r: an N >= 1 whose cut state's entropies are within abs_tol.

    Certified by :func:`~unruhsim.rindler.entropy_tail_bound`, which also
    bounds the weight the cut drops.  The first guess ln(abs_tol) / ln q;
    while the bound is not below abs_tol, N grows by ln(bound / abs_tol) /
    beta, the levels over which q^N falls by that factor.  Raises
    ConfigError for an r that is negative or not finite, for an abs_tol
    outside (0, 1), for an r above R_MAX, which no row needs, and as
    soon as N passes ADAPTIVE_N_CAP, rather than returning an uncertified
    cutoff.
    """
    _check_row_r(r)
    check_abs_tol(abs_tol)
    beta = decay_rate(r)
    n_max = max(1, math.ceil(math.log(abs_tol) / -beta))
    while n_max <= ADAPTIVE_N_CAP:
        bound = entropy_tail_bound(r, n_max)
        if bound < abs_tol:
            return n_max
        n_max += max(1, math.ceil(math.log(bound / abs_tol) / beta))
    raise ConfigError(
        f"r = {r:g} needs an oracle cutoff above the cap n_max = {ADAPTIVE_N_CAP} "
        f"to certify its entropies within abs_tol = {abs_tol:g}"
    )


class MeasureRecord(NamedTuple):
    """What the series pass computes at one acceleration grid point, untruncated."""

    r: float
    fe_closed: float
    fe_kraus: float
    s_ar: float
    s_r: float
    s_e: float
    mutual_info: float


def measure_record(r: float, abs_tol: float) -> MeasureRecord:
    """The record at one r: :func:`measure_records` of a one-point grid."""
    return measure_records([r], abs_tol)[0]


def measure_records(rs: Iterable[float], abs_tol: float) -> list[MeasureRecord]:
    """Evaluate the full record at every r, in order.

    An r that is negative, not finite or above R_MAX raises ConfigError
    before any row is evaluated.  The rows are evaluated in passes of
    _BLOCK_ROWS (:func:`_block_fields`); the first r in order whose
    certified bound is not below abs_tol raises ConfigError as soon as its
    pass is evaluated.  The values do not depend on abs_tol.  The records
    are built once, from the columns.
    """
    rs = list(rs)
    for r in rs:
        _check_row_r(r)
    check_abs_tol(abs_tol)
    r = np.array(rs, dtype=np.float64)
    blocks = []  # one pass for no rows too
    for start in range(0, max(r.size, 1), _BLOCK_ROWS):
        *fields, bound = _block_fields(r[start : start + _BLOCK_ROWS])
        refused = np.flatnonzero(~(bound < abs_tol))  # NaN is refused too
        if refused.size:
            k = refused[0]
            raise ConfigError(
                f"r = {rs[start + k]:g}: the certified error bound {bound[k]:.3e} "
                f"of its entropies is not below abs_tol = {abs_tol:g}"
            )
        blocks.append(fields)
    columns = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    r, fe_closed, fe_kraus, s_ar, s_r, mutual = (column.tolist() for column in columns)
    rows = zip(r, fe_closed, fe_kraus, s_ar, s_r, s_ar, mutual)  # s_e = s_ar
    return list(map(MeasureRecord._make, rows))


def _block_fields(r: np.ndarray) -> tuple[np.ndarray, ...]:
    """r, fe_closed, fe_kraus, s_ar, s_r and mutual_info of consecutive rows, and their bounds.

    One array pass: cosh r once, for :func:`_series_entropies` and
    fe_kraus, then the closed forms.  fe_kraus keeps the one nonzero
    operator-sum term: on the input support A_0 = diag(1, cosh r) (x) 1 /
    cosh^2 r, so Tr(rho_in A_0) = (1 + cosh r) / (2 cosh^2 r).
    """
    ch = np.cosh(r)
    (s_ar, s_r), bound = _series_entropies(r, ch)
    trace_0 = 0.5 * (1.0 + ch) / (ch * ch)
    fidelity, mutual = entanglement_fidelity_closed(r), 1.0 + s_r - s_ar
    return r, fidelity, trace_0 * trace_0, s_ar, s_r, mutual, bound


def _series_entropies(r: np.ndarray, ch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[s_ar, s_r] of consecutive rows, given ch = cosh r, and each row's certified bound.

    The levels 0.._EM_HEAD - 1 of lambda_n and p_n, one row per line, are
    summed term by term, and :func:`_series_tails` adds the rest.  A row
    whose s rounds to 1 (cosh r = 1: r < 2.2e-8, q < 5e-16, r = 0 too) has
    an infinite beta and gets its head alone; its levels from _EM_HEAD on
    weigh below q^32 < 1e-490.  The bound is the larger majorant plus
    _ROUNDING_ULPS eps (s_ar + s_r).  No step mixes rows.
    """
    q, s = np.tanh(r) ** 2, 1.0 / (ch * ch)
    level = np.arange(float(_EM_HEAD))
    # a_n = q^n s/2, lambda_n = a_n (1 + (n+1) s) and p_n = a_n + n s a_(n-1)
    joint, rob = probs = np.empty((2, r.size, _EM_HEAD))
    np.multiply(q[:, None] ** level, 0.5 * s[:, None], out=rob)
    level_s = (level + 1.0) * s[:, None]  # (n + 1) s
    np.multiply(rob, 1.0 + level_s, out=joint)
    rob[:, 1:] += level_s[:, :-1] * rob[:, :-1]
    sums = _row_entropies(probs)
    majorants = np.zeros_like(sums)
    tail = s < 1.0
    values, majorants[:, tail] = _series_tails(r[tail], q[tail], s[tail])
    sums[:, tail] += values
    return sums, majorants.max(axis=0) + _ROUNDING_ULPS * _EPS * sums.sum(axis=0)


def _series_tails(
    r: np.ndarray, q: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the levels _EM_HEAD.. oo of both series, and their remainder majorants.

    The summand at level x is -w u ln(w u) / ln 2 with w = (s/2) q^(x - d)
    and u = c + s x, where s = sech^2 r < 1: c = 1 + s and d = 0 for
    lambda_x, c = q and d = 1 for p_x, one line each.  Over [K, oo) the
    Euler-Maclaurin sum is w (I - B + g / 2) at x = K, with f = -e^(-beta x)
    g / ln 2 up to the row's constant, g = u ln(w u), beta = -ln q,
    I = the integral of e^(-beta (t - x)) g(t) over [x, oo), closed-form
    with one exp(y) E1(y) at y = (beta / s) u >= 1, and B = the Bernoulli
    terms.  With rho = s / u, the derivatives of g at K are g^(0) = u ln(w u),
    g^(1) = s (ln(w u) + 1) - beta u, g^(2) = s (rho - 2 beta) and, from
    g^(3) = -s rho^2 on, g^(i+1) = -(i - 1) rho g^(i), so g^(i) =
    -s (i-2)! (-rho)^(i-1) past the second.  Each f^(k) is e^(-beta x)
    (d/dx - beta)^k g up to the constant, so by Leibniz B is sum_j B_2j /
    (2j)! sum_i C(2j-1, i) (-beta)^(2j-1-i) g^(i) over j = 1..J.  The
    majorant is w |B_2J| / (2J)! / ln 2 times sum_i C(2J, i) beta^(2J-i)
    b_i, where b_i bounds the integral of e^(-beta (t - x)) |g^(i)(t)|
    over [x, oo): b_0 = -I, b_1 = s (3 - ln w) / beta + u, b_2 = 2 s +
    s rho / beta and b_i = |g^(i)| / beta past the second.  g^(i), b_i and
    beta^i, i = 0..2J, are stacked along a leading axis.  Both results are
    [s_ar, s_r] arrays of shape (2, rows); a row whose majorant is not
    below _EM_BOUND raises ConfigError.  Every operation is elementwise or
    runs along the leading axis, entry by entry, so a row's bits do not
    depend on the rows evaluated with it.
    """
    order = 2 * _EM_TERMS
    beta = -np.log1p(-s)
    log_w = np.log(0.5 * s) - beta * np.array([[_EM_HEAD], [_EM_HEAD - 1.0]])
    u = np.stack((1.0 + s, q)) + s * _EM_HEAD
    log_wu = log_w + np.log(u)
    y = beta / s * u
    rest = s / (beta * beta) * ((y + 1.0) * (log_wu - 1.0) + _scaled_e1(y))
    rho = s / u
    g = np.empty((order + 1,) + u.shape)
    g[0] = u * log_wu
    g[1] = s * (log_wu + 1.0) - beta * u
    g[2] = s * rho  # its -2 beta s joins after g^(3) is formed
    for i in range(2, order):
        g[i + 1] = -(i - 1) * rho * g[i]
    g[2] -= 2.0 * beta * s
    powers = np.empty((order + 1,) + beta.shape)
    powers[0] = 1.0
    powers[1:] = beta
    np.multiply.accumulate(powers, out=powers)
    bernoulli = np.zeros_like(u)
    for j, b_2j in enumerate(_BERNOULLI[:_EM_TERMS], start=1):
        n = 2 * j - 1
        leibniz = np.array([math.comb(n, i) * (-1.0) ** (n - i) for i in range(n + 1)])
        derivative = (leibniz[:, None, None] * powers[n::-1, None] * g[: n + 1]).sum(axis=0)
        bernoulli += b_2j / math.factorial(2 * j) * derivative
    b = np.abs(g) / beta
    b[0] = -rest
    b[1] = s * (3.0 - log_w) / beta + u
    b[2] = 2.0 * s + s * rho / beta
    binomial = np.array([math.comb(order, i) for i in range(order + 1)])
    scale = abs(_BERNOULLI[_EM_TERMS - 1]) / math.factorial(order) / math.log(2.0)
    w = np.exp(log_w)
    majorants = scale * w * (binomial[:, None, None] * powers[::-1, None] * b).sum(axis=0)
    refused = np.argwhere(~(majorants < _EM_BOUND))  # NaN is refused too
    if refused.size:
        k, row = refused[0]
        raise ConfigError(
            f"r = {r[row]:g}: the Euler-Maclaurin remainder bound "
            f"{majorants[k, row]:.3e} of {('s_ar', 's_r')[k]} is not below {_EM_BOUND:g}"
        )
    return w * (rest - bernoulli + 0.5 * g[0]) / -math.log(2.0), majorants


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
