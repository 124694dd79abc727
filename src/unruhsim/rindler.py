"""States seen by a uniformly accelerated observer.

A uniform acceleration a picks out the squeezing parameter r through
tanh r = exp(-2 pi Omega) with Omega = |k| c / a.  In the Rindler-mode
basis the inertial vacuum is the two-mode squeezed state

    |vac> = (1/cosh r) sum_n tanh^n r |n>_I |n>_II,

and the one-particle excitation, obtained by applying the Bogoliubov
transform of the inertial creation operator, carries weights

    d_n = sqrt(n+1) tanh^n r / cosh^2 r   on |n+1>_I |n>_II.

From these the module builds the shared Alice/Rob state: the tripartite
pure vector on Alice (qubit) x wedge I x wedge II, and its reduction over
wedge II, which is block structured: for each n a rank-1 block of weight
a_n = (tanh^2 r)^n / (2 cosh^2 r) on the pair {|1,n>, |0,n+1>}.  Every
power of tanh r in these states is read from :func:`level_weights`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .fock import DensityMatrix, FactorLayout, StateVector, TruncationConfig

# Factor labels used throughout: Alice's qubit and the two Rindler wedges.
ALICE, WEDGE_I, WEDGE_II = "A", "I", "II"


def check_r(r: float) -> None:
    """Raise ConfigError unless r is a finite real number >= 0."""
    try:
        valid = r >= 0 and math.isfinite(r)
    except TypeError:  # None, a string, ...
        valid = False
    if not valid:
        raise ConfigError(f"r must be finite and >= 0, got {r}")


def vacuum_mode_weights(r: float, cfg: TruncationConfig) -> np.ndarray:
    """Weights c_n = tanh^n r / cosh r of the vacuum over |n>_I |n>_II, n = 0..n_max.

    The squared weight past n_max is tail_c of :func:`discarded_weights`.
    """
    return level_weights(r, cfg.n_max)[1] / math.cosh(r)


def one_particle_mode_weights(r: float, cfg: TruncationConfig) -> np.ndarray:
    """Weights d_n = sqrt(n+1) tanh^n r / cosh^2 r over |n+1>_I |n>_II.

    Only n = 0..n_max-1 fit (occupation n+1 must stay in range), so the
    array has length n_max.  The squared weight dropped, tail_d of
    :func:`discarded_weights`, is not renormalized away.
    """
    half = level_weights(r, cfg.n_max - 1)[1]
    return np.sqrt(np.arange(1.0, cfg.n_max + 1)) * half / math.cosh(r) ** 2


def discarded_weights(
    r: float | np.ndarray, n_max: int | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(tail_c, tail_d): the exact squared weights a cutoff at n_max drops from c and d.

    With q = tanh^2 r, tail_c = q^(n_max + 1) and tail_d = q^n_max
    ((n_max + 1) - n_max q).  r and n_max broadcast against each other.
    The weights are always evaluated on arrays of at least one dimension,
    because numpy's array pow can differ in the last ulp from the scalar
    pow of Python and of a 0-d array: a scalar call is the length-1 case,
    returned as floats, and equals the matching elements of any array call.
    """
    q = np.tanh(np.atleast_1d(r)) ** 2
    n = np.atleast_1d(n_max)
    tails = q ** (n + 1), q**n * ((n + 1) - n * q)
    if np.ndim(r) == 0 and np.ndim(n_max) == 0:
        return float(tails[0][0]), float(tails[1][0])
    return tails


def decay_rate(r: float) -> float:
    """beta = -ln tanh^2 r = 2 log1p(2 / expm1(2 r)), the decay of :func:`level_weights`.

    inf at r = 0 and where 2 / expm1(2 r) overflows (r below about 1e-308).
    """
    return 2.0 * math.log1p(2.0 / math.expm1(2.0 * r)) if r > 0 else math.inf


def level_weights(r: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(tanh^(2n) r, tanh^n r), n = 0..n_max, as e^(-beta n) and e^(-beta n / 2); checks r.

    No rounding of tanh r is raised to the n, which would cost n ulp: each
    weight is within a few ulp plus beta n times the rounding of beta.
    Where beta is infinite (r = 0) both are 1 at n = 0 and 0 past it.
    """
    check_r(r)
    beta, n = decay_rate(r), np.arange(n_max + 1.0)
    if beta == math.inf:
        return (n == 0) * 1.0, (n == 0) * 1.0
    return np.exp(-beta * n), np.exp(-0.5 * beta * n)


def entropy_tail_bound(r: float, n_max: int) -> float:
    """Bound in bits on how far both entropies of the state cut at N = n_max are from S.

    With q = tanh^2 r, s = sech^2 r and beta = -ln q: past N,
    lambda_n >= lambda_N q^(n - N), so sum_(n >= N) -lambda_n ln lambda_n
    <= M (-ln lambda_N) + beta X, with the tail mass M and X = sum_(n >= N)
    (n - N) lambda_n closed-form geometric sums.  S_AR - S_AR,N is that sum
    less the cut state's edge -a_N ln a_N, no larger, as a_N <= lambda_N <
    1/e for N >= 1.  The cut keeps Rob's p_m for m <= N, so S_R - S_R,N is
    the sum over m > N, bounded the same way from p_(N+1).  Returns the
    larger bound; 0.0 where q^N underflows.  Rob's tail mass, the weight
    the cut drops, is smaller, as each p_m < 1/e there.
    """
    s = 1.0 / math.cosh(r) ** 2
    q = 1.0 - s
    beta = decay_rate(r)
    g = math.exp(-beta * n_max)  # q^N
    if g == 0.0:
        return 0.0
    n1s = (n_max + 1) * s
    decay = beta * n_max - math.log(0.5 * s)  # -ln(q^N s / 2)
    joint = (1.0 + q + n1s) * (decay - math.log1p(n1s)) + beta * q / s * (2.0 + q + n1s)
    rob = (2.0 * q + n1s) * (decay - math.log(q + n1s)) + beta * q / s * (1.0 + 2.0 * q + n1s)
    return 0.5 * g * max(joint, rob) / math.log(2.0)


def tripartite_layout(cfg: TruncationConfig) -> FactorLayout:
    return FactorLayout((2, cfg.dim, cfg.dim), (ALICE, WEDGE_I, WEDGE_II))


def joint_layout(cfg: TruncationConfig) -> FactorLayout:
    """Alice qubit x wedge-I mode: the space the channel acts on."""
    return FactorLayout((2, cfg.dim), (ALICE, WEDGE_I))


def tripartite_state(r: float, cfg: TruncationConfig) -> StateVector:
    """The shared pure state on Alice x wedge I x wedge II.

    (1/sqrt 2)(|0_A>|one-particle> + |1_A>|vacuum>) with both mode states
    expanded in Rindler occupations: amplitude d_n/sqrt2 at (0, n+1, n) and
    c_n/sqrt2 at (1, n, n).  Its squared norm is 1 - (tail_c + tail_d)/2 of
    :func:`discarded_weights`.
    """
    layout = tripartite_layout(cfg)
    c = vacuum_mode_weights(r, cfg)
    d = one_particle_mode_weights(r, cfg)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    dim = cfg.dim
    n_one = np.arange(cfg.n_max)  # (0, n+1, n)
    n_vac = np.arange(cfg.n_max + 1)  # (1, n, n)
    index = np.concatenate(((n_one + 1) * dim + n_one, dim * dim + n_vac * (dim + 1)))
    return StateVector.from_entries(
        layout, index, np.concatenate((d * inv_sqrt2, c * inv_sqrt2))
    )


def rho_alice_rob(r: float, cfg: TruncationConfig) -> DensityMatrix:
    """Closed-form reduced state of Alice and Rob's wedge-I mode.

    Block structure: for each n the 2x2 block on {|1,n>, |0,n+1>} is

        a_n * [[1,            sqrt(n+1)/cosh r],
               [sqrt(n+1)/cosh r, (n+1)/cosh^2 r]],

    a_n = (tanh^2 r)^n / (2 cosh^2 r).  Each block has zero determinant, so
    the nonzero spectrum is exactly the block traces a_n (1 + (n+1)/cosh^2 r).
    At the truncation edge only the |1,n_max> diagonal survives, matching
    the partial trace of the truncated tripartite state entrywise.
    """
    weights = level_weights(r, cfg.n_max)[0]
    dim, ch = cfg.dim, math.cosh(r)
    a = weights / (2.0 * ch**2)
    one = dim + np.arange(dim)  # flat index of |1,n>, n = 0..n_max
    n = np.arange(cfg.n_max)  # blocks whose |0,n+1> fits
    zero = n + 1  # flat index of |0,n+1>
    cross = a[:-1] * np.sqrt(n + 1.0) / ch
    rows = np.concatenate((one, zero, one[:-1], zero))
    cols = np.concatenate((one, zero, zero, one[:-1]))
    vals = np.concatenate((a, a[:-1] * (n + 1) / ch**2, cross, cross))
    return DensityMatrix.from_entries(joint_layout(cfg), rows, cols, vals)
