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
a_n = (tanh^2 r)^n / (2 cosh^2 r) on the pair {|1,n>, |0,n+1>}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .fock import DensityMatrix, FactorLayout, StateVector, TruncationConfig

# Factor labels used throughout: Alice's qubit and the two Rindler wedges.
ALICE, WEDGE_I, WEDGE_II = "A", "I", "II"


def check_r(r: float) -> None:
    """Raise ConfigError unless r is finite and >= 0."""
    if r < 0 or not math.isfinite(r):
        raise ConfigError(f"r must be finite and >= 0, got {r}")


def vacuum_mode_weights(
    r: float, cfg: TruncationConfig
) -> tuple[np.ndarray, float]:
    """Weights c_n = tanh^n r / cosh r of the vacuum over |n>_I |n>_II.

    Returns (weights for n = 0..n_max, tail) where tail = (tanh^2 r)^(n_max+1)
    is exactly the squared weight dropped by the truncation.
    """
    check_r(r)
    n = np.arange(cfg.n_max + 1)
    weights = math.tanh(r) ** n / math.cosh(r)
    tail = math.tanh(r) ** (2 * (cfg.n_max + 1))
    return weights, tail


def one_particle_mode_weights(
    r: float, cfg: TruncationConfig
) -> tuple[np.ndarray, float]:
    """Weights d_n = sqrt(n+1) tanh^n r / cosh^2 r over |n+1>_I |n>_II.

    Only n = 0..n_max-1 fit (occupation n+1 must stay in range), so the
    returned array has length n_max.  The exact discarded weight is
    q^n_max ((n_max+1) - n_max q) with q = tanh^2 r; it joins the reported
    tail rather than being silently renormalized away.
    """
    check_r(r)
    n = np.arange(cfg.n_max)
    weights = np.sqrt(n + 1.0) * math.tanh(r) ** n / math.cosh(r) ** 2
    q = math.tanh(r) ** 2
    tail = q**cfg.n_max * ((cfg.n_max + 1) - cfg.n_max * q)
    return weights, tail


def tripartite_layout(cfg: TruncationConfig) -> FactorLayout:
    return FactorLayout((2, cfg.dim, cfg.dim), (ALICE, WEDGE_I, WEDGE_II))


def joint_layout(cfg: TruncationConfig) -> FactorLayout:
    """Alice qubit x wedge-I mode: the space the channel acts on."""
    return FactorLayout((2, cfg.dim), (ALICE, WEDGE_I))


def tripartite_state(r: float, cfg: TruncationConfig) -> StateVector:
    """The shared pure state on Alice x wedge I x wedge II.

    (1/sqrt 2)(|0_A>|one-particle> + |1_A>|vacuum>) with both mode states
    expanded in Rindler occupations: amplitude d_n/sqrt2 at (0, n+1, n) and
    c_n/sqrt2 at (1, n, n).  Its squared norm is 1 minus the reported tails.
    """
    layout = tripartite_layout(cfg)
    c, _ = vacuum_mode_weights(r, cfg)
    d, _ = one_particle_mode_weights(r, cfg)
    amps = np.zeros((2, cfg.dim, cfg.dim))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    n_one = np.arange(cfg.n_max)
    amps[0, n_one + 1, n_one] = d * inv_sqrt2
    n_vac = np.arange(cfg.n_max + 1)
    amps[1, n_vac, n_vac] = c * inv_sqrt2
    return StateVector(layout, amps.reshape(-1))


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
    check_r(r)
    dim = cfg.dim
    mat = np.zeros((2 * dim, 2 * dim))
    q = math.tanh(r) ** 2
    ch = math.cosh(r)
    # scalar pow per level: numpy's array power can differ by an ulp, and
    # the block-by-block assembly in the tests is matched bit for bit
    a = np.fromiter((q**n for n in range(dim)), np.float64, dim) / (2.0 * ch**2)
    one = dim + np.arange(dim)  # flat index of |1,n>, n = 0..n_max
    mat[one, one] = a
    n = np.arange(cfg.n_max)  # blocks whose |0,n+1> fits
    zero = n + 1  # flat index of |0,n+1>
    cross = a[:-1] * np.sqrt(n + 1.0) / ch
    mat[zero, zero] = a[:-1] * (n + 1) / ch**2
    mat[one[:-1], zero] = cross
    mat[zero, one[:-1]] = cross
    return DensityMatrix(joint_layout(cfg), mat)


def block_weights(r: float, cfg: TruncationConfig) -> np.ndarray:
    """The geometric block weights a_n = (tanh^2 r)^n / (2 cosh^2 r), n <= n_max."""
    q = math.tanh(r) ** 2
    return q ** np.arange(cfg.n_max + 1) / (2.0 * math.cosh(r) ** 2)
