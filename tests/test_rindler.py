import math

import mpmath
import numpy as np
import pytest

from dense import creation_matrix, from_dense
from unruhsim import (
    ConfigError,
    KrausSet,
    TruncationConfig,
    adaptive_n_max,
    bell_input_density,
    entanglement_fidelity_closed,
    joint_entropy_series,
    one_particle_mode_weights,
    partial_trace,
    rho_alice_rob,
    rob_entropy_series,
    sym_eigenvalues,
    tripartite_state,
    vacuum_mode_weights,
)
from unruhsim.rindler import (
    ALICE,
    WEDGE_I,
    WEDGE_II,
    check_r,
    discarded_weights,
    level_weights,
)


# ---------------------------------------------------------------- parameterization


@pytest.mark.parametrize("r", [-1.0, math.inf, math.nan])
def test_every_r_entry_point_rejects_invalid_r(r):
    # one guard, one message, at every function that takes r
    cfg = TruncationConfig(8)
    for call in (
        lambda: check_r(r),
        lambda: vacuum_mode_weights(r, cfg),
        lambda: one_particle_mode_weights(r, cfg),
        lambda: rho_alice_rob(r, cfg),
        lambda: KrausSet.build(r, cfg),
        lambda: entanglement_fidelity_closed(r),
        lambda: joint_entropy_series(r, cfg),
        lambda: rob_entropy_series(r, cfg),
        lambda: adaptive_n_max(r, 1e-10),
    ):
        with pytest.raises(ConfigError, match="r must be finite and >= 0"):
            call()


# ---------------------------------------------------------------- mode expansions


def test_vacuum_weights_no_squeezing():
    cfg = TruncationConfig(6)
    c = vacuum_mode_weights(0.0, cfg)
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)
    assert discarded_weights(0.0, cfg.n_max)[0] == 0.0


def test_vacuum_weights_values():
    cfg = TruncationConfig(32)
    c = vacuum_mode_weights(1.0, cfg)
    tail, _ = discarded_weights(1.0, cfg.n_max)
    assert c[0] == pytest.approx(1.0 / math.cosh(1.0), rel=1e-14)
    assert c[1] == pytest.approx(math.tanh(1.0) / math.cosh(1.0), rel=1e-14)
    assert c[0] == pytest.approx(0.648054, abs=1e-6)
    assert float(c @ c) + tail == pytest.approx(1.0, abs=1e-14)


def test_vacuum_norm_deficit_is_geometric_tail():
    cfg = TruncationConfig(32)
    c = vacuum_mode_weights(1.0, cfg)
    tail, _ = discarded_weights(1.0, cfg.n_max)
    assert tail == pytest.approx(math.tanh(1.0) ** 66, rel=1e-12)
    # oracle: sum the dropped weights directly far past the cutoff
    n = np.arange(33, 400)
    direct = float((math.tanh(1.0) ** (2 * n)).sum()) / math.cosh(1.0) ** 2
    assert 1.0 - float(c @ c) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("r, n_max", [(0.3, 8), (1.0, 32)])
def test_one_particle_norm_deficit_is_exact_tail(r, n_max):
    cfg = TruncationConfig(n_max)
    d = one_particle_mode_weights(r, cfg)
    _, tail = discarded_weights(r, n_max)
    # oracle: sum the dropped weights d_n^2, n >= n_max, directly
    n = np.arange(n_max, 400)
    direct = float(((n + 1) * math.tanh(r) ** (2 * n)).sum()) / math.cosh(r) ** 4
    assert tail == pytest.approx(direct, rel=1e-9)
    assert float(d @ d) + direct == pytest.approx(1.0, abs=1e-14)


def test_one_particle_weights_no_squeezing():
    cfg = TruncationConfig(6)
    d = one_particle_mode_weights(0.0, cfg)
    assert d[0] == 1.0
    assert np.all(d[1:] == 0.0)
    assert discarded_weights(0.0, cfg.n_max)[1] == 0.0


def test_one_particle_weights_normalize():
    cfg = TruncationConfig(64)
    d = one_particle_mode_weights(1.0, cfg)
    _, tail = discarded_weights(1.0, cfg.n_max)
    assert float(d @ d) == pytest.approx(1.0, abs=1e-10)
    assert float(d @ d) + tail == pytest.approx(1.0, abs=1e-13)


def test_one_particle_weights_matrix_apply_oracle():
    # apply the transformed creation operator, cosh(r) bdag_I - sinh(r) b_II,
    # to the expanded vacuum and read the |n+1>_I |n>_II coefficients
    r, cfg = 0.7, TruncationConfig(16)
    c = vacuum_mode_weights(r, cfg)
    vac = np.zeros((cfg.dim, cfg.dim))
    np.fill_diagonal(vac, c)
    bdag = creation_matrix(cfg)
    eye = np.eye(cfg.dim)
    op = math.cosh(r) * np.kron(bdag, eye) - math.sinh(r) * np.kron(eye, bdag.T)
    excited = (op @ vac.reshape(-1)).reshape(cfg.dim, cfg.dim)
    d = one_particle_mode_weights(r, cfg)
    for n in range(cfg.n_max):
        assert excited[n + 1, n] == pytest.approx(d[n], abs=1e-12)


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_level_weights_match_mpmath_far_out(r):
    # c_n, d_n and a_n at the oracle's cutoff for r = 5 against 40-digit
    # values: each carries a few ulp plus beta n times the rounding of
    # beta, where a rounded tanh r raised to the n would carry about n ulp
    # (1e-11 relative at n = 190 000).  At r = 3 the far levels underflow
    # to exact zeros, as their 40-digit values round to 0.0 too
    cfg = TruncationConfig(190_000)
    c = vacuum_mode_weights(r, cfg)
    d = one_particle_mode_weights(r, cfg)
    rho = rho_alice_rob(r, cfg)
    edge = (rho.rows == rho.cols) & (rho.rows >= cfg.dim)  # |1,n><1,n| = a_n
    a = np.zeros(cfg.dim)
    a[rho.rows[edge] - cfg.dim] = rho.vals[edge]
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(40):
        th, ch = mpmath.tanh(r), mpmath.cosh(r)
        beta = float(-2 * mpmath.log(th))
        for n in (0, 1, 10, 1000, 50_000, 100_000, 189_999):
            t = th**n
            exact = (t / ch, mpmath.sqrt(n + 1) * t / ch**2, t * t / (2 * ch**2))
            for got, ref in zip((c[n], d[n], a[n]), map(float, exact)):
                assert abs(got - ref) <= 4 * eps * (1.0 + beta * n) * ref, (n, got, ref)


# ---------------------------------------------------------------- discarded weights


def test_discarded_weights_are_one_definition():
    # the weights are written once, on arrays: on the grid where numpy's
    # array pow and Python's disagree by an ulp, every element of an array
    # call is its scalar call, bit for bit
    rs = np.linspace(0.7, 1.2, 51)
    ns = np.arange(1, 1001)
    tail_c, tail_d = discarded_weights(rs[:, None], ns)
    python_pow = 0
    for r, row_c, row_d in zip(rs.tolist(), tail_c, tail_d):
        q = np.tanh(np.array([r])).item() ** 2
        for n, c, d in zip(ns.tolist(), row_c.tolist(), row_d.tolist()):
            assert discarded_weights(r, n) == (c, d), (r, n)
            python_pow += c != q ** (n + 1)
    assert python_pow > 0  # the grid does hold such pairs
    assert [type(v) for v in discarded_weights(1.0, 3)] == [float, float]


# ---------------------------------------------------------------- tripartite state


def test_tripartite_state_no_squeezing():
    cfg = TruncationConfig(4)
    psi = tripartite_state(0.0, cfg)
    amps = psi.reshaped()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert amps[0, 1, 0] == pytest.approx(inv_sqrt2, rel=1e-15)
    assert amps[1, 0, 0] == pytest.approx(inv_sqrt2, rel=1e-15)
    assert np.count_nonzero(amps) == 2
    assert psi.norm_sq == pytest.approx(1.0, abs=1e-15)


def test_tripartite_state_norm():
    psi = tripartite_state(1.0, TruncationConfig(64))
    assert psi.norm_sq == pytest.approx(1.0, abs=1e-10)


def test_tripartite_norm_deficit_is_mean_of_tails():
    # each branch carries half the weight, so the state's norm deficit is
    # the average of the vacuum and one-particle tails
    r, cfg = 1.2, TruncationConfig(24)
    psi = tripartite_state(r, cfg)
    tail_vac, tail_one = discarded_weights(r, cfg.n_max)
    assert 1 - psi.norm_sq == pytest.approx(0.5 * (tail_vac + tail_one), abs=1e-12)


def test_tripartite_reductions_to_alice():
    cfg = TruncationConfig(16)
    psi = tripartite_state(0.5, cfg)
    rho = from_dense(psi.layout, np.outer(psi.amps, psi.amps))
    rho_ai = partial_trace(rho, (ALICE, WEDGE_I))
    rho_a = partial_trace(rho_ai, (ALICE,))
    assert np.allclose(rho_a.mat, 0.5 * np.eye(2), atol=1e-10)
    direct = psi.reduced_density((ALICE,))
    assert np.allclose(direct.mat, rho_a.mat, atol=1e-13)


# ---------------------------------------------------------------- reduced joint state


def test_rho_alice_rob_no_squeezing_is_bell_pair():
    cfg = TruncationConfig(8)
    rho = rho_alice_rob(0.0, cfg)
    assert np.allclose(rho.mat, bell_input_density(cfg).mat, atol=1e-15)


@pytest.mark.parametrize("r", [0.3, 0.8, 1.5])
def test_rho_alice_rob_blocks_are_rank_one(r):
    cfg = TruncationConfig(24)
    rho = rho_alice_rob(r, cfg)
    dim = cfg.dim
    for n in range(cfg.n_max):
        i, j = 1 * dim + n, 0 * dim + (n + 1)
        det = rho.mat[i, i] * rho.mat[j, j] - rho.mat[i, j] * rho.mat[j, i]
        assert abs(det) <= 1e-15


def test_rho_alice_rob_matches_partial_trace_oracle():
    # the two sides are independent code paths: closed-form block assembly
    # versus tracing the explicit tripartite projector
    r, cfg = 0.8, TruncationConfig(48)
    psi = tripartite_state(r, cfg)
    rho_full = from_dense(psi.layout, np.outer(psi.amps, psi.amps))
    traced = partial_trace(rho_full, (ALICE, WEDGE_I))
    analytic = rho_alice_rob(r, cfg)
    assert np.abs(traced.mat - analytic.mat).max() <= 1e-10


def test_rho_alice_rob_small_case_oracle():
    r, cfg = 0.5, TruncationConfig(16)
    psi = tripartite_state(r, cfg)
    rho_full = from_dense(psi.layout, np.outer(psi.amps, psi.amps))
    traced = partial_trace(rho_full, (ALICE, WEDGE_I))
    assert np.abs(traced.mat - rho_alice_rob(r, cfg).mat).max() <= 1e-10


def _rho_alice_rob_loop(r, cfg):
    """The block-by-block assembly, one 2x2 block per Python iteration."""
    dim = cfg.dim
    mat = np.zeros((2 * dim, 2 * dim))
    weights = level_weights(r, cfg.n_max)[0]
    ch = math.cosh(r)
    for n in range(cfg.n_max + 1):
        a_n = weights[n] / (2.0 * ch**2)
        mat[dim + n, dim + n] += a_n
        if n + 1 <= cfg.n_max:
            cross = a_n * math.sqrt(n + 1.0) / ch
            mat[n + 1, n + 1] += a_n * (n + 1) / ch**2
            mat[dim + n, n + 1] += cross
            mat[n + 1, dim + n] += cross
    return mat


@pytest.mark.parametrize("n_max", [1, 8, 256])
@pytest.mark.parametrize("r", [0.0, 0.46, 1.3, 2.5])
def test_rho_alice_rob_matches_block_loop(n_max, r):
    # the index-array assembly does the loop's arithmetic, entry for entry
    cfg = TruncationConfig(n_max)
    assert np.array_equal(rho_alice_rob(r, cfg).mat, _rho_alice_rob_loop(r, cfg))


def test_rho_alice_rob_spectrum_is_block_traces():
    r, cfg = 0.9, TruncationConfig(32)
    rho = rho_alice_rob(r, cfg)
    ev = sym_eigenvalues(rho)
    a = math.tanh(r) ** (2 * np.arange(cfg.dim)) / (2.0 * math.cosh(r) ** 2)
    expected = a[:-1] * (1.0 + (np.arange(cfg.n_max) + 1.0) / math.cosh(r) ** 2)
    expected = np.sort(np.concatenate([expected, [a[-1]]]))[::-1]
    nonzero = ev[: expected.size]
    assert np.allclose(nonzero, expected, atol=1e-13)
    assert np.all(np.abs(ev[expected.size :]) <= 1e-13)


def test_rho_alice_rob_trace_accounts_for_tail():
    r, cfg = 1.2, TruncationConfig(40)
    rho = rho_alice_rob(r, cfg)
    psi = tripartite_state(r, cfg)
    assert rho.trace == pytest.approx(psi.norm_sq, abs=1e-13)


def test_rho_alice_rob_traces_down_to_mixed_qubit():
    r, cfg = 0.9, TruncationConfig(48)
    # Alice keeps the weight of each branch: diag(1 - tail_d, 1 - tail_c) / 2
    rho_a = partial_trace(rho_alice_rob(r, cfg), (ALICE,))
    tail_c, tail_d = discarded_weights(r, cfg.n_max)
    expected = np.diag([1.0 - tail_d, 1.0 - tail_c]) / 2.0
    assert np.abs(rho_a.mat - expected).max() <= 1e-15


def test_environment_spectrum_matches_joint_spectrum():
    # purity of the tripartite state: the wedge-II reduction and the
    # Alice+Rob reduction share their nonzero spectrum
    r, cfg = 0.7, TruncationConfig(16)
    psi = tripartite_state(r, cfg)
    ev_env = sym_eigenvalues(psi.reduced_density((WEDGE_II,)))
    ev_joint = sym_eigenvalues(psi.reduced_density((ALICE, WEDGE_I)))
    k = min(ev_env.size, ev_joint.size)
    assert np.allclose(ev_env[:k], ev_joint[:k], atol=1e-12)
