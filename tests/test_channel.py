import math
import tracemalloc

import numpy as np
import pytest

from dense import from_dense
from unruhsim import (
    ConfigError,
    KrausSet,
    LayoutMismatchError,
    TruncationConfig,
    apply_channel,
    bell_input_density,
    kraus_operator,
    rho_alice_rob,
    trace_preservation_defect,
)
from unruhsim import channel, measures
from unruhsim.channel import _alice_weight, bell_state
from unruhsim.fock import SYMMETRY_TOL, creation_matrix
from unruhsim.measures import input_overlap_traces
from unruhsim.rindler import discarded_weights, joint_layout


def probe(cfg, *flat_amplitudes):
    layout = joint_layout(cfg)
    v = np.zeros(layout.dim)
    for (alice, m), amp in flat_amplitudes:
        v[alice * cfg.dim + m] = amp
    return from_dense(layout, v)


# ---------------------------------------------------------------- single operators


def test_kraus_operator_index_range():
    cfg = TruncationConfig(4)
    with pytest.raises(ConfigError):
        kraus_operator(-1, 0.5, cfg)
    with pytest.raises(ConfigError):
        kraus_operator(5, 0.5, cfg)


def test_kraus_zero_is_identity_without_acceleration():
    cfg = TruncationConfig(6)
    assert np.allclose(kraus_operator(0, 0.0, cfg), np.eye(2 * cfg.dim), atol=1e-15)
    # and every higher operator vanishes
    for n in range(1, cfg.n_max + 1):
        assert np.all(kraus_operator(n, 0.0, cfg) == 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_kraus_factored_form(n):
    # reconstruct entries from scalar * (alice weight) x (ladder power)
    r, cfg = 0.6, TruncationConfig(10)
    scalar = math.tanh(r) ** n / (math.sqrt(math.factorial(n)) * math.cosh(r) ** 2)
    power = np.linalg.matrix_power(creation_matrix(cfg), n)
    expected = scalar * np.kron(_alice_weight(r), power)
    assert np.allclose(kraus_operator(n, r, cfg), expected, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kraus_action_on_initial_subspace(n):
    # ladder algebra: (bdag)^n |1> = sqrt((n+1)!) |n+1>, so with the 1/sqrt(n!)
    # prefactor the |0,1> branch picks up sqrt(n+1)
    r, cfg = 0.6, TruncationConfig(12)
    op = kraus_operator(n, r, cfg)
    ch, th = math.cosh(r), math.tanh(r)

    image = op @ probe(cfg, ((0, 1), 1.0)).amps
    expected = np.zeros_like(image)
    expected[0 * cfg.dim + (n + 1)] = th**n / ch**2 * math.sqrt(n + 1)
    assert np.allclose(image, expected, atol=1e-15)

    image = op @ probe(cfg, ((1, 0), 1.0)).amps
    expected = np.zeros_like(image)
    expected[1 * cfg.dim + n] = th**n / ch
    assert np.allclose(image, expected, atol=1e-15)


def window(ks, lo, hi):
    """(n, d) for ascending n: the rows of ks.sub_diagonals(lo, hi), cut at the cutoff."""
    table = ks.sub_diagonals(lo, hi)
    count, _, width = table.shape
    return [(n, table[n, :, : min(width, count - n)]) for n in range(count)]


def sub_diagonals(op, n, dim):
    """The n-th sub-diagonal of each Alice block of a dense operator, (2, dim - n)."""
    blocks = op.reshape(2, dim, 2, dim)
    return np.stack([np.diagonal(blocks[a, :, a, :], -n) for a in (0, 1)])


def test_kraus_set_matches_single_operators():
    r, cfg = 0.9, TruncationConfig(8)
    rows = window(KrausSet.build(r, cfg), 0, cfg.n_max)
    assert [n for n, _ in rows] == list(range(cfg.n_max + 1))
    for n, diag in rows:
        assert diag.shape == (2, cfg.dim - n)
        expected = sub_diagonals(kraus_operator(n, r, cfg), n, cfg.dim)
        assert np.allclose(diag, expected, atol=1e-15)


@pytest.mark.parametrize("n_max", [8, 48])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.8, 1.5, 2.5])
def test_kraus_diagonals_are_the_dense_operators(n_max, r):
    # the generated sub-diagonal is the whole dense operator: equal bit for
    # bit on that sub-diagonal of each Alice block and exactly 0 elsewhere
    cfg = TruncationConfig(n_max)
    for n, diag in window(KrausSet.build(r, cfg), 0, cfg.n_max):
        op = kraus_operator(n, r, cfg)
        assert np.array_equal(diag, sub_diagonals(op, n, cfg.dim))
        m = np.arange(cfg.dim - n)
        rest = op.copy()
        for a in (0, 1):
            rest[a * cfg.dim + m + n, a * cfg.dim + m] = 0.0
        assert np.all(rest == 0.0)


@pytest.mark.parametrize("n_max, hi", [(8, 8), (48, 48), (256, 3)])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.8, 1.5, 2.5])
def test_window_matches_closed_form(n_max, hi, r):
    # <a, m+n| A_n |a, m> = tanh^n r sqrt(C(m+n, n)) (cosh r)^a / cosh^2 r,
    # with the binomial in exact integers: a route that shares no recurrence
    th, ch = math.tanh(r), math.cosh(r)
    rows = window(KrausSet.build(r, TruncationConfig(n_max)), 0, hi)
    assert [n for n, _ in rows] == list(range(n_max + 1))
    for n, d in rows:
        assert d.shape == (2, min(hi + 1, n_max + 1 - n))
        ladder = [th**n * math.sqrt(math.comb(m + n, n)) for m in range(d.shape[1])]
        expected = np.array([ladder, ladder]) * np.array([[1.0], [ch]]) / ch**2
        assert np.all(np.abs(d - expected) <= 1e-12 * np.abs(expected))


@pytest.mark.parametrize("fault", [None, (5, 1e-3)])
@pytest.mark.parametrize("r", [0.3, 1.5, 2.5])
def test_window_columns_are_the_full_window(r, fault):
    # each column evolves on its own, so a window holds bit for bit the same
    # columns of the full window (0, N), faulted or not
    cfg = TruncationConfig(12)
    ks = KrausSet.build(r, cfg)
    if fault is not None:
        ks = ks.with_scalar_offset(*fault)
    full = dict(window(ks, 0, cfg.n_max))
    for lo, hi in ((0, 1), (3, 8), (8, 12), (0, cfg.n_max)):
        rows = window(ks, lo, hi)
        assert [n for n, _ in rows] == list(range(cfg.dim - lo))
        for n, d in rows:
            assert d.shape == (2, min(hi + 1, cfg.dim - n) - lo)
            assert np.array_equal(d, full[n][:, lo : lo + d.shape[1]])


def test_kraus_scalar_offset_fault_helper():
    r, cfg = 0.8, TruncationConfig(6)
    ks = KrausSet.build(r, cfg)
    faulted = ks.with_scalar_offset(2, 1e-3)
    assert faulted.fault == (2, 1e-3)
    with pytest.raises(ConfigError):
        ks.with_scalar_offset(cfg.n_max + 1, 1e-3)
    clean = dict(window(ks, 0, cfg.n_max))
    shifted = dict(window(faulted, 0, cfg.n_max))
    assert np.array_equal(shifted[2], clean[2] * (1.0 + 1e-3))
    for n in (0, 1, 3, 4, 5, 6):
        assert np.array_equal(shifted[n], clean[n])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("index", [178, 300, 1000])
def test_kraus_fault_at_a_high_index_stays_finite(index):
    # the fault scales A_index, so the Bell sum gains 2e-9 (plus 1e-18) of
    # A_index's own term at any index, with no overflow on the way; the
    # clean defect, of either sign before its abs, is the slack
    r, cfg = 3.0, TruncationConfig(3482)
    ks = KrausSet.build(r, cfg)
    bell = bell_state(cfg)
    d = ks.sub_diagonals(0, 1)[index]  # <0,1+n|A_n|0,1> and <1,n|A_n|1,0>
    term = 0.5 * (d[0, 1] ** 2 + d[1, 0] ** 2)
    clean = trace_preservation_defect(ks, bell)
    faulted = trace_preservation_defect(ks.with_scalar_offset(index, 1e-9), bell)
    assert math.isfinite(faulted)
    assert faulted == pytest.approx((2e-9 + 1e-18) * term, abs=clean + 1e-15)


# ---------------------------------------------------------------- channel map


def test_channel_is_identity_without_acceleration():
    cfg = TruncationConfig(8)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2 * cfg.dim, 2 * cfg.dim))
    rho_mat = m @ m.T
    rho_mat /= np.trace(rho_mat)
    rho = from_dense(joint_layout(cfg), rho_mat)
    out = apply_channel(rho, KrausSet.build(0.0, cfg))
    assert np.allclose(out.mat, rho.mat, atol=1e-14)


def dense_operator_sum(rho_mat, r, cfg):
    """sum_n A_n rho A_n^T from the dense single operators."""
    ops = (kraus_operator(n, r, cfg) for n in range(cfg.n_max + 1))
    return sum(op @ rho_mat @ op.T for op in ops)


@pytest.mark.parametrize("r", [0.0, 0.3])
def test_channel_matches_dense_operator_sum(r):
    # a generic input, not just the Bell state; r stays small because
    # entries off the initial subspace grow like cosh^(2m) r
    cfg = TruncationConfig(12)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((2 * cfg.dim, 2 * cfg.dim))
    rho_mat = m @ m.T
    rho_mat /= np.trace(rho_mat)
    rho = from_dense(joint_layout(cfg), rho_mat)
    expected = dense_operator_sum(rho_mat, r, cfg)
    out = apply_channel(rho, KrausSet.build(r, cfg))
    assert np.abs(out.mat - expected).max() <= 1e-14 * np.abs(expected).max()


def windowed_input(cfg, lo, hi, alice=(0, 1), seed=11):
    """A random PSD input supported on Fock levels lo..hi-1 of the given Alice blocks."""
    rng = np.random.default_rng(seed)
    idx = np.concatenate([a * cfg.dim + np.arange(lo, hi) for a in alice])
    m = rng.standard_normal((idx.size, idx.size))
    block = m @ m.T
    rho_mat = np.zeros((2 * cfg.dim, 2 * cfg.dim))
    rho_mat[np.ix_(idx, idx)] = block / np.trace(block)
    return from_dense(joint_layout(cfg), rho_mat)


@pytest.mark.parametrize(
    "lo, hi, alice",
    [(3, 8, (0, 1)), (5, 6, (0, 1)), (8, 13, (0, 1)), (3, 8, (1,))],
    ids=["3-8", "5-6", "8-end", "alice-1-only"],
)
@pytest.mark.parametrize("r", [0.3, 0.8])
def test_channel_on_windowed_input(lo, hi, alice, r):
    # the operator sum of an input on levels [lo, hi) matches the dense
    # operators, and is exactly 0 wherever no A_n can carry the window:
    # (a, m1; b, m2) needs a, b in the input's Alice blocks, m1, m2 >= lo
    # and |m1 - m2| <= hi - 1 - lo, since A_n shifts both sides by n
    cfg = TruncationConfig(12)
    rho = windowed_input(cfg, lo, hi, alice)
    expected = dense_operator_sum(rho.mat, r, cfg)
    out = apply_channel(rho, KrausSet.build(r, cfg))
    assert np.abs(out.mat - expected).max() <= 1e-14 * np.abs(expected).max()

    a = np.isin(np.arange(2), alice)
    m = np.arange(cfg.dim)
    levels = (
        (m[:, None] >= lo) & (m[None, :] >= lo)
        & (np.abs(m[:, None] - m[None, :]) <= hi - 1 - lo)
    )
    reach = a[:, None, None, None] & levels[None, :, None, :] & a[None, None, :, None]
    out4 = out.mat.reshape(2, cfg.dim, 2, cfg.dim)
    assert np.all(out4[~reach] == 0.0)
    assert np.count_nonzero(out4[reach]) > 0


def test_channel_maps_zero_to_zero():
    cfg = TruncationConfig(12)
    zero = from_dense(joint_layout(cfg), np.zeros((2 * cfg.dim, 2 * cfg.dim)))
    out = apply_channel(zero, KrausSet.build(0.8, cfg))
    assert np.all(out.mat == 0.0)


def test_channel_window_spans_rows_and_columns():
    # symmetry is only enforced to 1e-10, so an input may be nonzero in
    # column (0, 7) while row (0, 7) is all zero; the window must still reach it
    cfg = TruncationConfig(12)
    rho_mat = np.zeros((2 * cfg.dim, 2 * cfg.dim))
    rho_mat[2, 7] = 1e-11
    rho = from_dense(joint_layout(cfg), rho_mat)
    r = 0.8
    expected = dense_operator_sum(rho_mat, r, cfg)
    out = apply_channel(rho, KrausSet.build(r, cfg))
    assert np.abs(out.mat - expected).max() <= 1e-14 * np.abs(expected).max()


def full_width_operator_sum(rho, ks):
    """Every term of the operator sum over all N+1 levels, O(N^3) in all."""
    dim = ks.cfg.dim
    rho4 = rho.mat.reshape(2, dim, 2, dim)
    out = np.zeros_like(rho4)
    for n, d in window(ks, 0, ks.cfg.n_max):
        k = dim - n
        out[:, n:, :, n:] += d[:, :, None, None] * rho4[:, :k, :, :k] * d[None, None]
    return out.reshape(rho.mat.shape)


@pytest.mark.parametrize("n_max", [48, 256])
def test_channel_window_is_bitwise_full_width(n_max):
    # every product the window skips is an exact 0.0, so restricting the
    # Bell input's terms to levels {0, 1} changes no bit of the output
    cfg = TruncationConfig(n_max)
    rho = bell_input_density(cfg)
    for r in (0.0, 0.46, 1.3, 2.5):
        ks = KrausSet.build(r, cfg)
        assert np.array_equal(apply_channel(rho, ks).mat, full_width_operator_sum(rho, ks))


@pytest.mark.parametrize("n_max", [12, 48])
@pytest.mark.parametrize("lo, hi", [(0, 3), (2, 6), (7, 12)], ids=["w3", "w4", "w5"])
@pytest.mark.parametrize("r", [0.3, 0.8, 1.5])
def test_channel_collisions_are_bitwise_full_width(n_max, lo, hi, r):
    # the input entries (a, m; b, m') and (a, m+1; b, m'+1) both reach
    # (a, m+n+1; b, m'+n+1), at n+1 and at n, so several n land on one
    # output entry; the entry-wise sum must add them in ascending n, as the
    # dense sum does, to match it bit for bit
    cfg = TruncationConfig(n_max)
    rho = windowed_input(cfg, lo, hi)
    ks = KrausSet.build(r, cfg)
    assert np.array_equal(apply_channel(rho, ks).mat, full_width_operator_sum(rho, ks))


@pytest.mark.parametrize(
    "n_max, bell, per_pass",
    [(12, False, 1), (12, False, 150), (12, False, 1000), (256, True, 64), (256, True, 1024)],
    ids=["1", "150", "1000", "bell-64", "bell-1024"],
)
def test_channel_passes_are_bitwise_one_pass(monkeypatch, n_max, bell, per_pass):
    # the terms are formed in passes of at most _TERMS_PER_PASS: one level
    # per pass for 1, a few levels for 150 and 1000 with the windowed
    # input's 100 entries, 17 and 2 passes for the Bell input's 4 entries
    # over 257 levels.  Each pass lists its terms in ascending n after the
    # earlier passes' sums, so the bits are the full-width dense sum's
    # however the levels are split
    cfg = TruncationConfig(n_max)
    rho = bell_input_density(cfg) if bell else windowed_input(cfg, 2, 7)
    ks = KrausSet.build(0.8, cfg)
    monkeypatch.setattr(channel, "_TERMS_PER_PASS", per_pass)
    assert np.array_equal(apply_channel(rho, ks).mat, full_width_operator_sum(rho, ks))


def test_channel_matches_analytic_reduction():
    r, cfg = 0.8, TruncationConfig(48)
    out = apply_channel(bell_input_density(cfg), KrausSet.build(r, cfg))
    assert np.abs(out.mat - rho_alice_rob(r, cfg).mat).max() <= 1e-10


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_channel_matches_analytic_reduction_at_large_cutoff(r):
    # O(N) for the Bell input; a full-width sum at N = 1024 would take seconds
    cfg = TruncationConfig(1024)
    out = apply_channel(bell_input_density(cfg), KrausSet.build(r, cfg))
    assert np.abs(out.mat - rho_alice_rob(r, cfg).mat).max() <= 1e-10


def test_channel_output_trace_is_preserved():
    cfg = TruncationConfig(64)
    out = apply_channel(bell_input_density(cfg), KrausSet.build(1.0, cfg))
    assert out.trace == pytest.approx(1.0, abs=1e-10)


def test_channel_output_is_psd():
    cfg = TruncationConfig(24)
    out = apply_channel(bell_input_density(cfg), KrausSet.build(0.8, cfg))
    ev = out.assert_psd()
    assert ev[-1] >= -SYMMETRY_TOL


def test_channel_layout_mismatch_rejected():
    cfg = TruncationConfig(8)
    other = TruncationConfig(10)
    with pytest.raises(LayoutMismatchError):
        apply_channel(bell_input_density(other), KrausSet.build(0.5, cfg))


# ---------------------------------------------------------------- trace preservation


def initial_subspace_probes(cfg, r):
    """|0,1>, |1,0> and the Bell state, each with the weight the cutoff discards."""
    tail_c, tail_d = discarded_weights(r, cfg.n_max)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return (
        (probe(cfg, ((0, 1), 1.0)), tail_d),
        (probe(cfg, ((1, 0), 1.0)), tail_c),
        (probe(cfg, ((0, 1), inv_sqrt2), ((1, 0), inv_sqrt2)), (tail_c + tail_d) / 2.0),
    )


def test_defect_bounded_on_initial_subspace():
    cfg = TruncationConfig(64)
    for r in (1.05, 1.2, 1.35, 1.5):
        ks = KrausSet.build(r, cfg)
        for vec, tail in initial_subspace_probes(cfg, r):
            assert trace_preservation_defect(ks, vec) == pytest.approx(tail, abs=1e-14)


@pytest.mark.parametrize("n_max", [3134, 4096])
def test_defect_is_finite_at_the_production_cutoff(n_max):
    # at r = 3 the Kraus entries far from the initial subspace exceed
    # float64; the defect generates only the probe's window, so nothing
    # overflows (pytest turns the RuntimeWarning into an error) and the
    # defect stays the discarded weight up to the sum's rounding
    r, cfg = 3.0, TruncationConfig(n_max)
    ks = KrausSet.build(r, cfg)
    for vec, tail in initial_subspace_probes(cfg, r):
        assert trace_preservation_defect(ks, vec) == pytest.approx(tail, abs=1e-13)


@pytest.mark.parametrize("r, n_max", [(5.0, 190_684), (5.5, 518_710)])
def test_bell_defect_is_the_discarded_weight_at_the_oracle_cutoff(monkeypatch, r, n_max):
    # at the oracle's cutoff for 1e-12 (past the cap at r = 5.5) the Bell
    # defect is the exact discarded weight to 4.2e-15 and 8.1e-15; a rounded
    # tanh r multiplied in n times missed by 3.7e-13 and 2.2e-12
    monkeypatch.setattr(measures, "ADAPTIVE_N_CAP", 2**22)
    cfg = TruncationConfig(measures.adaptive_n_max(r, 1e-12))
    assert cfg.n_max == n_max
    tail_c, tail_d = discarded_weights(r, cfg.n_max)
    defect = trace_preservation_defect(KrausSet.build(r, cfg), bell_state(cfg))
    assert abs(defect - (tail_c + tail_d) / 2.0) <= 5e-14


def test_bell_defect_memory_at_the_cap():
    # nothing is stored: the Bell probe's defect at N = 4096
    # generates a (4097, 2, 2) window, where a stored family of
    # sub-diagonals takes 8 (N+1)(N+2) bytes, about 128 MiB
    r, cfg = 3.0, TruncationConfig(4096)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vec = probe(cfg, ((0, 1), inv_sqrt2), ((1, 0), inv_sqrt2))
    tracemalloc.start()
    try:
        trace_preservation_defect(KrausSet.build(r, cfg), vec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bell_channel_memory_at_the_cap():
    # the Bell input's output at N = 4096 is its 4 N + 1 entries, formed
    # in one pass of 4 (N + 1) terms; a dense output takes
    # 8 (2 (N + 1))^2 bytes, about 537 MB
    r, cfg = 3.0, TruncationConfig(4096)
    rho, ks = bell_input_density(cfg), KrausSet.build(r, cfg)
    tracemalloc.start()
    try:
        apply_channel(rho, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_defect_closed_form_for_vacuum_branch():
    # the |1,0> branch sums a pure geometric series: defect is exactly q^(n_max+1)
    r, cfg = 1.5, TruncationConfig(64)
    ks = KrausSet.build(r, cfg)
    defect = trace_preservation_defect(ks, probe(cfg, ((1, 0), 1.0)))
    q = math.tanh(r) ** 2
    assert defect == pytest.approx(q ** (cfg.n_max + 1), rel=1e-6)


def test_defect_off_subspace_is_macroscopic():
    # outside span{|0,1>, |1,0>} the map stops being trace preserving:
    # probing |1,1> multiplies in an extra cosh^2, so the sum is cosh^2 r,
    # and probing |0,0> lacks one, so the sum is 1 / cosh^2 r
    cfg = TruncationConfig(64)
    ks = KrausSet.build(1.0, cfg)
    defect = trace_preservation_defect(ks, probe(cfg, ((1, 1), 1.0)))
    assert defect == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)
    assert defect == pytest.approx(1.3811, abs=1e-4)
    vacuum = trace_preservation_defect(ks, probe(cfg, ((0, 0), 1.0)))
    assert vacuum == pytest.approx(math.tanh(1.0) ** 2, abs=1e-9)
    assert vacuum == pytest.approx(0.5800, abs=1e-4)
    # with the cutoff's discarded weight, |1,1> sums to cosh^2 r (1 - tail_d)
    # exactly, also where that weight is macroscopic (tail_d up to 0.66)
    for r, n_max in ((1.5, 8), (1.0, 4), (2.0, 16)):
        cfg = TruncationConfig(n_max)
        _, tail_d = discarded_weights(r, n_max)
        defect = trace_preservation_defect(KrausSet.build(r, cfg), probe(cfg, ((1, 1), 1.0)))
        exact = math.sinh(r) ** 2 - math.cosh(r) ** 2 * tail_d
        assert defect == pytest.approx(exact, abs=1e-14), (r, n_max)


def test_defect_requires_normalized_probe():
    cfg = TruncationConfig(8)
    ks = KrausSet.build(0.5, cfg)
    with pytest.raises(ConfigError):
        trace_preservation_defect(ks, probe(cfg, ((1, 0), 0.5)))


# ---------------------------------------------------------------- completeness


def completeness_diagonal(ks):
    """Diagonal of sum_n A_n^T A_n, ascending n, from the full window; (2, dim)."""
    diag = np.zeros((2, ks.cfg.dim))
    for _, d in window(ks, 0, ks.cfg.n_max):
        diag[:, : d.shape[1]] += d * d
    return diag


def test_completeness_identity_without_acceleration():
    cfg = TruncationConfig(8)
    comp = completeness_diagonal(KrausSet.build(0.0, cfg))
    assert np.allclose(comp, 1.0, atol=1e-15)


def test_completeness_is_diagonal():
    # each A_n maps basis states to multiples of basis states, so the dense
    # sum is diagonal, and its diagonal is the windowed one
    r, cfg = 0.9, TruncationConfig(24)
    ops = (kraus_operator(n, r, cfg) for n in range(cfg.n_max + 1))
    comp = sum(op.T @ op for op in ops)
    off = comp - np.diag(np.diag(comp))
    assert np.all(off == 0.0)
    expected = completeness_diagonal(KrausSet.build(r, cfg)).ravel()
    assert np.allclose(np.diag(comp), expected, rtol=1e-14, atol=0.0)


def test_completeness_is_identity_on_initial_subspace():
    # closed form sum_n C(m+n, n) x^n = (1-x)^-(m+1) makes the (0,1) and
    # (1,0) diagonal entries exactly 1 up to the truncation tail
    comp = completeness_diagonal(KrausSet.build(1.2, TruncationConfig(96)))
    assert comp[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert comp[1, 0] == pytest.approx(1.0, abs=1e-9)


def test_completeness_vacuum_entry():
    comp = completeness_diagonal(KrausSet.build(1.0, TruncationConfig(64)))
    expected = 1.0 / math.cosh(1.0) ** 2
    assert comp[0, 0] == pytest.approx(expected, abs=1e-9)
    assert comp[0, 0] == pytest.approx(0.4200, abs=1e-4)


# ---------------------------------------------------------------- overlap traces


def test_input_overlap_traces_collapse():
    cfg = TruncationConfig(32)
    for r in (0.4, 1.0, 1.7):
        traces = input_overlap_traces(r, cfg)
        assert traces.shape == (cfg.n_max + 1,)
        sech = 1.0 / math.cosh(r)
        assert traces[0] == pytest.approx(0.5 * sech * (1.0 + sech), rel=1e-13)
        # structural zeros, not merely small: the operators shift occupation
        assert np.all(traces[1:] == 0.0)
