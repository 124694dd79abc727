import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from unruhsim import (
    ConfigError,
    DensityMatrix,
    FactorLayout,
    PositivityError,
    TruncationConfig,
    adaptive_n_max,
    bell_input_density,
    entanglement_fidelity_closed,
    entanglement_fidelity_kraus,
    entropy_exchange,
    MeasureRecord,
    SweepConfig,
    joint_entropy_series,
    measure_record,
    measure_records,
    one_particle_mode_weights,
    partial_trace,
    rho_alice_rob,
    rob_entropy_series,
    run_sweep,
    tripartite_state,
    truncation_tail_bound,
    vacuum_mode_weights,
    von_neumann_entropy,
)
from unruhsim.measures import (
    _BLOCK_LEVELS,
    ADAPTIVE_N_CAP,
    entropy_from_probabilities,
    wedge_ii_probabilities,
)
from unruhsim.rindler import ALICE, WEDGE_I, block_weights
from unruhsim.sweep import r_grid

CFG = TruncationConfig(16)


# ---------------------------------------------------------------- entropy


def test_entropy_of_pure_state_vanishes():
    assert von_neumann_entropy(bell_input_density(CFG), CFG) <= 1e-12


def test_entropy_of_maximally_mixed_qubit():
    rho = DensityMatrix(FactorLayout((2,), ("x",)), np.diag([0.5, 0.5]))
    assert von_neumann_entropy(rho, CFG) == pytest.approx(1.0, abs=1e-14)


def test_entropy_of_uniform_four_outcomes():
    rho = DensityMatrix(FactorLayout((4,), ("x",)), np.diag([0.25] * 4))
    assert von_neumann_entropy(rho, CFG) == pytest.approx(2.0, abs=1e-14)


def test_entropy_rejects_negative_spectrum():
    rho = DensityMatrix(FactorLayout((2,), ("x",)), np.diag([1.0, -1e-6]))
    with pytest.raises(PositivityError):
        von_neumann_entropy(rho, CFG)
    # a trace-one matrix with a large negative eigenvalue: its "entropy"
    # would come out negative, at any cutoff
    rho = DensityMatrix(FactorLayout((2,), ("x",)), np.diag([1.3, -0.3]))
    with pytest.raises(PositivityError):
        von_neumann_entropy(rho, TruncationConfig(1))


def test_entropy_from_probabilities_conventions():
    assert entropy_from_probabilities(np.array([1.0, 0.0, 0.0])) == 0.0
    assert entropy_from_probabilities(np.array([])) == 0.0
    assert entropy_from_probabilities(np.array([0.5, 0.5])) == pytest.approx(1.0)


# ---------------------------------------------------------------- fidelity


def test_fidelity_closed_form_limits():
    assert entanglement_fidelity_closed(0.0) == 1.0
    assert entanglement_fidelity_closed(10.0) < 1e-7


def test_fidelity_closed_form_spot_value():
    # cosh r = 2 gives (1/4)(1/4)(3/2)^2 = 9/64
    r = math.acosh(2.0)
    assert entanglement_fidelity_closed(r) == pytest.approx(9.0 / 64.0, abs=1e-12)


def test_fidelity_closed_form_strictly_decreasing():
    grid = np.linspace(0.0, 3.0, 50)
    vals = [entanglement_fidelity_closed(r) for r in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_fidelity_two_routes_agree(r):
    cfg = TruncationConfig(64)
    gap = abs(entanglement_fidelity_kraus(r, cfg) - entanglement_fidelity_closed(r))
    assert gap <= 1e-12


def test_fidelity_kraus_truncation_independent():
    # only the n = 0 trace survives and it involves occupations <= 1,
    # so the cutoff cannot matter
    vals = [
        entanglement_fidelity_kraus(0.8, TruncationConfig(n)) for n in (8, 64, 128)
    ]
    assert vals[0] == pytest.approx(vals[1], abs=1e-15)
    assert vals[1] == pytest.approx(vals[2], abs=1e-15)


def test_fidelity_kraus_memory_is_linear():
    # the Bell amplitudes meet the Kraus window (0, 1) as vectors: the dense
    # (2N + 2)^2 projector alone would take 32 MiB at N = 1024
    tracemalloc.start()
    try:
        entanglement_fidelity_kraus(1.0, TruncationConfig(1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- entropy series


def test_joint_entropy_vanishes_without_acceleration():
    assert joint_entropy_series(0.0, CFG) == 0.0


def test_joint_entropy_series_vs_spectral():
    cfg = TruncationConfig(128)
    series = joint_entropy_series(1.0, cfg)
    spectral = von_neumann_entropy(rho_alice_rob(1.0, cfg), cfg)
    assert abs(series - spectral) <= 1e-8


def test_joint_entropy_peak_exceeds_two_bits():
    peaks = []
    for r in np.linspace(0.0, 3.0, 31):
        n = adaptive_n_max(r, 1e-10)
        peaks.append(joint_entropy_series(r, TruncationConfig(n)))
    assert max(peaks) > 2.0


def test_rob_entropy_series_vs_spectral():
    cfg = TruncationConfig(128)
    rho_r = partial_trace(rho_alice_rob(1.0, cfg), (WEDGE_I,))
    series = rob_entropy_series(1.0, cfg)
    spectral = von_neumann_entropy(rho_r, cfg)
    assert abs(series - spectral) <= 1e-8


def test_rob_entropy_small_acceleration_limit():
    # the n = 0 term of the occupation series is a removable 0/0; near r = 0
    # Rob's mode approaches the maximally mixed pair, i.e. one bit
    cfg = TruncationConfig(16)
    series = rob_entropy_series(1e-4, cfg)
    rho_r = partial_trace(rho_alice_rob(1e-4, cfg), (WEDGE_I,))
    spectral = von_neumann_entropy(rho_r, cfg)
    assert abs(series - spectral) <= 1e-8
    assert series == pytest.approx(1.0, abs=1e-6)
    assert rob_entropy_series(0.0, cfg) == pytest.approx(1.0, abs=1e-15)


def test_rob_occupation_probabilities_are_normalized():
    r, cfg = 1.1, TruncationConfig(96)
    a = block_weights(r, cfg)
    p = a.copy()
    m = np.arange(1, cfg.n_max + 1)
    p[1:] += m * a[:-1] / math.cosh(r) ** 2
    assert np.all(p >= 0.0)
    psi = tripartite_state(r, cfg)
    assert float(p.sum()) == pytest.approx(psi.norm_sq, abs=1e-12)


# ---------------------------------------------------------------- entropy exchange


def test_entropy_exchange_vanishes_without_acceleration():
    assert entropy_exchange(0.0, CFG) <= 1e-12


def test_entropy_exchange_positive_under_acceleration():
    assert entropy_exchange(0.2, CFG) > 0.0


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_entropy_exchange_equals_joint_entropy(r):
    cfg = TruncationConfig(64)
    spectral_joint = von_neumann_entropy(rho_alice_rob(r, cfg), cfg)
    assert abs(entropy_exchange(r, cfg) - spectral_joint) <= 1e-8


def test_wedge_marginal_is_exact_spectrum():
    # the wedge-II reduction is diagonal, so entropy of the marginal must
    # reproduce the full spectral route bit for bit
    r, cfg = 0.8, TruncationConfig(32)
    psi = tripartite_state(r, cfg)
    env = psi.reduced_density(("II",))
    off = env.mat - np.diag(np.diag(env.mat))
    assert np.all(off == 0.0)
    marginal = entropy_from_probabilities(wedge_ii_probabilities(psi))
    assert abs(marginal - entropy_exchange(r, cfg)) <= 1e-12


# ---------------------------------------------------------------- mutual information


def test_mutual_information_without_acceleration():
    assert measure_record(0.0, 1e-10).mutual_info == pytest.approx(2.0, abs=1e-10)


def test_mutual_information_decreasing():
    vals = [measure_record(r, 1e-10).mutual_info for r in np.linspace(0.0, 3.0, 25)]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("r", [0.5, 1.5])
def test_alice_entropy_is_one_bit(r):
    cfg = TruncationConfig(adaptive_n_max(r, 1e-10))
    psi = tripartite_state(r, cfg)
    s_a = von_neumann_entropy(psi.reduced_density((ALICE,)), cfg)
    assert s_a == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- adaptive truncation


def test_adaptive_truncation_grows_with_acceleration():
    grid = np.linspace(0.0, 3.0, 16)
    used = [adaptive_n_max(r, 1e-10) for r in grid]
    assert all(b >= a for a, b in zip(used, used[1:]))
    assert used[-1] >= 2048


def test_adaptive_truncation_meets_tail_target():
    for r in (0.1, 0.5, 1.5, 2.2, 3.0):
        n = adaptive_n_max(r, 1e-10)
        assert truncation_tail_bound(r, n) < 1e-10
        assert truncation_tail_bound(r, n - 1) >= 1e-10


def test_adaptive_truncation_respects_cap():
    with pytest.raises(ConfigError, match="cap"):
        adaptive_n_max(4.0, 1e-10)
    assert adaptive_n_max(3.0, 1e-10) <= ADAPTIVE_N_CAP
    # the reach at the default tolerance lies between these two r
    assert adaptive_n_max(3.12962, 1e-10) == ADAPTIVE_N_CAP
    with pytest.raises(ConfigError, match="cap"):
        adaptive_n_max(3.12964, 1e-10)


@pytest.mark.parametrize("r", [-1.0, math.inf, math.nan])
def test_adaptive_truncation_rejects_invalid_r(r):
    with pytest.raises(ConfigError, match="finite and >= 0"):
        adaptive_n_max(r, 1e-10)


# ---------------------------------------------------------------- records


@pytest.mark.parametrize("r", [0.0, 0.5, 1.5, 2.5])
def test_measure_record_matches_dense_routes(r):
    rec = measure_record(r, 1e-10)
    eff = TruncationConfig(rec.n_used)
    psi = tripartite_state(r, eff)
    s_a = von_neumann_entropy(psi.reduced_density((ALICE,)), eff)
    s_e = entropy_from_probabilities(wedge_ii_probabilities(psi))
    fe_kraus = entanglement_fidelity_kraus(r, TruncationConfig(64))
    assert abs(rec.s_a - s_a) <= 1e-10
    assert abs(rec.s_e - s_e) <= 1e-12
    assert abs(rec.tail - (1 - psi.norm_sq)) <= 1e-12
    assert abs(rec.fe_kraus - fe_kraus) <= 1e-12


def test_measure_record_consistency():
    rec = measure_record(1.0, 1e-10)
    assert abs(rec.fe_closed - rec.fe_kraus) <= max(1e-10, rec.tail)
    assert rec.s_a == pytest.approx(1.0, abs=1e-10)
    margin = rec.s_a + rec.s_r - rec.s_ar
    assert rec.subadd_margin == pytest.approx(margin, abs=1e-14)
    assert rec.mutual_info == pytest.approx(1.0 + rec.s_r - rec.s_ar, abs=1e-14)
    assert abs(rec.s_e - rec.s_ar) <= 1e-8  # purification identity
    assert truncation_tail_bound(1.0, rec.n_used) < 1e-10


@pytest.mark.parametrize("r", [4.0, 5.0])
def test_measure_record_refuses_r_past_the_cap(r):
    # the cutoff would stop at the cap with an unconverged series
    with pytest.raises(ConfigError, match="cap"):
        measure_record(r, 1e-10)


@pytest.mark.parametrize("fixed", [1, 8, 256])
def test_record_tail_is_certified(fixed):
    # every accepted cutoff bounds the weight the record actually drops,
    # including below q = 1/2 where the one-particle branch's tail dominates
    for r in np.linspace(0.0, 3.0, 121)[1:]:
        rec = measure_record(float(r), 1e-10)
        bound = truncation_tail_bound(float(r), rec.n_used)
        assert 0.0 <= rec.tail <= bound < 1e-10
        # and it is the smallest cutoff that certifies the row
        assert rec.n_used == 1 or truncation_tail_bound(float(r), rec.n_used - 1) >= 1e-10
        # so a fixed cutoff certifies the row exactly when it reaches the record's
        assert (truncation_tail_bound(float(r), fixed) < 1e-10) == (fixed >= rec.n_used)


# ---------------------------------------------------------------- block evaluation


def plogp(p: float) -> float:
    return -p * math.log2(p) if p > 1e-300 else 0.0


def per_row_record(r: float, n_used: int) -> MeasureRecord:
    """The record from the per-row series and closed forms at n_used.

    The reference that block evaluation must match bit for bit: each series
    is one numpy call on arrays of this row alone.  s_a is the entropy of
    Alice's diag(||d||^2/2, ||c||^2/2) with the norms 1 - tail_d and
    1 - tail_c; s_e is s_ar with its edge term lambda_N replaced by the
    wedge-II marginal's c_N^2/2 = a_N.
    """
    cfg = TruncationConfig(n_used)
    _, tail_c = vacuum_mode_weights(r, cfg)
    _, tail_d = one_particle_mode_weights(r, cfg)
    s_ar = joint_entropy_series(r, cfg)
    s_r = rob_entropy_series(r, cfg)
    s_a = plogp((1.0 - tail_d) / 2.0) + plogp((1.0 - tail_c) / 2.0)
    ch = math.cosh(r)
    a_edge = float(block_weights(r, cfg)[-1])
    lam_edge = a_edge * (1.0 + (n_used + 1.0) / ch**2)
    trace_0 = 0.5 * (1.0 + ch) / ch**2
    return MeasureRecord(
        r=r,
        fe_closed=entanglement_fidelity_closed(r),
        fe_kraus=trace_0 * trace_0,
        s_ar=s_ar,
        s_r=s_r,
        s_a=s_a,
        s_e=s_ar - plogp(lam_edge) + plogp(a_edge),
        mutual_info=1.0 + s_r - s_ar,
        subadd_margin=s_a + s_r - s_ar,
        tail=(tail_c + tail_d) / 2.0,
        n_used=n_used,
    )


def assert_bitwise(rec: MeasureRecord, ref: MeasureRecord) -> None:
    assert astuple(rec) == astuple(ref), (rec, ref)
    assert [type(v) for v in astuple(rec)] == [type(v) for v in astuple(ref)]


# r = 3.1296 needs 4096 levels at tol 1e-10 (4097 with level 0, a block of
# its own); 3.1295 needs 4095, exactly one full block.
GRIDS = {
    "to-the-reach": SweepConfig(r_max=3.1296, points=300),
    "underflow": SweepConfig(r_min=1e-200, r_max=1e-100, points=7),
    "low-r": SweepConfig(r_max=1.0, points=400),
}


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_sweep_rows_are_bitwise_the_per_row_series(grid, tol):
    cfg = replace(GRIDS[grid], abs_tol=tol)
    records = run_sweep(cfg)
    assert [rec.r for rec in records] == r_grid(cfg).tolist()
    for rec in records:
        assert_bitwise(rec, per_row_record(rec.r, rec.n_used))
    if grid == "to-the-reach":
        assert records[0].r == 0.0
        assert sum(rec.n_used + 1 for rec in records) > 10 * _BLOCK_LEVELS
        if tol == 1e-10:
            assert records[-1].n_used == ADAPTIVE_N_CAP


# rows of every width side by side: exactly one block, wider than one,
# entries under the probability floor, r = 0 between them
ANY_ORDER_RS = [3.1295, 0.0, 1e-300, 3.1296, 1e-150, 0.5, 3.0, 1e-120, 0.0, 2.0]


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
def test_records_are_bitwise_the_per_row_series_in_any_order(tol):
    records = measure_records(ANY_ORDER_RS, tol)
    assert [rec.r for rec in records] == ANY_ORDER_RS
    for rec in records:
        assert_bitwise(rec, per_row_record(rec.r, rec.n_used))
        assert_bitwise(measure_record(rec.r, tol), rec)


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
@pytest.mark.parametrize("rows", sorted(GRIDS) + ["any-order"])
def test_closed_forms_match_the_mode_weights(rows, tol):
    # s_a and s_e against the entropies of Alice's reduction and of the
    # wedge-II marginal, both built from the mode-weight arrays c and d
    rs = ANY_ORDER_RS if rows == "any-order" else r_grid(GRIDS[rows]).tolist()
    for rec in measure_records(rs, tol):
        cfg = TruncationConfig(rec.n_used)
        c, _ = vacuum_mode_weights(rec.r, cfg)
        d, _ = one_particle_mode_weights(rec.r, cfg)
        wedge = 0.5 * c * c
        wedge[:-1] += 0.5 * d * d
        s_a = entropy_from_probabilities(np.array([d @ d, c @ c]) / 2.0)
        assert abs(rec.s_a - s_a) <= 1e-12, rec
        assert abs(rec.s_e - entropy_from_probabilities(wedge)) <= 1e-12, rec


def test_record_memory_is_bounded_by_the_block():
    # blocks of at most _BLOCK_LEVELS levels keep the traced peak far below
    # what one array over the whole grid (> 10^5 levels) would need
    rs = r_grid(GRIDS["to-the-reach"]).tolist()
    tracemalloc.start()
    try:
        measure_records(rs, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_measure_record_is_the_matching_sweep_row():
    cfg = SweepConfig(r_max=3.0, points=41)
    for rec in run_sweep(cfg):
        assert_bitwise(measure_record(rec.r, cfg.abs_tol), rec)


def test_measure_records_of_no_rows():
    assert measure_records([], 1e-10) == []


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
def test_sweep_cutoffs_are_the_scalar_search(tol):
    # a row's cutoff does not depend on the other rows: the search over the
    # whole grid gives every row what the search over that row alone gives
    cfg = SweepConfig(r_max=3.1296, points=600, abs_tol=tol)
    for rec in run_sweep(cfg):
        assert rec.n_used == adaptive_n_max(rec.r, tol)


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
@pytest.mark.parametrize(
    "r", [0.0, 1e-300, 1e-150, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 3.1296]
)
def test_certified_cutoffs_are_one_interval(r, tol):
    # any bisection needs {N : bound(N) < tol} to be [n_used, cap]
    [rec] = measure_records([r], tol)
    certified = [
        n for n in range(1, ADAPTIVE_N_CAP + 1) if truncation_tail_bound(r, n) < tol
    ]
    assert certified == list(range(rec.n_used, ADAPTIVE_N_CAP + 1))


def test_cutoffs_where_array_and_scalar_pow_disagree():
    # numpy's array pow differs from Python's by an ulp for some (q, N).  The
    # bound is evaluated on arrays only, so at such a pair a scalar call is
    # still the array's element, and a tol equal to it still gets the
    # smallest cutoff whose bound is below it
    ns = np.arange(1, ADAPTIVE_N_CAP + 1)
    for r in np.linspace(0.7, 1.2, 51).tolist():
        q = np.tanh(np.array([r])).item() ** 2  # the bound's q, so pow alone differs
        array = truncation_tail_bound(r, ns)
        for n, a in zip(ns[:1000].tolist(), array.tolist()):
            python_pow = max((n + 2) * q ** (n + 1), q**n * ((n + 1) - n * q))
            if a == python_pow or not 1e-300 < a < 1.0:
                continue
            assert truncation_tail_bound(r, n) == a
            smallest = int(np.argmax(array < a)) + 1
            assert measure_record(r, a).n_used == smallest


def test_records_refuse_the_first_r_past_the_reach():
    with pytest.raises(ConfigError, match=r"r = 3\.2 needs a cutoff above"):
        measure_records([1.0, 3.2, 3.0, 4.0], 1e-10)


# ---------------------------------------------------------------- 50-digit anchors


def _mp_reference(mpmath, r):
    """Untruncated S(rho_AR), S(rho_R) in bits and the fidelity, at 50 digits.

    Sums the block traces lambda_n = a_n (1 + (n+1)/cosh^2 r) and Rob's
    occupations p_n = a_n + n a_{n-1}/cosh^2 r until a_n < 1e-60.  Without
    truncation the wedge-II marginal (c_n^2 + d_n^2)/2 is lambda_n, so the
    joint entropy is also the entropy exchange.
    """
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        ch2 = mpmath.cosh(r) ** 2
        q = mpmath.tanh(r) ** 2
        floor = mpmath.mpf(10) ** -60
        joint = rob = mpmath.mpf(0)
        a_prev, a, n = mpmath.mpf(0), 1 / (2 * ch2), 0
        while a > floor:
            lam = a * (1 + (n + 1) / ch2)
            p = a + n * a_prev / ch2
            joint -= lam * mpmath.log(lam)
            rob -= p * mpmath.log(p)
            a_prev, a, n = a, a * q, n + 1
        sech = 1 / mpmath.sqrt(ch2)
        fidelity = sech**2 * (1 + sech) ** 2 / 4
        ln2 = mpmath.log(2)
        return float(joint / ln2), float(rob / ln2), float(fidelity)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.5, 2.0, 3.0])
def test_record_matches_high_precision_reference(r):
    mpmath = pytest.importorskip("mpmath")
    s_joint, s_rob, fidelity = _mp_reference(mpmath, r)
    rec = measure_record(r, 1e-10)
    assert abs(rec.s_ar - s_joint) <= 1e-8
    assert abs(rec.s_e - s_joint) <= 1e-8
    assert abs(rec.s_r - s_rob) <= 1e-8
    assert abs(rec.fe_closed - fidelity) <= 1e-12
    assert abs(rec.fe_kraus - fidelity) <= 1e-12
    assert abs(rec.s_a - 1.0) <= 1e-8  # untruncated, Alice holds one bit
