import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from dense import from_dense
from unruhsim import (
    ConfigError,
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
    vacuum_mode_weights,
    von_neumann_entropy,
)
from unruhsim import measures
from unruhsim.measures import (
    _BLOCK_ROWS,
    ADAPTIVE_N_CAP,
    R_MAX,
    _scaled_e1,
    _series_entropies,
    _series_tails,
    entropy_from_probabilities,
    wedge_ii_probabilities,
)
from unruhsim.rindler import ALICE, WEDGE_I, discarded_weights, entropy_tail_bound
from unruhsim.sweep import r_grid

CFG = TruncationConfig(16)


# ---------------------------------------------------------------- entropy


def test_entropy_of_pure_state_vanishes():
    assert von_neumann_entropy(bell_input_density(CFG), CFG) <= 1e-12


def test_entropy_of_maximally_mixed_qubit():
    rho = from_dense(FactorLayout((2,), ("x",)), np.diag([0.5, 0.5]))
    assert von_neumann_entropy(rho, CFG) == pytest.approx(1.0, abs=1e-14)


def test_entropy_of_uniform_four_outcomes():
    rho = from_dense(FactorLayout((4,), ("x",)), np.diag([0.25] * 4))
    assert von_neumann_entropy(rho, CFG) == pytest.approx(2.0, abs=1e-14)


def test_entropy_rejects_negative_spectrum():
    rho = from_dense(FactorLayout((2,), ("x",)), np.diag([1.0, -1e-6]))
    with pytest.raises(PositivityError):
        von_neumann_entropy(rho, CFG)
    # a trace-one matrix with a large negative eigenvalue: its "entropy"
    # would come out negative, at any cutoff
    rho = from_dense(FactorLayout((2,), ("x",)), np.diag([1.3, -0.3]))
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


# (0.5, 4), (2, 64) and (3, 256) keep enough weight in the last block to
# tell the state cut at N from blocks 0..N taken whole
SERIES_CASES = [(1.0, 256), (0.5, 4), (2.0, 64), (3.0, 256)]


@pytest.mark.parametrize("r, n_max", SERIES_CASES)
def test_joint_entropy_series_vs_spectral(r, n_max):
    cfg = TruncationConfig(n_max)
    series = joint_entropy_series(r, cfg)
    spectral = von_neumann_entropy(rho_alice_rob(r, cfg), cfg)
    assert abs(series - spectral) <= 1e-12


def test_joint_entropy_peak_exceeds_two_bits():
    peaks = []
    for r in np.linspace(0.0, 3.0, 31):
        n = adaptive_n_max(r, 1e-10)
        peaks.append(joint_entropy_series(r, TruncationConfig(n)))
    assert max(peaks) > 2.0


@pytest.mark.parametrize("r, n_max", SERIES_CASES)
def test_rob_entropy_series_vs_spectral(r, n_max):
    cfg = TruncationConfig(n_max)
    rho_r = partial_trace(rho_alice_rob(r, cfg), (WEDGE_I,))
    series = rob_entropy_series(r, cfg)
    spectral = von_neumann_entropy(rho_r, cfg)
    assert abs(series - spectral) <= 1e-12


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
    # Rob's reduction is diagonal: its diagonal is the occupation
    # distribution the series sums, and it carries the state's whole norm
    r, cfg = 1.1, TruncationConfig(96)
    rho_r = partial_trace(rho_alice_rob(r, cfg), (WEDGE_I,))
    p = np.diag(rho_r.mat)
    assert np.all(rho_r.mat - np.diag(p) == 0.0)
    assert np.all(p >= 0.0)
    psi = tripartite_state(r, cfg)
    assert float(p.sum()) == pytest.approx(psi.norm_sq, abs=1e-12)
    assert abs(rob_entropy_series(r, cfg) - entropy_from_probabilities(p)) <= 1e-13


# ---------------------------------------------------------------- entropy exchange


def test_entropy_exchange_vanishes_without_acceleration():
    assert entropy_exchange(0.0, CFG) <= 1e-12


def test_entropy_exchange_positive_under_acceleration():
    assert entropy_exchange(0.2, CFG) > 0.0


def test_oracle_entropies_at_the_production_cutoff_in_bounded_memory():
    # r = 3 at N = 3134, past adaptive_n_max's 2989 at the default
    # tolerance.  Stored as entries,
    # rho_AR and the tripartite state hold O(N) values; a dense rho_AR
    # (6270 x 6270) alone is 300 MiB, and the dense route peaked near 581 MB
    r, cfg = 3.0, TruncationConfig(3134)
    series = joint_entropy_series(r, cfg)
    for route in (
        lambda: von_neumann_entropy(rho_alice_rob(r, cfg), cfg),
        lambda: entropy_exchange(r, cfg),
    ):
        tracemalloc.start()
        try:
            value = route()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(value - series) <= 1e-10


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
    # the cut state's entropies are certified, and the weight it drops is
    # below their bound
    for r in (0.1, 0.5, 1.5, 2.2, 3.0, 4.0, 5.0):
        n = adaptive_n_max(r, 1e-10)
        bound = entropy_tail_bound(r, n)
        assert bound < 1e-10
        assert 0.0 < sum(discarded_weights(r, n)) / 2.0 < bound


def test_adaptive_truncation_respects_cap():
    with pytest.raises(ConfigError, match="cap"):
        adaptive_n_max(5.5, 1e-10)
    # no row lies past R_MAX, and at r = 400 expm1(2 r) overflows
    with pytest.raises(ConfigError, match="above R_MAX"):
        adaptive_n_max(400.0, 0.5)
    assert adaptive_n_max(5.0, 1e-10) <= ADAPTIVE_N_CAP
    # the reach lies between these r, at the default tolerance and at the
    # oracle's 1e-12
    for tol, below, above in ((1e-10, 5.23467, 5.23468), (1e-12, 5.15902, 5.15903)):
        assert adaptive_n_max(below, tol) <= ADAPTIVE_N_CAP
        with pytest.raises(ConfigError, match="cap"):
            adaptive_n_max(above, tol)


@pytest.mark.parametrize(
    "r, n_max",
    [(0.5, 22), (1.0, 63), (1.5, 173), (3.0, 3482), (4.0, 25767), (5.0, 190684)],
)
def test_adaptive_truncation_keeps_the_oracle_cutoffs(r, n_max):
    # the cutoffs records-vs-oracle used before adaptive_n_max became its
    # rule: a first guess ln(tol) / ln q and steps, at the oracle's 1e-12
    assert adaptive_n_max(r, 1e-12) == n_max


@pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-12])
def test_adaptive_truncation_certifies_a_grid(tol):
    for r in [0.0, 1e-300, 1e-150, 1e-20] + np.linspace(0.0, 5.0, 201)[1:].tolist():
        n = adaptive_n_max(r, tol)
        assert 1 <= n <= ADAPTIVE_N_CAP
        assert entropy_tail_bound(r, n) < tol


@pytest.mark.parametrize("r", [-1.0, math.inf, math.nan])
def test_adaptive_truncation_rejects_invalid_r(r):
    with pytest.raises(ConfigError, match="finite and >= 0"):
        adaptive_n_max(r, 1e-10)


# ---------------------------------------------------------------- records


def _cutoff_below(r, tail):
    """A cutoff N whose cut state's entropies are within tail of the untruncated ones."""
    n = 1
    while not entropy_tail_bound(r, n) < tail:
        n += max(1, n // 8)
    return n


def _row_bound(r):
    """The certified bound of the row at r."""
    r = np.array([float(r)])
    return float(_series_entropies(r, np.cosh(r))[1][0])


@pytest.mark.parametrize("r", [0.0, 0.5, 1.5, 2.5])
def test_measure_record_matches_dense_routes(r):
    # the untruncated row against the oracle cut where its entropies are
    # within 1e-14 of the untruncated ones
    rec = measure_record(r, 1e-10)
    eff = TruncationConfig(_cutoff_below(r, 1e-14))
    psi = tripartite_state(r, eff)
    s_a = von_neumann_entropy(psi.reduced_density((ALICE,)), eff)
    s_e = entropy_from_probabilities(wedge_ii_probabilities(psi))
    fe_kraus = entanglement_fidelity_kraus(r, TruncationConfig(64))
    assert abs(1.0 - s_a) <= 1e-10  # untruncated, Alice holds one bit
    assert abs(rec.s_e - s_e) <= 1e-12
    assert abs(1 - psi.norm_sq) <= 1e-12  # and nothing is discarded
    assert abs(rec.fe_kraus - fe_kraus) <= 1e-12


def test_measure_record_consistency():
    # the untruncated state is pure and Alice holds one bit of it
    rec = measure_record(1.0, 1e-10)
    assert abs(rec.fe_closed - rec.fe_kraus) <= 1e-12
    assert rec.mutual_info == 1.0 + rec.s_r - rec.s_ar
    assert rec.s_e == rec.s_ar


@pytest.mark.parametrize("r", [6.5, 10.0])
def test_measure_record_refuses_r_above_r_max(r):
    with pytest.raises(ConfigError, match="above R_MAX = 6"):
        measure_record(r, 1e-10)
    assert measure_record(R_MAX, 1e-10).r == R_MAX


@pytest.mark.parametrize("fixed", [1, 8, 256])
def test_record_tail_is_certified(fixed):
    # the oracle's cutoff bounds the entropies and the weight its cut state
    # drops, including below q = 1/2 where the one-particle branch's tail
    # dominates
    for r in np.linspace(0.0, 3.0, 121)[1:].tolist():
        n_max = adaptive_n_max(r, 1e-10)
        bound = entropy_tail_bound(r, n_max)
        assert 0.0 <= sum(discarded_weights(r, n_max)) / 2.0 <= bound < 1e-10
        # a fixed cutoff past it certifies the row too
        if fixed >= n_max:
            assert entropy_tail_bound(r, fixed) < 1e-10


def test_rows_past_their_tolerance_are_refused():
    # values do not depend on abs_tol; a row whose certified bound is not
    # below it is refused, not returned
    assert _row_bound(1.0) > 1e-14
    with pytest.raises(ConfigError, match=r"r = 1: the certified error bound .* 1e-14"):
        measure_records([0.1, 1.0, 2.0], 1e-14)
    assert measure_records([0.1, 1.0], 1e-13) == measure_records([0.1, 1.0], 1e-3)


def test_records_stop_at_the_first_refused_block(monkeypatch):
    # a refused row in the first pass stops the grid before the next pass
    passes = []
    block_fields = measures._block_fields

    def spy(r):
        passes.append(r.size)
        return block_fields(r)

    monkeypatch.setattr(measures, "_block_fields", spy)
    with pytest.raises(ConfigError, match=r"r = 1: the certified error bound"):
        measure_records([0.1, 1.0] + [0.5] * (3 * _BLOCK_ROWS), 1e-14)
    assert passes == [_BLOCK_ROWS]


@pytest.mark.parametrize("r", [0.0, 1e-300, 1e-20, 1e-5])
def test_rows_at_tiny_r_are_finite_and_match_the_series(r):
    # r = 0 and the r where cosh r rounds to 1 get their head alone, with
    # no warning; r = 1e-5 takes a tail whose weight underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = measure_record(r, 1e-10)
    assert all(math.isfinite(value) for value in rec)
    bound = _row_bound(r)
    cut = TruncationConfig(_cutoff_below(r, 1e-16))
    assert abs(rec.s_ar - joint_entropy_series(r, cut)) <= bound
    assert abs(rec.s_r - rob_entropy_series(r, cut)) <= bound


@pytest.mark.parametrize("r", [5.5, R_MAX])
def test_rows_past_the_oracle_cap_match_the_cut_sums(monkeypatch, r):
    # the state oracle stops near r = 5.16, where its cutoff at 1e-12 passes
    # ADAPTIVE_N_CAP; past it the rows are held against the cut spectra
    # summed directly, at the cutoff adaptive_n_max finds with the cap
    # lifted (518 710 and 1 410 998 levels: ~0.1 s and ~60 MB at r = 6).
    # The cut sums lie below S by at most the tail bound.  Their rounding:
    # each term carries e^(-beta n), whose relative error is about beta n
    # eps, and beta n averages 1.6 over the terms' weights; the pairwise sum
    # adds up to log2(N) eps S, 21 eps S here.  32 eps S covers both
    with pytest.raises(ConfigError, match="cap"):
        adaptive_n_max(r, 1e-12)
    monkeypatch.setattr(measures, "ADAPTIVE_N_CAP", 2**21)
    cut = TruncationConfig(adaptive_n_max(r, 1e-12))
    tail = entropy_tail_bound(r, cut.n_max)
    rec, bound = measure_record(r, 1e-10), _row_bound(r)
    for value, cut_sum in (
        (rec.s_ar, joint_entropy_series(r, cut)),
        (rec.s_r, rob_entropy_series(r, cut)),
    ):
        rounding = 32 * np.finfo(float).eps * cut_sum
        assert -(bound + rounding) <= value - cut_sum <= tail + bound + rounding


# ---------------------------------------------------------------- block evaluation


def assert_bitwise(rec: MeasureRecord, ref: MeasureRecord) -> None:
    assert tuple(rec) == tuple(ref), (rec, ref)
    assert [type(v) for v in rec] == [type(v) for v in ref]


# the to-the-reach grid runs to R_MAX and spans more than one pass of
# _BLOCK_ROWS rows
GRIDS = {
    "to-the-reach": SweepConfig(r_max=R_MAX, points=300),
    "underflow": SweepConfig(r_min=1e-200, r_max=1e-100, points=7),
    "low-r": SweepConfig(r_max=1.0, points=400),
}


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_sweep_rows_are_bitwise_the_per_row_series(grid, tol):
    # packing rows into blocks never changes a row's bits: every sweep row
    # is the one-row record, whatever the tolerance
    cfg = replace(GRIDS[grid], abs_tol=tol)
    records = run_sweep(cfg)
    assert [rec.r for rec in records] == r_grid(cfg).tolist()
    for rec in records:
        assert_bitwise(rec, measure_record(rec.r, 1e-10))
    if grid == "to-the-reach":
        assert (records[0].r, records[-1].r) == (0.0, R_MAX)
        assert len(records) > _BLOCK_ROWS


# rows side by side: r = 0 and the r whose tail underflows or whose cosh
# rounds to 1 (head alone), entries under the probability floor, and r up
# to R_MAX
ANY_ORDER_RS = [
    3.1295, 0.0, 1e-300, 6.0, 1e-150, 0.5, 3.0, 1e-120, 0.0, 2.0, 0.7895, 1e-20, 1e-5, 4.0
]


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
def test_records_are_bitwise_the_per_row_series_in_any_order(tol):
    records = measure_records(ANY_ORDER_RS, tol)
    assert [rec.r for rec in records] == ANY_ORDER_RS
    for rec in records:
        assert_bitwise(measure_record(rec.r, tol), rec)


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
@pytest.mark.parametrize("rows", sorted(GRIDS) + ["any-order"])
def test_closed_forms_match_the_mode_weights(rows, tol):
    # s_e is s_ar by purification, and the two information figures and the
    # fidelity are their closed forms, bit for bit.  Up to r = 3.2, Alice's
    # one bit and s_ar are held against Alice's reduction and the wedge-II
    # marginal built from the mode-weight arrays c and d at a cutoff whose
    # entropies are within 1e-13 of the untruncated ones
    rs = ANY_ORDER_RS if rows == "any-order" else r_grid(GRIDS[rows]).tolist()
    for rec in measure_records(rs, tol):
        assert rec.s_e == rec.s_ar, rec
        assert rec.mutual_info == 1.0 + rec.s_r - rec.s_ar, rec
        assert rec.fe_closed == entanglement_fidelity_closed(rec.r), rec
        if rec.r > 3.2:
            continue
        cfg = TruncationConfig(_cutoff_below(rec.r, 1e-13))
        c = vacuum_mode_weights(rec.r, cfg)
        d = one_particle_mode_weights(rec.r, cfg)
        wedge = 0.5 * c * c
        wedge[:-1] += 0.5 * d * d
        s_a = entropy_from_probabilities(np.array([d @ d, c @ c]) / 2.0)
        assert abs(1.0 - s_a) <= 1e-12, rec
        assert abs(rec.s_ar - entropy_from_probabilities(wedge)) <= 1e-12, rec


def test_record_memory_is_bounded_by_the_block():
    # passes of at most _BLOCK_ROWS rows, each of _EM_HEAD direct levels and
    # a fixed number of tail terms, keep the traced peak bounded whatever r
    rs = r_grid(GRIDS["to-the-reach"]).tolist()
    tracemalloc.start()
    try:
        measure_records(rs, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_measure_records_of_no_rows():
    assert measure_records([], 1e-10) == []


@pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-12])
@pytest.mark.parametrize(
    "r", [0.0, 1e-300, 1e-150, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 3.1296]
)
def test_certified_cutoffs_are_one_interval(r, tol):
    # {N : entropy_tail_bound(r, N) < tol} is [its least element, oo) up to
    # twice adaptive_n_max's cutoff, which lies in it: every cutoff past
    # the one returned is certified too
    n_max = adaptive_n_max(r, tol)
    levels = range(1, 2 * n_max + 1)
    certified = [n for n in levels if entropy_tail_bound(r, n) < tol]
    assert certified == list(range(certified[0], levels[-1] + 1))
    assert certified[0] <= n_max


def test_records_refuse_the_first_r_past_the_reach():
    # every r is checked before any row is evaluated
    with pytest.raises(ConfigError, match=r"r = 6\.5 is above R_MAX = 6"):
        measure_records([1.0, 6.5, 3.0, 7.0], 1e-10)


def test_entropy_tail_bound_holds_and_is_not_vacuous():
    # the untruncated rows less the cut-state series at N, against the bound
    # at N; it is within a factor 1.3 of the true gap
    for r in (0.3, 1.0, 2.0, 3.0):
        rec = measure_record(r, 1e-10)
        for n_max in (5, 20, 100):
            bound = entropy_tail_bound(r, n_max)
            if bound < 1e-8:  # below, rounding decides the gap
                continue
            cut = TruncationConfig(n_max)
            gaps = (rec.s_ar - joint_entropy_series(r, cut), rec.s_r - rob_entropy_series(r, cut))
            assert all(0.0 <= gap <= bound < 1.3 * gap for gap in gaps), (r, n_max, gaps, bound)


# ---------------------------------------------------------------- high-precision anchors


def _mp_series(r, n_max=None):
    """S(rho_AR) and S(rho_R) in bits, as mpf at the caller's precision.

    Sums the block traces lambda_n = a_n (1 + (n+1)/cosh^2 r) and Rob's
    occupations p_n = a_n + n a_{n-1}/cosh^2 r over the levels 0..n_max of
    the state cut at n_max, whose last block keeps only a_n, or, for n_max
    None, until a_(n-1) and a_n < 1e-60, so that r = 0 keeps p_1 = 1/2.  A
    zero term adds 0 (0 log 0 = 0).
    """
    r = mpmath.mpf(r)
    ch2 = mpmath.cosh(r) ** 2
    q = mpmath.tanh(r) ** 2
    floor = mpmath.mpf(10) ** -60
    joint = rob = mpmath.mpf(0)
    a_prev, a, n = mpmath.mpf(0), 1 / (2 * ch2), 0
    while max(a_prev, a) > floor if n_max is None else n <= n_max:
        lam = a if n == n_max else a * (1 + (n + 1) / ch2)
        p = a + n * a_prev / ch2
        joint -= lam * mpmath.log(lam) if lam else 0
        rob -= p * mpmath.log(p) if p else 0
        a_prev, a, n = a, a * q, n + 1
    ln2 = mpmath.log(2)
    return joint / ln2, rob / ln2


@functools.lru_cache
def _mp_series_40(r, n_max):
    """_mp_series(r, n_max) at 40 digits, as floats."""
    with mpmath.workdps(40):
        return tuple(float(v) for v in _mp_series(r, n_max))


# (2.9397, 2767) and (2.9095, 2599) are default-sweep rows whose float64
# sums, with q^n from a rounded q = tanh^2 r, missed by 1.6e-13 and
# 1.3e-13; (1.26, 85) is near the rows' largest remainder majorant, and
# (3.1296, 4096) was the reach of an earlier 4096-level cutoff search
@pytest.mark.parametrize(
    "r, n_max",
    [
        (0.0, 8), (0.1, 6), (0.5, 17), (1.0, 256), (2.0, 500), (3.0, 3134),
        (2.9396984924623113, 2767), (2.909547738693467, 2599),
        (1.0, 33), (1.0, 34), (1.26, 85), (3.1296, 4096),
    ],
)
def test_series_match_a_40_digit_sum_at_a_fixed_cutoff(r, n_max):
    # the oracle's direct sums over the same levels, independently
    s_joint, s_rob = _mp_series_40(r, n_max)
    cfg = TruncationConfig(n_max)
    assert abs(joint_entropy_series(r, cfg) - s_joint) <= 1e-13
    assert abs(rob_entropy_series(r, cfg) - s_rob) <= 1e-13


def test_scaled_e1_matches_mpmath():
    # exp(y) E1(y) on the tails' whole range y >= 1
    ys = np.geomspace(1.0, 1e4, 121)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.e1(y) * mpmath.exp(y)) for y in ys.tolist()])
    assert np.max(np.abs(_scaled_e1(ys) / ref - 1.0)) <= 1e-14


def _tail_inputs(rs):
    """(r, q, s) of rows, as arrays, for _series_tails."""
    r = np.asarray(rs, dtype=np.float64)
    return r, np.tanh(r) ** 2, 1.0 / np.cosh(r) ** 2


def _lerch_series(r):
    """Untruncated S(rho_AR), S(rho_R) in bits, as mpf at the caller's precision, with no cutoff.

    With s = sech^2 r, q = 1 - s and a = s/2 both spectra are c q^n (n + alpha),
    n >= 0: lambda_n with c = a s and alpha = (1 + s)/s, and p_n with
    c = (a/q) s and alpha = q/s.  So -sum c q^n (n + alpha) ln(c q^n (n + alpha))
    needs sum q^n = 1/s, sum n q^n = q/s^2 and sum n^2 q^n = q(1+q)/s^3 in
    closed form, and sum q^n (n + alpha) ln(n + alpha) = -dPhi/dt at t = -1
    of the Lerch transcendent Phi(q, t, alpha) = sum q^n (n + alpha)^(-t)
    (DLMF 25.14), by mpmath.lerchphi and mpmath.diff.  At r = 0 (q = 0) the
    state is the Bell pair: (0, 1).
    """
    r = mpmath.mpf(r)
    if not r:
        return mpmath.mpf(0), mpmath.mpf(1)
    s = 1 / mpmath.cosh(r) ** 2
    q, a = 1 - s, s / 2

    def entropy(c, alpha):
        mass = c * (q / s**2 + alpha / s)  # sum c q^n (n + alpha)
        mean = c * (q * (1 + q) / s**3 + alpha * q / s**2)  # sum n c q^n (n + alpha)
        logs = -c * mpmath.diff(lambda t: mpmath.lerchphi(q, t, alpha), -1)
        return -(mpmath.log(c) * mass + mpmath.log(q) * mean + logs) / mpmath.log(2)

    return entropy(a * s, (1 + s) / s), entropy(a / q * s, q / s)


@functools.lru_cache
def _untruncated(r):
    """Untruncated (S(rho_AR), S(rho_R)) in bits, as floats.

    For r >= 4, where the direct sum takes 10^5 to 10^7 levels, the Lerch
    form at 20 digits: 10^4 times finer than a float's rounding, at a third
    of the time of 32 digits.  Below, _mp_reference's direct sum.
    """
    if r < 4.0:
        return _mp_reference(r)[:2]
    with mpmath.workdps(20):
        return tuple(float(value) for value in _lerch_series(r))


@pytest.mark.parametrize("r", [0.0, 0.5, 2.0])
def test_lerch_form_is_the_direct_sum(r):
    # two routes to the untruncated entropies that share no code: the
    # direct sum down to weights of 1e-60 and the Lerch form, at 32 digits
    # (they agree to 5e-32 at r <= 2)
    with mpmath.workdps(32):
        for lerch, direct in zip(_lerch_series(r), _mp_series(r)):
            assert abs(lerch - direct) <= mpmath.mpf(10) ** -28


@pytest.mark.parametrize("head, terms", [(32, 1), (32, 2), (16, 2), (16, 3), (8, 3)])
def test_remainder_majorant_bounds_the_error(monkeypatch, head, terms):
    # with fewer Bernoulli terms or a shorter head the untruncated rows miss
    # by far more than rounding, and every miss stays within the series'
    # majorant (plus 1e-14 for rounding); no row is refused here
    monkeypatch.setattr(measures, "_EM_HEAD", head)
    monkeypatch.setattr(measures, "_EM_TERMS", terms)
    monkeypatch.setattr(measures, "_EM_BOUND", math.inf)
    tightest = 0.0
    for r in (0.8, 1.0, 1.26, 1.5, 2.0, 2.5, 3.0, 4.0):
        _, majorants = _series_tails(*_tail_inputs([r]))
        rows = np.array([r])
        values, _ = _series_entropies(rows, np.cosh(rows))
        for [value], ref, [majorant] in zip(values, _untruncated(r), majorants):
            assert abs(value - ref) <= majorant + 1e-14, (r, value - ref, majorant)
            if majorant > 1e-12:
                tightest = max(tightest, abs(value - ref) / majorant)
    assert tightest > 1e-3  # and it is not vacuous


def test_remainder_majorant_is_below_the_bound_to_the_reach():
    # every row with a tail, up to R_MAX; the largest sits near r = 1.23
    rs = np.linspace(0.0, R_MAX, 6001)[1:]
    _, majorants = _series_tails(*_tail_inputs(rs))
    assert majorants.max() < 3.1e-15 < measures._EM_BOUND
    assert 1.2 < rs[np.argmax(majorants.max(axis=0))] < 1.26


def test_rows_whose_majorant_is_too_large_are_refused(monkeypatch):
    # one Bernoulli term leaves a remainder bound far above _EM_BOUND at
    # r = 1.26: the row is refused, not returned; at r = 0.1 the tail
    # weighs q^32 = 1e-64, and at r = 0 there is no tail
    monkeypatch.setattr(measures, "_EM_TERMS", 1)
    with pytest.raises(ConfigError, match="Euler-Maclaurin remainder bound"):
        measure_records([0.1, 1.26], 1e-10)
    records = measure_records([0.0, 0.1], 1e-10)
    monkeypatch.undo()
    assert records == measure_records([0.0, 0.1], 1e-10)


def _mp_euler_maclaurin(q, s, terms):
    """The terms-term Euler-Maclaurin sums over [_EM_HEAD, oo) of both series, in bits.

    At 40 digits, of the summands -w u ln(w u) that _series_tails sums, for
    the same float q and s and with beta = -log1p(-s) from that s (-ln q
    differs by an ulp, which shows up as 2.8e-12 at r = 6): the integral by
    mp.quad, after x = K + t / beta, and each f^(2j-1)(K) by mp.diff.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        beta = -mpmath.log1p(-s)
        head = mpmath.mpf(measures._EM_HEAD)
        tails = []
        for c, d in ((1 + s, 0), (mpmath.mpf(q), 1)):
            def f(x, c=c, d=d):
                wu = s / 2 * mpmath.exp(-beta * (x - d)) * (c + s * x)
                return -wu * mpmath.log(wu)

            integral = mpmath.quad(lambda t: f(head + t / beta), [0, mpmath.inf]) / beta
            bernoulli = sum(
                mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.diff(f, head, 2 * j - 1)
                for j in range(1, terms + 1)
            )
            tails.append(float((integral + f(head) / 2 - bernoulli) / mpmath.log(2)))
        return tails


@pytest.mark.parametrize("terms", [1, 3, 5])
def test_tails_are_the_euler_maclaurin_formula(monkeypatch, terms):
    # the J-term formula itself, within 1e-13 relative (the misses are under
    # 6.2e-15): at r = 0.3 the J = 1 and J = 5 tails differ by 1.5e-2
    # relative, so a wrong Leibniz coefficient shows here, where it could
    # hide under the majorant test's 1e-14 slack
    monkeypatch.setattr(measures, "_EM_TERMS", terms)
    monkeypatch.setattr(measures, "_EM_BOUND", math.inf)
    r, q, s = _tail_inputs([0.3, 0.5, 1.23, 3.0, 6.0])
    values, _ = _series_tails(r, q, s)
    for row in range(r.size):
        reference = _mp_euler_maclaurin(q[row], s[row], terms)
        for value, expected in zip(values[:, row], reference):
            assert abs(value - expected) <= 1e-13 * abs(expected), (r[row], value, expected)


@functools.lru_cache
def _mp_reference(r):
    """Untruncated S(rho_AR), S(rho_R) in bits and the fidelity, at 50 digits.

    Without truncation the wedge-II marginal (c_n^2 + d_n^2)/2 is lambda_n,
    so the joint entropy is also the entropy exchange.
    """
    with mpmath.workdps(50):
        joint, rob = _mp_series(r)
        sech = 1 / mpmath.cosh(mpmath.mpf(r))
        fidelity = sech**2 * (1 + sech) ** 2 / 4
        return float(joint), float(rob), float(fidelity)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 5.2, 5.5, 5.8, 6.0])
def test_record_matches_high_precision_reference(r):
    # each entropy within the row's certified bound, and the bound within
    # the default tolerance; the bound carries 32 eps S of rounding.  Past
    # r = 5.16 no state oracle reaches, and the reference has no cutoff
    s_joint, s_rob = _untruncated(r)
    with mpmath.workdps(30):
        sech = 1 / mpmath.cosh(mpmath.mpf(r))
        fidelity = float(sech**2 * (1 + sech) ** 2 / 4)
    rec = measure_record(r, 1e-10)
    bound = _row_bound(r)
    assert bound < 1e-10
    assert abs(rec.s_ar - s_joint) <= bound
    assert abs(rec.s_e - s_joint) <= bound
    assert abs(rec.s_r - s_rob) <= bound
    assert abs(rec.fe_closed - fidelity) <= 1e-12
    assert abs(rec.fe_kraus - fidelity) <= 1e-12


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize("r", [0.1, 0.5, 1.5, 2.0, 3.0])
def test_mutual_information_matches_high_precision_reference(r, tol):
    # the row does not depend on tol, and mutual_info = 1 + s_r - s_ar lands
    # within twice the row's bound of the untruncated I
    s_joint, s_rob, _ = _mp_reference(r)
    rec = measure_record(r, tol)
    assert abs(rec.mutual_info - (1.0 + s_rob - s_joint)) <= 2.0 * _row_bound(r) < tol
