"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one line on success so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  The default-configuration sweep is shared across the
grid-wide criteria through a module fixture.
"""

import math

import numpy as np
import pytest

from dense import from_dense
from unruhsim import (
    KrausScalarFault,
    KrausSet,
    SweepConfig,
    TruncationConfig,
    adaptive_n_max,
    apply_channel,
    bell_input_density,
    entanglement_fidelity_closed,
    entanglement_fidelity_kraus,
    entropy_exchange,
    joint_entropy_series,
    measure_record,
    partial_trace,
    rho_alice_rob,
    rob_entropy_series,
    run_sweep,
    run_verify,
    trace_preservation_defect,
    tripartite_state,
    von_neumann_entropy,
)
from unruhsim.measures import input_overlap_traces
from unruhsim.rindler import ALICE, WEDGE_I, discarded_weights, joint_layout
from unruhsim.sweep import r_grid, render
from unruhsim.verify import first_failure

DEFAULT = SweepConfig()


@pytest.fixture(scope="module")
def default_records():
    return run_sweep(DEFAULT)


def _passed(num, text):
    print(f"PASS criterion {num:2d}: {text}")


def test_criterion_01_fidelity_closed_form_shape():
    assert abs(entanglement_fidelity_closed(0.0) - 1.0) <= 1e-12
    grid = np.linspace(0.0, 3.0, 200)
    vals = np.array([entanglement_fidelity_closed(r) for r in grid])
    assert np.all(np.diff(vals) < 0.0)
    _passed(1, "closed-form fidelity is 1 at rest and strictly decreasing on [0, 3]")


def test_criterion_02_fidelity_path_equivalence():
    cfg = TruncationConfig(64)
    for r in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
        gap = abs(
            entanglement_fidelity_kraus(r, cfg) - entanglement_fidelity_closed(r)
        )
        assert gap <= 1e-12, f"fidelity routes disagree by {gap:.2e} at r={r}"
        traces = input_overlap_traces(r, cfg)
        assert np.all(traces[1:] == 0.0), "higher overlap traces must vanish exactly"
    _passed(2, "operator-sum fidelity matches the closed form to 1e-12")


def test_criterion_03_fidelity_spot_value():
    r = math.acosh(2.0)
    assert abs(entanglement_fidelity_closed(r) - 9.0 / 64.0) <= 1e-12
    _passed(3, "fidelity at cosh r = 2 equals 9/64")


def test_criterion_04_channel_equivalence_oracle():
    cfg = TruncationConfig(48)
    rho_in = bell_input_density(cfg)
    for r in (0.3, 0.8, 1.5):
        out = apply_channel(rho_in, KrausSet.build(r, cfg))
        delta = float(np.abs(out.mat - rho_alice_rob(r, cfg).mat).max())
        assert delta <= 1e-10, f"channel/analytic mismatch {delta:.2e} at r={r}"
    _passed(4, "operator-sum output matches the analytic reduction to 1e-10")


def test_criterion_05_trace_preservation():
    cfg = TruncationConfig(64)
    layout = joint_layout(cfg)
    dim = cfg.dim
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    probes = []
    for amps in (((0, 1, 1.0),), ((1, 0, 1.0),), ((0, 1, inv_sqrt2), (1, 0, inv_sqrt2))):
        v = np.zeros(layout.dim)
        for alice, m, amp in amps:
            v[alice * dim + m] = amp
        probes.append(from_dense(layout, v))
    # the defect is the weight the cutoff discards: tail_d, tail_c and their mean
    for r in (1.05, 1.2, 1.35, 1.5):
        ks = KrausSet.build(r, cfg)
        tail_c, tail_d = discarded_weights(r, cfg.n_max)
        for vec, tail in zip(probes, (tail_d, tail_c, (tail_c + tail_d) / 2.0)):
            defect = trace_preservation_defect(ks, vec)
            assert abs(defect - tail) <= 1e-14, f"defect {defect:.2e} vs {tail:.2e} at r={r}"
    out_probe = np.zeros(layout.dim)
    out_probe[1 * dim + 1] = 1.0
    off = trace_preservation_defect(KrausSet.build(1.0, cfg), from_dense(layout, out_probe))
    assert abs(off - (math.cosh(1.0) ** 2 - 1.0)) <= 1e-9
    _passed(5, "trace preserved on the initial subspace, cosh^2 - 1 defect off it")


def test_criterion_06_entropy_series_vs_spectral():
    cases = [(1.0, 256), (0.5, 4), (2.0, 64), (3.0, 256)]
    for r, n_max in cases:
        cfg = TruncationConfig(n_max)
        rho = rho_alice_rob(r, cfg)
        gap_joint = abs(joint_entropy_series(r, cfg) - von_neumann_entropy(rho, cfg))
        assert gap_joint <= 1e-12, (r, n_max)
        rho_r = partial_trace(rho, (WEDGE_I,))
        gap_rob = abs(rob_entropy_series(r, cfg) - von_neumann_entropy(rho_r, cfg))
        assert gap_rob <= 1e-12, (r, n_max)
    _passed(6, f"series entropies match the eigensolver to 1e-12 at (r, n_max) {cases}")


def test_criterion_07_purification_identity():
    cfg = TruncationConfig(64)
    for r in (0.5, 1.0):
        s_joint = von_neumann_entropy(rho_alice_rob(r, cfg), cfg)
        gap = abs(s_joint - entropy_exchange(r, cfg))
        assert gap <= 1e-8, f"purification identity broken by {gap:.2e} at r={r}"
    _passed(7, "joint entropy equals environment entropy (pure global state)")


def test_criterion_08_alice_entropy_on_grid():
    # the oracle's Alice reduction, cut where its entropies are certified
    # within 1e-12, at grid points from the first past r = 0 to r_max
    rs = r_grid(DEFAULT)[[1, 67, 133, -1]].tolist()
    gaps = []
    for r in rs:
        cfg = TruncationConfig(adaptive_n_max(r, 1e-12))
        rho_a = tripartite_state(r, cfg).reduced_density((ALICE,))
        gaps.append(abs(von_neumann_entropy(rho_a, cfg) - 1.0))
    assert max(gaps) <= 1e-10
    _passed(8, "Alice's marginal stays one bit, to 1e-10, from r = 0.015 to 3 on the grid")


def test_criterion_09_entropy_exchange_peak(default_records):
    peak = max(rec.s_e for rec in default_records)
    assert peak > 2.0
    _passed(9, f"entropy exchange peaks at {peak:.3f} bits, above 2")


def test_criterion_10_subadditivity(default_records):
    worst = min(rec.mutual_info for rec in default_records)  # the margin is I
    assert worst >= -1e-10
    _passed(10, f"sub-additivity margin stays nonnegative (min {worst:.6f})")


def test_criterion_11_mutual_information_limits():
    rec0 = measure_record(0.0, DEFAULT.abs_tol)
    assert abs(rec0.mutual_info - 2.0) <= 1e-10
    rec3 = measure_record(3.0, DEFAULT.abs_tol)
    assert 1.0 < rec3.mutual_info < 1.1
    rec6 = measure_record(6.0, DEFAULT.abs_tol)
    assert 1.0 < rec6.mutual_info < 1.0 + 2e-5  # the bosonic limit I -> 1
    _passed(
        11,
        f"mutual information runs from 2 to {rec3.mutual_info:.4f} at r = 3 "
        f"and {rec6.mutual_info:.6f} at r = 6",
    )


def test_criterion_12_sweep_determinism(default_records):
    text_a = render(DEFAULT, default_records)
    text_b = render(DEFAULT, run_sweep(DEFAULT))
    assert text_a.encode() == text_b.encode()
    _passed(12, "two sweeps at identical config are byte-identical")


def test_criterion_13_verify_and_fault_sensitivity():
    clean = run_verify(DEFAULT)
    assert first_failure(clean) is None, f"clean verify failed: {first_failure(clean)}"
    for index in (0, 5, 48):
        fault = KrausScalarFault(index=index, offset=1e-3)
        results = run_verify(DEFAULT, fault=fault, names=("channel-vs-analytic",))
        assert not results[0].passed, f"fault at index {index} went unnoticed"
    _passed(13, "verify passes clean and catches a 1e-3 Kraus scalar fault")
