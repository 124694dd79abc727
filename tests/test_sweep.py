import functools
import json
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from unruhsim import (
    CheckResult,
    ConfigError,
    KrausScalarFault,
    KrausSet,
    MeasureRecord,
    StateVector,
    SweepConfig,
    TruncationConfig,
    adaptive_n_max,
    entropy_exchange,
    measure_records,
    run_sweep,
    run_verify,
    to_csv,
    to_json,
)
from unruhsim import measures, sweep, verify
from unruhsim.cli import main
from unruhsim.measures import R_MAX
from unruhsim.sweep import CSV_COLUMNS, MAX_POINTS, SCHEMA, r_grid, render
from unruhsim.verify import first_failure

SMALL = SweepConfig(r_min=0.0, r_max=1.2, points=9)


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_min": -0.1},
        {"r_min": 2.0, "r_max": 1.0},
        {"r_min": 1.0, "r_max": 1.0},
        {"points": 1},
        {"points": MAX_POINTS + 1},
        {"abs_tol": 0.0},
        {"output_format": "xml"},
        {"points": 200.0},
        {"points": 2.5},
        {"points": "10"},
    ],
)
def test_sweep_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        SweepConfig(**kwargs)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 1.0, 0.0, -1e-10])
def test_every_tolerance_entry_point_rejects_tol_outside_unit_interval(tol):
    # one guard, one message, at every place that takes abs_tol
    for call in (
        lambda: SweepConfig(abs_tol=tol),
        lambda: measure_records([1.0], tol),
        lambda: adaptive_n_max(1.0, tol),
    ):
        with pytest.raises(ConfigError, match=r"abs_tol must be in \(0, 1\)"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SweepConfig(r_max="3"),
        lambda: SweepConfig(abs_tol="1e-3"),
        lambda: SweepConfig(r_min=None),
        lambda: measure_records([1.0], "1e-3"),
        lambda: measure_records([None], 1e-10),
    ],
    ids=["r_max-str", "abs_tol-str", "r_min-none", "records-tol-str", "records-r-none"],
)
def test_non_numeric_parameters_raise_config_error(call):
    # library callers get the same ConfigError as an out-of-range value,
    # not a bare TypeError from a comparison
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"points": np.int64(5)},
        {"r_min": np.float32(0.25), "r_max": np.float32(1.5), "points": 5},
        {"points": 5, "abs_tol": np.float32(1e-6)},
    ],
    ids=["points-int64", "endpoints-float32", "tol-float32"],
)
def test_sweep_config_stores_python_numbers(kwargs):
    # an accepted numpy scalar is converted, so the JSON config serializes
    cfg = SweepConfig(output_format="json", **kwargs)
    assert [type(v) for v in (cfg.r_min, cfg.r_max, cfg.points, cfg.abs_tol)] == [
        float, float, int, float
    ]
    for name, value in kwargs.items():
        assert getattr(cfg, name) == value
    doc = json.loads(render(cfg, run_sweep(cfg)))
    assert doc["config"]["points"] == 5
    assert len(doc["rows"]) == 5


def test_grid_endpoints_exact():
    grid = r_grid(SweepConfig(r_min=0.0, r_max=3.0, points=200))
    assert grid[0] == 0.0
    assert grid[-1] == 3.0
    assert grid.size == 200
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------- sweep output


def test_sweep_first_row_without_acceleration():
    records = run_sweep(SMALL)
    assert len(records) == SMALL.points
    first = records[0]
    assert first.r == 0.0
    assert first.fe_closed == 1.0
    assert first.s_ar == 0.0
    assert first.mutual_info == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("tol", [1e-3, 1e-13])
def test_default_sweep_csv_does_not_depend_on_tol(tol):
    # --tol is a ceiling on each row's certified bound, not an input
    reference = to_csv(run_sweep(SweepConfig()))
    assert to_csv(run_sweep(SweepConfig(abs_tol=tol))) == reference


def test_records_are_named_tuples_in_csv_order():
    # the record holds what the series pass computes; the v1 header adds
    # four constants between its fields, which keep their order
    rec = run_sweep(SMALL)[3]
    assert MeasureRecord._fields == (
        "r", "fe_closed", "fe_kraus", "s_ar", "s_r", "s_e", "mutual_info"
    )
    assert ",".join(CSV_COLUMNS) == (
        "r,fe_closed,fe_kraus,s_ar,s_r,s_a,s_e,mutual_info,subadd_margin,tail,n_used"
    )
    assert [col for col in CSV_COLUMNS if col in rec._fields] == list(rec._fields)
    assert rec == tuple(rec)  # and it equals a plain tuple
    assert rec._asdict()["s_ar"] == rec.s_ar == rec[3]


def test_csv_schema_and_precision():
    records = run_sweep(SMALL)
    text = to_csv(records)
    lines = text.splitlines()
    assert lines[0] == f"# schema: {SCHEMA}"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + len(records)
    cells = lines[2].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    # 12 significant digits in scientific notation, integer truncation column
    assert cells[0] == "0.00000000000e+00"
    assert cells[1] == "1.00000000000e+00"
    assert cells[-1] == "0"
    assert float(cells[7]) == pytest.approx(records[0].mutual_info, rel=1e-11)


def test_json_schema_fields():
    records = run_sweep(SMALL)
    doc = json.loads(to_json(SMALL, records))
    assert doc["schema"] == SCHEMA
    assert doc["config"]["points"] == SMALL.points
    assert tuple(doc["config"]) == ("r_min", "r_max", "points", "abs_tol", "output_format")
    assert len(doc["rows"]) == len(records)
    assert tuple(doc["rows"][0].keys()) == CSV_COLUMNS


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_v1_writers_agree(k, capsys):
    # the CSV cells, the JSON row and the point lines print one v1 row: the
    # record's values and four constants of the untruncated state
    cfg = SweepConfig(r_max=R_MAX, points=7)  # r = 0, 1, ..., 6
    records = run_sweep(cfg)
    rec = records[k]
    cells = to_csv(records).splitlines()[2 + k].split(",")
    row = json.loads(to_json(cfg, records))["rows"][k]
    assert main(["point", "--r", repr(rec.r)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert tuple(row) == CSV_COLUMNS
    for col, cell, line in zip(CSV_COLUMNS, cells, lines, strict=True):
        value = row[col]
        assert line.rsplit(" ", 1)[1] == str(value), col
        assert cell == (str(value) if col == "n_used" else f"{value:.11e}"), col
    assert {col: row[col] for col in rec._fields} == rec._asdict()
    constants = {"s_a": 1.0, "subadd_margin": rec.mutual_info, "tail": 0.0, "n_used": 0}
    assert {col: row[col] for col in constants} == constants
    assert type(row["n_used"]) is int


def test_sweep_does_not_touch_dense_routes(monkeypatch):
    # records come from closed forms and the series pass; the Kraus family
    # and its application, the states and their reductions, the mode-weight
    # arrays and the eigensolver are oracle routes only
    def refuse(*args, **kwargs):
        raise AssertionError("dense oracle route called")

    monkeypatch.setattr(KrausSet, "build", refuse)
    monkeypatch.setattr(StateVector, "reduced_density", refuse)
    dense = (
        "tripartite_state",
        "rho_alice_rob",
        "partial_trace",
        "apply_channel",
        "entanglement_fidelity_kraus",
        "vacuum_mode_weights",
        "one_particle_mode_weights",
        "sym_eigenvalues",
        "wedge_ii_probabilities",
        "joint_entropy_series",
        "rob_entropy_series",
        "adaptive_n_max",
        "discarded_weights",
    )
    refused = set()
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "unruhsim":
            for attr in dense:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
                    refused.add(attr)
    assert refused == set(dense)
    with pytest.raises(AssertionError, match="dense oracle"):
        entropy_exchange(0.5, TruncationConfig(8))

    records = run_sweep(SweepConfig(r_max=R_MAX, points=5))
    assert len(records) == 5
    assert records[-1].r == R_MAX


def test_sweep_deterministic():
    text_a = render(SMALL, run_sweep(SMALL))
    text_b = render(SMALL, run_sweep(SMALL))
    assert text_a.encode() == text_b.encode()


# ---------------------------------------------------------------- verify


def test_verify_passes_on_sane_config():
    # every check, the spectral ones included, holds at any tolerance whose
    # cutoffs stay under the cap
    for cfg in (
        SweepConfig(r_min=0.0, r_max=2.0, points=21),
        SweepConfig(points=21, abs_tol=1e-6),
        SweepConfig(r_max=2.0, points=21, abs_tol=1e-12),
    ):
        results = run_verify(cfg)
        assert first_failure(results) is None, first_failure(results)
        names = [res.name for res in results]
        assert len(names) == 10
        assert "channel-vs-analytic" in names
        assert "truncation-tail-bound" in names


def test_verify_oracle_checks_do_not_depend_on_tol():
    # abs_tol sets the row cutoffs and the grid checks only; the dense oracle
    # checks run at fixed cutoffs under fock's own rounding guards
    oracle = (
        "channel-vs-analytic",
        "trace-preservation",
        "entropy-series-vs-spectral",
        "fidelity-consistency",
        "purification-identity",
    )
    runs = [
        [(res.name, res.worst, res.tol)
         for res in run_verify(SweepConfig(abs_tol=tol), names=oracle)]
        for tol in (1e-12, 1e-10, 1e-6, 0.5)
    ]
    assert [name for name, _, _ in runs[0]] == list(oracle)
    assert all(run == runs[0] for run in runs[1:])


def shift_record_field(monkeypatch, field, offset):
    """Make the records that sweeps and verify get add offset(r) to one field."""
    records = measures.measure_records

    def shifted(rs, abs_tol):
        return [
            rec._replace(**{field: getattr(rec, field) + offset(rec.r)})
            for rec in records(rs, abs_tol)
        ]

    for module in (sweep, verify):
        monkeypatch.setattr(module, "measure_records", shifted)


@pytest.mark.parametrize(
    "field, caught_by",
    [
        ("s_ar", ["records-vs-oracle"]),
        ("s_r", ["records-vs-oracle", "subadditivity"]),
        ("s_e", ["records-vs-oracle"]),
        ("mutual_info", ["subadditivity"]),
        ("fe_kraus", ["records-vs-oracle"]),
    ],
)
def test_verify_catches_a_record_shifted_by_1e_8(monkeypatch, field, caught_by):
    # a record path that is off by 1e-8 in one field: the dense oracle cut
    # where its entropies are within 1e-12 of the untruncated ones sees it,
    # and the Araki-Lieb side of subadditivity, tight at r = 0, holds s_r
    # and mutual_info.  s_ar and s_r are shifted in the series pass, so
    # mutual_info follows them, the rest in the records
    if field in ("s_ar", "s_r"):
        shift_series(monkeypatch, field, 1e-8)
    else:
        shift_record_field(monkeypatch, field, lambda r: 1e-8)
    results = run_verify(SweepConfig())
    assert len(results) == 10
    assert [res.name for res in results if not res.passed] == caught_by


def shift_series(monkeypatch, field, offset):
    """Make measures._series_entropies add offset to s_ar or s_r of every row."""
    series_entropies = measures._series_entropies

    def shifted(*args):
        sums, bound = series_entropies(*args)
        sums[("s_ar", "s_r").index(field)] += offset
        return sums, bound

    monkeypatch.setattr(measures, "_series_entropies", shifted)


@pytest.mark.parametrize(
    "field, offset, side",
    [("s_ar", 3.0, "I >= 0"), ("s_r", 1e-8, "I <= 2 min(S_A, S_R)"),
     ("s_r", -1e-8, "I <= 2 min(S_A, S_R)")],
)
def test_subadditivity_catches_a_fault_on_each_side(monkeypatch, field, offset, side):
    # s_ar 3 bits too large makes I negative; s_r off by 1e-8 either way
    # breaks Araki-Lieb at r = 0, where I = 2 = 2 S_R holds with equality
    [clean] = run_verify(SMALL, names=("subadditivity",))
    assert clean.passed and clean.worst <= 0.0
    shift_series(monkeypatch, field, offset)
    [res] = run_verify(SMALL, names=("subadditivity",))
    assert not res.passed
    assert res.detail == f"worst side: {side}"


@pytest.mark.parametrize("field", ["s_ar", "s_r", "s_e", "fe_kraus"])
def test_records_vs_oracle_holds_the_row_at_r_max(monkeypatch, field):
    # only the row at --r-max is off by 1e-8: the oracle holds it at a
    # cutoff whose entropies are within 1e-12 of the untruncated ones, so
    # records-vs-oracle sees it
    cfg = SweepConfig()
    [clean] = run_verify(cfg, names=("records-vs-oracle",))
    assert clean.passed and clean.detail.endswith(f",{adaptive_n_max(cfg.r_max, 1e-12)}")
    shift_record_field(monkeypatch, field, lambda r: 1e-8 * (r == cfg.r_max))
    [res] = run_verify(cfg, names=("records-vs-oracle",))
    assert not res.passed


def offset_kraus_scalar(module, index, monkeypatch):
    """Make every KrausSet that module builds with an A_index have its scalar off by 1e-9."""
    build = KrausSet.build

    def faulty(r, cfg):
        ks = build(r, cfg)
        return ks if cfg.n_max < index else ks.with_scalar_offset(index, 1e-9)

    monkeypatch.setattr(module, "KrausSet", SimpleNamespace(build=faulty))


def scale_lambda_0(monkeypatch):
    """Make measures' cut spectra carry lambda_0 (1 + 1e-9)."""
    cut_spectra = measures._cut_spectra

    def scaled(r, n_max):
        lam, p = cut_spectra(r, n_max)
        lam[0] *= 1.0 + 1e-9
        return lam, p

    monkeypatch.setattr(measures, "_cut_spectra", scaled)


def scale_one_amplitude(monkeypatch):
    """Make the tripartite state that measures builds carry one amplitude (1 - 1e-6)."""
    tripartite_state = measures.tripartite_state

    def scaled(r, cfg):
        psi = tripartite_state(r, cfg)
        vals = psi.vals.copy()
        vals[0] *= 1.0 - 1e-6
        return StateVector.from_entries(psi.layout, psi.index, vals)

    monkeypatch.setattr(measures, "tripartite_state", scaled)


def raise_one_mutual_info(monkeypatch):
    """Make verify's grid carry one row's mutual_info 1e-9 above its neighbour's."""
    sweep_records = verify.run_sweep

    def raised(cfg):
        records = sweep_records(cfg)
        k = len(records) // 2
        records[k] = records[k]._replace(mutual_info=records[k - 1].mutual_info + 1e-9)
        return records

    monkeypatch.setattr(verify, "run_sweep", raised)


# case -> (a fault in the route a check holds, every check that fault fails).
# verify's operator sums run at N = 48 and, in trace-preservation, at the
# oracle's cutoff for --r-max, so A_63 exists in the last alone
ROUTE_FAULTS = {
    "trace-preservation": (
        functools.partial(offset_kraus_scalar, verify, 1),
        ["channel-vs-analytic", "trace-preservation"],
    ),
    "trace-preservation-at-r-max": (
        functools.partial(offset_kraus_scalar, verify, 63), ["trace-preservation"]
    ),
    "fidelity-consistency": (
        functools.partial(offset_kraus_scalar, measures, 0),
        ["fidelity-consistency", "records-vs-oracle"],
    ),
    "entropy-series-vs-spectral": (scale_lambda_0, ["entropy-series-vs-spectral"]),
    "purification-identity": (
        scale_one_amplitude, ["purification-identity", "records-vs-oracle"]
    ),
    "mutual-information-monotonic": (
        raise_one_mutual_info, ["mutual-information-monotonic"]
    ),
}


@pytest.mark.parametrize("case", list(ROUTE_FAULTS))
def test_verify_catches_a_fault_in_each_route(monkeypatch, case):
    # the checks pass clean and fail under a small fault in the route they
    # hold; the fault fails exactly the checks that read that route
    inject, caught_by = ROUTE_FAULTS[case]
    assert first_failure(run_verify(SweepConfig(), names=tuple(caught_by))) is None
    inject(monkeypatch)
    results = run_verify(SweepConfig())
    assert [res.name for res in results if not res.passed] == caught_by


def test_verify_reports_insufficient_truncation():
    # no cutoff up to the cap certifies r = 5.5: the tail-bound check
    # refuses the configuration instead of silently passing, and so does
    # records-vs-oracle, before it builds any state
    cfg = SweepConfig(r_max=5.5, points=5)
    for name in ("truncation-tail-bound", "records-vs-oracle", "trace-preservation"):
        with pytest.raises(ConfigError, match="cap"):
            run_verify(cfg, names=(name,))
    assert main(["verify", "--r-max", "5.5"]) == 2


def test_truncation_tail_bound_catches_a_halved_cutoff(monkeypatch):
    # the check measures the cut state's norm deficit at adaptive_n_max's
    # cutoff, so a rule that cuts too early fails it
    cfg = SweepConfig()
    [clean] = run_verify(cfg, names=("truncation-tail-bound",))
    assert clean.passed and 0.0 < clean.worst < cfg.abs_tol
    assert clean.detail == f"n_max={adaptive_n_max(cfg.r_max, cfg.abs_tol)} at r=3"

    def halved(r, tol):
        return adaptive_n_max(r, tol) // 2

    monkeypatch.setattr(verify, "adaptive_n_max", halved)
    [res] = run_verify(cfg, names=("truncation-tail-bound",))
    assert not res.passed


TIES = SweepConfig(r_max=1e-6, points=1000)


def test_fidelity_monotonic_passes_a_grid_of_ties():
    # F_e rounds to 1.0 below r ~ 1e-8, so neighbouring grid values tie
    [res] = run_verify(TIES, names=("fidelity-monotonic",))
    assert res.worst == 0.0
    assert res.passed


def test_fidelity_monotonic_catches_a_one_ulp_increase(monkeypatch):
    fidelity = verify.entanglement_fidelity_closed

    def bumped(r):
        fe = fidelity(r)
        fe[1] = np.nextafter(fe[0], np.inf)
        return fe

    monkeypatch.setattr(verify, "entanglement_fidelity_closed", bumped)
    [res] = run_verify(TIES, names=("fidelity-monotonic",))
    assert res.worst == math.ulp(1.0)
    assert not res.passed


@pytest.mark.parametrize(
    "cfg",
    [SweepConfig(r_max=4.0), SweepConfig(r_max=5.0), TIES],
    ids=["4.0", "5.0", "ties-1e-06"],
)
def test_verify_passes_past_r_3(cfg):
    # the oracle's cutoffs reach past r = 5 under the cap, so every check
    # holds the rows there; 25 767 and 190 684 levels at the 1e-12 oracle
    # tail.  The grid of ties runs every check where F_e rounds to 1.0, the
    # tails run at beta near 30, where beta^10 is formed, and rows whose s
    # rounds to 1 get their head alone
    results = run_verify(cfg)
    assert len(results) == 10
    assert first_failure(results) is None
    [oracle] = [res for res in results if res.name == "records-vs-oracle"]
    assert oracle.detail.endswith(f",{adaptive_n_max(cfg.r_max, 1e-12)}")
    # each gap is within the oracle's certified tail, the row's certified
    # bound and the eigensolves' rounding, 32 eps S: level weights that
    # carry n ulp (1e-11 at n = 190 684) would not be
    *fields, bound = measures._block_fields(np.array(verify._RECORD_RS + (cfg.r_max,)))
    rounding = 32 * np.finfo(np.float64).eps * np.maximum(fields[3], fields[4])
    assert oracle.worst <= verify._ORACLE_TAIL + np.max(bound + rounding)


@pytest.mark.parametrize("index", [0, 1, 5, 48])
def test_verify_fault_injection_detected(index):
    cfg = SweepConfig(points=5)
    fault = KrausScalarFault(index=index, offset=1e-3)
    results = run_verify(cfg, fault=fault, names=("channel-vs-analytic",))
    assert len(results) == 1
    assert not results[0].passed


def test_verify_unfaulted_channel_check_passes():
    cfg = SweepConfig(points=5)
    results = run_verify(cfg, names=("channel-vs-analytic",))
    assert results[0].passed


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_verify_non_finite_fault_fails(offset):
    # a NaN anywhere in the comparison must fail the check, never pass it
    fault = KrausScalarFault(index=1, offset=offset)
    with np.errstate(invalid="ignore", over="ignore"):
        [res] = run_verify(SweepConfig(points=5), fault=fault,
                           names=("channel-vs-analytic",))
    assert math.isnan(res.worst)
    assert not res.passed
    assert res.line().startswith("FAIL")


@pytest.mark.parametrize(
    "worst, passed",
    [(-1.0, True), (0.5e-10, True), (1e-10, False), (2e-10, False),
     (math.nan, False), (math.inf, False)],
)
def test_check_result_passes_only_below_tol(worst, passed):
    assert CheckResult("x", worst, 1e-10).passed is passed


def test_verify_reports_signed_excess_against_positive_tol():
    # every check reports its largest excess over a positive (or zero) tol;
    # subadditivity's lower side appears negated, so it reads < 0, and its
    # Araki-Lieb side reads 0 at r = 0, where it holds with equality
    results = run_verify(SMALL)
    assert all(res.tol >= 0 for res in results)
    [sub] = [res for res in results if res.name == "subadditivity"]
    records = run_sweep(SMALL)
    lower = -min(rec.mutual_info for rec in records)
    upper = max(rec.mutual_info - 2.0 * min(1.0, rec.s_r) for rec in records)
    assert lower < 0.0 == upper
    assert sub.worst == max(lower, upper)
    assert sub.tol == SMALL.abs_tol


def test_verify_names_follow_the_fixed_order():
    names = ("truncation-tail-bound", "channel-vs-analytic", "subadditivity")
    results = run_verify(SMALL, names=names)
    assert [res.name for res in results] == [
        "channel-vs-analytic", "subadditivity", "truncation-tail-bound"
    ]


def test_verify_rejects_unknown_check_name():
    with pytest.raises(ConfigError, match="no-such-check"):
        run_verify(SMALL, names=("channel-vs-analytic", "no-such-check"))


# ---------------------------------------------------------------- CLI


def test_cli_sweep_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "sweep",
            "--r-max", "1.0",
            "--points", "5",
            "--output", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith(f"# schema: {SCHEMA}")
    assert len(text.splitlines()) == 7


@pytest.mark.parametrize("target", ["missing/rows.csv", "."], ids=["missing", "dir"])
def test_cli_sweep_unwritable_output_exits_two(tmp_path, target, capsys):
    # a path that cannot be opened is a usage error, not a verification failure
    out = tmp_path / target
    assert main(["sweep", "--points", "3", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


def test_cli_sweep_json_stdout(capsys):
    code = main(["sweep", "--r-max", "1.0", "--points", "3",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA
    assert len(doc["rows"]) == 3


def test_cli_sweep_deterministic_files(tmp_path):
    args = ["sweep", "--r-max", "1.5", "--points", "7"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out_a)]) == 0
    assert main(args + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_point(capsys):
    code = main(["point", "--r", "0.5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    # fe_kraus is Tr(rho A_0)^2 in closed form, not the operator sum
    assert lines[1].startswith("entanglement fidelity (closed form)  ")
    assert lines[2].startswith("entanglement fidelity (A_0 term, closed form)")
    assert "effective truncation" in lines[-1]


@pytest.mark.parametrize("r", ["0", "0.1", "3", "6"])
def test_cli_point_reports_an_untruncated_row(r, capsys):
    assert main(["point", "--r", r]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["truncation", "tail", "0.0"]
    assert lines[-1].split() == ["effective", "truncation", "(0:", "untruncated)", "0"]


def test_cli_point_rejects_negative(capsys):
    assert main(["point", "--r", "-1.0"]) == 2


@pytest.mark.parametrize(
    "args", [["point", "--r", "6.5"], ["point", "--r", "100"], ["sweep", "--r-max", "6.5"]]
)
def test_cli_refuses_r_past_the_cap(args, capsys):
    # the cap on r is R_MAX
    assert main(args) == 2
    assert "above R_MAX = 6" in capsys.readouterr().err


def test_cli_sweep_reaches_r_max(capsys):
    assert main(["sweep", "--r-max", "6", "--points", "50"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert float(last[0]) == R_MAX
    assert 1.0 < float(last[CSV_COLUMNS.index("mutual_info")]) < 1.0 + 2e-5


def test_cli_sweep_refused_mid_grid_writes_nothing(tmp_path, capsys):
    # the first grid point past the reach is refused before any row is
    # rendered, so --output is never opened
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--r-max", "6.5", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: r = 6.01005 is above R_MAX = 6, the largest r whose rows are certified\n"
    )
    assert not out.exists()


def test_cli_point_rejects_non_finite_r(capsys):
    assert main(["point", "--r", "inf"]) == 2
    assert "r must be finite and >= 0" in capsys.readouterr().err


def test_cli_default_sweep_exits_zero(capsys):
    assert main(["sweep", "--r-max", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + SweepConfig().points


def test_cli_config_error_exits_two(capsys):
    assert main(["sweep", "--points", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--format", "xml"])
    assert exc.value.code == 2


def test_cli_no_adaptive_flag_is_gone():
    # neither the fixed-cutoff switch nor the base cutoff is an option
    for argv in (
        ["sweep", "--no-adaptive"],
        ["sweep", "--n-max", "8"],
        ["point", "--r", "1", "--n-max", "8"],
        ["verify", "--n-max", "8"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "1"])
@pytest.mark.parametrize(
    "command", [["sweep"], ["verify"], ["point", "--r", "1"], ["point", "--r", "3.5"]]
)
def test_cli_refuses_tol_outside_unit_interval(command, tol, capsys):
    assert main(command + ["--tol", tol]) == 2
    assert "abs_tol must be in (0, 1)" in capsys.readouterr().err


def test_cli_point_takes_only_r_and_tol(capsys):
    assert main(["point", "--r", "1", "--tol", "1e-6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["acceleration", "parameter", "1.0"]
    for flag in (["--r-min", "5"], ["--r-max", "2"], ["--points", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["point", "--r", "1"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_verify_exit_codes(capsys, monkeypatch):
    ok = main(["verify", "--r-max", "1.5", "--points", "7"])
    assert ok == 0
    out = capsys.readouterr().out
    assert "all" in out and "checks passed" in out

    failing = CheckResult("truncation-tail-bound", 1.0, 1e-10)
    monkeypatch.setattr("unruhsim.cli.run_verify", lambda cfg: [failing])
    bad = main(["verify"])
    assert bad == 1
    out = capsys.readouterr().out
    assert "FAILED (first failing check: truncation-tail-bound)" in out


# `python -m unruhsim.cli verify`, which writes its own peak RSS to stderr
# as it exits
VERIFY_REPORTING_PEAK = """\
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(open("/proc/self/status").read()))
runpy.run_module("unruhsim.cli", run_name="__main__")
"""


def test_cli_verify_in_a_fresh_interpreter():
    # the default verify as a command, with a RuntimeWarning (an overflow or
    # invalid value in any check), a DeprecationWarning (such as float() of
    # an array with ndim > 0) or a FutureWarning an error.  Its peak RSS is
    # the child's own VmHWM: its rusage would count this process's peak too,
    # as Linux carries the peak across exec.  About 34 MB with the
    # entry-list oracle, where a dense fallback at the r = 3 row, N = 3482,
    # needs 580 MB or more
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(measures.__file__)),
        PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning,error::FutureWarning",
    )
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_REPORTING_PEAK, "verify"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "verify: all 10 checks passed"
    [peak_kb] = re.findall(r"^VmHWM:\s+(\d+) kB$", proc.stderr, re.MULTILINE)
    assert int(peak_kb) / 1024 < 120, f"verify peaked at {int(peak_kb) / 1024:.1f} MB"
