import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from unruhsim import (
    CheckResult,
    ConfigError,
    KrausScalarFault,
    KrausSet,
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
from unruhsim import measures
from unruhsim.cli import main
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
    assert first.subadd_margin == pytest.approx(2.0, abs=1e-10)


def test_default_sweep_tail_is_exact():
    # the tail is the exact discarded weight, never a negative cancellation
    cfg = SweepConfig()
    for rec in run_sweep(cfg):
        assert 0.0 <= rec.tail <= cfg.abs_tol


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
    assert cells[-1] == str(records[0].n_used)
    assert float(cells[7]) == pytest.approx(records[0].mutual_info, rel=1e-11)


def test_json_schema_fields():
    records = run_sweep(SMALL)
    doc = json.loads(to_json(SMALL, records))
    assert doc["schema"] == SCHEMA
    assert doc["config"]["points"] == SMALL.points
    assert tuple(doc["config"]) == ("r_min", "r_max", "points", "abs_tol", "output_format")
    assert len(doc["rows"]) == len(records)
    assert tuple(doc["rows"][0].keys()) == CSV_COLUMNS


def test_sweep_does_not_touch_dense_routes(monkeypatch):
    # records come from the 1-D mode weights; the dense Kraus family, the
    # tripartite state and the eigensolver are oracle routes only
    def refuse(*args, **kwargs):
        raise AssertionError("dense oracle route called")

    monkeypatch.setattr(KrausSet, "build", refuse)
    dense = ("tripartite_state", "sym_eigenvalues", "wedge_ii_probabilities")
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "unruhsim":
            for attr in dense:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="dense oracle"):
        entropy_exchange(0.5, TruncationConfig(8))

    records = run_sweep(SweepConfig(r_max=3.0, points=5))
    assert len(records) == 5
    assert records[-1].n_used == 3134


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
        assert len(names) == 12
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


@pytest.mark.parametrize(
    "field, caught_by",
    [
        ("s_ar", ["records-vs-oracle"]),
        ("s_r", ["records-vs-oracle"]),
        ("s_e", ["records-vs-oracle"]),
        ("s_a", ["records-vs-oracle", "alice-entropy"]),
        ("fe_kraus", ["records-vs-oracle"]),
        ("tail", ["operator-sum-tail"]),
    ],
)
def test_verify_catches_a_record_shifted_by_1e_8(monkeypatch, field, caught_by):
    # a record path that is off by 1e-8 in one field: only the dense oracle
    # at the rows' own cutoffs sees it, except s_a, which the grid's one-bit
    # check also holds; the tail is held against the operator-sum defect
    block_records = measures._block_records

    def shifted(rs, n_used):
        return [
            replace(rec, **{field: getattr(rec, field) + 1e-8})
            for rec in block_records(rs, n_used)
        ]

    monkeypatch.setattr(measures, "_block_records", shifted)
    results = run_verify(SweepConfig())
    assert len(results) == 12
    assert [res.name for res in results if not res.passed] == caught_by


def test_verify_reports_insufficient_truncation():
    # no cutoff up to the cap certifies r = 4: the tail-bound check refuses
    # the configuration instead of silently passing
    cfg = SweepConfig(r_max=4.0, points=5)
    with pytest.raises(ConfigError, match="cap"):
        run_verify(cfg, names=("truncation-tail-bound",))


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
    # subadditivity's margin appears negated, so a healthy run reads < 0
    results = run_verify(SMALL)
    assert all(res.tol >= 0 for res in results)
    [sub] = [res for res in results if res.name == "subadditivity"]
    margins = [rec.subadd_margin for rec in run_sweep(SMALL)]
    assert sub.worst == -min(margins) < 0
    assert sub.tol == SMALL.abs_tol


def test_verify_names_follow_the_fixed_order():
    names = ("truncation-tail-bound", "channel-vs-analytic", "alice-entropy")
    results = run_verify(SMALL, names=names)
    assert [res.name for res in results] == [
        "channel-vs-analytic", "alice-entropy", "truncation-tail-bound"
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
    out = capsys.readouterr().out
    assert "entanglement fidelity (closed form)" in out
    assert "effective truncation" in out


@pytest.mark.parametrize("r, n_used", [("0.1", 6), ("3", 3134)])
def test_cli_point_reports_the_certified_cutoff(r, n_used, capsys):
    assert main(["point", "--r", r]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split() == ["effective", "truncation", str(n_used)]


def test_cli_point_rejects_negative(capsys):
    assert main(["point", "--r", "-1.0"]) == 2


@pytest.mark.parametrize(
    "args", [["point", "--r", "4"], ["point", "--r", "5"], ["sweep", "--r-max", "4"]]
)
def test_cli_refuses_r_past_the_cap(args, capsys):
    assert main(args) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_sweep_refused_mid_grid_writes_nothing(tmp_path, capsys):
    # the first grid point past the reach is refused before any row is
    # rendered, so --output is never opened
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--r-max", "3.2", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: r = 3.13568 needs a cutoff above the adaptive cap n_max = 4096: "
        "there the tail bound 1.457e-10 is not below abs_tol = 1e-10\n"
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
    assert lines[-1].split() == ["effective", "truncation", "31"]
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
