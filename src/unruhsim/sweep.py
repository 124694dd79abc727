"""Acceleration sweeps with stable, machine-readable output.

A sweep evaluates one :class:`~unruhsim.measures.MeasureRecord` per grid
point, left to right.  Everything is deterministic: there is no randomness
anywhere in the pipeline, so identical configurations produce byte-identical
output.  The CSV column order and the JSON field names are fixed and carry a
schema version.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .fock import check_abs_tol
from .measures import MeasureRecord, measure_record

SCHEMA = "unruh-sweep/1"

# Largest accepted grid.  With every row's cutoff at most ADAPTIVE_N_CAP
# levels, it bounds the work and the buffered output of any sweep.
MAX_POINTS = 100_000

CSV_COLUMNS = (
    "r",
    "fe_closed",
    "fe_kraus",
    "s_ar",
    "s_r",
    "s_a",
    "s_e",
    "mutual_info",
    "subadd_margin",
    "tail",
    "n_used",
)

OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class SweepConfig:
    """Grid and policy for a sweep; defaults reproduce the full r in [0, 3] scan."""

    r_min: float = 0.0
    r_max: float = 3.0
    points: int = 200
    abs_tol: float = 1e-10
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ConfigError("grid endpoints must be finite")
        if self.r_min < 0:
            raise ConfigError(f"r_min must be >= 0, got {self.r_min}")
        if not self.r_min < self.r_max:
            raise ConfigError(
                f"need r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if not 2 <= self.points <= MAX_POINTS:
            raise ConfigError(
                f"points must be in [2, {MAX_POINTS}], got {self.points}"
            )
        check_abs_tol(self.abs_tol)
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output_format must be one of {OUTPUT_FORMATS}, "
                f"got {self.output_format!r}"
            )


def r_grid(cfg: SweepConfig) -> np.ndarray:
    """Evenly spaced grid including both endpoints exactly."""
    return np.linspace(cfg.r_min, cfg.r_max, cfg.points)


def run_sweep(cfg: SweepConfig) -> list[MeasureRecord]:
    """One record per grid point, evaluated in increasing r."""
    return [measure_record(float(r), cfg.abs_tol) for r in r_grid(cfg)]


def _fmt(value: float) -> str:
    """Fixed 12-significant-digit scientific format."""
    return f"{value:.11e}"


def _row(rec: MeasureRecord) -> dict:
    return {col: getattr(rec, col) for col in CSV_COLUMNS}


def to_csv(records: list[MeasureRecord]) -> str:
    lines = [f"# schema: {SCHEMA}", ",".join(CSV_COLUMNS)]
    for rec in records:
        row = _row(rec)
        cells = [
            str(row[col]) if col == "n_used" else _fmt(row[col])
            for col in CSV_COLUMNS
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_json(cfg: SweepConfig, records: list[MeasureRecord]) -> str:
    doc = {
        "schema": SCHEMA,
        "config": asdict(cfg),
        "rows": [_row(rec) for rec in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def render(cfg: SweepConfig, records: list[MeasureRecord]) -> str:
    if cfg.output_format == "json":
        return to_json(cfg, records)
    return to_csv(records)
