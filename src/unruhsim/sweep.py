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
from numbers import Integral
from operator import attrgetter

import numpy as np

from .errors import ConfigError
from .measures import MeasureRecord, check_abs_tol, measure_records

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

# One CSV row: floats in fixed 12-significant-digit scientific format, the
# integer cutoff as is.
_CSV_ROW = ",".join("{}" if col == "n_used" else "{:.11e}" for col in CSV_COLUMNS)
_fields = attrgetter(*CSV_COLUMNS)


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
        if not isinstance(self.points, Integral) or not 2 <= self.points <= MAX_POINTS:
            raise ConfigError(
                f"points must be an integer in [2, {MAX_POINTS}], got {self.points!r}"
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
    """One record per grid point, in increasing r, from one measure_records call."""
    return measure_records(r_grid(cfg).tolist(), cfg.abs_tol)


def _row(rec: MeasureRecord) -> dict:
    return dict(zip(CSV_COLUMNS, _fields(rec)))


def to_csv(records: list[MeasureRecord]) -> str:
    lines = [f"# schema: {SCHEMA}", ",".join(CSV_COLUMNS)]
    lines += [_CSV_ROW.format(*_fields(rec)) for rec in records]
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
