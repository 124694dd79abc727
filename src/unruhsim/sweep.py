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
from itertools import starmap
from numbers import Integral

import numpy as np

from .errors import ConfigError
from .measures import MeasureRecord, check_abs_tol, measure_records

SCHEMA = "unruh-sweep/1"

# Largest accepted grid.  Every row costs the same work whatever its r,
# so the cap bounds only the output a sweep buffers.
MAX_POINTS = 100_000

# The record's fields, in its order.  Until schema unruh-sweep/2, s_a,
# tail, subadd_margin and n_used print the untruncated state's constants:
# 1, 0, mutual_info and 0 (meaning untruncated).
CSV_COLUMNS = MeasureRecord._fields

OUTPUT_FORMATS = ("csv", "json")

# One CSV row: floats in fixed 12-significant-digit scientific format, the
# integer cutoff as is.
_CSV_ROW = ",".join("{}" if col == "n_used" else "{:.11e}" for col in CSV_COLUMNS)


@dataclass(frozen=True)
class SweepConfig:
    """Grid and policy for a sweep; defaults reproduce the full r in [0, 3] scan.

    Validated fields are stored as Python numbers: r_min, r_max and abs_tol
    as float and points as int, so a numpy scalar never reaches the output.
    """

    r_min: float = 0.0
    r_max: float = 3.0
    points: int = 200
    abs_tol: float = 1e-10
    output_format: str = "csv"

    def __post_init__(self) -> None:
        try:
            finite = math.isfinite(self.r_min) and math.isfinite(self.r_max)
        except TypeError:  # None, a string, ...
            finite = False
        if not finite:
            raise ConfigError(
                f"grid endpoints must be finite numbers, got [{self.r_min}, {self.r_max}]"
            )
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
        for name in ("r_min", "r_max", "abs_tol"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "points", int(self.points))


def r_grid(cfg: SweepConfig) -> np.ndarray:
    """Evenly spaced grid including both endpoints exactly."""
    return np.linspace(cfg.r_min, cfg.r_max, cfg.points)


def run_sweep(cfg: SweepConfig) -> list[MeasureRecord]:
    """One record per grid point, in increasing r, from one measure_records call."""
    return measure_records(r_grid(cfg).tolist(), cfg.abs_tol)


def to_csv(records: list[MeasureRecord]) -> str:
    lines = [f"# schema: {SCHEMA}", ",".join(CSV_COLUMNS)]
    lines += starmap(_CSV_ROW.format, records)
    return "\n".join(lines) + "\n"


def to_json(cfg: SweepConfig, records: list[MeasureRecord]) -> str:
    doc = {
        "schema": SCHEMA,
        "config": asdict(cfg),
        "rows": [rec._asdict() for rec in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def render(cfg: SweepConfig, records: list[MeasureRecord]) -> str:
    if cfg.output_format == "json":
        return to_json(cfg, records)
    return to_csv(records)
