"""Acceleration sweeps with stable, machine-readable output.

A sweep evaluates one :class:`~unruhsim.measures.MeasureRecord` per grid
point, left to right.  Everything is deterministic: there is no randomness
anywhere in the pipeline, so identical configurations produce byte-identical
output.  The CSV column order and the JSON field names are fixed and carry a
schema version; :func:`v1_row` maps a record to its row for every writer.
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

# Schema v1's columns: the record's fields and, until schema unruh-sweep/2,
# four constants of the untruncated state (see v1_row).
CSV_COLUMNS = ("r", "fe_closed", "fe_kraus", "s_ar", "s_r", "s_a", "s_e",
               "mutual_info", "subadd_margin", "tail", "n_used")

OUTPUT_FORMATS = ("csv", "json")


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


def v1_row(rec: MeasureRecord) -> tuple:
    """The record in CSV_COLUMNS order, with the untruncated state's constants:
    Alice holds one bit (s_a = 1), subadd_margin is mutual_info, nothing is
    discarded (tail = 0) and n_used = 0 means untruncated.
    """
    r, fe_closed, fe_kraus, s_ar, s_r, s_e, mutual = rec
    return r, fe_closed, fe_kraus, s_ar, s_r, 1.0, s_e, mutual, mutual, 0.0, 0


# One CSV row: floats at 12 significant digits, n_used as is.  The template
# is v1_row of the placeholders {i:.11e}, so its constants are text in it.
_CSV_ROW = ",".join(
    f"{cell:.11e}" if isinstance(cell, float) else str(cell)
    for cell in v1_row(MeasureRecord._make(map("{{{}:.11e}}".format, range(7))))
)


def to_csv(records: list[MeasureRecord]) -> str:
    lines = [f"# schema: {SCHEMA}", ",".join(CSV_COLUMNS)]
    lines += starmap(_CSV_ROW.format, records)
    return "\n".join(lines) + "\n"


def to_json(cfg: SweepConfig, records: list[MeasureRecord]) -> str:
    doc = {
        "schema": SCHEMA,
        "config": asdict(cfg),
        "rows": [dict(zip(CSV_COLUMNS, v1_row(rec))) for rec in records],
    }
    return json.dumps(doc, indent=2) + "\n"


def render(cfg: SweepConfig, records: list[MeasureRecord]) -> str:
    if cfg.output_format == "json":
        return to_json(cfg, records)
    return to_csv(records)
