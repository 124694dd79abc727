"""Correctness gate with the benchmark's own reference values.

Nothing here imports unruhsim.  The references are closed forms and numpy
series summed without a cutoff cap, so a defect in the program cannot hide
in its own reference.  Every check returns failure reasons; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

FE_TOL = 1e-12
ENTROPY_TOL = 1e-8
CHANNEL_TOL = 1e-10

# unruhsim.measures.ADAPTIVE_N_CAP.  A row whose cutoff sits at the cap has
# an unconverged series (silently wrong from r ~ 3.14 up), so it fails.
N_CAP = 4096

# The CSV prints 12 significant digits, so a parsed value carries up to half
# a unit in the 12th digit on top of the program's own error.
CSV_REL = 5e-12

# The reference series run until their tail bound (N+2) q^(N+1) drops below
# this, far under every gate tolerance.
_SERIES_TAIL = 1e-18

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


def fidelity(r: float) -> float:
    """Closed-form entanglement fidelity (1/4) sech^2 r (1 + sech r)^2."""
    sech = 1.0 / math.cosh(r)
    return 0.25 * sech**2 * (1.0 + sech) ** 2


def sweep_grid(r_min: float, r_max: float, points: int) -> np.ndarray:
    """The grid a sweep must cover: evenly spaced, both endpoints included."""
    return np.linspace(r_min, r_max, points)


def _series_levels(q: float) -> int:
    """Smallest N with (N+2) q^(N+1) < _SERIES_TAIL; no cap."""
    if q == 0.0:
        return 1
    n = max(1, int(math.log(_SERIES_TAIL) / math.log(q)))
    while math.log(n + 2) + (n + 1) * math.log(q) >= math.log(_SERIES_TAIL):
        n = int(n * 1.25) + 1
    return n


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def series_entropies(r: float) -> tuple[float, float]:
    """(S(rho_AR), S(rho_R)) in bits from the block weights a_n = q^n / (2 cosh^2 r).

    Joint eigenvalues are a_n (1 + (n+1)/cosh^2 r); Rob's occupation
    probabilities are a_m + m a_(m-1) / cosh^2 r.
    """
    q = math.tanh(r) ** 2
    ch2 = math.cosh(r) ** 2
    n = np.arange(_series_levels(q) + 1, dtype=np.float64)
    a = q**n / (2.0 * ch2)
    joint = a * (1.0 + (n + 1.0) / ch2)
    rob = a.copy()
    rob[1:] += n[1:] * a[:-1] / ch2
    return _entropy_bits(joint), _entropy_bits(rob)


def rho_alice_rob(r: float, n_max: int) -> np.ndarray:
    """Dense Alice x wedge-I reduced state from its rank-1 2x2 blocks.

    Block n sits on {|1,n>, |0,n+1>} with entries a_n [[1, s], [s, s^2]],
    s = sqrt(n+1)/cosh r; at the truncation edge only |1,n_max> survives.
    """
    dim = n_max + 1
    q = math.tanh(r) ** 2
    ch = math.cosh(r)
    n = np.arange(dim)
    a = q ** n.astype(np.float64) / (2.0 * ch**2)
    s = np.sqrt(n + 1.0) / ch
    mat = np.zeros((2 * dim, 2 * dim))
    one, zero = dim + n, n + 1  # flat indices of |1,n> and |0,n+1>
    mat[one, one] = a
    inner = n < n_max
    mat[zero[inner], zero[inner]] = (a * s * s)[inner]
    mat[one[inner], zero[inner]] = (a * s)[inner]
    mat[zero[inner], one[inner]] = (a * s)[inner]
    return mat


def _within(value: float, target: float, bound: float) -> bool:
    """|value - target| <= bound, and False for NaN."""
    return bool(abs(value - target) <= bound)


def _slack(*values: float) -> float:
    return sum(CSV_REL * abs(v) for v in values)


def check_sweep_csv(
    text: str, grid: np.ndarray, tol: float, references: list[tuple[float, float]]
) -> tuple[int, list[str]]:
    """Gate a sweep CSV row by row.

    `references` holds series_entropies(r) for each grid point.  Returns
    (rows attempted, one failure reason per failing row); a missing row
    counts as failed.
    """
    lines = text.splitlines()
    failures = []
    if len(lines) < 2 or not lines[0].startswith("# schema:") or lines[1] != ",".join(
        CSV_COLUMNS
    ):
        return len(grid), [f"bad CSV header: {lines[:2]!r}"] * len(grid)
    rows = lines[2:]
    if len(rows) != len(grid):
        failures.append(f"{len(rows)} rows for {len(grid)} grid points")
    for k, (r, (ref_ar, ref_r)) in enumerate(zip(grid, references)):
        if k >= len(rows):
            failures.append(f"row {k}: missing")
            continue
        bad = _check_row(rows[k], float(r), tol, ref_ar, ref_r)
        if bad:
            failures.append(f"row {k} (r={r:.6g}): " + "; ".join(bad))
    if len(rows) > len(grid):
        failures.extend(f"row {k}: extra" for k in range(len(grid), len(rows)))
    return max(len(grid), len(rows)), failures


def _check_row(line: str, r: float, tol: float, ref_ar: float, ref_r: float) -> list[str]:
    cells = line.split(",")
    if len(cells) != len(CSV_COLUMNS):
        return [f"{len(cells)} cells"]
    try:
        v = dict(zip(CSV_COLUMNS[:-1], map(float, cells[:-1])))
        n_used = int(cells[-1])
    except ValueError as exc:
        return [f"unparseable: {exc}"]
    fe = fidelity(r)
    checks = {
        "r": _within(v["r"], r, _slack(r) + 1e-300),
        "fe_closed": _within(v["fe_closed"], fe, FE_TOL + _slack(fe)),
        "fe_kraus": _within(
            v["fe_kraus"], v["fe_closed"], FE_TOL + _slack(v["fe_kraus"], v["fe_closed"])
        ),
        "s_ar": _within(v["s_ar"], ref_ar, ENTROPY_TOL + _slack(ref_ar)),
        "s_r": _within(v["s_r"], ref_r, ENTROPY_TOL + _slack(ref_r)),
        "s_e": _within(v["s_e"], v["s_ar"], ENTROPY_TOL + _slack(v["s_e"], v["s_ar"])),
        "s_a": _within(v["s_a"], 1.0, tol + _slack(v["s_a"])),
        "mutual_info": _within(
            v["mutual_info"],
            1.0 + v["s_r"] - v["s_ar"],
            _slack(v["mutual_info"], v["s_r"], v["s_ar"]) + 1e-15,
        ),
        "subadd_margin": v["subadd_margin"] >= -tol - _slack(v["subadd_margin"]),
        "tail": v["tail"] <= tol + _slack(v["tail"]),
        "n_used": n_used < N_CAP,
    }
    return [name for name, ok in checks.items() if not ok]


def check_oracle_point(
    r: float,
    n_max: int,
    channel_out: np.ndarray,
    rho_program: np.ndarray,
    s_joint: float,
    s_rob: float,
    s_joint_series: float,
    s_rob_series: float,
    s_exchange: float,
) -> tuple[int, list[str]]:
    """Gate one dense cross-check point; returns (checks attempted, failures)."""
    ref_ar, ref_r = series_entropies(r)
    checks = {
        **channel_checks(r, n_max, channel_out, rho_program),
        "S(rho_AR) spectral vs series": _within(s_joint, s_joint_series, ENTROPY_TOL),
        "S(rho_AR) spectral vs own series": _within(s_joint, ref_ar, ENTROPY_TOL),
        "S(rho_R) spectral vs series": _within(s_rob, s_rob_series, ENTROPY_TOL),
        "S(rho_R) spectral vs own series": _within(s_rob, ref_r, ENTROPY_TOL),
        "entropy exchange vs S(rho_AR)": _within(s_exchange, s_joint, ENTROPY_TOL),
    }
    return len(checks), [f"r={r:.6g}: {name}" for name, ok in checks.items() if not ok]


def channel_checks(
    r: float, n_max: int, channel_out: np.ndarray, rho_program: np.ndarray
) -> dict[str, bool]:
    """The operator-sum output against the program's and the gate's own closed form."""
    return {
        "channel vs rho_alice_rob": _max_gap(channel_out, rho_program) <= CHANNEL_TOL,
        "channel vs own blocks": _max_gap(channel_out, rho_alice_rob(r, n_max))
        <= CHANNEL_TOL,
    }


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return math.inf
    gap = float(np.abs(a - b).max())
    return gap if math.isfinite(gap) else math.inf
