"""Command-line front end.

Subcommands:
    sweep    emit one record per grid point as CSV or JSON
    verify   run the cross-check suite; exit 0 only if every check passes
    point    evaluate and pretty-print a single acceleration value

Exit codes: 0 success, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .measures import measure_record
from .sweep import OUTPUT_FORMATS, SweepConfig, render, run_sweep
from .verify import first_failure, run_verify


_ROW_TOL = "ceiling in (0, 1) on each row's certified error bound; a row not below it exits 2"
_VERIFY_TOL = (
    "ceiling in (0, 1) on each row's certified error bound (a row not below it "
    "exits 2), the entropy bound of the oracle's cutoff at --r-max, and the "
    "tolerance of the grid checks"
)


def _add_tol_arg(sp: argparse.ArgumentParser, bounds: str) -> None:
    sp.add_argument("--tol", type=float, default=1e-10, help=f"{bounds} (default 1e-10)")


def _add_config_args(sp: argparse.ArgumentParser, tol_bounds: str) -> None:
    sp.add_argument("--r-min", type=float, default=0.0, help="grid start (default 0)")
    sp.add_argument("--r-max", type=float, default=3.0, help="grid end (default 3)")
    sp.add_argument("--points", type=int, default=200, help="grid size (default 200)")
    _add_tol_arg(sp, tol_bounds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruhsim",
        description="Acceleration-induced decoherence as an operator-sum channel: "
        "untruncated records, cross-checked against an oracle cut in Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="emit per-grid-point records")
    _add_config_args(sweep_p, _ROW_TOL)
    sweep_p.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="csv", help="output format"
    )
    sweep_p.add_argument(
        "--output", default=None, help="output path (default stdout)"
    )

    verify_p = sub.add_parser("verify", help="run the invariant cross-check suite")
    _add_config_args(verify_p, _VERIFY_TOL)

    point_p = sub.add_parser("point", help="evaluate a single acceleration value")
    point_p.add_argument("--r", type=float, required=True, help="acceleration value")
    _add_tol_arg(point_p, _ROW_TOL)

    return parser


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    return SweepConfig(
        r_min=args.r_min,
        r_max=args.r_max,
        points=args.points,
        abs_tol=args.tol,
        output_format=getattr(args, "format", "csv"),
    )


def _cmd_sweep(cfg: SweepConfig, output: str | None) -> int:
    text = render(cfg, run_sweep(cfg))
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {output}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0


def _cmd_verify(cfg: SweepConfig) -> int:
    results = run_verify(cfg)
    for res in results:
        print(res.line())
    failed = first_failure(results)
    if failed is None:
        print(f"verify: all {len(results)} checks passed")
        return 0
    print(f"verify: FAILED (first failing check: {failed.name})")
    return 1


def _cmd_point(r: float, abs_tol: float) -> int:
    rec = measure_record(r, abs_tol)
    labels = {
        "r": "acceleration parameter",
        "fe_closed": "entanglement fidelity (closed form)",
        "fe_kraus": "entanglement fidelity (operator sum)",
        "s_ar": "joint entropy S(rho_AR) [bits]",
        "s_r": "Rob entropy S(rho_R) [bits]",
        "s_a": "Alice entropy S(rho_A) [bits]",
        "s_e": "entropy exchange [bits]",
        "mutual_info": "mutual information [bits]",
        "subadd_margin": "sub-additivity margin [bits]",
        "tail": "truncation tail",
        "n_used": "effective truncation (0: untruncated)",
    }
    for key, value in rec._asdict().items():
        print(f"{labels[key]:38s} {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "point":
            return _cmd_point(args.r, args.tol)
        cfg = _config_from_args(args)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.output)
        if args.command == "verify":
            return _cmd_verify(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
