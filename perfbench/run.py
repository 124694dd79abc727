"""Benchmark for unruhsim, run from the root of a source checkout.

    python3 perfbench/run.py --workload scan-paper --seed 1 --seconds 50 --trace 0

Workloads (one process each, one caller, closed loop: the next pass starts
when the previous one has returned):

  scan-paper   `unruhsim sweep` at its defaults (r in [0, 3], 200 points,
               adaptive n_max from 256, CSV).  The seed shifts r_min by a
               fraction of a grid step.
  oracle-n256  the dense cross-check routes at n_max = 256 for three r drawn
               from [0.3, 1.5] by the seed, plus the non-grid verify checks.
  scan-low-r   `unruhsim sweep --r-max 1 --points 400`; the cutoff stays at
               256, so the fixed per-point cost dominates.  Not listed in
               BENCHMARK.json: its run medians follow the host's speed too
               closely for a regression bound (see README.md), but its
               trace still shows the per-point cost.

With `--trace 0` the run prints the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics, taken from spans around unruhsim's public functions and
written to perfbench/out/.  Every pass output goes through the correctness
gate in gate.py.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans  # no numpy: importing it before the BLAS cap is harmless

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))

TOL = 1e-10  # the sweep's default abs_tol, which every row is gated against
SETUP_REPEATS = 9
MIN_PASSES = 3  # untraced passes in a run with --trace 0
MIN_TRACE_PASSES = 2  # of each kind, untraced and traced, with --trace 1

ORACLE_N_MAX = 256
ORACLE_R_COUNT = 3
ORACLE_R_RANGE = (0.3, 1.5)

# verify checks that do not run a sweep; the oracle pass runs each on its own.
VERIFY_CHECKS = (
    "channel-vs-analytic",
    "trace-preservation",
    "entropy-series-vs-spectral",
    "fidelity-consistency",
    "purification-identity",
    "fidelity-monotonic",
    "truncation-tail-bound",
)

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import unruhsim.cli
unruhsim.cli.build_parser()
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable CPU; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)


def load_program():
    """Import unruhsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "unruhsim" / "__init__.py").is_file():
        raise BenchError(f"no unruhsim package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import unruhsim
    import unruhsim.cli  # the package __init__ does not import the CLI

    if Path(unruhsim.__file__).resolve().parent != SRC / "unruhsim":
        raise BenchError(f"imported unruhsim from {unruhsim.__file__}, not {SRC}")
    return unruhsim


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def machine_record(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_times() -> list[float]:
    """Fresh-process time to import unruhsim and build the CLI parser."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(proc.stdout))
    return times[1:]  # the first warms the file cache and writes bytecode


# ---------------------------------------------------------------- workloads


class SweepWorkload:
    """`unruhsim sweep` through cli.main, CSV written to a file."""

    def __init__(self, pkg, gate, name: str, seed: int, r_max: float, points: int):
        self.cli = pkg.cli
        self.gate = gate
        self.points = points
        step = r_max / (points - 1)
        self.r_min = random.Random(seed).random() * step
        self.out = OUT / f"{name}-seed{seed}.csv"
        self.argv = [
            "sweep",
            "--r-min", repr(self.r_min),
            "--r-max", repr(r_max),
            "--points", str(points),
            "--output", str(self.out),
        ]
        self.grid = gate.sweep_grid(self.r_min, r_max, points)
        self.references = [gate.series_entropies(float(r)) for r in self.grid]

    def describe(self) -> str:
        return "unruhsim " + " ".join(self.argv).replace(str(ROOT) + os.sep, "")

    def run(self, span):
        code = self.cli.main(self.argv)
        if code != 0:
            raise BenchError(f"unruhsim sweep exited {code}")

    def check(self) -> tuple[int, list[str]]:
        text = self.out.read_text(encoding="utf-8")
        return self.gate.check_sweep_csv(text, self.grid, TOL, self.references)


class OracleWorkload:
    """Dense channel, eigensolve and partial-trace routes at n_max = 256."""

    def __init__(self, pkg, gate, seed: int):
        self.pkg = pkg
        self.gate = gate
        rng = random.Random(seed)
        self.rs = sorted(rng.uniform(*ORACLE_R_RANGE) for _ in range(ORACLE_R_COUNT))
        self.points = len(self.rs)
        self.cfg = pkg.fock.TruncationConfig(ORACLE_N_MAX)
        self.results = None

    def describe(self) -> str:
        rs = ", ".join(f"{r:.6f}" for r in self.rs)
        return f"oracle n_max={ORACLE_N_MAX} r=[{rs}] + verify {len(VERIFY_CHECKS)} checks"

    def run(self, span):
        channel, fock, measures, rindler = (
            self.pkg.channel, self.pkg.fock, self.pkg.measures, self.pkg.rindler
        )
        cfg = self.cfg
        rho_in = channel.bell_input_density(cfg)
        points = []
        for r in self.rs:
            ks = channel.KrausSet.build(r, cfg)
            out = channel.apply_channel(rho_in, ks).mat
            del ks  # ~0.5 GB of dense operators
            rho = rindler.rho_alice_rob(r, cfg)
            rho_rob = fock.partial_trace(rho, (rindler.WEDGE_I,))
            points.append(
                (
                    r,
                    out,
                    rho.mat,
                    measures.von_neumann_entropy(rho, cfg),
                    measures.von_neumann_entropy(rho_rob, cfg),
                    measures.joint_entropy_series(r, cfg),
                    measures.rob_entropy_series(r, cfg),
                    measures.entropy_exchange(r, cfg),
                )
            )
        checks = []
        sweep_cfg = self.pkg.sweep.SweepConfig()
        for name in VERIFY_CHECKS:
            with span(f"verify.{name}"):
                checks.extend(self.pkg.verify.run_verify(sweep_cfg, names=(name,)))
        self.results = (points, checks)

    def check(self) -> tuple[int, list[str]]:
        points, checks = self.results
        self.results = None
        attempted, failures = 0, []
        for r, out, rho, s_joint, s_rob, s_joint_ser, s_rob_ser, s_ex in points:
            n, bad = self.gate.check_oracle_point(
                r, ORACLE_N_MAX, out, rho, s_joint, s_rob, s_joint_ser, s_rob_ser, s_ex
            )
            attempted += n
            failures += bad
        names = [res.name for res in checks]
        if names != list(VERIFY_CHECKS):
            failures.append(f"verify returned checks {names}")
        failures += [f"verify {res.line()}" for res in checks if not res.passed]
        return attempted + len(VERIFY_CHECKS), failures


WORKLOADS = {
    "scan-paper": lambda pkg, gate, seed: SweepWorkload(
        pkg, gate, "scan-paper", seed, r_max=3.0, points=200
    ),
    "scan-low-r": lambda pkg, gate, seed: SweepWorkload(
        pkg, gate, "scan-low-r", seed, r_max=1.0, points=400
    ),
    "oracle-n256": lambda pkg, gate, seed: OracleWorkload(pkg, gate, seed),
}


# ---------------------------------------------------------------- gate self-test


def gate_self_test(pkg, gate) -> dict[str, bool]:
    """Both injected faults must fail the gate while their clean controls pass."""
    cli, channel, fock, sweep, verify = pkg.cli, pkg.channel, pkg.fock, pkg.sweep, pkg.verify
    path = OUT / "selftest.csv"
    if cli.main(["sweep", "--r-max", "1", "--points", "5", "--output", str(path)]) != 0:
        raise BenchError("self-test sweep failed to run")
    grid = gate.sweep_grid(0.0, 1.0, 5)
    refs = [gate.series_entropies(float(r)) for r in grid]
    lines = path.read_text(encoding="utf-8").splitlines()
    _, clean = gate.check_sweep_csv("\n".join(lines), grid, TOL, refs)
    row = lines[3].split(",")
    col = gate.CSV_COLUMNS.index("s_ar")
    row[col] = f"{float(row[col]) + 1e-6:.11e}"
    lines[3] = ",".join(row)
    _, dirty = gate.check_sweep_csv("\n".join(lines), grid, TOL, refs)

    fault = verify.KrausScalarFault(index=1, offset=1e-6)
    [clean_res] = verify.run_verify(sweep.SweepConfig(), names=("channel-vs-analytic",))
    [fault_res] = verify.run_verify(
        sweep.SweepConfig(), fault=fault, names=("channel-vs-analytic",)
    )
    r, n_max = 0.8, 48
    cfg = fock.TruncationConfig(n_max)
    rho_in = channel.bell_input_density(cfg)
    ks = channel.KrausSet.build(r, cfg)
    rho = pkg.rindler.rho_alice_rob(r, cfg).mat

    def channel_ok(kraus) -> bool:
        out = channel.apply_channel(rho_in, kraus).mat
        return all(gate.channel_checks(r, n_max, out, rho).values())

    return {
        "perturbed CSV row": not clean and len(dirty) == 1,
        "KrausScalarFault in verify": clean_res.passed and not fault_res.passed,
        "faulted KrausSet in the oracle gate": channel_ok(ks)
        and not channel_ok(ks.with_scalar_offset(fault.index, fault.offset)),
    }


# ---------------------------------------------------------------- tracing


def trace_targets(pkg) -> list[spans.Target]:
    channel, cli, fock, measures, rindler, sweep, verify = (
        pkg.channel, pkg.cli, pkg.fock, pkg.measures, pkg.rindler, pkg.sweep, pkg.verify
    )

    def tripartite(_anc, args, _res):
        n = args[1].n_max
        return {"bytes": 16 * (n + 1) ** 2, "nonzero": 2 * n + 1, "entries": 2 * (n + 1) ** 2}

    def kraus_build(anc, args, _res):
        n = args[2].n_max  # (cls, r, cfg)
        useful = 1 if "measures.entanglement_fidelity_kraus" in anc else n + 1
        return {"bytes": 32 * (n + 1) ** 3, "ops": n + 1, "useful_ops": useful}

    def apply(_anc, args, _res):
        n = args[1].cfg.n_max
        return {"flops": 4 * (n + 1) * (2 * (n + 1)) ** 3}

    T = spans.Target
    return [
        T("cli.main", cli, "main"),
        T("sweep.run_sweep", sweep, "run_sweep"),
        T("sweep.render", sweep, "render", lambda a, b, res: {"bytes": len(res.encode())}),
        T("measures.measure_record", measures, "measure_record",
          lambda a, b, res: {"n_used": res.n_used}),
        T("measures.adaptive_n_max", measures, "adaptive_n_max"),
        T("measures.entanglement_fidelity_kraus", measures, "entanglement_fidelity_kraus"),
        T("measures.joint_entropy_series", measures, "joint_entropy_series"),
        T("measures.rob_entropy_series", measures, "rob_entropy_series"),
        T("measures.von_neumann_entropy", measures, "von_neumann_entropy"),
        T("measures.wedge_ii_probabilities", measures, "wedge_ii_probabilities"),
        T("measures.entropy_exchange", measures, "entropy_exchange"),
        T("rindler.tripartite_state", rindler, "tripartite_state", tripartite),
        T("rindler.rho_alice_rob", rindler, "rho_alice_rob"),
        T("fock.StateVector.reduced_density", fock.StateVector, "reduced_density"),
        T("fock.partial_trace", fock, "partial_trace"),
        T("fock.sym_eigenvalues", fock, "sym_eigenvalues",
          lambda a, args, r: {"dim_sum": int(args[0].shape[0])}),
        T("channel.KrausSet.build", channel.KrausSet, "build", kraus_build),
        T("channel.apply_channel", channel, "apply_channel", apply),
        T("verify.run_verify", verify, "run_verify"),
    ]


# Counts summed from span attributes, and ratios of two such sums.
ATTR_METRICS = (
    "rindler.tripartite_state.bytes",
    "channel.KrausSet.build.bytes",
    "channel.apply_channel.flops",
    "fock.sym_eigenvalues.dim_sum",
    "sweep.render.bytes",
)
RATIO_METRICS = {
    "rindler.tripartite_state.nonzero_frac": (
        "rindler.tripartite_state.nonzero", "rindler.tripartite_state.entries"
    ),
    "channel.KrausSet.build.useful_ops_frac": (
        "channel.KrausSet.build.useful_ops", "channel.KrausSet.build.ops"
    ),
}
LEVEL_METRICS = ("measures.levels_sum", "measures.n_used_max", "measures.cap_hits")
# Whole traced pass: page faults and kernel time (allocation churn), and
# the cost of tracing itself.
PASS_METRICS = ("pass.minor_faults", "pass.sys_s", "trace_overhead_frac")


def layer_metric_names(targets) -> set[str]:
    names = {f"{t.name}.{kind}" for t in targets for kind in ("calls", "self_s")}
    names.update(ATTR_METRICS, RATIO_METRICS, LEVEL_METRICS, PASS_METRICS)
    names.update(f"verify.{check}.wall_s" for check in VERIFY_CHECKS)
    return names


def per_pass_layers(tracer, targets, cap: int) -> dict[int, dict[str, float]]:
    """Layer metrics of each traced pass, from its spans."""
    wrapped = {t.name for t in targets}
    per: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        m = per[span.pass_id]
        if span.name in wrapped:
            m[f"{span.name}.calls"] += 1
            m[f"{span.name}.self_s"] += own
        else:  # the benchmark's own spans: pass roots and verify checks
            m[f"{span.name}.wall_s"] += span.end - span.start
        for key, value in span.attrs.items():
            if key == "n_used":
                m["measures.levels_sum"] += value
                m["measures.n_used_max"] = max(m["measures.n_used_max"], value)
                m["measures.cap_hits"] += value >= cap
            else:
                m[f"{span.name}.{key}"] += value
    for m in per.values():
        for name, (num, den) in RATIO_METRICS.items():
            m[name] = m[num] / m[den] if m[den] else 0.0
    return per


# ---------------------------------------------------------------- main loop


def run_passes(workload, seconds: float, tracer):
    """One warm-up pass, then a closed loop until the next pass would end
    after `seconds`.

    Without a tracer every pass is untraced; with one, passes alternate
    untraced, traced.  Each pass output is gated outside the timed region.
    """
    def no_span(_name):
        return contextlib.nullcontext()

    walls: dict[bool, list[float]] = {False: [], True: []}
    # One untimed warm-up pass: the first pass of a process runs 25-55 %
    # slower while the allocator grows its heap.  Its output is still gated.
    t0 = time.perf_counter()
    workload.run(no_span)
    print(f"warm-up pass {time.perf_counter() - t0:.4f} s (not in wall_s)")
    attempted, failures = workload.check()
    kinds = (False, True) if tracer is not None else (False,)
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        if traced:
            tracer.pass_id = k
            tracer.install()
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            with tracer.span("pass") as span:
                workload.run(tracer.span)
            wall = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            tracer.uninstall()
            span.attrs = {
                "minor_faults": after.ru_minflt - before.ru_minflt,
                "sys_s": after.ru_stime - before.ru_stime,
            }
        else:
            t0 = time.perf_counter()
            workload.run(no_span)
            wall = time.perf_counter() - t0
        walls[traced].append(wall)
        n, bad = workload.check()
        attempted += n
        failures += bad
        k += 1
        done = [w for kind in kinds for w in walls[kind]]
        least = MIN_TRACE_PASSES if tracer is not None else MIN_PASSES
        enough = all(len(walls[kind]) >= least for kind in kinds)
        elapsed = time.perf_counter() - t_start
        if enough and elapsed + statistics.median(done) > seconds:
            return walls, attempted, failures


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten passes beyond it."""
    n = len(values)
    if n <= 10:
        return f"none ({n} passes; needs 11)"
    k = n - 10
    return f"p{100 * k // n} = {sorted(values)[k - 1]:.4f} s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    try:
        spec = load_spec()
        pkg = load_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import gate

    OUT.mkdir(exist_ok=True)
    machine = machine_record(np, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(machine))

    workload = WORKLOADS[args.workload](pkg, gate, args.seed)
    print("input " + workload.describe())
    self_test = gate_self_test(pkg, gate)
    for name, caught in self_test.items():
        print(f"self-test {name}: {'caught' if caught else 'MISSED'}")

    tracer = None
    targets = trace_targets(pkg)
    if args.trace:
        tracer = spans.Tracer(targets, "unruhsim")
        wanted = {m["name"] for m in spec["per_layer"]}
        if wanted != layer_metric_names(targets):
            raise SystemExit("BENCHMARK.json per_layer does not match the traced metrics")
    else:
        setup = setup_times()

    walls, attempted, failures = run_passes(workload, args.seconds, tracer)
    for reason in failures[:20]:
        print(f"FAIL {reason}")
    untraced = walls[False]
    wall = statistics.median(untraced)
    print(f"passes {len(untraced)}  wall_s median {wall:.4f} s  tail {tail_percentile(untraced)}")
    print("pass wall_s " + " ".join(f"{w:.4f}" for w in untraced))
    print(f"fail_frac {len(failures)}/{attempted} = {len(failures) / attempted:.3g}")

    if args.trace:
        per = per_pass_layers(tracer, targets, gate.N_CAP)
        metrics = {
            m["name"]: statistics.median(p.get(m["name"], 0.0) for p in per.values())
            for m in spec["per_layer"]
            if m["name"] != "trace_overhead_frac"
        }
        traced_wall = statistics.median(walls[True])
        metrics["trace_overhead_frac"] = traced_wall / wall - 1.0
        print(f"traced passes {len(walls[True])}  wall_s median {traced_wall:.4f} s")
        shares = sorted(
            ((v / traced_wall, k) for k, v in metrics.items() if k.endswith(".self_s")),
            reverse=True,
        )
        for share, name in shares:
            if share >= 0.005:
                print(f"share {share:7.1%}  {name}")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "machine": machine})
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "points_per_s": workload.points / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(metrics) != set(units):
            raise SystemExit("BENCHMARK.json end_to_end does not match the measured metrics")

    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": not failures and all(self_test.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
