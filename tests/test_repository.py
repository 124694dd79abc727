"""What the checkout itself must hold.

No build artifacts, correct benchmark records, and every name the benchmark calls.
"""

import contextlib
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import unruhsim
import unruhsim.cli  # perfbench wraps cli.main, which the package does not import
from unruhsim import verify

ROOT = Path(__file__).resolve().parents[1]


def test_no_ignored_file_is_tracked():
    # __pycache__/, *.egg-info/, perfbench/out/, .pytest_cache/ and the rest
    # of .gitignore are what building, testing and running leave behind
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    tracked = subprocess.run(
        ["git", "ls-files", "--cached", "--ignored", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert tracked == ""


def test_recorded_benchmark_runs_are_correct():
    # every BENCH_*.json at the root parses, records runs, and every run
    # passed the benchmark's correctness gate
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    bad = []
    for path in paths:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        if not runs:
            bad.append(f"{path.name}: no runs")
        bad += [f"{path.name}: {run}" for run in runs if run["result"]["correct"] is not True]
    assert bad == []


def _load_benchmark(monkeypatch):
    """perfbench/run.py as a module, with perfbench/ on the path for spans and gate."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_benchmark_finds_what_it_calls(monkeypatch):
    # perfbench/run.py runs verify checks by name and wraps unruhsim's
    # functions by attribute; a deletion or rename of either breaks the
    # benchmark, so it is held here and not only in a benchmark run
    run = _load_benchmark(monkeypatch)
    assert {*run.VERIFY_CHECKS, "channel-vs-analytic"} - set(verify._CHECKS) == set()
    missing = [
        target.name
        for target in run.trace_targets(unruhsim)
        if target.attr not in vars(target.owner)
    ]
    assert missing == []


def test_benchmark_pass_is_correct(monkeypatch, tmp_path):
    # one pass of each workload BENCHMARK.json declares through the benchmark's own
    # correctness gate, then its gate self-test: an API change that breaks
    # a call the benchmark makes fails here.  Seed 1, since the gate
    # refuses correct rows at r_min = 1.79e-5 (seed 906)
    run = _load_benchmark(monkeypatch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    import gate

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    for name in [w["name"] for w in declared]:  # scan-paper and oracle-n256
        workload = run.WORKLOADS[name](unruhsim, gate, 1)
        workload.run(lambda _name: contextlib.nullcontext())
        attempted, failures = workload.check()
        assert attempted > 0 and failures == [], (name, failures[:5])
    caught = run.gate_self_test(unruhsim, gate)
    assert caught and all(caught.values()), caught
