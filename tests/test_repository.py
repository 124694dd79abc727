"""What the checkout itself must hold: no build artifacts, correct benchmark records."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

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
