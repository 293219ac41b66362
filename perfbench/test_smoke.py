"""Smoke tests of the benchmark itself, kept out of the tier-1 suite.

    python3 -m pytest -q perfbench/test_smoke.py

The tier-1 suite collects tests/ only.  These run each workload once at
reduced sizes, untraced and traced, and check that every output check
passes and that every metric BENCHMARK.json names is reported.
"""

import filecmp
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_is_correct_and_complete(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] == 1.0
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_byte_identical_per_seed(workload):
    work = ROOT / ".bench_work" / f"test-gen-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            subprocess.run(
                [sys.executable, "perfbench/gen.py", "--workload", workload, "--seed", str(seed),
                 "--out", str(work / name), "--smoke"],
                cwd=ROOT, check=True, capture_output=True, timeout=300,
            )
        files = sorted(p.relative_to(work / "a") for p in (work / "a").rglob("*") if p.is_file())
        _, mismatch, errors = filecmp.cmpfiles(work / "a", work / "b", files, shallow=False)
        assert files and not mismatch and not errors
        _, mismatch, _ = filecmp.cmpfiles(work / "a", work / "c", files, shallow=False)
        assert mismatch
    finally:
        shutil.rmtree(work, ignore_errors=True)
