"""Smoke runs of the scripts under ``scripts/``."""

import csv
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_kor_sweep_writes_one_row_per_grid_point(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("kor_sweep.py", "--resolution", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["kor_xy", "kor_in", "a1", "a2", "t_in", "t_out"] + [
        f"v_{m}" for m in range(8)
    ]
    assert len(rows) == 1 + 9
    for row in rows[1:]:
        cells = [float(v) for v in row[6:]]
        assert min(cells) >= 0.0 and abs(sum(cells) - 1.0) <= 1e-12


def test_export_pair_maps_writes_one_row_per_grid_point(tmp_path):
    proc = run_script(
        "export_pair_maps.py", "--resolution", "3", "--out", str(tmp_path),
        "--families", "frank_4", "conjugated_sine15",
    )
    assert proc.returncode == 0, proc.stderr
    for key in ("frank_4", "conjugated_sine15"):
        with open(tmp_path / f"{key}.csv", encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["w_x", "w_y", "v_none", "v_x", "v_y", "v_xy"]
        assert len(rows) == 1 + 9
        for row in rows[1:]:
            cells = [float(v) for v in row[2:]]
            assert min(cells) >= 0.0 and abs(sum(cells) - 1.0) <= 1e-12


def test_cli_budget_runs_every_table_command():
    proc = run_script("cli_budget.py", "--sizes", "4", "8")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = record["rows"]
    assert [(r["n"], r["command"]) for r in rows] == [
        (n, c) for n in (4, 8) for c in ("build", "mobius", "renumber", "sample")
    ]
    for row in rows:
        assert row["exit"] == 0 and row["within_budget"], row
        assert 0 < row["read_s"] <= row["run_s"] < row["wall_s"]
        assert 0 < row["read_rss_mb"] <= row["peak_rss_mb"]
        assert row["out_mb"] > 0


def test_large_n_check_builds_and_round_trips_every_table():
    proc = run_script("large_n_check.py", "--sizes", "10")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.strip().splitlines()[-1])["rows"]
    assert [(r["n"], r["table"], r["step"]) for r in rows] == [
        (10, "clayton", s) for s in ("build", "write", "mobius", "back")
    ] + [(10, "independence", s) for s in ("write", "mobius", "back")] + [
        (10, "rising", s) for s in ("write", "mobius")
    ]
    *valid, rising = rows
    for row in valid:
        assert row["exit"] == 0, row
    # the empty-set line and 10 * 2**9 steps up: 10 lines, then one for the rest
    assert rising["exit"] == 1 and rising["stderr_lines"] == 11, rising
    assert rising["note"].endswith("… and 5111 more"), rising
    assert [w.endswith("slightly negative cell(s) to 0") for w in rows[0]["warnings"]] == [True]


def test_floattext_check_agrees_on_random_bit_patterns():
    proc = run_script("floattext_check.py", "--millions", "0.01", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["drawn"] == 10_000 and 9_980 <= record["finite"] <= 10_000
    assert record["mismatches"] == 0
    assert record["kernel_values_per_s"] > 0 and record["repr_values_per_s"] > 0
