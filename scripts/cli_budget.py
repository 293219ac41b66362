#!/usr/bin/env python3
"""CLI budget probe: wall time and peak RSS of the table commands at N = 20, 22, 24.

    python3 scripts/cli_budget.py                  # N = 20, 22, 24
    python3 scripts/cli_budget.py --sizes 6 8

Run it on request; it is neither a test nor a benchmark workload.  For
each N it writes, in a temporary directory, the build config of an
independent family at a seeded marginal point, then runs four commands,
each in a fresh interpreter that imports kopula from this repository's
``src``:

    build    --config cfg.json   --out table.json   (the input of the other three)
    mobius   --config table.json --out out.json
    renumber --config table.json --out out.json --keep 1
    sample   --config table.json --out out.json --n 100000

Each row gives the wall time of the whole process and its peak RSS
(``ru_maxrss``) against the suggested budget of 5 s and 1 GB.  It also
gives the time spent reading the command's JSON input (the table, or
build's config) and the peak RSS once it is read, so what JSON input
costs is on record next to the total.  A child's address space is capped at
3 GB: a command that needs more exits 1 with ``kopula: out of memory``,
and its row says so.  A size whose build fails skips its other commands.
The record of every row is printed last, as one JSON line.
"""

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 1
SAMPLES = 100_000
BUDGET_S = 5.0
BUDGET_MB = 1024.0
LIMIT_MB = 2.0 * BUDGET_MB + 1024.0  # the RSS budget plus room for the interpreter's mappings
TIMEOUT_S = 600.0
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_preamble() -> None:
    """Cap this child's address space at LIMIT_MB and import kopula from ``src``."""
    limit = int(LIMIT_MB * 2**20)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(ROOT / "src"))


def spawn(script: str, args: list, row: dict) -> tuple[dict, str]:
    """Run ``script args`` in a fresh interpreter, one thread per BLAS pool, for at most
    TIMEOUT_S.  Returns ``row`` with the wall time and the JSON record the child
    printed last, and the child's stderr; a child that timed out, failed or printed
    no record gives ``exit`` None and a note instead."""
    env = {**os.environ, **dict.fromkeys(THREADS, "1")}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                              env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**row, "exit": None, "note": f"stopped after {TIMEOUT_S:g} s"}, ""
    row = {**row, "wall_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**row, "exit": None, "note": proc.stderr.strip()[-300:]}, proc.stderr
    return {**row, **json.loads(lines[-1])}, proc.stderr


def child(argv: list) -> None:
    """Run one command in this process and print its record as JSON."""
    child_preamble()
    from kopula import cli

    record = {}
    read_file = cli._read_file

    def timed_read(path, parse):
        start = time.perf_counter()
        obj = read_file(path, parse)
        record.update(read_s=time.perf_counter() - start, read_rss_mb=rss_mb())
        return obj

    cli._read_file = timed_read
    start = time.perf_counter()
    record["exit"] = cli.run(argv)
    record.update(run_s=time.perf_counter() - start, peak_rss_mb=rss_mb())
    print(json.dumps(record))


def run_command(n: int, name: str, argv: list, workdir: str) -> dict:
    row, stderr = spawn(os.path.abspath(__file__), ["--child", "--", *argv],
                        {"n": n, "command": name})
    if row["exit"] is None:
        return row
    if row["exit"] != 0:
        row.update(note=stderr.strip()[-300:], stderr_lines=stderr.count("\n"))
    out = os.path.join(workdir, "out.json")
    if os.path.exists(out):
        row["out_mb"] = os.path.getsize(out) / 2**20
        os.remove(out)
    row["within_budget"] = (row["exit"] == 0 and row["wall_s"] <= BUDGET_S
                            and row["peak_rss_mb"] <= BUDGET_MB)
    return row


def describe(row: dict) -> str:
    text = f"N={row['n']:2d}  {row['command']:8s}"
    if "wall_s" not in row or "peak_rss_mb" not in row:
        return f"{text}  {row['note']}"
    text += f"  {row['wall_s']:6.2f} s  {row['peak_rss_mb']:7.1f} MB"
    if "read_s" in row:
        text += f"  (JSON input {row['read_s']:.2f} s, {row['read_rss_mb']:.1f} MB)"
    if row["exit"] != 0:
        return f"{text}  exit {row['exit']}: {row['note'].splitlines()[-1] if row['note'] else ''}"
    return text + ("  within budget" if row["within_budget"] else "  OVER BUDGET")


def probe(sizes: list, workdir: str) -> list:
    import numpy as np

    rows = []
    for n in sizes:
        cfg = os.path.join(workdir, "cfg.json")
        table = os.path.join(workdir, "table.json")
        out = os.path.join(workdir, "out.json")
        marginals = np.random.default_rng([SEED, n]).uniform(0.05, 0.95, n).tolist()
        with open(cfg, "w", encoding="utf-8") as fp:
            json.dump({"marginals": marginals, "family": "independent"}, fp)
        commands = [
            ("build", ["build", "--config", cfg, "--out", table]),
            ("mobius", ["mobius", "--config", table, "--out", out]),
            ("renumber", ["renumber", "--config", table, "--out", out, "--keep", "1"]),
            ("sample", ["sample", "--config", table, "--out", out, "--n", str(SAMPLES)]),
        ]
        for name, argv in commands:
            row = run_command(n, name, argv, workdir)
            if name == "build" and os.path.exists(table):
                row["out_mb"] = os.path.getsize(table) / 2**20
            rows.append(row)
            print(describe(row), flush=True)
            if name == "build" and row.get("exit") != 0:
                break
        for path in (cfg, table):
            if os.path.exists(path):
                os.remove(path)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[20, 22, 24], metavar="N",
                    help="event counts to run (default: 20 22 24)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.argv)
        return 0
    print(f"budget per command: {BUDGET_S:g} s and {BUDGET_MB:g} MB; "
          f"address space capped at {LIMIT_MB:g} MB", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        rows = probe(args.sizes, workdir)
    print(json.dumps({"seed": SEED, "budget_s": BUDGET_S, "budget_mb": BUDGET_MB,
                      "limit_mb": LIMIT_MB, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
