#!/usr/bin/env python3
"""Large-N checks: valid dense tables build and round-trip through the CLI, and a
broken one is reported in a few lines, at N = 22 and 24.

    python3 scripts/large_n_check.py                  # N = 22, 24
    python3 scripts/large_n_check.py --sizes 6 10

Run it on request; it is neither a test nor a benchmark workload.  Each
step runs in a fresh interpreter that imports kopula from this
repository's ``src``.  For each N, three second-kind tables:

* ``clayton``: the events {U_k <= q_k} under a Clayton copula, theta = 20,
  q_k drawn from (0.3, 0.5) (seed 5) and sorted down, filled by doubling.
  It is valid at every N, and its raw Mobius inverse has dust below zero
  whose clamp adds mass that grows with N (1.5e-9 at N = 22).
* ``independence``: every event at p = 0.99, unfolded, so its inverse is
  ill-conditioned: dust down to -8.8e-11 at N = 24.
* ``rising``: values rising evenly with the mask from 0 to 1, so its
  empty-set entry and every one of its N * 2**(N-1) single-event steps
  break the axioms.  Its ``mobius`` row exits 1 with the 11-line report
  (``stderr_lines``), not ``out of memory``.

The rows, in order for each table:

    build    build_nset_epd on the table's intersections (clayton only)
    write    the second-kind file, 2.json
    mobius   kopula mobius --config 2.json --out 1.json
    back     kopula mobius --config 1.json --out 2b.json (not rising)

Each row gives its exit status (0 when the step returned), wall time and
peak RSS; ``build`` also gives its total's deviation from 1 and the
warnings it raised.  Every step is run by ``cli_budget.py``'s ``spawn``,
its address space capped by that script's ``child_preamble``; the CLI rows
run in its child, and their record keeps its fields, ``within_budget``
against its 5 s and 1 GB included.  A failed
``write`` or ``mobius`` skips the rest of its table.  The record of every
row is printed last, as one JSON line.
"""

import argparse
import json
import os
import sys
import tempfile
import time
import warnings

from cli_budget import child_preamble, rss_mb, run_command, spawn

THETA = 20.0
SEED = 5


def second_kind(kind: str, n: int):
    """(marginals, 2**n second-kind values) of ``kind`` at N = n, by doubling."""
    import numpy as np

    if kind == "rising":
        return None, np.linspace(0.0, 1.0, 1 << n)
    if kind == "independence":
        q = np.full(n, 0.99)
        t = np.ones(1)
        for qk in q:
            t = np.concatenate([t, t * qk])
        return q, t
    q = np.sort(np.random.default_rng(SEED).uniform(0.3, 0.5, n))[::-1]
    s = np.zeros(1)
    for qk in q:
        s = np.concatenate([s, s + (qk**-THETA - 1.0)])
    return q, (1.0 + s) ** (-1.0 / THETA)


def child(step: str, kind: str, n: int, path: str) -> None:
    """Run one library step in this process and print its record as JSON."""
    child_preamble()
    import kopula as ko

    q, t = second_kind(kind, n)
    ctx = ko.EventSetContext(n)
    record = {"exit": 0}
    start = time.perf_counter()
    if step == "write":
        with open(path, "w", encoding="utf-8") as fp:
            ko.save_epd(ko.Epd2(ctx, t), fp)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                d = ko.build_nset_epd(ko.MarginalSet.from_values(ctx, q),
                                      ko.FrameParams.from_epd2(ko.Epd2(ctx, t)))
            except ko.KopulaError as exc:
                record.update(exit=2, note=f"{type(exc).__name__}: {exc}")
            else:
                record["total_dev"] = float(d.values.sum()) - 1.0
        record["warnings"] = [str(w.message) for w in caught]
    record.update(run_s=time.perf_counter() - start, peak_rss_mb=rss_mb())
    print(json.dumps(record))


def run_step(n: int, kind: str, step: str, path: str) -> dict:
    args = ["--child", step, kind, str(n), path]
    return spawn(os.path.abspath(__file__), args, {"n": n, "table": kind, "step": step})[0]


def describe(row: dict) -> str:
    text = f"N={row['n']:2d}  {row['table']:12s} {row['step']:6s}"
    if "wall_s" not in row or "peak_rss_mb" not in row:
        return f"{text}  {row['note']}"
    text += f"  exit {row['exit']}  {row['wall_s']:6.2f} s  {row['peak_rss_mb']:7.1f} MB"
    if "total_dev" in row:
        text += f"  total {row['total_dev']:+.2e}"
    if row.get("warnings"):
        text += f"  warned: {'; '.join(row['warnings'])}"
    if "stderr_lines" in row:
        text += f"  {row['stderr_lines']} lines on stderr"
    if row["exit"] != 0 and row.get("note"):
        text += f"  {row['note'].splitlines()[-1]}"
    return text


def probe(sizes: list, workdir: str) -> list:
    rows = []
    first, second, back = (os.path.join(workdir, f) for f in ("1.json", "2.json", "2b.json"))
    for n in sizes:
        for kind in ("clayton", "independence", "rising"):
            steps = [("build", None)] if kind == "clayton" else []
            steps += [("write", None), ("mobius", ["mobius", "--config", second, "--out", first])]
            if kind != "rising":
                steps += [("back", ["mobius", "--config", first, "--out", back])]
            for step, argv in steps:
                if argv is None:
                    row = run_step(n, kind, step, second)
                else:
                    row = {"table": kind, "step": step, **run_command(n, step, argv, workdir)}
                rows.append(row)
                print(describe(row), flush=True)
                if row.get("exit") != 0 and step != "build":  # the others read what it wrote
                    break
            for path in (first, second, back):
                if os.path.exists(path):
                    os.remove(path)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[22, 24], metavar="N",
                    help="event counts to run (default: 22 24)")
    ap.add_argument("--child", nargs=4, metavar=("STEP", "TABLE", "N", "PATH"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        step, kind, n, path = args.child
        child(step, kind, int(n), path)
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        rows = probe(args.sizes, workdir)
    print(json.dumps({"theta": THETA, "seed": SEED, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
