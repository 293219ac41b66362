#!/usr/bin/env python3
"""Frame-route scaling probe: build time and peak RSS for N = 4, 6, ..., 24.

    python3 perfbench/scaling.py

Not a benchmark workload: run it on request, from the repository root.
Each size runs in a fresh interpreter, which builds the table of a seeded
marginal point through the frame route (``FrameParams.independence`` on
the sorted half-rare point, then ``build_nset_epd``) and checks it
against the product table.  Before each size the probe predicts its build
time and peak RSS from the two sizes before it: time grows by their
ratio, at least 4x per two events (the table grows 4x), and the RSS above
the smaller size grows 4x.  A size whose prediction passes either budget
is skipped, and so is every larger one; a size that runs past twice the
time budget is stopped.  The budget is 60 s and 1024 MB per size.  The record, with the first N not built, is
printed and written to .bench_results/scaling.json.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

SEED = 1
MAX_N = 24
BUDGET_S = 60.0
BUDGET_MB = 1024.0
# address-space cap of a child: the RSS budget plus room for the
# interpreter's and numpy's own mappings
LIMIT_MB = 2.0 * BUDGET_MB + 1024.0


def child(n: int) -> None:
    """Build one size and print its record as JSON."""
    limit = int(LIMIT_MB * 2**20)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import numpy as np

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import kopula as ko
    from gen import product_table

    probs = np.random.default_rng([SEED, n]).uniform(0.05, 0.95, n)
    p = ko.MarginalSet.from_values(ko.EventSetContext(n), probs)
    start = time.perf_counter()
    proj = ko.half_rare_projection(p)
    params = ko.FrameParams.independence([proj.point.probs[k] for k in proj.permutation])
    table = ko.build_nset_epd(p, params)
    build_s = time.perf_counter() - start
    print(json.dumps({
        "n": n,
        "build_s": build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_abs_err": float(np.max(np.abs(table.values - product_table(probs)))),
    }))


def predict(sizes: list) -> tuple[float, float]:
    if len(sizes) < 2:
        return 0.0, 0.0
    a, b = sizes[-2], sizes[-1]
    growth = max(4.0, b["build_s"] / a["build_s"])
    return b["build_s"] * growth, b["peak_rss_mb"] + 4.0 * max(0.0, b["peak_rss_mb"] - a["peak_rss_mb"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        child(args.child)
        return 0

    from run import host_record

    sizes, stop = [], None
    for n in range(4, MAX_N + 1, 2):
        pred_s, pred_mb = predict(sizes)
        if pred_s > BUDGET_S or pred_mb > BUDGET_MB:
            stop = {"n": n, "reason": "predicted over budget",
                    "predicted_s": pred_s, "predicted_mb": pred_mb}
            break
        cmd = [sys.executable, os.path.abspath(__file__), "--child", str(n)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=2.0 * BUDGET_S)
        except subprocess.TimeoutExpired:
            stop = {"n": n, "reason": f"stopped after {2.0 * BUDGET_S:g} s"}
            break
        if proc.returncode != 0:
            stop = {"n": n, "reason": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
            break
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row.update(predicted_s=pred_s, predicted_mb=pred_mb)
        sizes.append(row)
        print(f"N={n:2d}  build {row['build_s']:.4f} s  peak RSS {row['peak_rss_mb']:.1f} MB  "
              f"max |err| {row['max_abs_err']:.1e}", flush=True)
        if row["build_s"] > BUDGET_S or row["peak_rss_mb"] > BUDGET_MB:
            stop = {"n": n + 2, "reason": f"N={n} built over budget"}
            break
    record = {
        "seed": SEED,
        "budget_s": BUDGET_S,
        "budget_mb": BUDGET_MB,
        "sizes": sizes,
        "first_skipped_n": stop["n"] if stop else None,
        "stop": stop,
        "host": host_record(os.getcwd()),
    }
    print("first N not built: " + (f"{stop['n']} ({stop['reason']})" if stop else "none"))
    os.makedirs(".bench_results", exist_ok=True)
    with open(os.path.join(".bench_results", "scaling.json"), "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
