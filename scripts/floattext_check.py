#!/usr/bin/env python3
"""Float-text check: the table writers' kernel against ``repr`` on random bit patterns.

    python3 scripts/floattext_check.py                   # 1 million values
    python3 scripts/floattext_check.py --millions 20 --seed 3

Run it on request; it is neither a test nor a benchmark workload.  It
draws uniform 64-bit patterns from a seeded PCG64 stream, so every
exponent, both signs and the subnormals come up, and keeps the finite
ones.  It formats them in blocks of 2^12 values, the writers' block, with
``kopula._floattext.join_reprs`` and with ``repr``, imported from this
repository's ``src``, and compares the text of every value.  It prints up
to ten mismatches, each side's throughput in values per second, and last
the record as one JSON line.  It exits 1 if any value differs.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kopula._floattext import join_reprs  # noqa: E402

BLOCK = 1 << 12
SHOWN = 10


def check(count: int, seed: int) -> dict:
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = finite = mismatches = 0
    kernel_s = repr_s = 0.0
    while drawn < count:
        bits = rng.integers(0, 1 << 64, min(BLOCK, count - drawn), dtype=np.uint64)
        drawn += bits.size
        block = bits.view(np.float64)
        block = block[np.isfinite(block)]
        finite += block.size
        start = time.perf_counter()
        ours = join_reprs(block, ",")
        kernel_s += time.perf_counter() - start
        start = time.perf_counter()
        theirs = ",".join(map(repr, block.tolist()))
        repr_s += time.perf_counter() - start
        if ours == theirs:
            continue
        ours, theirs = ours.split(","), theirs.split(",")
        mismatches += abs(len(ours) - len(theirs))
        for value, a, b in zip(block.tolist(), ours, theirs):
            if a != b:
                mismatches += 1
                if mismatches <= SHOWN:
                    print(f"mismatch: {value.hex()}  join_reprs {a!r}  repr {b!r}", flush=True)
    return {"seed": seed, "drawn": drawn, "finite": finite, "mismatches": mismatches,
            "kernel_values_per_s": finite / kernel_s, "repr_values_per_s": finite / repr_s}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--millions", type=float, default=1.0,
                    help="bit patterns to draw, in millions (default: 1)")
    ap.add_argument("--seed", type=int, default=1, help="PCG64 seed (default: 1)")
    args = ap.parse_args()
    record = check(max(1, round(args.millions * 1e6)), args.seed)
    print(f"{record['finite']:,} finite of {record['drawn']:,} bit patterns, "
          f"{record['mismatches']} mismatches; "
          f"join_reprs {record['kernel_values_per_s'] / 1e6:.2f} M values/s, "
          f"repr {record['repr_values_per_s'] / 1e6:.2f} M values/s", flush=True)
    print(json.dumps(record))
    return 1 if record["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
