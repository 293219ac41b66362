#!/usr/bin/env python3
"""Seeded inputs for the kopula benchmark workloads.

    python3 perfbench/gen.py --workload frame_build --seed 1 --out DIR [--smoke]

Writes the workload's config and table files under DIR/in, the expected
results under DIR/exp (``.npy``), and DIR/manifest.json, which lists the
warm-up op and the op list of one pass.  The same seed gives byte-identical
files.  The generator uses numpy only and never imports kopula: the
program under test receives the generated files and nothing else.

Every random draw comes from ``numpy.random.default_rng([seed, tag, i])``,
so one input does not shift when the count of another group changes.
"""

from __future__ import annotations

import argparse
import json
import os
from functools import reduce

import numpy as np

# frame_build: configs per event count.  A build costs about 4x more per
# two events, so each size adds 1-3 s to a pass; N=12 has the 11th-slowest
# op (op_tail_ms) well inside its group.
FRAME_SIZES = {"full": {8: 96, 10: 32, 12: 12, 14: 2, 16: 1}, "smoke": {8: 4, 10: 2}}
# kor builds are the largest group, so op_p50_ms sits inside it.
KOR_COUNT = {"full": 384, "smoke": 8}
FRAME4_COUNT = {"full": 32, "smoke": 8}
# Op i of a frame group is infeasible when i % 8 == 1: the same positions
# for every seed, so the work of a pass does not depend on the seed.
INFEASIBLE_PERIOD = 8
INFEASIBLE_SLOT = 1

# family_grid
PAIR_FAMILIES = (
    "independent", "frechet_upper", "frechet_lower", "convex_updown", "conjugated",
    "amh", "clayton", "frank", "gumbel", "joe", "convex",
)
PARAMETERLESS = ("independent", "frechet_upper", "frechet_lower")
GRID_RESOLUTION = {"full": 41, "smoke": 9}
VALIDATE_RESOLUTION = {"full": 401, "smoke": 41}
# independent family at n = 3, 4: (grid resolution, validate resolution)
INDEPENDENT_GRID = {"full": {3: (11, 31), 4: (11, 13)}, "smoke": {3: (5, 9), 4: (4, 7)}}

# table_io: stored tables per event count
TABLE_SIZES = {"full": {12: 8, 14: 2, 16: 1}, "smoke": {8: 2, 10: 1}}
SAMPLE_COUNT = {"full": 100_000, "smoke": 5_000}
ORACLE_ARGS = {"full": ["--n", "6"], "smoke": ["--n", "4", "--trials", "10"]}

# seed tags, one per input group
TAG_FRAME, TAG_KOR, TAG_FRAME4, TAG_FAMILY, TAG_TABLE, TAG_WARM = 1, 2, 3, 4, 5, 6


def rng_for(seed: int, tag: int, i: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


# ---------------------------------------------------------------------------
# table arithmetic, independent of kopula


def masks_of(n: int) -> np.ndarray:
    return np.arange(1 << n)


def popcount(masks: np.ndarray) -> np.ndarray:
    count = np.zeros_like(masks)
    rest = masks.copy()
    while rest.any():
        count += rest & 1
        rest >>= 1
    return count


def superset_sums(values: np.ndarray, n: int) -> np.ndarray:
    """Second-kind table: out[X] = sum of values[Y] over supersets Y of X."""
    t = values.astype(np.float64, copy=True).reshape((2,) * n)
    for axis in range(n):
        lead = (slice(None),) * axis
        t[lead + (0,)] += t[lead + (1,)]
    return t.reshape(-1)


def product_table(probs) -> np.ndarray:
    """First-kind table of independent events; bit k is event k."""
    return reduce(np.kron, [np.array([1.0 - p, p]) for p in reversed(list(probs))])


def mixture_table(rng: np.random.Generator, n: int, parts: int = 3) -> np.ndarray:
    """A dependent table: a mixture of product tables, every cell positive."""
    weights = -np.log(rng.random(parts))
    weights /= weights.sum()
    q = rng.uniform(0.05, 0.95, (parts, n))
    return sum(w * product_table(row) for w, row in zip(weights, q))


def complement_outside(values: np.ndarray, n: int, keep: int) -> np.ndarray:
    """Re-read a first-kind table with the events outside ``keep`` complemented."""
    masks = masks_of(n)
    return values[~(keep ^ masks) & ((1 << n) - 1)]


def subset_labels(names) -> list[str]:
    """'&'-joined label of every subset mask, events in ascending bit order."""
    labels = [""]
    for mask in range(1, 1 << len(names)):
        low = (mask & -mask).bit_length() - 1
        rest = labels[mask ^ (1 << low)]
        labels.append(names[low] + ("&" + rest if rest else ""))
    return labels


def fold(values: np.ndarray, n: int) -> np.ndarray:
    """Half-rare image: complement every event with marginal above 1/2."""
    probs = superset_sums(values, n)[1 << np.arange(n)]
    keep = sum(1 << k for k in range(n) if probs[k] <= 0.5)
    return complement_outside(values, n, keep)


# ---------------------------------------------------------------------------
# the top-level feasibility walk of a frame build, restated in numpy


def top_walk_ok(t: np.ndarray, n: int, tol: float = 1e-9) -> bool:
    """Whether a folded intersection table passes the top-level interval walk.

    The frame event is the largest folded marginal.  Every subset s without
    it carries a frame-side value t[s | f] and an off-frame value
    t[s] - t[s | f]; each must lie in the Frechet window its facets give
    (below every facet, above their sum less (|s| - 1) slice masses).
    """
    masks = masks_of(n)
    singles = t[1 << np.arange(n)]
    f = int(np.argmax(singles))
    fb = 1 << f
    p0 = t[fb]
    rest = masks[(masks & fb) == 0]
    size = popcount(rest)
    t_in = t[rest | fb]
    t_out = t[rest] - t_in

    one = size == 1
    lo = np.maximum(0.0, p0 + t[rest[one]] - 1.0)
    hi = np.minimum(p0, t[rest[one]])
    if np.any(t_in[one] < lo - tol) or np.any(t_in[one] > hi + tol):
        return False

    many = size >= 2
    s = rest[many]
    k = size[many]
    sum_in = np.zeros(s.size)
    sum_out = np.zeros(s.size)
    min_in = np.full(s.size, np.inf)
    min_out = np.full(s.size, np.inf)
    for b in range(n):
        has = ((s >> b) & 1).astype(bool)
        sub = s & ~(1 << b)
        f_in = t[sub | fb]
        f_out = t[sub] - f_in
        sum_in += np.where(has, f_in, 0.0)
        sum_out += np.where(has, f_out, 0.0)
        min_in = np.where(has, np.minimum(min_in, f_in), min_in)
        min_out = np.where(has, np.minimum(min_out, f_out), min_out)
    for value, total, upper, mass in (
        (t_in[many], sum_in, min_in, p0),
        (t_out[many], sum_out, min_out, 1.0 - p0),
    ):
        lower = np.maximum(0.0, total - (k - 1) * mass)
        if np.any(lower > upper + tol):
            return False
        if np.any(value < lower - tol) or np.any(value > upper + tol):
            return False
    return True


def break_top(rng, t: np.ndarray, n: int) -> np.ndarray:
    """Push one frame pair intersection past the top of its window."""
    singles = t[1 << np.arange(n)]
    f = int(np.argmax(singles))
    k = int(rng.choice([b for b in range(n) if b != f]))
    out = t.copy()
    out[(1 << f) | (1 << k)] = 1.1 * min(singles[f], singles[k]) + 1e-4
    return out


def break_deep(rng, table: np.ndarray, t: np.ndarray, n: int, tries: int = 64):
    """Make one off-frame cell negative while the top-level walk still passes.

    Moving mass delta off cell C and off C - {j, k}, onto C - {j} and
    C - {k}, keeps every marginal; it lowers the intersections S with
    {j, k} <= S <= C by delta.  With delta just above table[C] only the
    finished table shows the infeasibility.  Returns None when no try
    passes the walk (small n leaves no room).
    """
    if n < 5:
        return None
    f = int(np.argmax(t[1 << np.arange(n)]))
    others = [b for b in range(n) if b != f]
    masks = masks_of(n)
    for _ in range(tries):
        size = int(rng.integers(2, n - 2))
        chosen = rng.choice(others, size=size, replace=False)
        c = int(sum(1 << int(b) for b in chosen))
        j, k = (int(b) for b in rng.choice(chosen, size=2, replace=False))
        jk = (1 << j) | (1 << k)
        delta = table[c] + max(1e-7, 0.01 * table[c])
        out = t.copy()
        hit = ((masks & ~c) == 0) & ((masks & jk) == jk)
        out[hit] -= delta
        if out.min() >= 0.0 and top_walk_ok(out, n):
            return out
    return None


# ---------------------------------------------------------------------------
# workloads


class Writer:
    def __init__(self, out: str) -> None:
        self.out = out
        for sub in ("in", "exp"):
            os.makedirs(os.path.join(out, sub), exist_ok=True)

    def json(self, rel: str, obj) -> str:
        with open(os.path.join(self.out, rel), "w", encoding="utf-8") as fp:
            json.dump(obj, fp)
        return rel

    def npy(self, rel: str, values: np.ndarray) -> str:
        np.save(os.path.join(self.out, rel), np.asarray(values, dtype=np.float64))
        return rel


def interleave(groups: list) -> list:
    """Merge groups of op chains so that each group spreads over the whole pass.

    Chain i of a group of c sits at (i + 1/2) / c of the pass.  The host's
    speed drifts in phases of seconds, so a group run in one block would
    see a single phase; spread out, each group samples the whole pass.
    Ops within a chain (one reads the other's output) stay in order.
    """
    placed = sorted(
        ((i + 0.5) / len(group), g, i)
        for g, group in enumerate(groups) for i in range(len(group))
    )
    return [op for _, g, i in placed for op in groups[g][i]]


def op(op_id, cmd, config, out, args=(), code=0, **check) -> dict:
    return {"id": op_id, "cmd": cmd, "config": config, "out": out,
            "args": list(args), "code": code, "check": check}


def frame_op(w: Writer, rng, op_id: str, n: int, broken: str | None) -> dict:
    """A frame_params build read off a dependent target table.

    ``broken`` is None (feasible), "top" or "deep" (the infeasible kinds).
    """
    table = mixture_table(rng, n)
    folded = fold(table, n)
    t = superset_sums(folded, n)
    kind = None
    if broken == "deep":
        bad = break_deep(rng, folded, t, n)
        if bad is not None:
            t, kind = bad, "deep"
    if broken is not None and kind is None:
        t, kind = break_top(rng, t, n), "top"
    labels = subset_labels([f"x{k}" for k in range(n)])
    probs = superset_sums(table, n)[1 << np.arange(n)]
    config = {
        "marginals": [float(p) for p in probs],
        "frame_params": {labels[m]: float(t[m]) for m in np.flatnonzero(popcount(masks_of(n)) >= 2)},
    }
    cfg = w.json(f"in/{op_id}.json", config)
    if kind is not None:
        return op(op_id, "build", cfg, f"out/{op_id}.json", code=2, kind="rejected", broken=kind)
    exp = w.npy(f"exp/{op_id}.npy", table)
    return op(op_id, "build", cfg, f"out/{op_id}.json", kind="table", expect=exp,
              table_kind="epd1", tol=1e-9)


def kor_from_window(value: float, raw: float, lower: float, upper: float) -> float:
    """Correlation coordinate of ``value`` in [lower, upper] around ``raw``."""
    if value >= raw:
        return 0.0 if upper == raw else (value - raw) / (upper - raw)
    return (value - raw) / (raw - lower)


def kor_op(w: Writer, rng, op_id: str) -> dict:
    """A three-event kor build whose coordinates are read off a target table."""
    while True:
        folded = fold(mixture_table(rng, 3), 3)
        probs = superset_sums(folded, 3)[[1, 2, 4]]
        order = [int(k) for k in np.argsort(-probs, kind="stable")]
        masks = masks_of(3)
        source = sum(((masks >> j) & 1) << order[j] for j in range(3))
        table = folded[source]  # event j of the table is folded event order[j]
        t = superset_sums(table, 3)
        px, py, pz = (float(t[1 << k]) for k in range(3))
        a1, a2, t_in = float(t[0b011]), float(t[0b101]), float(t[0b111])
        t_out = float(t[0b110]) - t_in
        raw_in, raw_out = px * py * pz, (1.0 - px) * py * pz
        lo_in, hi_in = max(0.0, a1 + a2 - px), min(a1, a2)
        lo_out = max(0.0, (py - a1) + (pz - a2) - (1.0 - px))
        hi_out = min(py - a1, pz - a2)
        margin = 1e-6
        if lo_in + margin < raw_in < hi_in - margin and lo_out + margin < raw_out < hi_out - margin:
            break
    kor = {
        "xy": kor_from_window(a1, px * py, max(0.0, px + py - 1.0), min(px, py)),
        "xz": kor_from_window(a2, px * pz, max(0.0, px + pz - 1.0), min(px, pz)),
        "in": kor_from_window(t_in, raw_in, lo_in, hi_in),
        "out": kor_from_window(t_out, raw_out, lo_out, hi_out),
    }
    cfg = w.json(f"in/{op_id}.json", {"marginals": [px, py, pz], "kor": kor})
    exp = w.npy(f"exp/{op_id}.npy", table)
    return op(op_id, "build", cfg, f"out/{op_id}.json", kind="table", expect=exp,
              table_kind="epd1", tol=1e-9)


def gen_frame_build(w: Writer, seed: int, scale: str) -> dict:
    groups = [[[kor_op(w, rng_for(seed, TAG_KOR, i), f"kor3_{i}")] for i in range(KOR_COUNT[scale])]]
    sizes = [(4, FRAME4_COUNT[scale], TAG_FRAME4)]
    sizes += [(n, count, TAG_FRAME) for n, count in sorted(FRAME_SIZES[scale].items())]
    for n, count, tag in sizes:
        group = []
        for i in range(count):
            broken = None
            if i % INFEASIBLE_PERIOD == INFEASIBLE_SLOT:
                broken = "deep" if (i // INFEASIBLE_PERIOD) % 2 == 0 else "top"
            group.append([frame_op(w, rng_for(seed, tag, n * 10_000 + i), f"frame{n}_{i}", n, broken)])
        groups.append(group)
    warm = frame_op(w, rng_for(seed, TAG_WARM), "warm", 8, None)
    return {"warmup": warm, "ops": interleave(groups)}


def pair_family(rng, name: str) -> dict:
    """Config of one shipped pair family with seeded parameters."""
    if name == "independent":
        return {"family": "independent", "n": 2}
    if name in ("frechet_upper", "frechet_lower"):
        return {"family": name}
    if name == "convex_updown":
        return {"family": name, "alpha": float(rng.uniform(-1.0, 1.0))}
    if name == "conjugated":
        return {"family": name, "alpha": {"kind": "sine_diff", "scale": float(rng.uniform(5.0, 20.0))}}
    if name == "amh":
        return {"family": name, "theta": float(rng.uniform(-1.0, 0.95))}
    if name == "clayton":
        theta = rng.uniform(0.2, 6.0) if rng.random() < 0.75 else -rng.uniform(0.1, 0.9)
        return {"family": name, "theta": float(theta)}
    if name == "frank":
        return {"family": name, "theta": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0))}
    if name in ("gumbel", "joe"):
        return {"family": name, "theta": float(rng.uniform(1.0, 6.0))}
    if name == "convex":
        parts = [{"family": "frechet_upper"}, {"family": "frechet_lower"},
                 pair_family(rng, str(rng.choice(["amh", "clayton", "frank", "gumbel", "joe"])))]
        weights = -np.log(rng.random(len(parts)))
        weights = [float(v) for v in weights / weights.sum()]
        weights[-1] = 1.0 - sum(weights[:-1])
        return {"family": "convex", "parts": parts, "weights": weights}
    raise ValueError(f"unknown pair family {name!r}")


def gen_family_grid(w: Writer, seed: int, scale: str) -> dict:
    res = GRID_RESOLUTION[scale]
    vres = str(VALIDATE_RESOLUTION[scale])
    grids, validates = [], []
    for i, name in enumerate(PAIR_FAMILIES):
        rng = rng_for(seed, TAG_FAMILY, i)
        settings = [pair_family(rng, name)]
        if name not in PARAMETERLESS:
            settings.append(pair_family(rng, name))
        for j, fam in enumerate(settings):
            cfg = w.json(f"in/{name}_{j}.json", fam)
            if j == 0:
                grids.append(op(f"grid_{name}", "grid", cfg, f"out/grid_{name}.csv",
                                ["--resolution", str(res)], kind="grid", n=2,
                                axes=[0, 1], fixed={}, resolution=res))
            validates.append(op(f"validate_{name}_{j}", "validate", cfg, None,
                                ["--resolution", vres], kind="validate", word="passes"))
    rng = rng_for(seed, TAG_FAMILY, len(PAIR_FAMILIES))
    for n, (gres, valres) in sorted(INDEPENDENT_GRID[scale].items()):
        axes = list(range(n))
        fixed = {}
        if n == 4:
            axes = [0, 1, 2]
            fixed = {"x3": float(rng.uniform(0.0, 1.0))}
        cfg = w.json(f"in/independent{n}.json",
                     {"family": "independent", "n": n, "axes": axes, "fixed": fixed})
        grids.append(op(f"grid_independent{n}", "grid", cfg, f"out/grid_independent{n}.csv",
                        ["--resolution", str(gres)], kind="grid", n=n, axes=axes,
                        fixed={"3": fixed["x3"]} if fixed else {}, resolution=gres))
        validates.append(op(f"validate_independent{n}", "validate", cfg, None,
                            ["--resolution", str(valres)], kind="validate", word="passes"))
    cfg = w.json("in/quarter_sum.json", {"family": "quarter_sum"})
    validates.append(op("validate_quarter_sum", "validate", cfg, None, ["--resolution", vres],
                        code=3, kind="validate", word="FAILS"))
    warm_cfg = w.json("in/warm.json", pair_family(rng_for(seed, TAG_WARM), "frank"))
    warm = op("warm", "grid", warm_cfg, "out/warm.csv", ["--resolution", "9"], kind="grid",
              n=2, axes=[0, 1], fixed={}, resolution=9)
    return {"warmup": warm, "ops": interleave([[[g] for g in grids], [[v] for v in validates]])}


def gen_table_io(w: Writer, seed: int, scale: str) -> dict:
    chains: dict[int, list] = {}
    tables = [(n, i) for n, count in sorted(TABLE_SIZES[scale].items()) for i in range(count)]
    for idx, (n, i) in enumerate(tables):
        rng = rng_for(seed, TAG_TABLE, idx)
        name = f"t{n}_{i}"
        names = [f"e{k}" for k in range(n)]
        table = mixture_table(rng, n)
        cfg = w.json(f"in/{name}.json", {"kind": "epd1", "n": n, "labels": names,
                                         "values": [float(v) for v in table]})
        exp1 = w.npy(f"exp/{name}_epd1.npy", table)
        exp2 = w.npy(f"exp/{name}_epd2.npy", superset_sums(table, n))
        keep_mask = int(rng.integers(0, 1 << n))
        renumbered = w.npy(f"exp/{name}_renumbered.npy", complement_outside(table, n, keep_mask))
        keep = hex(keep_mask) if idx % 2 == 0 or keep_mask == 0 else subset_labels(names)[keep_mask]
        probs = rng.uniform(0.02, 0.98, n)
        ind_cfg = w.json(f"in/{name}_independent.json",
                         {"marginals": [float(p) for p in probs], "labels": names,
                          "family": "independent"})
        ind_exp = w.npy(f"exp/{name}_independent.npy", product_table(probs))
        chains.setdefault(n, []).append([
            op(f"{name}_to2", "mobius", cfg, f"out/{name}_epd2.json",
               kind="table", expect=exp2, table_kind="epd2", tol=1e-12),
            op(f"{name}_to1", "mobius", f"out/{name}_epd2.json", f"out/{name}_epd1.json",
               kind="table", expect=exp1, table_kind="epd1", tol=1e-12),
            op(f"{name}_renumber", "renumber", cfg, f"out/{name}_r.json", ["--keep", keep],
               kind="table", expect=renumbered, table_kind="epd1", tol=0.0),
            op(f"{name}_renumber_back", "renumber", f"out/{name}_r.json", f"out/{name}_rr.json",
               ["--keep", keep], kind="table", expect=exp1, table_kind="epd1", tol=0.0),
            op(f"{name}_sample", "sample", cfg, f"out/{name}_sample.json",
               ["--n", str(SAMPLE_COUNT[scale]), "--seed", str(int(rng.integers(0, 2**32)))],
               kind="sample", expect=exp1, count=SAMPLE_COUNT[scale]),
            op(f"{name}_csv", "build", ind_cfg, f"out/{name}_independent.csv", ["--format", "csv"],
               kind="csv_table", expect=ind_exp, labels=names, tol=1e-12),
        ])
    oracle = op("oracle", "oracle", None, None, ORACLE_ARGS[scale] + ["--seed", str(seed)],
                kind="oracle")
    ops = interleave(list(chains.values()) + [[[oracle]]])
    warm = op("warm", "mobius", f"in/t{min(TABLE_SIZES[scale])}_0.json", "out/warm.json",
              kind="table", expect=f"exp/t{min(TABLE_SIZES[scale])}_0_epd2.npy",
              table_kind="epd2", tol=1e-12)
    return {"warmup": warm, "ops": ops}


GENERATORS = {"frame_build": gen_frame_build, "family_grid": gen_family_grid,
              "table_io": gen_table_io}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, out: str, smoke: bool = False) -> dict:
    w = Writer(out)
    manifest = GENERATORS[workload](w, seed, "smoke" if smoke else "full")
    manifest.update(workload=workload, seed=seed, smoke=smoke)
    w.json("manifest.json", manifest)
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    ap.add_argument("--smoke", action="store_true", help="reduced sizes for the smoke test")
    args = ap.parse_args()
    manifest = generate(args.workload, args.seed, args.out, args.smoke)
    print(f"{args.workload}: {len(manifest['ops'])} ops written to {args.out}")


if __name__ == "__main__":
    main()
