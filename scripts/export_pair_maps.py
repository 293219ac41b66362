#!/usr/bin/env python3
"""Export both-events cell maps for the two-event families.

For each selected family the script sweeps (w_x, w_y) over a square
grid and writes one CSV per family with the full four-cell table, plus
a small index file.  Handy for eyeballing how a family moves between
the extremal surfaces.

    python3 scripts/export_pair_maps.py --out maps/ --resolution 41
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

import kopula as ko


def shipped(names, thetas):
    fams = {
        "independent": ko.independent_kopula(ko.pair_context()),
        "frechet_upper": ko.frechet_upper_2(),
        "frechet_lower": ko.frechet_lower_2(),
        "updown_mid": ko.convex_updown_2kopula(0.0),
        "conjugated_sine15": ko.conjugated_2kopula(ko.sine_diff_weight(15.0)),
    }
    for name in ("amh", "clayton", "frank", "gumbel", "joe"):
        fams[f"{name}_{thetas[name]:g}"] = ko.parametric_2kopula(
            ko.classical_pair_param(name, thetas[name]), name
        )
    if names:
        missing = sorted(set(names) - set(fams))
        if missing:
            sys.exit(f"unknown family keys: {missing}; choose from {sorted(fams)}")
        fams = {k: fams[k] for k in names}
    return fams


def write_map(fam, resolution, path):
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["w_x", "w_y", "v_none", "v_x", "v_y", "v_xy"])
        for w in ko.grid_points(2, resolution):
            values, failures = ko.epd_rows_from_kopula(fam, w)
            if failures:
                raise failures[0][1]
            writer.writerows(map(repr, row) for row in np.hstack([w, values]).tolist())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="pair_maps", help="output directory")
    ap.add_argument("--resolution", type=int, default=41, help="points per axis")
    ap.add_argument("--families", nargs="*", default=None,
                    help="subset of family keys to export (default: all)")
    ap.add_argument("--amh", type=float, default=0.5)
    ap.add_argument("--clayton", type=float, default=2.0)
    ap.add_argument("--frank", type=float, default=4.0)
    ap.add_argument("--gumbel", type=float, default=2.0)
    ap.add_argument("--joe", type=float, default=2.0)
    args = ap.parse_args()

    thetas = {k: getattr(args, k) for k in ("amh", "clayton", "frank", "gumbel", "joe")}
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fams = shipped(args.families, thetas)
    rows = []
    for key, fam in fams.items():
        path = out / f"{key}.csv"
        write_map(fam, args.resolution, path)
        rows.append((key, fam.name, path.name))
        print(f"wrote {path} ({args.resolution}x{args.resolution} points)")
    with open(out / "index.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["key", "family", "file"])
        writer.writerows(rows)


if __name__ == "__main__":
    main()
