"""Output checks for the benchmark ops.

Each op in a manifest carries a ``check`` object; ``check_op`` returns
None when the op's exit code and output are right, and a one-line reason
otherwise.  Expected tables come from the generator (``exp/*.npy``), so
the checks never call kopula.
"""

from __future__ import annotations

import json
import os
from itertools import product

import numpy as np


class Expected:
    """Expected arrays of one work directory, loaded once and kept."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, rel: str) -> np.ndarray:
        if rel not in self._arrays:
            self._arrays[rel] = np.load(os.path.join(self.workdir, rel))
        return self._arrays[rel]


def _bits(n: int) -> np.ndarray:
    """(2**n, n) matrix: row X has a 1 for each event in X."""
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)


def _table(path: str, check: dict, expected: Expected) -> str | None:
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    want = expected(check["expect"])
    if doc.get("kind") != check["table_kind"]:
        return f"kind {doc.get('kind')!r}, expected {check['table_kind']!r}"
    values = np.asarray(doc.get("values"), dtype=np.float64)
    if values.shape != want.shape:
        return f"{values.size} values, expected {want.size}"
    diff = float(np.max(np.abs(values - want)))
    if not diff <= check["tol"]:
        return f"max |diff| {diff:.3e} > {check['tol']:g}"
    return None


def _grid(path: str, check: dict) -> tuple[str | None, int]:
    n, res = check["n"], check["resolution"]
    axes = check["axes"]
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    header = [f"w_{k}" for k in range(n)] + ["terrace_mask"] + [f"v_{m}" for m in range(1 << n)]
    if lines[0].split(",") != header:
        return "unexpected CSV header", 0
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    if rows.shape != (res ** len(axes), n + 1 + (1 << n)):
        return f"grid shape {rows.shape}", 0
    axis = np.linspace(0.0, 1.0, res)
    w_want = np.zeros((rows.shape[0], n))
    for k, value in check["fixed"].items():
        w_want[:, int(k)] = value
    w_want[:, axes] = np.array(list(product(axis, repeat=len(axes))))
    w, terrace, v = rows[:, :n], rows[:, n], rows[:, n + 1:]
    if not np.array_equal(w, w_want):
        return "grid points differ from the requested grid", 0
    if not np.array_equal(terrace, (w <= 0.5) @ (1 << np.arange(n))):
        return "terrace_mask differs from the half-rare keep set", 0
    if not np.isfinite(v).all():
        return "infeasible (nan) rows in the grid", 0
    sum_dev = float(np.max(np.abs(v.sum(axis=1) - 1.0)))
    marg_dev = float(np.max(np.abs(v @ _bits(n) - w)))
    if sum_dev > 1e-9 or marg_dev > 1e-9:
        return f"row sum off by {sum_dev:.3e}, marginals off by {marg_dev:.3e}", 0
    return None, rows.shape[0]


def _sample(path: str, check: dict, expected: Expected) -> str | None:
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    table = expected(check["expect"])
    n = int(table.size).bit_length() - 1
    count = check["count"]
    counts = np.asarray(doc["counts"])
    if doc["n_samples"] != count or counts.size != table.size or int(counts.sum()) != count:
        return "sample counts do not add up"
    probs = table @ _bits(n)
    se = np.sqrt(probs * (1.0 - probs) / count)
    dev = np.abs(np.asarray(doc["marginals"]) - probs) / np.maximum(se, 1e-300)
    if not float(dev.max()) <= 5.0:
        return f"sampled marginal {float(dev.max()):.2f} standard errors away"
    return None


def _csv_table(path: str, check: dict, expected: Expected) -> str | None:
    want = expected(check["expect"])
    names = check["labels"]
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if lines[0] != "mask,subset_labels,value" or len(lines) != want.size + 1:
        return "unexpected CSV layout"
    cells = [line.split(",") for line in lines[1:]]
    for mask, (m, label, _) in enumerate(cells):
        if int(m) != mask or label != "&".join(names[k] for k in range(len(names)) if mask >> k & 1):
            return f"row {mask} is labelled {m},{label}"
    diff = float(np.max(np.abs(np.array([c[2] for c in cells], dtype=np.float64) - want)))
    if not diff <= check["tol"]:
        return f"max |diff| {diff:.3e} > {check['tol']:g}"
    return None


def check_op(op: dict, code, stdout: str, stderr: str, workdir: str,
             expected: Expected) -> tuple[str | None, int]:
    """(failure reason or None, grid points verified) for one finished op."""
    check = op["check"]
    if code != op["code"]:
        return f"exit {code}, expected {op['code']}: {stderr.strip()[-300:]}", 0
    out = os.path.join(workdir, op["out"]) if op["out"] else None
    kind = check["kind"]
    if kind == "rejected":
        if out and os.path.exists(out):
            return "a rejected build wrote output", 0
        return (None if stderr.strip() else "a rejected build printed no reason"), 0
    if kind == "validate":
        return (None if check["word"] in stdout else f"report lacks {check['word']!r}"), 0
    if kind == "oracle":
        return (None if "kernels agree" in stdout else "oracle report lacks agreement"), 0
    if kind == "grid":
        return _grid(out, check)
    if kind == "table":
        return _table(out, check, expected), 0
    if kind == "sample":
        return _sample(out, check, expected), 0
    if kind == "csv_table":
        return _csv_table(out, check, expected), 0
    return f"unknown check kind {kind!r}", 0
