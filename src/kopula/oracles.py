"""Brute-force reference implementations.

Everything here is deliberately slow and obvious: plain double loops
over subset pairs, no tensor tricks.  Each loop reads its table once
(``tolist()``) and steps over Python floats and lists, so no step does
its arithmetic on a numpy scalar; the additions and products, and their
order, are those of the plain loops, so the results are bit for bit
what the same loops give on numpy scalars (tests/test_oracle_digests.py
pins them).  The fast paths in ``core``, ``phenomena``, ``frame`` and
``serialize`` are tested against these on small N, and the ``oracle``
CLI subcommand cross-checks them at runtime.
"""

from __future__ import annotations

import itertools
import json
import warnings
from typing import IO

import numpy as np

from .core import Epd1, Epd2, EventSetContext, InfeasibleParameterError, MarginalSet
from .families import KopulaFamily, epd_from_kopula
from .frame import FrechetInterval, frechet_bounds
from .phenomena import half_rare_projection

__all__ = [
    "naive_epd2_from_epd1",
    "naive_epd1_from_epd2",
    "naive_marginals",
    "naive_renumber",
    "product_epd1",
    "recursive_frame_epd1",
    "naive_interval_walk",
    "pointwise_grid",
    "reference_dump_json",
    "naive_epd_csv",
]


def naive_epd2_from_epd1(d: Epd1) -> Epd2:
    """Superset sums by direct enumeration, O(4**N)."""
    size = d.context.size
    v = d.values.tolist()
    out = [0.0] * size
    for x in range(size):
        for y in range(x, size):  # a superset of x is at least x
            if x & y == x:
                out[x] += v[y]
    return Epd2(d.context, out)


def naive_epd1_from_epd2(d: Epd2) -> Epd1:
    """Alternating superset sums by direct enumeration, O(4**N)."""
    size = d.context.size
    v = d.values.tolist()
    out = [0.0] * size
    for x in range(size):
        for y in range(x, size):
            if x & y == x:
                sign = -1.0 if bin(y & ~x).count("1") % 2 else 1.0
                out[x] += sign * v[y]
    return Epd1(d.context, out)


def naive_marginals(d: Epd1) -> MarginalSet:
    n = d.context.n_events
    v = d.values.tolist()
    probs = [0.0] * n
    for mask in range(d.context.size):
        for k in range(n):
            if mask & (1 << k):
                probs[k] += v[mask]
    return MarginalSet.from_values(d.context, probs)


def naive_renumber(d: Epd1, keep: int) -> Epd1:
    """Event-by-event complementation by re-deriving each output cell.

    Output cell T collects the input mass of the unique pattern S whose
    kept events agree with T and whose complemented events disagree.
    """
    n = d.context.n_events
    size = d.context.size
    v = d.values.tolist()
    out = [0.0] * size
    for t in range(size):
        s = 0
        for k in range(n):
            bit = 1 << k
            t_has = bool(t & bit)
            if keep & bit:
                s_has = t_has
            else:
                s_has = not t_has
            if s_has:
                s |= bit
        out[t] = v[s]
    return Epd1(d.context, out)


def product_epd1(context: EventSetContext, probs) -> Epd1:
    """Exact-pattern table of fully independent events."""
    p = [float(probs[k]) for k in range(context.n_events)]
    out = [0.0] * context.size
    for mask in range(context.size):
        v = 1.0
        for k, pk in enumerate(p):
            v *= pk if mask & (1 << k) else 1.0 - pk
        out[mask] = v
    return Epd1(context, out)


def _compose(t: list[float]) -> list[float]:
    size = len(t)
    if size == 2:
        return [1.0 - t[1], t[1]]
    n = size.bit_length() - 1
    marg = [t[1 << k] for k in range(n)]
    p0 = max(marg)
    bit = 1 << marg.index(p0)  # the first largest
    full = [m for m in range(size) if not m & bit]
    t_in = [t[m | bit] for m in full]
    t_out = [t[m] - a for m, a in zip(full, t_in)]
    t_in[0] = 1.0
    t_out[0] = 1.0
    q_in = _compose(t_in)
    q_out = _compose(t_out)
    q_in[0] -= 1.0 - p0
    q_out[0] -= p0
    out = [0.0] * size
    for m, a, b in zip(full, q_in, q_out):
        out[m | bit] = a
        out[m] = b
    return out


def recursive_frame_epd1(d: Epd2) -> Epd1:
    """First-kind table from a completed intersection table, by the frame recursion.

    At each level the largest-marginal event (lowest index on ties)
    frames the split; both slices are completed as distributions of
    their own, rebuilt the same way, and interleaved back.  Nothing is
    checked: an infeasible table comes back with negative cells.
    """
    return Epd1(d.context, _compose(d.values.tolist()))


def _fit_value(value: float, iv: FrechetInterval, what: str, policy: str) -> float:
    if iv.lower <= value <= iv.upper:
        return value
    if iv.contains(value) or policy == "clamp":
        warnings.warn(
            f"{what} = {value!r} clamped into [{iv.lower!r}, {iv.upper!r}]",
            RuntimeWarning,
            stacklevel=3,
        )
        return iv.clamp(value)
    raise InfeasibleParameterError(
        f"{what} = {value!r} outside the admissible interval "
        f"[{iv.lower!r}, {iv.upper!r}]"
    )


def naive_interval_walk(t: np.ndarray, policy: str) -> None:
    """The top-level interval walk of a dense intersection table, mask by mask.

    Event 0 is the frame.  Values are checked (and possibly clamped in
    place, one warning each) in ascending subset size, so every
    interval is built from already-vetted facets.
    """
    size = t.shape[0]
    n = size.bit_length() - 1
    p0 = float(t[1])
    for k in range(1, n):
        iv = frechet_bounds({}, 1 << k, float(t[1 << k]), p0)
        name = f"pair intersection of ordered events (0, {k})"
        t[(1 << k) | 1] = _fit_value(float(t[(1 << k) | 1]), iv, name, policy)
    higher = sorted(
        (
            mask
            for mask in range(size)
            if not mask & 1 and bin(mask).count("1") >= 2
        ),
        key=lambda m: (bin(m).count("1"), m),
    )
    for s in higher:
        bits = tuple(b for b in range(n) if s & (1 << b))
        known_in = {s & ~(1 << b): float(t[(s & ~(1 << b)) | 1]) for b in bits}
        iv_in = frechet_bounds(known_in, s, None, p0)
        name_in = f"frame-side intersection of ordered events {(0,) + bits}"
        v_in = _fit_value(float(t[s | 1]), iv_in, name_in, policy)
        t[s | 1] = v_in
        known_out = {
            s & ~(1 << b): float(t[s & ~(1 << b)]) - float(t[(s & ~(1 << b)) | 1])
            for b in bits
        }
        iv_out = frechet_bounds(known_out, s, None, 1.0 - p0)
        name_out = f"off-frame intersection of ordered events {bits}"
        v_out = _fit_value(float(t[s]) - v_in, iv_out, name_out, policy)
        t[s] = v_out + v_in


def pointwise_grid(
    k: KopulaFamily, resolution: int, axes, fixed
) -> tuple[list[str], list[str]]:
    """The CSV rows and the infeasibility notes of a ``grid`` sweep, point by point.

    Each point gets its own MarginalSet, half-rare projection and
    ``epd_from_kopula`` call; an infeasible point is a row of NaN and one
    note.
    """
    ctx = k.context
    rows, notes = [], []
    for combo in itertools.product(np.linspace(0.0, 1.0, resolution), repeat=len(axes)):
        w = [0.0] * ctx.n_events
        for e, v in fixed.items():
            w[e] = float(v)
        for e, v in zip(axes, combo):
            w[e] = float(v)
        point = MarginalSet.from_values(ctx, w)
        keep = half_rare_projection(point).keep
        try:
            values = epd_from_kopula(k, point).values
        except InfeasibleParameterError as exc:
            values = np.full(ctx.size, np.nan)
            notes.append(f"grid: infeasible at {tuple(w)}: {exc}")
        rows.append(
            ",".join(repr(float(v)) for v in w)
            + f",{keep},"
            + ",".join(repr(float(v)) for v in values)
        )
    return rows, notes


def reference_dump_json(obj) -> str:
    """Canonical JSON text by the standard library's indented encoder, value by value."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def naive_epd_csv(d: Epd1 | Epd2, fp: IO[str]) -> None:
    """CSV export one row at a time, each subset named by ``mask_label``."""
    fp.write("mask,subset_labels,value\n")
    for mask, value in enumerate(d.values.tolist()):
        fp.write(f"{mask},{d.context.mask_label(mask)},{value!r}\n")
