"""Small constructors shared across test modules.

Kept outside conftest so tests can import them explicitly by name.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from kopula import Epd1, Epd2, EventSetContext


U = 2.0**-53  # the unit roundoff of float64


def finish_bound(n: int) -> float:
    """How far the finish may move the total of a 2**n-cell table off its raw total.

    numpy sums 2**n float64 values pairwise: n - 7 halvings down to blocks
    of 128, each summed in 8 lanes of 16 and the lanes in 3 more rounds,
    so no value meets more than n + 11 roundings (fewer below n = 7).  On
    a dusty table the finish sums the clamped cells (its factor's
    divisor), rounds the factor once and each cell once in the multiply,
    and the finished total is summed again: 2 (n + 11) + 2 roundings, each
    relative to a sum of nonnegative values, the raw total.  One u more
    covers the second-order terms."""
    return (2 * n + 25) * U


def clayton_intersections(n: int, theta: float = 20.0, seed: int = 5):
    """Marginals and second-kind table of {U_k <= q_k} under a Clayton copula, by doubling.

    The q_k are drawn from (0.3, 0.5) and sorted down, so the point is
    already half-rare and ordered; t[S] = (1 + sum over k in S of
    (q_k**-theta - 1))**(-1/theta) is valid at every n for theta > 0."""
    q = np.sort(np.random.default_rng(seed).uniform(0.3, 0.5, n))[::-1]
    s = np.zeros(1)
    for qk in q:
        s = np.concatenate([s, s + (qk**-theta - 1.0)])
    return q, (1.0 + s) ** (-1.0 / theta)


def traced_peak(fn):
    """``fn()`` and the peak of what it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def epd1(context: EventSetContext, values) -> Epd1:
    return Epd1(context, np.asarray(values, dtype=np.float64))


def epd2(context: EventSetContext, values) -> Epd2:
    return Epd2(context, np.asarray(values, dtype=np.float64))


def random_epd1(rng: np.random.Generator, n: int) -> Epd1:
    raw = rng.exponential(size=1 << n)
    return Epd1(EventSetContext(n), raw / raw.sum())


def relabel_mask(mask: int, new_index) -> int:
    """Move bit i of ``mask`` to position ``new_index[i]``."""
    out = 0
    for i, pos in enumerate(new_index):
        if (mask >> i) & 1:
            out |= 1 << pos
    return out


def permute_events(d: Epd1, new_index) -> Epd1:
    """Relabel event i of ``d`` as event ``new_index[i]`` of the result."""
    out = np.empty_like(d.values)
    for m in range(d.context.size):
        out[relabel_mask(m, new_index)] = d.values[m]
    return Epd1(EventSetContext(d.context.n_events), out)


def product_table(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    size = 1 << len(probs)
    masks = np.arange(size)
    out = np.ones(size)
    for k, p in enumerate(probs):
        out *= np.where((masks >> k) & 1, p, 1.0 - p)
    return out


def constrained_epd_sampler(probs, rng, count, scale=0.1, max_tries=400):
    """Random valid first-kind tables whose marginals equal ``probs``.

    Rejection sampling: perturb the product table inside the null space
    of the (sum, marginal) constraints and keep nonnegative candidates.
    Marginals match exactly (the perturbation is constraint-free), the
    nonnegativity rejection is the only filter.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    size = 1 << n
    masks = np.arange(size)
    rows = [np.ones(size)]
    for k in range(n):
        rows.append(((masks >> k) & 1).astype(np.float64))
    a = np.stack(rows)
    _, _, vh = np.linalg.svd(a)
    basis = vh[a.shape[0]:]
    base = product_table(probs)
    out: list[np.ndarray] = []
    for _ in range(max_tries):
        u = rng.uniform(-scale, scale, size=(max(64, 2 * count), basis.shape[0]))
        cand = base + u @ basis
        out.extend(cand[(cand >= 0.0).all(axis=1)])
        if len(out) >= count:
            return np.array(out[:count])
    raise RuntimeError(
        f"rejection sampler stalled: {len(out)}/{count} accepted; lower the scale"
    )
