"""Complementation geometry on the marginal hypercube.

A point w in [0,1]**N holds one occurrence probability per event.  For
any subset Z (the "keep" set) there is a mirrored point

    w'[k] = w[k]        if k in Z
    w'[k] = 1 - w[k]    otherwise

obtained by rephrasing the non-kept events as their complements.  The
same rephrasing acts on a first-kind table as an exact permutation of
its cells: the occurrence pattern T under the new reading corresponds
to the old pattern that agrees with T on Z and disagrees off Z, i.e.

    new[T] = old[~(keep ^ T) & full_mask]

Every marginal point has exactly one mirror image with all coordinates
at most 1/2 (ties at 1/2 are resolved toward keeping the event).  That
canonical image, its keep-set, and the ordering of its coordinates by
decreasing probability drive the constructions in ``kopula.frame``.

On the ``(2,) * N`` tensor view of a table (axis a holds event N-1-a),
complementing events is a flip along their axes and reordering events
is a transpose; ``HalfRareProjection.unsort_masks`` and
``oracles.naive_renumber`` are their index-based references.  The view
is for reorders and flips of several events at once; the cells of one
event are read through ``core._halves``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VALUE_ATOL, Epd1, MarginalSet

__all__ = [
    "HalfRareProjection",
    "phenomenon_point",
    "phenomenon_marginals",
    "half_rare_projection",
    "renumber_epd1",
]


@dataclass(frozen=True)
class HalfRareProjection:
    """Canonical half-rare image of a marginal point.

    point        mirrored probabilities, all <= 1/2
    keep         mask of events left uncomplemented (p <= 1/2 originally)
    permutation  event indices sorted by decreasing mirrored probability,
                 ties broken by ascending index
    """

    point: MarginalSet
    keep: int
    permutation: tuple[int, ...]

    def unsort_masks(self) -> np.ndarray:
        """For each subset mask over the sorted events, the mask over the point's events.

        Sorted bit j stands for event ``permutation[j]``.
        """
        masks = np.arange(self.point.context.size)
        out = np.zeros_like(masks)
        for j, k in enumerate(self.permutation):
            out |= ((masks >> j) & 1) << k
        return out

    def sort_table(self, values: np.ndarray) -> np.ndarray:
        """A table over the point's events, re-indexed over the sorted events."""
        return transpose_events(values, self.permutation).reshape(-1)

    def unsort_unfold(self, values: np.ndarray) -> np.ndarray:
        """A first-kind table over the sorted folded events, read over the point's own:
        the inverse transpose, then a flip back of the folded events, copied once."""
        perm = self.permutation
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        return _flip_events(transpose_events(values, inverse), self.keep).reshape(-1)


def transpose_events(values: np.ndarray, order) -> np.ndarray:
    """Tensor view whose event j is event ``order[j]`` of the table ``values``."""
    n = len(order)
    return np.transpose(values.reshape((2,) * n), [n - 1 - k for k in reversed(order)])


def _flip_events(tensor: np.ndarray, keep: int) -> np.ndarray:
    """The tensor view with every event outside ``keep`` complemented."""
    n = tensor.ndim
    return np.flip(tensor, [n - 1 - k for k in range(n) if not keep >> k & 1])


def phenomenon_point(m: MarginalSet, keep: int) -> MarginalSet:
    """Mirror a marginal point: keep coordinates in ``keep``, flip the rest."""
    m.context.check_mask(keep)
    probs = tuple(
        p if keep & (1 << k) else 1.0 - p for k, p in enumerate(m.probs)
    )
    return MarginalSet.from_values(m.context, probs)


# The mirror map is a coordinate-wise involution, so the same function
# inverts it; phenomenon_marginals is just the semantic alias.
phenomenon_marginals = phenomenon_point


def _rank_folded(probs: tuple[float, ...]) -> tuple[int, ...]:
    # Coordinates within VALUE_ATOL of the current run leader count as
    # tied and fall back to index order; folding computes 1 - p, whose
    # rounding would otherwise split ties like 1 - 0.9 vs 0.1.
    runs: list[list[int]] = []
    for k in sorted(range(len(probs)), key=probs.__getitem__, reverse=True):  # ties by index
        if runs and probs[runs[-1][0]] - probs[k] <= VALUE_ATOL:
            runs[-1].append(k)
        else:
            runs.append([k])
    return tuple(k for run in runs for k in sorted(run))


def _half_rare_keep(w: np.ndarray) -> np.ndarray:
    """The keep mask of each point on the last axis of the array ``w``: its events at most 1/2."""
    return (w <= 0.5) @ (1 << np.arange(w.shape[-1]))


def half_rare_projection(m: MarginalSet) -> HalfRareProjection:
    """Fold every coordinate into [0, 1/2] and rank the folded values.

    A coordinate exactly at 1/2 is never complemented.
    """
    keep = int(_half_rare_keep(np.array(m.probs)))
    point = phenomenon_point(m, keep)  # all <= 1/2, so marked half-rare
    return HalfRareProjection(point=point, keep=keep, permutation=_rank_folded(point.probs))


def renumber_epd1(d: Epd1, keep: int) -> Epd1:
    """Re-read a first-kind table with the events outside ``keep`` complemented.

    A pure cell permutation (an involution for fixed ``keep``): a flip
    of the tensor view.  The marginals of the result are the mirrored
    marginals of the input.
    """
    ctx = d.context
    keep = ctx.check_mask(keep)
    return Epd1(ctx, _flip_events(d.values.reshape((2,) * ctx.n_events), keep))
