"""Recursive construction of joint tables from marginals and intersections.

The construction picks a frame event x and splits any first-kind table
over n events into two joint slices over the remaining n-1 events: the
cells where x occurred and the cells where it did not.  Each slice is a
"pseudo" distribution: nonnegative, but summing to the cell mass (p_x
or 1 - p_x) rather than 1.  Adding the missing mass to the empty-set
entry of a slice turns it into a genuine distribution whose marginals
and intersections are plain unconditional probabilities:

    in-slice:   marginal of k is P(x and k),  intersections P(x and S)
    out-slice:  marginal of k is p_k - P(x and k), etc.

So a full table over n events is determined by the per-event
probabilities plus one intersection probability per subset of size >= 2,
applied recursively.  The table the recursion reaches is the unique one
whose intersections are the given ones: the superset Möbius inverse of
the completed intersection table.  The recursion itself is kept as the
reference ``oracles.recursive_frame_epd1``.

The intersections live in one dense array indexed by subset mask, NaN
where nothing is supplied (``FrameParams.table``).  Feasibility is a
chain of Fréchet windows: an intersection with k facets in a slice of
mass m lies in [max(0, sum of facets - (k-1) m), min of facets]
(``frechet_bounds``); a window inverted by at most VALUE_ATOL collapses
to its midpoint, by more it is empty.

``build_nset_epd`` (any point), ``triplet_epd`` and ``quadruplet_epd``
(ordered half-rare points) run one pipeline and differ only in the
marginal check and the unfold: complete the intersection table, walk
the windows of the top-level frame split if needed, invert it, unfold
(the inverse sort and fold of ``build_nset_epd``, a transpose and flip
of the tensor view), finish (``core._finish_epd1``: clamp the dust, give
its mass back, check the total).  The walk runs under "clamp", before
the first inversion, and under "raise" when a cell is negative, so that
the error names the first offending window; every slack it checks is a
nonnegative combination of cells.  It takes one subset size at a time,
the masks of that size read from one int8 array of sizes, holding the
running sums and minima of their facets.  Anything infeasible deeper
down is a negative cell, rejected by ``core._finish_epd1``, the one
finish of every route.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CompositionError,
    ConditioningError,
    ContextError,
    DependencyError,
    Epd1,
    Epd2,
    EventSetContext,
    InfeasibleParameterError,
    MAX_EVENTS,
    MarginalSet,
    ParameterRangeError,
    SUM_ATOL,
    VALUE_ATOL,
    _MASS_EPS,
    _Table,
    _finish_epd1,
    _halves,
    _is_int,
    _superset_mobius,
    clean_unit_interval,
    mask_bits,
)
from .phenomena import _rank_folded, half_rare_projection, transpose_events

__all__ = [
    "PseudoDistribution",
    "FrameParams",
    "FrechetInterval",
    "FullProbabilityReport",
    "conditional_epd",
    "pseudo_from_conditional",
    "conditional_from_pseudo",
    "frame_split",
    "frame_compose",
    "frechet_bounds",
    "triplet_epd",
    "quadruplet_epd",
    "build_nset_epd",
    "full_probability_check",
]


def _drop_event_context(ctx: EventSetContext, frame_events: int) -> EventSetContext:
    labels = tuple(
        lab for k, lab in enumerate(ctx.labels) if not frame_events & (1 << k)
    )
    if not labels:
        raise ConditioningError("conditioning must leave at least one free event")
    return EventSetContext(len(labels), labels)


# ---------------------------------------------------------------------------
# pseudo distributions and the frame split


@dataclass(frozen=True, eq=False)
class PseudoDistribution(_Table):
    """A joint slice: one frame cell of a larger table, mass below 1.

    ``values[S]`` is the probability of pattern S among the remaining
    events AND the frame cell; the values sum to the cell probability.
    """

    _size_error = CompositionError

    @property
    def mass(self) -> float:
        return float(self.values.sum())

    def own_epd(self) -> Epd1:
        """The slice as a distribution in its own right.

        The missing mass goes to the empty set; every other entry is
        unchanged, so marginals of the result are the plain joint
        probabilities P(frame cell and event k).
        """
        v = self.values.copy()
        v[0] += 1.0 - self.mass
        return Epd1._adopt(self.context, v)

    @classmethod
    def from_own_epd(cls, epd: Epd1, cell_mass: float) -> "PseudoDistribution":
        """Inverse of ``own_epd`` for a cell of the given probability.

        The slice's empty cell is ``values[0] - (1 - cell_mass)``: below
        -VALUE_ATOL that is a CompositionError, and dust below it is +0.0.
        """
        cell_mass = float(clean_unit_interval(cell_mass, "cell mass".format))
        v = epd.values.copy()
        empty = float(v[0]) - (1.0 - cell_mass)
        if empty < -VALUE_ATOL:
            raise CompositionError(
                f"cell mass = {cell_mass!r} below the smallest admissible, "
                f"1 - values[0] = {1.0 - float(v[0])!r}"
            )
        v[0] = empty if empty > 0.0 else 0.0
        return cls._adopt(epd.context, v)


def conditional_epd(
    joint: Epd1, y_subset: int, frame_events: int | None = None
) -> Epd1:
    """Restrict a table to one frame cell and renormalize.

    ``frame_events`` names the events being pinned; ``y_subset`` (a
    submask of it) says which of them occurred.  By default the two
    coincide: condition on every event of ``y_subset`` occurring.  The
    result lives on the remaining events.
    """
    ctx = joint.context
    if frame_events is None:
        frame_events = y_subset
    ctx.check_mask(frame_events)
    ctx.check_mask(y_subset)
    if y_subset & ~frame_events:
        raise ConditioningError(
            f"pattern {ctx.mask_label(y_subset)!r} is not a submask of the "
            f"frame events {ctx.mask_label(frame_events)!r}"
        )
    sub_ctx = _drop_event_context(ctx, frame_events)
    # the frame cell, one view (the frame events lead, last first, then the free
    # events in mask order) copied once in C order: the copy is summed, so the
    # mass rounds as a contiguous sum does, and becomes the result in place
    frame = list(mask_bits(frame_events))
    free = [k for k in range(ctx.n_events) if not frame_events >> k & 1]
    cell = tuple(y_subset >> k & 1 for k in reversed(frame))
    block = transpose_events(joint.values, free + frame)[cell].copy()
    mass = float(block.sum())
    if mass <= _MASS_EPS:
        raise ConditioningError(
            f"frame cell {{{ctx.mask_label(y_subset)}}} of "
            f"{{{ctx.mask_label(frame_events)}}} has numerically zero mass ({mass:g})"
        )
    block /= mass
    return Epd1._adopt(sub_ctx, block)


def pseudo_from_conditional(cond: Epd1, frame_prob: float) -> PseudoDistribution:
    """Scale a conditional table back into a joint slice."""
    frame_prob = float(clean_unit_interval(frame_prob, "frame probability".format))
    if frame_prob == 0.0:
        # the inverse map is undefined on a massless slice
        raise ConditioningError("frame probability is zero")
    return PseudoDistribution._adopt(cond.context, cond.values * frame_prob)


def conditional_from_pseudo(pseudo: PseudoDistribution) -> Epd1:
    mass = pseudo.mass
    if mass <= _MASS_EPS:
        raise ConditioningError(f"slice has numerically zero mass ({mass:g})")
    return Epd1._adopt(pseudo.context, pseudo.values / mass)


def frame_split(joint: Epd1, frame_event: int) -> tuple[PseudoDistribution, PseudoDistribution]:
    """The two slices of a table along one event: (occurred, did not)."""
    ctx = joint.context
    if not 0 <= frame_event < ctx.n_events:
        raise ConditioningError(f"no event with index {frame_event}")
    if ctx.n_events == 1:
        raise ConditioningError("splitting needs at least two events")
    sub_ctx = _drop_event_context(ctx, 1 << frame_event)
    without, with_event = _halves(joint.values, frame_event)
    return PseudoDistribution(sub_ctx, with_event), PseudoDistribution(sub_ctx, without)


def frame_compose(
    pseudo_in: PseudoDistribution,
    pseudo_out: PseudoDistribution,
    p0: float,
    frame_label: str | None = None,
) -> Epd1:
    """Reassemble a table from its two slices along a new lowest event.

    The frame event becomes bit 0 of the result; the slice events shift
    up one position.  ``p0`` must match the in-slice mass, and the two
    masses must sum to 1 (both within SUM_ATOL).
    """
    pseudo_in.context.require_same(pseudo_out.context, "frame_compose")
    m_in, m_out = pseudo_in.mass, pseudo_out.mass
    if abs(m_in - p0) > SUM_ATOL:
        raise CompositionError(
            f"in-slice mass {m_in!r} does not match the frame probability {p0!r}"
        )
    if abs(m_in + m_out - 1.0) > SUM_ATOL:
        raise CompositionError(f"slice masses sum to {m_in + m_out!r}, not 1")
    old = pseudo_in.context.labels
    if frame_label is None:
        k = 0
        while f"f{k}" in old:
            k += 1
        frame_label = f"f{k}"
    ctx = EventSetContext(len(old) + 1, (frame_label,) + old)
    return Epd1._adopt(ctx, np.stack((pseudo_out.values, pseudo_in.values), axis=-1))


# ---------------------------------------------------------------------------
# intersection parameters and their feasibility intervals


def _inverted_window_rule(lo, up):
    """(lower, upper, empty), elementwise: an inversion within VALUE_ATOL collapses
    to the midpoint; a larger one leaves the window empty."""
    inverted, mid = lo > up, 0.5 * (lo + up)
    return np.where(inverted, mid, lo), np.where(inverted, mid, up), lo - up > VALUE_ATOL


def _frechet_window(total, least, k: int, mass):
    """[max(0, total - (k-1) mass), least] for k facets summing to ``total``, the
    smallest being ``least`` (floats or arrays); a pair window has facets
    (p, frame mass) and mass 1.  A NaN input gives a NaN lower end."""
    lower = total - (k - 1) * mass
    if isinstance(lower, np.ndarray):
        return np.maximum(0.0, lower), least
    return max(lower, 0.0), least  # builtins: no array round trip per scalar call


@dataclass(frozen=True)
class FrechetInterval:
    """Closed admissible interval for one intersection probability."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lo, up = float(self.lower), float(self.upper)
        if lo > up:  # only an inverted window needs the rule
            new_lo, new_up, empty = _inverted_window_rule(lo, up)
            if empty:
                raise InfeasibleParameterError(f"empty feasibility interval [{lo!r}, {up!r}]")
            lo, up = float(new_lo), float(new_up)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    def contains(self, value: float, tol: float = VALUE_ATOL) -> bool:
        return self.lower - tol <= value <= self.upper + tol

    def clamp(self, value: float) -> float:
        return min(max(value, self.lower), self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def frechet_bounds(
    known: Mapping[int, float],
    target: int,
    p: float | None,
    frame_prob: float,
) -> FrechetInterval:
    """Admissible interval for one slice intersection value.

    ``frame_prob`` is the mass of the slice being filled.  For a single
    event (``target`` has one bit) the interval is the classical pair
    window against that mass, and ``p`` must carry the event's own
    probability.  For larger targets the interval comes from the facet
    values in ``known``, keyed by ``target`` with one bit removed:
    below every facet, and above their sum less (size-1) slice masses.
    """
    bits = list(mask_bits(target))
    if not bits:
        raise ParameterRangeError("target subset must be non-empty")
    if len(bits) == 1:
        if p is None:
            raise DependencyError(
                "single-event bounds need the event's own probability"
            )
        facets = [p, frame_prob]
        mass = 1.0
    else:
        facets = []
        mass = frame_prob
        for b in bits:
            key = target & ~(1 << b)
            if key not in known:
                raise DependencyError(
                    f"facet value for submask {key:#b} of target {target:#b} not supplied"
                )
            facets.append(float(known[key]))
    lower, upper = _frechet_window(sum(facets), min(facets), len(facets), mass)
    if lower != lower:  # a NaN input
        raise ParameterRangeError(
            f"NaN in the bounds of subset {target:#b}: values {facets}, frame mass {frame_prob!r}"
        )
    return FrechetInterval(lower, upper)


@functools.cache
def _low_masks(n: int) -> np.ndarray:
    """The empty set, then the single events: the entries the marginals fill."""
    return np.concatenate(([0], 1 << np.arange(n)))


def _event_count(n) -> int:
    if not _is_int(n) or not 1 <= n <= MAX_EVENTS:
        raise ParameterRangeError(f"n_events must be an integer in [1, {MAX_EVENTS}], got {n!r}")
    return int(n)


@dataclass(frozen=True, eq=False)
class FrameParams:
    """Intersection probabilities for every subset of size two or more.

    ``table`` is a frozen float64 array of length 2**n_events indexed by
    subset mask, NaN where no value is supplied and always NaN at the
    empty set and the single events, which the marginals fill; a
    mask-keyed mapping is accepted in its place.  Masks refer to the
    events the table will be built over: for ``build_nset_epd``, the
    caller's events folded and sorted, largest marginal first.
    Equality is identity, as for ``Epd1``.
    """

    n_events: int
    table: np.ndarray = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = _event_count(self.n_events)
        src = self.table
        if isinstance(src, Mapping):
            try:
                masks = np.fromiter(src, np.int64, len(src))
                values = np.fromiter(src.values(), np.float64, len(src))
            except (TypeError, ValueError, OverflowError):  # e.g. a NaN key, a list value
                raise ParameterRangeError("parameters must map subset masks to numbers") from None
            bad = (masks >> n != 0) | np.isnan(values)
            if bad.any():
                i = int(np.argmax(bad))
                raise ParameterRangeError(
                    f"parameter {int(masks[i]):#b} = {values[i]}: key outside {n} events, or NaN"
                )
            src = np.full(1 << n, np.nan)
            src[masks] = values
        t = clean_unit_interval(src, "intersection for {:#b}".format, missing_ok=True)
        if t.shape != (1 << n,):
            raise ParameterRangeError(f"expected {1 << n} table entries, got shape {t.shape}")
        supplied = _low_masks(n)[~np.isnan(t[_low_masks(n)])]
        if supplied.size:
            raise ParameterRangeError(
                f"parameter keys must be subsets of size >= 2, got {int(supplied[0]):#b}"
            )
        t.setflags(write=False)
        object.__setattr__(self, "n_events", n)
        object.__setattr__(self, "table", t)

    @property
    def intersections(self) -> dict[int, float]:
        """The supplied values keyed by subset mask, ascending (a new dict)."""
        masks = np.flatnonzero(~np.isnan(self.table))
        return dict(zip(masks.tolist(), self.table[masks].tolist()))

    @classmethod
    def independence(cls, probs: Sequence[float]) -> "FrameParams":
        """Product intersections of the given per-event probabilities.

        The entries holding event k as their highest are the ones below
        times p_k, so each product takes its factors in ascending order.
        """
        p = clean_unit_interval(probs, "probs[{}]".format)
        n = _event_count(p.size)
        t = np.ones(1 << n)
        for k in range(n):
            t[1 << k : 2 << k] = t[: 1 << k] * p[k]
        t[_low_masks(n)] = np.nan
        return cls(n, t)

    @classmethod
    def from_triplet(
        cls, a1: float, a2: float, t_in: float, t_out: float
    ) -> "FrameParams":
        """Three-event parameters from the frame decomposition values.

        a1 = P(x and y), a2 = P(x and z), t_in = P(x and y and z),
        t_out = P(not-x and y and z); events ordered x, y, z.
        """
        return cls(3, [np.nan] * 3 + [a1, np.nan, a2, t_in + t_out, t_in])

    @classmethod
    def from_epd2(cls, d: Epd2) -> "FrameParams":
        t = np.array(d.values)
        t[_low_masks(d.context.n_events)] = np.nan
        return cls(d.context.n_events, t)

    @classmethod
    def from_labels(
        cls, context: EventSetContext, named: Mapping[str, float]
    ) -> "FrameParams":
        """Parameters keyed by subset labels; two spellings of one subset are an error."""
        intersections = {}
        for key, value in named.items():
            mask = context.mask_from_label(key)
            if mask in intersections:
                raise ContextError(
                    f"labels name the subset {context.mask_label(mask)!r} more than once"
                )
            intersections[mask] = value
        return cls(context.n_events, intersections)

    def to_labels(self, context: EventSetContext) -> dict[str, float]:
        return {context.mask_label(m): v for m, v in self.intersections.items()}

    def complete_table(self, probs: Sequence[float]) -> np.ndarray:
        """Dense intersection array: 1 at the empty set, marginals, parameters.

        Every subset of size >= 2 must be present; a missing one is a
        dependency error, since the Möbius inverse reads them all.
        """
        n = self.n_events
        if len(probs) != n:
            raise ParameterRangeError(f"expected {n} marginals, got {len(probs)}")
        t = self.table.copy()
        t[_low_masks(n)] = (1.0, *probs)
        missing = np.isnan(t)
        if missing.any():
            raise DependencyError(
                f"no intersection value supplied for subset mask {int(np.argmax(missing)):#b}"
            )
        return t


# ---------------------------------------------------------------------------
# the interval walk and the Möbius build


def _interval_text(side: str, s: int, value, lower, upper, relation: str) -> str:
    """'<interval> = <value> <relation> [lo, up]' for one window of the walk, the
    window collapsed as ``FrechetInterval`` does (which raises if it is empty)."""
    iv = FrechetInterval(float(lower), float(upper))
    bits = tuple(mask_bits(s))
    if side == "pair":
        name = f"pair intersection of ordered events (0, {bits[0]})"
    elif side == "in":
        name = f"frame-side intersection of ordered events {(0,) + bits}"
    else:
        name = f"off-frame intersection of ordered events {bits}"
    return f"{name} = {float(value)!r} {relation} [{iv.lower!r}, {iv.upper!r}]"


def _walk_intervals(t: np.ndarray, policy: str, who: str) -> None:
    """Walk the top-level frame split of a dense intersection table.

    Event 0 is the frame.  Each subset s of the other events carries a
    frame-side value t[s | 1] and, from size two up, an off-frame value
    t[s] - t[s | 1], each with its ``frechet_bounds`` window.  A window
    reads only values one size down, so each size is one numpy pass, in
    ascending order, holding its masks (read from one int8 array of sizes)
    and, per side, the running sum and minimum of their facets, read one
    facet at a time; values are clamped in place.  An empty window, or
    under "raise" a value beyond VALUE_ATOL outside its window, raises for
    the first offender in (size, mask) order, as ``oracles.naive_interval_walk``
    does; the clamps are summed up in one RuntimeWarning.
    """
    n = t.shape[0].bit_length() - 1
    p0 = float(t[1])
    level = np.zeros(t.shape[0] >> 1, np.int8)  # level[i]: the size of the subset 2 * i
    for b in range(n - 1):
        level[1 << b : 2 << b] = level[: 1 << b] + 1
    count, worst = 0, None
    for k in range(1, n):
        s = 2 * np.flatnonzero(level == k)
        if k == 1:
            sides = [("pair", *_frechet_window(t[s] + p0, np.minimum(t[s], p0), 2, 1.0))]
        else:
            in_sum = out_sum = 0.0
            in_min = out_min = np.inf
            left = s
            for _ in range(k):  # the facets: s without each of its bits, lowest first
                low = left & -left
                left = left ^ low
                sub = s ^ low
                facet = t[sub | 1]
                in_sum, in_min = in_sum + facet, np.minimum(in_min, facet)
                facet = t[sub] - facet
                out_sum, out_min = out_sum + facet, np.minimum(out_min, facet)
            sides = [("in", *_frechet_window(in_sum, in_min, k, p0)),
                     ("out", *_frechet_window(out_sum, out_min, k, 1.0 - p0))]
        fits, first = [], None
        for side, lower, upper in sides:
            lo, up, fail = _inverted_window_rule(lower, upper)
            value = t[s] - fits[0] if fits else t[s | 1]
            if policy == "raise":
                fail |= (value < lo - VALUE_ATOL) | (value > up + VALUE_ATOL)
            fits.append(np.minimum(np.maximum(value, lo), up))
            i = int(np.argmax(fail))
            if fail[i] and (first is None or i < first[0]):  # the frame side wins a tie
                first = (i, side, s[i], value[i], lower[i], upper[i])
            gap = np.abs(fits[-1] - value)
            j = int(np.argmax(gap))
            count += int(np.count_nonzero(gap))
            if gap[j] > (worst[0] if worst else 0.0):
                worst = (gap[j], side, s[j], value[j], lower[j], upper[j])
        if first:
            raise InfeasibleParameterError(
                _interval_text(*first[1:], "outside the admissible interval")
            )
        t[s | 1] = fits[0]
        if k > 1:
            t[s] = fits[1] + fits[0]
    if worst:
        warnings.warn(
            f"{who}: {count} intersection value(s) clamped into their windows; "
            f"the largest move ({worst[0]:.3e}): {_interval_text(*worst[1:], 'clamped into')}",
            RuntimeWarning,
            stacklevel=4,
        )


def _build(
    ctx: EventSetContext, params: FrameParams, probs, policy: str, who: str, unfold=None
) -> Epd1:
    """Complete, walk if needed, invert, unfold, finish.

    The walk runs only where it can change the outcome: under "clamp", or on a negative cell.
    """
    t = params.complete_table(probs)
    if policy not in ("raise", "clamp"):
        raise ParameterRangeError(f"policy must be 'raise' or 'clamp', got {policy!r}")
    cells = _superset_mobius(t, params.n_events) if policy == "raise" else None
    if cells is None or cells.min() < 0.0:
        del cells  # stale once the walk moves t: freed before it runs
        _walk_intervals(t, policy, who)
        cells = _superset_mobius(t, params.n_events)
    del t  # free the intersections before the unfold copies the cells
    if unfold is not None:
        cells = unfold(cells)
    return _finish_epd1(cells, ctx, who, InfeasibleParameterError)


def _require_ordered_half_rare(p: MarginalSet, n: int, who: str) -> tuple[float, ...]:
    if p.context.n_events != n:
        raise ParameterRangeError(f"{who} needs exactly {n} events, got {p.context.n_events}")
    if max(p.probs) > 0.5:
        raise ParameterRangeError(
            f"{who} needs half-rare marginals (all <= 1/2); project the point first"
        )
    if _rank_folded(p.probs) != tuple(range(n)):
        raise ParameterRangeError(f"{who} needs marginals in nonincreasing order, got {p.probs}")
    return p.probs


def triplet_epd(p: MarginalSet, params: FrameParams, policy: str = "raise") -> Epd1:
    """Three-event table for ordered half-rare marginals.

    Bits x = 0, y = 1, z = 2 follow ``half_rare_projection``'s order (decreasing,
    ties within VALUE_ATOL by index); the eight cells are the Möbius inverse of
    the four parameters and the marginals.  ``policy`` is as for ``build_nset_epd``.
    """
    probs = _require_ordered_half_rare(p, 3, "triplet_epd")
    return _build(p.context, params, probs, policy, "triplet_epd")


def quadruplet_epd(p: MarginalSet, params: FrameParams, policy: str = "raise") -> Epd1:
    """Four-event table for ordered half-rare marginals.

    Bits x = 0, y = 1, z = 2, v = 3 follow ``half_rare_projection``'s order (decreasing,
    ties within VALUE_ATOL by index); the sixteen cells are the Möbius inverse of the
    eleven parameters and the marginals.  ``policy`` is as for ``build_nset_epd``.
    """
    probs = _require_ordered_half_rare(p, 4, "quadruplet_epd")
    return _build(p.context, params, probs, policy, "quadruplet_epd")


def build_nset_epd(
    p: MarginalSet, params: FrameParams, policy: str = "raise"
) -> Epd1:
    """Joint table for an arbitrary marginal point from intersection parameters.

    The point is first folded to its half-rare image and the events
    sorted by decreasing folded probability; ``params`` is keyed by
    subsets IN THAT ordering (event 0 = largest folded marginal).  The
    sorted table is the Möbius inverse of the completed intersection
    table, mapped back through the sort and the folding by one transpose
    and flip of its tensor view.

    policy applies to the top-level interval walk, which runs under
    "clamp" and on a table with a negative cell: "raise" rejects
    anything beyond VALUE_ATOL outside its interval, "clamp" pulls every
    value in (with one warning that counts them).
    """
    n = p.context.n_events
    if params.n_events != n:
        raise ParameterRangeError(
            f"params cover {params.n_events} events, marginal point has {n}"
        )
    proj = half_rare_projection(p)
    q = [proj.point.probs[k] for k in proj.permutation]
    return _build(p.context, params, q, policy, "build_nset_epd", proj.unsort_unfold)


# ---------------------------------------------------------------------------
# consistency report for a joint table against its frame pieces


@dataclass(frozen=True)
class FullProbabilityReport:
    """Deviations of a joint table from its frame-cell decomposition."""

    frame_events: int
    tol: float
    block_masses: tuple[float, ...]
    frame_deviation: float
    mixture_residual: float
    reconstruction_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.frame_deviation <= self.tol
            and self.mixture_residual <= self.tol
            and self.reconstruction_residual <= self.tol
        )

    def describe(self) -> str:
        verdict = "consistent" if self.ok else "INCONSISTENT"
        return (
            f"{verdict} frame decomposition (tol {self.tol:g}): "
            f"frame-cell deviation {self.frame_deviation:.3e}, "
            f"total-probability residual {self.mixture_residual:.3e}, "
            f"reconstruction residual {self.reconstruction_residual:.3e}"
        )


def full_probability_check(
    joint: Epd1,
    frame_events: int,
    conditionals: Sequence[Epd1] | None = None,
    frame_epd: Epd1 | None = None,
    tol: float = SUM_ATOL,
) -> FullProbabilityReport:
    """Check a joint table against frame-cell masses and conditionals.

    ``frame_events`` is the pinned subset; its 2**q cells index both
    ``conditionals`` (tables over the remaining events, compacted cell
    pattern order) and ``frame_epd`` (a table over the pinned events).
    Whatever is supplied gets compared: cell masses against
    ``frame_epd``, the conditional mixture against the remaining-events
    marginal, and cell-by-cell reconstruction against the joint.
    """
    ctx = joint.context
    ctx.check_mask(frame_events)
    if frame_events == 0:
        raise ConditioningError("frame subset must contain at least one event")
    frame_bits = list(mask_bits(frame_events))
    free_bits = [k for k in range(ctx.n_events) if not frame_events >> k & 1]
    q, m_free = len(frame_bits), len(free_bits)
    # row: frame cell, column: pattern of the free events, both compacted
    blocks = transpose_events(joint.values, free_bits + frame_bits).reshape(1 << q, -1)
    block_mass = blocks.sum(axis=1)
    frame_dev = mixture_res = recon_res = 0.0
    if conditionals is not None:
        if len(conditionals) != 1 << q:
            raise CompositionError(
                f"need {1 << q} conditionals for {q} frame events, got {len(conditionals)}"
            )
        for cell, cond in enumerate(conditionals):
            if cond.context.n_events != m_free:
                raise CompositionError(
                    f"conditional {cell} covers {cond.context.n_events} events, "
                    f"expected {m_free}"
                )
        conds = np.array([cond.values for cond in conditionals])
        mixture_res = float(np.max(np.abs(block_mass @ conds - blocks.sum(axis=0))))
        recon_res = float(np.max(np.abs(block_mass[:, None] * conds - blocks)))
    if frame_epd is not None:
        if frame_epd.context.n_events != q:
            raise CompositionError(
                f"frame table covers {frame_epd.context.n_events} events, expected {q}"
            )
        frame_dev = float(np.max(np.abs(block_mass - frame_epd.values)))
    return FullProbabilityReport(
        frame_events=frame_events,
        tol=tol,
        block_masses=tuple(float(v) for v in block_mass),
        frame_deviation=frame_dev,
        mixture_residual=mixture_res,
        reconstruction_residual=recon_res,
    )
