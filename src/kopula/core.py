"""Distributions over the subset lattice of a finite event set.

A system of N events is handled combinatorially: every subset of the
event set is encoded as an integer bitmask (bit k set means event k
belongs to the subset), and a distribution is a vector of 2**N reals
indexed by mask.

Two equivalent tables describe the same random event set:

* first kind (``Epd1``): ``values[X]`` is the probability that exactly
  the events in X occur and no others.  Nonnegative, sums to 1.
* second kind (``Epd2``): ``values[X]`` is the probability that all
  events in X occur jointly (the others unconstrained).  The empty-set
  entry is the total mass, monotone nonincreasing as X grows.

The two are a Mobius pair over the superset order:

    second[X] = sum over Y >= X of first[Y]
    first[X]  = sum over Y >= X of (-1)**|Y - X| * second[Y]

Both directions run in O(N * 2**N) with an in-place butterfly, one
strided pass per event; a brute-force O(4**N) reference lives
in ``kopula.oracles``.

Conventions used across the package:

* masks are plain ints; ``mask & (1 << k)`` tests event k,
* value arrays are float64 and frozen (non-writeable) once stored,
* contexts cap N at 24 so masks stay cheap and arrays addressable,
* each kind of tolerance is one constant here: ``SUM_ATOL`` = 1e-9 for
  total mass (a table, a slice); ``VALUE_ATOL`` = 1e-9 for one value (a
  cell below 0, a value outside its window, an inverted window);
  ``MONOTONE_ATOL`` = 1e-12 for superset monotonicity; ``_UNIT_SNAP`` =
  1e-12 for dust outside a unit range ([0, 1], [-1, 1], a weight sum of
  1); ``_COV_EPS`` = 1e-12 for a covariance, or the room beside its
  baseline, that counts as zero; ``_MASS_EPS`` = 1e-15 for a cell too
  light to condition on,
* first-kind cells in (-VALUE_ATOL, 0) are clamped to 0 with one
  RuntimeWarning by ``clean_negative_dust`` alone; a lower cell is an error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "MAX_EVENTS",
    "SUM_ATOL",
    "VALUE_ATOL",
    "MONOTONE_ATOL",
    "KopulaError",
    "ContextError",
    "ParameterRangeError",
    "InvalidDistributionError",
    "InfeasibleParameterError",
    "ConditioningError",
    "CompositionError",
    "DependencyError",
    "UndefinedCorrelationError",
    "EventSetContext",
    "MarginalSet",
    "Epd1",
    "Epd2",
    "Epd1Report",
    "Epd2Report",
    "epd2_from_epd1",
    "epd1_from_epd2",
    "marginals",
    "covariance_pair",
    "validate_epd1",
    "validate_epd2",
    "submasks",
    "mask_bits",
]

MAX_EVENTS = 24

# The tolerances, one per kind; the module docstring says what each covers.
SUM_ATOL = 1e-9
VALUE_ATOL = 1e-9
MONOTONE_ATOL = 1e-12
_UNIT_SNAP = 1e-12
_COV_EPS = 1e-12
_MASS_EPS = 1e-15

_LABEL_FORBIDDEN = set("&, \t\n")


class KopulaError(Exception):
    """Base class for every error raised by this package."""


class ContextError(KopulaError, ValueError):
    """Malformed event-set context, or objects from different contexts mixed."""


class ParameterRangeError(KopulaError, ValueError):
    """A scalar parameter lies outside its declared admissible range."""


class InvalidDistributionError(KopulaError, ValueError):
    """A value table violates the axioms of its distribution kind."""


class InfeasibleParameterError(KopulaError, ValueError):
    """Parameters violate a feasibility bound beyond numeric tolerance."""


class ConditioningError(KopulaError, ValueError):
    """Conditioning on a cell of (numerically) zero probability."""


class CompositionError(KopulaError, ValueError):
    """Pieces handed to a composition step do not fit together."""


class DependencyError(KopulaError, LookupError):
    """A bound computation is missing one of its prerequisite values."""


class UndefinedCorrelationError(KopulaError, ValueError):
    """Correlation requested where the normalizing bound is zero."""


# ---------------------------------------------------------------------------
# contexts and subsets


@dataclass(frozen=True)
class EventSetContext:
    """Identity of an ordered finite event set.

    Labels default to x0, x1, ... and must be unique, non-empty, and free
    of the separator characters used in serialized subset names.
    """

    n_events: int
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n_events, int) or not 1 <= self.n_events <= MAX_EVENTS:
            raise ContextError(
                f"n_events must be an integer in [1, {MAX_EVENTS}], got {self.n_events!r}"
            )
        labels = tuple(self.labels)
        if not labels:
            labels = tuple(f"x{k}" for k in range(self.n_events))
        if len(labels) != self.n_events:
            raise ContextError(
                f"expected {self.n_events} labels, got {len(labels)}"
            )
        for lab in labels:
            if not lab or _LABEL_FORBIDDEN.intersection(lab):
                raise ContextError(f"bad event label {lab!r}")
        if len(set(labels)) != len(labels):
            raise ContextError("event labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return 1 << self.n_events

    @property
    def full_mask(self) -> int:
        return (1 << self.n_events) - 1

    @cached_property
    def _label_index(self) -> dict[str, int]:
        # not a field, so it stays out of eq, hash and repr
        return {lab: k for k, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except (KeyError, TypeError):
            raise ContextError(f"unknown event label {label!r}") from None

    def mask_label(self, mask: int) -> str:
        """Human-readable subset name, '&'-joined; empty string for the empty set."""
        self.check_mask(mask)
        return "&".join(self.labels[k] for k in mask_bits(mask))

    def mask_from_label(self, text: str) -> int:
        mask = 0
        text = text.strip()
        if not text:
            return 0
        for part in text.split("&"):
            bit = 1 << self.index_of(part.strip())
            if mask & bit:
                raise ContextError(f"event {part.strip()!r} repeated in subset label")
            mask |= bit
        return mask

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, (int, np.integer)) or not 0 <= mask <= self.full_mask:
            raise ContextError(f"subset index {mask!r} out of range for {self.n_events} events")
        return int(mask)

    def require_same(self, other: "EventSetContext", what: str) -> None:
        if self != other:
            raise ContextError(f"{what}: contexts differ ({self.labels} vs {other.labels})")


def mask_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    k = 0
    while mask:
        if mask & 1:
            yield k
        mask >>= 1
        k += 1


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def clean_unit_interval(
    values, name: Callable[[int], str], missing_ok: bool = False
) -> np.ndarray:
    """Float64 copy of ``values`` with dust within 1e-12 of [0, 1] snapped onto it.

    Anything further out raises a ParameterRangeError for the first
    offender, named by ``name(index)``; so does NaN, unless
    ``missing_ok`` (then NaN passes through as "not supplied").  Two
    reductions decide the common case, so small inputs stay cheap.
    """
    v = np.array(values, dtype=np.float64)
    low, high = (np.fmin, np.fmax) if missing_ok else (np.minimum, np.maximum)
    lo = low.reduce(v, axis=None, initial=np.inf)
    hi = high.reduce(v, axis=None, initial=-np.inf)
    if not (lo > -_UNIT_SNAP and hi < 1.0 + _UNIT_SNAP):
        bad = ~((v > -_UNIT_SNAP) & (v < 1.0 + _UNIT_SNAP))
        if missing_ok:
            bad &= ~np.isnan(v)
        if bad.any():
            k = int(np.argmax(bad))
            raise ParameterRangeError(f"{name(k)} = {float(v.flat[k])!r} outside [0, 1]")
    if lo < 0.0 or hi > 1.0:
        np.clip(v, 0.0, 1.0, out=v)
    return v


@dataclass(frozen=True)
class MarginalSet:
    """Per-event probabilities, optionally asserting the half-rare property.

    ``half_rare=True`` asserts every probability is at most 1/2; the
    boundary value 1/2 counts as half-rare throughout the package.
    """

    context: EventSetContext
    probs: tuple[float, ...]
    half_rare: bool = False

    def __post_init__(self) -> None:
        probs = tuple(map(float, self.probs))
        if not all(0.0 <= p <= 1.0 for p in probs):  # only these need the cleaner
            probs = tuple(clean_unit_interval(probs, "marginal[{}]".format).tolist())
        if len(probs) != self.context.n_events:
            raise ContextError(
                f"expected {self.context.n_events} marginals, got {len(probs)}"
            )
        if self.half_rare and any(p > 0.5 for p in probs):
            raise ParameterRangeError(
                f"half_rare asserted but max marginal is {max(probs)} > 1/2"
            )
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_values(
        cls, context: EventSetContext, values, half_rare: bool | None = None
    ) -> "MarginalSet":
        probs = tuple(float(v) for v in values)
        if half_rare is None:
            half_rare = all(v <= 0.5 for v in probs)
        return cls(context, probs, half_rare)

    def is_nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.probs, self.probs[1:]))


# ---------------------------------------------------------------------------
# the two distribution kinds


def _frozen_values(values, size: int, copy: bool = True) -> np.ndarray:
    """Flat, read-only, finite float64 values; ``copy=False`` adopts a fresh float64 array."""
    arr = (np.array(values, dtype=np.float64) if copy else values).reshape(-1)
    if arr.shape != (size,):
        raise ContextError(f"expected {size} values, got shape {np.shape(values)}")
    if not np.isfinite(arr).all():
        raise InvalidDistributionError("values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Epd1:
    """First-kind table: probability of each exact occurrence pattern.

    Construction only checks shape and finiteness so that diagnostic
    tables (deliberately invalid ones included) can be represented;
    ``validate_epd1`` is the axiom check.
    """

    context: EventSetContext
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_values(self.values, self.context.size))

    @classmethod
    def _adopt(cls, context: EventSetContext, values: np.ndarray) -> "Epd1":
        """The constructor without its copy, for a fresh float64 array nothing else holds."""
        d = object.__new__(cls)
        object.__setattr__(d, "context", context)
        object.__setattr__(d, "values", _frozen_values(values, context.size, copy=False))
        return d

    @property
    def n_events(self) -> int:
        return self.context.n_events

    def value(self, mask: int) -> float:
        return float(self.values[self.context.check_mask(mask)])


@dataclass(frozen=True, eq=False)
class Epd2:
    """Second-kind table: probability that each subset occurs jointly."""

    context: EventSetContext
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_values(self.values, self.context.size))

    @property
    def n_events(self) -> int:
        return self.context.n_events

    def value(self, mask: int) -> float:
        return float(self.values[self.context.check_mask(mask)])


def clean_negative_dust(
    raw: np.ndarray, context: EventSetContext, where: str, error: type = InvalidDistributionError
) -> np.ndarray:
    """Clamp first-kind cells in (-VALUE_ATOL, 0) to 0 in place, with one warning;
    a cell further below raises ``error``, the class its caller's exit code needs."""
    worst = int(np.argmin(raw))
    if raw[worst] < -VALUE_ATOL:
        raise error(
            f"{where}: the inputs drive the cell {{{context.mask_label(worst)}}} "
            f"(index {worst}) to {raw[worst]:.6e}, below -{VALUE_ATOL:g}"
        )
    neg = raw < 0.0
    if neg.any():
        warnings.warn(
            f"{where}: clamped {int(neg.sum())} slightly negative cell(s) to 0",
            RuntimeWarning,
            stacklevel=3,
        )
        raw[neg] = 0.0
    return raw


# ---------------------------------------------------------------------------
# Mobius pair over the superset order


def _superset_butterfly(values: np.ndarray, n_events: int, op) -> np.ndarray:
    """For each event k, from the highest: cells without k  op=  cells with k."""
    t = values.astype(np.float64, copy=True).reshape(-1)
    for k in reversed(range(n_events)):
        half = t.reshape(-1, 2, 1 << k)
        op(half[:, 0], half[:, 1], out=half[:, 0])
    return t


def _superset_zeta(values: np.ndarray, n_events: int) -> np.ndarray:
    """out[X] = sum over supersets Y of X of values[Y], via axis butterflies."""
    return _superset_butterfly(values, n_events, np.add)


def _superset_mobius(values: np.ndarray, n_events: int) -> np.ndarray:
    """Inverse of ``_superset_zeta`` (alternating-sign superset sums)."""
    return _superset_butterfly(values, n_events, np.subtract)


def epd2_from_epd1(d: Epd1) -> Epd2:
    """Superset sums of the exact-pattern table.

    The empty-set output equals the input's total mass and is left as
    computed; validate_epd2 checks it against 1 within 1e-9.
    """
    return Epd2(d.context, _superset_zeta(d.values, d.n_events))


def epd1_from_epd2(d: Epd2) -> Epd1:
    """Alternating superset sums; the exact linear inverse of epd2_from_epd1.

    An infeasible input (one that is not the superset-sum image of any
    nonnegative table) surfaces here as a negative output entry.
    """
    raw = _superset_mobius(d.values, d.n_events)
    return Epd1._adopt(d.context, clean_negative_dust(raw, d.context, "epd1_from_epd2"))


def marginals(d: Epd1 | Epd2) -> MarginalSet:
    """Per-event occurrence probabilities of either table kind."""
    n = d.n_events
    if isinstance(d, Epd2):
        probs = tuple(float(d.values[1 << k]) for k in range(n))
    else:
        t = d.values.reshape((2,) * n)
        # axis a of the tensor view corresponds to event bit n-1-a
        probs = tuple(float(t.take(1, axis=n - 1 - k).sum()) for k in range(n))
    return MarginalSet.from_values(d.context, probs)


def covariance_pair(d: Epd1 | Epd2, i: int, j: int) -> float:
    """P(both i and j) - P(i)P(j) for two distinct events."""
    n = d.n_events
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ContextError(f"need two distinct event indices in [0, {n}), got {i}, {j}")
    bi, bj = 1 << i, 1 << j
    if isinstance(d, Epd2):
        p_i, p_j, p_ij = d.values[bi], d.values[bj], d.values[bi | bj]
    else:
        masks = np.arange(d.context.size)
        has_i = (masks & bi) != 0
        has_j = (masks & bj) != 0
        p_i = d.values[has_i].sum()
        p_j = d.values[has_j].sum()
        p_ij = d.values[has_i & has_j].sum()
    return float(p_ij - p_i * p_j)


# ---------------------------------------------------------------------------
# validation reports


@dataclass(frozen=True)
class Epd1Report:
    context: EventSetContext
    tol: float
    total: float
    negative_entries: tuple[tuple[int, float], ...]
    min_value: float
    min_subset: int

    @property
    def sum_ok(self) -> bool:
        return abs(self.total - 1.0) <= self.tol

    @property
    def nonnegative_ok(self) -> bool:
        return not self.negative_entries

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.nonnegative_ok

    def describe(self) -> str:
        lines = []
        if self.sum_ok and self.nonnegative_ok:
            lines.append(f"valid first-kind table (sum deviation {self.total - 1.0:+.3e})")
        if not self.sum_ok:
            lines.append(f"total mass {self.total!r} deviates from 1 by {self.total - 1.0:+.3e}")
        for mask, value in self.negative_entries:
            lines.append(
                f"negative probability {value:.6e} at subset "
                f"{{{self.context.mask_label(mask)}}} (index {mask})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Epd2Report:
    context: EventSetContext
    tol: float
    empty_value: float
    range_entries: tuple[tuple[int, float], ...]
    monotone_entries: tuple[tuple[int, int, float], ...]

    @property
    def empty_ok(self) -> bool:
        return abs(self.empty_value - 1.0) <= self.tol

    @property
    def range_ok(self) -> bool:
        return not self.range_entries

    @property
    def monotone_ok(self) -> bool:
        return not self.monotone_entries

    @property
    def ok(self) -> bool:
        return self.empty_ok and self.range_ok and self.monotone_ok

    def describe(self) -> str:
        lines = []
        if self.ok:
            lines.append("valid second-kind table")
        if not self.empty_ok:
            lines.append(f"empty-set entry {self.empty_value!r} deviates from 1")
        for mask, value in self.range_entries:
            lines.append(
                f"entry {value:.6e} at {{{self.context.mask_label(mask)}}} outside [0, 1]"
            )
        for sub, sup, gap in self.monotone_entries:
            lines.append(
                f"monotonicity violated: {{{self.context.mask_label(sup)}}} exceeds "
                f"{{{self.context.mask_label(sub)}}} by {gap:.3e}"
            )
        return "\n".join(lines)


def validate_epd1(d: Epd1, tol: float = SUM_ATOL) -> Epd1Report:
    """Check nonnegativity (within tol) and unit total mass (within tol)."""
    values = d.values
    worst = int(np.argmin(values))
    bad = np.nonzero(values < -tol)[0]
    return Epd1Report(
        context=d.context,
        tol=tol,
        total=float(values.sum()),
        negative_entries=tuple((int(m), float(values[m])) for m in bad),
        min_value=float(values[worst]),
        min_subset=worst,
    )


def validate_epd2(d: Epd2, tol: float = SUM_ATOL) -> Epd2Report:
    """Check the empty-set entry, the [0,1] range, and superset monotonicity.

    Monotonicity along single-bit extensions implies it for arbitrary
    subset pairs, so only N * 2**(N-1) comparisons are made.
    """
    values = d.values
    n = d.n_events
    masks = np.arange(d.context.size)
    out_of_range = np.nonzero((values < -tol) | (values > 1.0 + tol))[0]
    mono: list[tuple[int, int, float]] = []
    for k in range(n):
        bit = 1 << k
        lower = masks[(masks & bit) == 0]
        gap = values[lower | bit] - values[lower]
        bad = np.nonzero(gap > MONOTONE_ATOL)[0]
        mono.extend(
            (int(lower[b]), int(lower[b] | bit), float(gap[b])) for b in bad
        )
    return Epd2Report(
        context=d.context,
        tol=tol,
        empty_value=float(values[0]),
        range_entries=tuple((int(m), float(values[m])) for m in out_of_range),
        monotone_entries=tuple(mono),
    )
