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
* the cells without and with event k are the halves ``_halves(values, k)``
  of the table's rows of 2 * 2**k cells, stride 2**k apart; each half,
  raveled, lists its masks in ascending order, as a mask selection would,
* ``Epd1``, ``Epd2`` and ``frame.PseudoDistribution`` share one base, ``_Table``:
  flat float64 values, finite and frozen (non-writeable) once stored;
  constructors copy their input, builders adopt the array they made (``_adopt``),
* contexts cap N at 24 so masks stay cheap and arrays addressable,
* every number, count and tolerance a caller hands the library is read
  by the readers here (``_read_number`` and the rest), which
  ``serialize`` binds to ``ConfigError`` for the fields of a config: a
  number is a Python or numpy int or float, never a bool or a string
  such as "0.5"; a count is an int, never a bool; a label is a str.  A
  value that breaks the rule raises the class the call raises for a bad
  value,
* each kind of tolerance is one constant here: ``SUM_ATOL`` = 1e-9 for
  total mass (a table, a slice); ``VALUE_ATOL`` = 1e-9 for one value (a
  cell below 0, a value outside its window, an inverted window);
  ``MONOTONE_ATOL`` = 1e-12 for superset monotonicity; ``_UNIT_SNAP`` =
  1e-12 for dust outside a unit range ([0, 1], [-1, 1], a weight sum of
  1); ``_COV_EPS`` = 1e-12 for a covariance, or the room beside its
  baseline, that counts as zero; ``_MASS_EPS`` = 1e-15 for a cell too
  light to condition on,
* every route that builds a first-kind table (family, frame, Mobius)
  ends in one finish, ``_finish_epd1``.  A cell below -VALUE_ATOL, or a
  NaN or +inf cell, raises the caller's error, naming the cell; cells
  in (-VALUE_ATOL, 0) are clamped to 0 with one RuntimeWarning; the mass
  the clamp adds is taken back out of the positive cells in proportion,
  by one multiply that runs only when a cell was clamped, so the total
  stays the raw table's; a total more than SUM_ATOL from 1 raises the
  caller's error.  No cell it returns is -0.0,
* a validation report (``Epd1Report``, ``Epd2Report``) is a view of the
  table it checks: it holds the table's frozen array, its summary values
  and the count of each rule's failures, and finds the failing entries
  again whenever they are read.  ``describe`` formats only the 10 lines
  it prints, taking the single-event steps one event at a time, so a
  report costs a few tables of memory however many entries fail.

Why the finish gives the clamped mass back (u = 2**-53).  Rounding the
float64 second-kind input already gives first-kind cell X an error of up
to u * (sum over Y >= X of t[Y]); a compensated or reordered butterfly
cannot remove it.  The butterfly adds little of its own: a difference of
two values within a factor 2 of each other is exact, and on a dense
Clayton table (theta = 20, marginals in (0.3, 0.5)) every cell but the
empty one equals the correctly rounded alternating sum of its inputs.  So
a valid table with tiny cells comes out with dust below 0, and the mass
that zeroing it adds grows with N: on that table 5.4e-14 at N = 12,
1.5e-9 at N = 22 and 9.2e-9 at N = 24, past SUM_ATOL.  The raw total is
t[{}] up to the butterfly's and the summation's rounding, about N u,
however much dust there is, and the finish keeps it to within
(2N + 25) u: numpy sums 2**N values with at most N + 11 roundings on
each, the finish sums twice and rounds its factor and each cell once.
So only the cells limit the finish, and the bound above limits them:

* folded input, every entry past t[{}] at most 1/2, as the frame route
  builds it: at most u * 2**(N - 1) = 2**(N - 54), which is 9.3e-10 <
  VALUE_ATOL at N = 24, whatever the strength of the dependence (the
  bound is largest at the comonotone table, where the entries are
  largest).  A valid folded table builds at every N this package takes,
  as long as the butterfly's own roundings stay below the input's; in
  the worst case they add N more of the same size;
* unfolded second-kind input is ill-conditioned: entries near 1 give
  u * 2**N, which is 9.3e-10 at N = 23 and 1.9e-9 at N = 24, so there a
  valid table may raise.  The independence table at p = 0.99 and N = 24
  reaches -8.8e-11, and zeroing its dust adds 7.2e-7, so the finish
  moves its largest cell (0.79) by 5.7e-7, not by float dust.  The dust
  belongs to the input, not to the inversion order: each such cell is the
  exact alternating sum of its float entries, whatever the order or fold.

The sampler (``sampling``) inverts a sequential ``np.cumsum``: each step
rounds once, by at most u * cdf[i], so the law it draws from is within
about 2**N * u of the table's in total variation, and a cell of 0 is a
flat step that is never drawn.  Background: Higham, *Accuracy and
Stability of Numerical Algorithms* (2nd ed., SIAM 2002), ch. 4; Kennes
and Smets, "Computational aspects of the Mobius transformation" (UAI
1990).
"""

from __future__ import annotations

import contextlib
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterator

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
# the readers, one per rule (see the module conventions); each raises the
# error class its caller names


def _is_int(value) -> bool:
    """The one rule for a count: a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real_type(t: type) -> bool:
    """The one rule for a real: a Python or numpy integer or float, and not a bool (nor a
    numeric string)."""
    return t is float or (issubclass(t, (int, np.integer, np.floating)) and t is not bool)


def _all_numbers(values) -> bool:
    """The rule over every item: one C pass over the items, then one check per distinct type."""
    return all(map(_is_real_type, set(map(type, values))))


def _is_number(value) -> bool:
    """The rule for one value, so the two cannot drift apart."""
    return _is_real_type(type(value))


def _shown(value) -> str:
    """``repr(value)``, or its type for an integer past Python's digit limit for text,
    in a list or not."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def _read_number(value, what: str, error: type) -> float:
    """A real (see ``_is_real_type``) within float range, as a float; else ``error``."""
    if type(value) is float:  # the common case, without the rule's calls
        return value
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise error(f"{what} must be a number, got {_shown(value)}")


def _read_int(value, what: str, error: type) -> int:
    """A count (see ``_is_int``) as an int; else ``error``."""
    if _is_int(value):
        return int(value)
    raise error(f"{what} must be an integer, got {_shown(value)}")


def _event_count(n, error: type) -> int:
    """An event count: a count (see ``_is_int``) in [1, MAX_EVENTS], as an int; else ``error``."""
    if not _is_int(n) or not 1 <= n <= MAX_EVENTS:
        raise error(f"n_events must be an integer in [1, {MAX_EVENTS}], got {_shown(n)}")
    return int(n)


def _read_items(values: list | tuple | np.ndarray, name: Callable[[int], str], error: type,
                copy: bool = True) -> np.ndarray:
    """A float64 array of a list, tuple or array of reals, item k named ``name(k)``.

    An integer or float array is read by its dtype, and ``copy=False`` hands
    back a float64 one itself; a list or tuple is converted in one pass once
    ``_all_numbers`` holds.  Any other array is read as the list of its
    items, so the first item that is not a real raises ``error``.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iuf":
            return (np.array if copy else np.asarray)(values, dtype=np.float64)
        values = values.ravel().tolist()
    if _all_numbers(values):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            return np.fromiter(values, np.float64, len(values))  # flat: no shape to discover
    # some item is not a real, or an integer beyond float range: the first one raises
    return np.array([_read_number(v, name(k), error) for k, v in enumerate(values)])


def _read_numbers(values, what: str, error: type, copy: bool = True) -> np.ndarray:
    """``_read_items`` of a list, tuple or array, item k named ``what[k]``; anything else
    raises ``error``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise error(f"{what} must be a list of numbers, got {type(values).__name__}")
    return _read_items(values, f"{what}[{{}}]".format, error, copy)


def _tolerance(tol, what: str) -> float:
    """A tolerance: a finite real >= 0, as a float; else a ParameterRangeError."""
    if _is_number(tol) and 0.0 <= tol <= sys.float_info.max:  # NaN, inf and 10**400 fail
        return float(tol)
    raise ParameterRangeError(f"{what} must be a finite number >= 0, got {_shown(tol)}")


# ---------------------------------------------------------------------------
# contexts and subsets


def _clip(text: str) -> str:
    """``text``, or past 20 characters its first 20, '…' and its length: a key
    from a config is never echoed in full."""
    return text if len(text) <= 20 else f"{text[:20]}… ({len(text)} characters)"


@dataclass(frozen=True)
class EventSetContext:
    """Identity of an ordered finite event set.

    Labels default to x0, x1, ... and must be unique, non-empty, and free
    of the separator characters used in serialized subset names.
    """

    n_events: int
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_events", _event_count(self.n_events, ContextError))
        try:
            labels = tuple(self.labels)
        except TypeError:  # not iterable
            raise ContextError(
                f"labels must be a list of strings, got {_shown(self.labels)}"
            ) from None
        if not labels:
            labels = tuple(f"x{k}" for k in range(self.n_events))
        if len(labels) != self.n_events:
            raise ContextError(
                f"expected {self.n_events} labels, got {len(labels)}"
            )
        for lab in labels:
            if not isinstance(lab, str) or not lab or _LABEL_FORBIDDEN.intersection(lab):
                raise ContextError(f"bad event label {_shown(lab)}")
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
            shown = repr(_clip(label)) if isinstance(label, str) else _shown(label)
            raise ContextError(f"unknown event label {shown}") from None

    def mask_label(self, mask: int) -> str:
        """Human-readable subset name, '&'-joined; empty string for the empty set."""
        self.check_mask(mask)
        return "&".join(self.labels[k] for k in mask_bits(mask))

    def mask_from_label(self, text: str) -> int:
        if not isinstance(text, str):
            raise ContextError(f"a subset label must be a string, got {_shown(text)}")
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
        if not _is_int(mask) or not 0 <= mask <= self.full_mask:
            raise ContextError(
                f"subset index {_shown(mask)} out of range for {self.n_events} events"
            )
        return int(mask)

    def require_same(self, other: "EventSetContext", what: str) -> None:
        if self != other:
            raise ContextError(f"{what}: contexts differ ({self.labels} vs {other.labels})")


def _subset_mask(mask) -> int:
    """A subset mask: a nonnegative count (a negative one has bits without end); else a
    ContextError."""
    if not _is_int(mask) or mask < 0:
        raise ContextError(f"subset mask must be a nonnegative integer, got {_shown(mask)}")
    return int(mask)


def mask_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending; the mask is checked at the call."""
    return _bits(_subset_mask(mask))


def _bits(mask: int) -> Iterator[int]:
    k = 0
    while mask:
        if mask & 1:
            yield k
        mask >>= 1
        k += 1


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` including 0 and ``mask`` itself; the mask is checked at the call."""
    return _submasks(_subset_mask(mask))


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def clean_unit_interval(
    values, name: Callable[[int], str], missing_ok: bool = False, low: float = 0.0
) -> np.ndarray:
    """Float64 copy of ``values`` with dust within 1e-12 of [low, 1] snapped onto it.

    ``values`` is one real, or a list, tuple or array of them, read by the
    rule of ``_read_items``; anything else is one value that is not a real.
    ``low`` is 0 for a probability, -1 for a weight.  Anything further out
    raises a ParameterRangeError for the first offender, named by ``name(index)``;
    so does NaN, unless ``missing_ok`` (NaN then passes as "not supplied"), and
    so does an item that is not a real.  Two reductions decide the common case;
    a value in range, -0.0 too, comes back as is.
    """
    if isinstance(values, (list, tuple, np.ndarray)):
        v = _read_items(values, name, ParameterRangeError)
    else:
        v = np.array(_read_number(values, name(0), ParameterRangeError))
    least, most = (np.fmin, np.fmax) if missing_ok else (np.minimum, np.maximum)
    lo = least.reduce(v, axis=None, initial=np.inf)
    hi = most.reduce(v, axis=None, initial=-np.inf)
    if not (lo > low - _UNIT_SNAP and hi < 1.0 + _UNIT_SNAP):
        bad = ~((v > low - _UNIT_SNAP) & (v < 1.0 + _UNIT_SNAP))
        if missing_ok:
            bad &= ~np.isnan(v)
        if bad.any():
            k = int(np.argmax(bad))
            raise ParameterRangeError(f"{name(k)} = {float(v.flat[k])!r} outside [{low:g}, 1]")
    if lo < low or hi > 1.0:
        np.clip(v, low, 1.0, out=v)
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
        probs = self.probs
        if not (isinstance(probs, (tuple, list)) and _all_numbers(probs)):  # anything else
            probs = _read_numbers(probs, "marginal", ParameterRangeError).ravel().tolist()
        if not all(0.0 <= p <= 1.0 for p in probs):  # only these need the cleaner
            probs = clean_unit_interval(probs, "marginal[{}]".format).tolist()
        probs = tuple(map(float, probs))
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
        m = cls(context, values, half_rare or False)
        if half_rare is None and all(v <= 0.5 for v in m.probs):  # a fresh instance: set the flag
            object.__setattr__(m, "half_rare", True)
        return m

    def is_nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.probs, self.probs[1:]))


# ---------------------------------------------------------------------------
# the two distribution kinds


@dataclass(frozen=True, eq=False)
class _Table:
    """One float64 value per subset of the context's events; see the module conventions."""

    context: EventSetContext
    values: np.ndarray

    _size_error = ContextError  # the class a wrong-size table raises

    def __post_init__(self, fresh: np.ndarray | None = None) -> None:
        """Copy ``values`` (or take ``_adopt``'s ``fresh`` array), check it, flatten, freeze."""
        if fresh is None:
            arr = _read_numbers(self.values, "values", InvalidDistributionError)
        else:
            arr = fresh
        if arr.size != self.context.size:
            raise self._size_error(f"expected {self.context.size} values, got shape {arr.shape}")
        # one quiet sum: only a non-finite value or an overflow makes it non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        if not (np.isfinite(total) or np.isfinite(arr).all()):
            raise InvalidDistributionError("values must be finite")
        object.__setattr__(self, "values", arr.reshape(-1))
        self.values.setflags(write=False)

    @classmethod
    def _adopt(cls, context: EventSetContext, values: np.ndarray):
        """The constructor without its copy, for a fresh float64 array nothing else holds."""
        d = object.__new__(cls)
        object.__setattr__(d, "context", context)
        d.__post_init__(values)
        return d

    @property
    def n_events(self) -> int:
        return self.context.n_events

    def value(self, mask: int) -> float:
        return float(self.values[self.context.check_mask(mask)])


@dataclass(frozen=True, eq=False)
class Epd1(_Table):
    """First-kind table: probability of each exact occurrence pattern.

    Construction only checks shape and finiteness so that diagnostic
    tables (deliberately invalid ones included) can be represented;
    ``validate_epd1`` is the axiom check.
    """


@dataclass(frozen=True, eq=False)
class Epd2(_Table):
    """Second-kind table: probability that each subset occurs jointly."""


def _finish_epd1(
    raw: np.ndarray, context: EventSetContext, where: str, error: type = InvalidDistributionError
) -> Epd1:
    """The one finish of a first-kind table, in place, on every route (see the module docstring).

    No cell leaves as -0.0: ``+= 0.0`` maps it to +0.0, where ``np.maximum``
    does not say which zero it returns.  A cell below -VALUE_ATOL, or the
    first NaN or +inf cell, raises ``error``, the class its caller's exit
    code needs; cells in (-VALUE_ATOL, 0) are clamped to +0.0 with one
    warning, and the mass that adds is taken back out of the positive
    cells in proportion, so the total stays the raw table's; a total
    more than SUM_ATOL from 1 raises ``error``.  A finite table costs no
    pass for the non-finite check: ``argmin`` stops at the first NaN, and
    a +inf makes the total +inf."""
    raw += 0.0
    worst = int(np.argmin(raw))
    low = raw[worst]
    if low < -VALUE_ATOL:
        raise error(
            f"{where}: the inputs drive the cell {{{context.mask_label(worst)}}} "
            f"(index {worst}) to {low:.6e}, below -{VALUE_ATOL:g}"
        )
    total = raw.sum()
    if not np.isfinite(total):  # a NaN cell, where argmin stopped, else a +inf one or an overflow
        cell = worst if np.isnan(low) else int(np.argmax(raw))
        raise error(
            f"{where}: the inputs drive the cell {{{context.mask_label(cell)}}} (index {cell}) "
            f"to {float(raw[cell])} and the total to {float(total)}; values must be finite"
        )
    neg = raw < 0.0
    if neg.any():
        warnings.warn(
            f"{where}: clamped {int(neg.sum())} slightly negative cell(s) to 0",
            RuntimeWarning,
            stacklevel=3,
        )
        raw[neg] = 0.0
        kept = raw.sum()
        if kept > 0.0:  # dust alone leaves nothing to take the mass from: the check below fails
            raw *= total / kept
        total = raw.sum()
    d = Epd1._adopt(context, raw)
    total = float(total)
    if abs(total - 1.0) > SUM_ATOL:
        raise error(f"{where}: total mass {total!r} deviates from 1 by {total - 1.0:+.3e}")
    return d


# ---------------------------------------------------------------------------
# Mobius pair over the superset order


def _halves(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells without event k, cells with it) of a flat table: two (2**(n-1-k), 2**k) views."""
    half = values.reshape(-1, 2, 1 << k)
    return half[:, 0], half[:, 1]


def _superset_butterfly(values: np.ndarray, n_events: int, op) -> np.ndarray:
    """For each event k, from the highest: cells without k  op=  cells with k."""
    t = values.astype(np.float64, copy=True).reshape(-1)
    for k in reversed(range(n_events)):
        without, with_k = _halves(t, k)
        op(without, with_k, out=without)
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
    return Epd2._adopt(d.context, _superset_zeta(d.values, d.n_events))


def epd1_from_epd2(d: Epd2) -> Epd1:
    """Alternating superset sums; the exact linear inverse of epd2_from_epd1.

    An infeasible input (one that is not the superset-sum image of any
    nonnegative table) surfaces here as a negative output entry.
    """
    return _finish_epd1(_superset_mobius(d.values, d.n_events), d.context, "epd1_from_epd2")


def _event_sums(values: np.ndarray, n: int) -> np.ndarray:
    """Per event k, the sum of the 2**n cells whose mask holds k, in the input's dtype."""
    return np.array([_halves(values, k)[1].ravel().sum() for k in range(n)])


def marginals(d: Epd1 | Epd2) -> MarginalSet:
    """Per-event occurrence probabilities of either table kind."""
    n = d.n_events
    if isinstance(d, Epd2):
        probs = tuple(float(d.values[1 << k]) for k in range(n))
    else:
        probs = tuple(_event_sums(d.values, n).tolist())
    return MarginalSet.from_values(d.context, probs)


def covariance_pair(d: Epd1 | Epd2, i: int, j: int) -> float:
    """P(both i and j) - P(i)P(j) for two distinct events."""
    n = d.n_events
    if not (_is_int(i) and _is_int(j)) or i == j or not (0 <= i < n and 0 <= j < n):
        raise ContextError(
            f"need two distinct event indices in [0, {n}), got {_shown(i)}, {_shown(j)}"
        )
    if isinstance(d, Epd2):
        p_i, p_j, p_ij = d.values[1 << i], d.values[1 << j], d.values[1 << i | 1 << j]
    else:
        p_i, p_j = (_halves(d.values, k)[1].ravel().sum() for k in (i, j))
        # halving by the higher event first leaves the lower one's bit in place
        with_high = _halves(d.values, max(i, j))[1].ravel()
        p_ij = _halves(with_high, min(i, j))[1].ravel().sum()
    return float(p_ij - p_i * p_j)


# ---------------------------------------------------------------------------
# validation reports


def _report_text(lines: Iterator[str], count: int) -> str:
    """The first 10 of ``count`` lines, then '… and K more', the K unformatted."""
    more = [f"… and {count - 10} more"] if count > 10 else []
    return "\n".join([*islice(lines, 10), *more])


# The three rules, each stated once: the validators count with them, and
# the entries and ``describe`` find the failures with them, one at a time.


def _below(values, tol: float):
    """The nonnegativity rule: below -tol."""
    return values < -tol


def _outside(values: np.ndarray, tol: float) -> np.ndarray:
    """The range rule: outside [-tol, 1 + tol]."""
    return _below(values, tol) | (values > 1.0 + tol)


def _rises(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The monotonicity rule along event k: the gaps (cells with k) - (cells without k),
    and where they exceed MONOTONE_ATOL."""
    without, with_k = _halves(values, k)
    gap = with_k - without
    return gap, gap > MONOTONE_ATOL


def _cells(values: np.ndarray, bad: np.ndarray) -> Iterator[tuple[int, float]]:
    """(mask, value) of each cell flagged in ``bad``, masks ascending."""
    return ((int(m), float(values[m])) for m in np.flatnonzero(bad))


def _steps_up(values: np.ndarray, n: int) -> Iterator[tuple[int, int, float]]:
    """(subset, superset, gap) of each single-event step up, event by event, subsets
    ascending; an event's steps are found once the previous event's are used up."""
    for k in range(n):
        gap, up = _rises(values, k)
        row, col = np.nonzero(up)
        for sub, g in zip(row << (k + 1) | col, gap[row, col]):
            yield int(sub), int(sub) | 1 << k, float(g)


@dataclass(frozen=True, eq=False)
class Epd1Report:
    """The checks of a first-kind table, a view of its frozen ``values``."""

    context: EventSetContext
    values: np.ndarray = field(repr=False)
    tol: float
    total: float
    min_value: float
    min_subset: int

    @property
    def negative_entries(self) -> tuple[tuple[int, float], ...]:
        return tuple(_cells(self.values, _below(self.values, self.tol)))

    @property
    def sum_ok(self) -> bool:
        return abs(self.total - 1.0) <= self.tol

    @property
    def nonnegative_ok(self) -> bool:
        return not _below(self.min_value, self.tol)

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.nonnegative_ok

    def describe(self) -> str:
        lines = []
        if self.sum_ok and self.nonnegative_ok:
            lines.append(f"valid first-kind table (sum deviation {self.total - 1.0:+.3e})")
        if not self.sum_ok:
            lines.append(f"total mass {self.total!r} deviates from 1 by {self.total - 1.0:+.3e}")
        label = self.context.mask_label
        bad = _below(self.values, self.tol)
        cells = (f"negative probability {v:.6e} at subset {{{label(m)}}} (index {m})"
                 for m, v in _cells(self.values, bad))
        return _report_text(chain(lines, cells), len(lines) + int(np.count_nonzero(bad)))


@dataclass(frozen=True, eq=False)
class Epd2Report:
    """The checks of a second-kind table, a view of its frozen ``values``, with the
    number of entries out of range and of single-event steps up."""

    context: EventSetContext
    values: np.ndarray = field(repr=False)
    tol: float
    empty_value: float
    range_count: int
    monotone_count: int

    @property
    def range_entries(self) -> tuple[tuple[int, float], ...]:
        return tuple(_cells(self.values, _outside(self.values, self.tol)))

    @property
    def monotone_entries(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(_steps_up(self.values, self.context.n_events))

    @property
    def empty_ok(self) -> bool:
        return abs(self.empty_value - 1.0) <= self.tol

    @property
    def range_ok(self) -> bool:
        return not self.range_count

    @property
    def monotone_ok(self) -> bool:
        return not self.monotone_count

    @property
    def ok(self) -> bool:
        return self.empty_ok and self.range_ok and self.monotone_ok

    def describe(self) -> str:
        lines = []
        if self.ok:
            lines.append("valid second-kind table")
        if not self.empty_ok:
            lines.append(f"empty-set entry {self.empty_value!r} deviates from 1")
        label = self.context.mask_label
        ranges = (f"entry {v:.6e} at {{{label(m)}}} outside [0, 1]"
                  for m, v in _cells(self.values, _outside(self.values, self.tol)))
        gaps = (f"monotonicity violated: {{{label(sup)}}} exceeds {{{label(sub)}}} by {gap:.3e}"
                for sub, sup, gap in _steps_up(self.values, self.context.n_events))
        count = len(lines) + self.range_count + self.monotone_count
        return _report_text(chain(lines, ranges, gaps), count)


def validate_epd1(d: Epd1, tol: float = SUM_ATOL) -> Epd1Report:
    """Check nonnegativity (within tol) and unit total mass (within tol)."""
    tol = _tolerance(tol, "tol")
    values = d.values
    worst = int(np.argmin(values))
    return Epd1Report(
        context=d.context,
        values=values,
        tol=tol,
        total=float(values.sum()),
        min_value=float(values[worst]),
        min_subset=worst,
    )


def validate_epd2(d: Epd2, tol: float = SUM_ATOL) -> Epd2Report:
    """Check the empty-set entry, the [0,1] range, and superset monotonicity.

    Monotonicity along single-bit extensions implies it for arbitrary
    subset pairs, so only N * 2**(N-1) comparisons are made.
    """
    tol = _tolerance(tol, "tol")
    values = d.values
    return Epd2Report(
        context=d.context,
        values=values,
        tol=tol,
        empty_value=float(values[0]),
        range_count=int(np.count_nonzero(_outside(values, tol))),
        monotone_count=sum(int(np.count_nonzero(_rises(values, k)[1])) for k in range(d.n_events)),
    )
