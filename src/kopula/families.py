"""Closed-form distribution families on the subset lattice.

A family is an evaluator K(w, X) of the marginal point w in [0,1]**N
and a subset X of the events; the first-kind table at w is

    values[X] = K(w, X)    for every X.

For most families K(w, X) is just a scalar function of the X-mirrored
point of w (coordinates w_k for k in X, 1 - w_k otherwise).  The subset
is still passed separately because the mirror map is not injective: at
a coordinate exactly 1/2 both readings produce the same point, and only
X tells the two cells apart.

A K whose table is always a probability distribution with the
prescribed marginals is here called a 1-function; ``verify_one_function``
checks the three defining properties on a grid.

For two events every 1-function reduces to one scalar ingredient: a
pair function f(a, b) on folded coordinates a, b in [0, 1/2] pinched
between the extremal bounds

    max(0, a + b - 1)  <=  f(a, b)  <=  min(a, b).

``parametric_2kopula`` lifts any such f to a full family by a four-way
branch on how X agrees with the set of coordinates at most 1/2.  Both
classical named copula generators and ad-hoc convex mixes plug in
through that one seam.

Pair functions always receive their arguments sorted (a <= b
elementwise), which makes every lifted family exactly symmetric under
swapping the two events, whatever f does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Epd1,
    EventSetContext,
    InfeasibleParameterError,
    MarginalSet,
    ParameterRangeError,
    VALUE_ATOL,
    _UNIT_SNAP,
)

__all__ = [
    "BaseFn",
    "PairFn",
    "WeightFn",
    "KopulaFamily",
    "OneFunctionReport",
    "epd_from_kopula",
    "epd_rows_from_kopula",
    "grid_points",
    "verify_one_function",
    "independent_kopula",
    "parametric_2kopula",
    "frechet_upper_2",
    "frechet_lower_2",
    "convex_combination",
    "convex_updown_2kopula",
    "conjugated_2kopula",
    "classical_pair_param",
    "PairParamFn",
    "constant_weight",
    "sine_diff_weight",
    "quarter_sum_2",
    "pair_context",
]

# Evaluator: marginal points w of shape (..., n) and subset masks
# broadcastable against the leading axes of w, to values of that shape.
BaseFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
# Pair ingredient on sorted folded coordinates: (a, b) -> array, a <= b.
PairFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
# Mixing weight: constant in [-1, 1] or a function of sorted (a, b).
WeightFn = float | Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class KopulaFamily:
    """A named evaluator K(w, X) over marginal points, with its event context."""

    context: EventSetContext
    base: BaseFn
    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __call__(self, w, masks) -> np.ndarray:
        return np.asarray(
            self.base(
                np.asarray(w, dtype=np.float64),
                np.asarray(masks, dtype=np.int64),
            ),
            dtype=np.float64,
        )


def _phenomenon_bits(n: int) -> np.ndarray:
    """Boolean table (2**n, n): row X marks the events contained in X."""
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def _mirror(w: np.ndarray, masks: np.ndarray, n: int) -> np.ndarray:
    """X-mirrored points: coordinate k stays w_k for k in X, else 1 - w_k."""
    bits = ((masks[..., None] >> np.arange(n)) & 1).astype(bool)
    return np.where(bits, w, 1.0 - w)


def epd_from_kopula(k: KopulaFamily, p: MarginalSet) -> Epd1:
    """Fill the first-kind table of family ``k`` at marginal point ``p``."""
    k.context.require_same(p.context, "epd_from_kopula")
    n = k.context.n_events
    w = np.asarray(p.probs, dtype=np.float64)
    raw = k(w, np.arange(1 << n))
    worst = int(np.argmin(raw))
    if raw[worst] < -VALUE_ATOL:
        raise InfeasibleParameterError(
            f"family {k.name!r} is negative at subset "
            f"{{{k.context.mask_label(worst)}}}: {raw[worst]:.6e} at point {tuple(p.probs)}"
        )
    return Epd1(k.context, np.maximum(raw, 0.0))


def epd_rows_from_kopula(
    k: KopulaFamily, w: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, InfeasibleParameterError]]]:
    """First-kind tables of family ``k`` at every row of the (rows, n) points ``w``.

    Row r is ``epd_from_kopula`` at the point ``w[r]``, from one
    evaluation of the whole block; a family's array arithmetic may round
    differently in bulk (``**`` does, by at most one ulp).  Only the
    failure path runs point by point: a row with a cell below
    -VALUE_ATOL (or a NaN cell), or every row of a block whose pair
    function left its band, goes through ``epd_from_kopula`` again.  A row
    that is infeasible there comes back as NaN, and its error is listed
    with the row index.
    """
    masks = np.arange(k.context.size)
    try:
        raw = k(w[:, None, :], masks[None, :])
    except InfeasibleParameterError:
        values = np.empty((len(w), masks.size))
        redo = range(len(w))
    else:
        values = np.maximum(raw, 0.0)
        redo = np.flatnonzero(~(raw.min(axis=1) >= -VALUE_ATOL)).tolist()
    failures = []
    for r in redo:
        try:
            values[r] = epd_from_kopula(k, MarginalSet.from_values(k.context, w[r])).values
        except InfeasibleParameterError as exc:
            values[r] = np.nan
            failures.append((r, exc))
    return values, failures


def grid_points(
    n: int,
    resolution: int,
    axes: Sequence[int] | None = None,
    fixed: Mapping[int, float] | None = None,
) -> Iterator[np.ndarray]:
    """A regular grid of marginal points, in blocks of (rows, n) arrays.

    Each event in ``axes`` (all events by default) sweeps ``resolution``
    equally spaced values, endpoints 0 and 1 included, and each event in
    ``fixed`` holds its value; any other coordinate is 0.  Rows come in
    ``itertools.product`` order over ``axes`` (the last one fastest),
    and a block holds about 2**16 table cells, so the (rows, 2**n) value
    blocks stay small.
    """
    axes = list(range(n)) if axes is None else list(axes)
    axis = np.linspace(0.0, 1.0, resolution)
    base = np.zeros(n)
    for k, v in (fixed or {}).items():
        base[k] = v
    total = resolution ** len(axes)
    step = max(1, (1 << 16) >> n)
    for start in range(0, total, step):
        rest = np.arange(start, min(start + step, total))
        w = np.tile(base, (rest.size, 1))
        for k in reversed(axes):  # peel the row index's digits off, the last axis first
            rest, digit = np.divmod(rest, resolution)
            w[:, k] = axis[digit]
        yield w


# ---------------------------------------------------------------------------
# grid verification of the 1-function properties


@dataclass(frozen=True)
class OneFunctionReport:
    """Worst violations of the three 1-function properties over a grid."""

    family: str
    n_events: int
    grid_resolution: int
    tol: float
    n_points: int
    min_value: float
    min_point: tuple[float, ...]
    min_subset: int
    max_marginal_residual: float
    marginal_point: tuple[float, ...]
    marginal_event: int
    max_sum_deviation: float
    sum_point: tuple[float, ...]

    @property
    def nonneg_ok(self) -> bool:
        return self.min_value >= -self.tol

    @property
    def marginal_ok(self) -> bool:
        return self.max_marginal_residual <= self.tol

    @property
    def sum_ok(self) -> bool:
        return self.max_sum_deviation <= self.tol

    @property
    def ok(self) -> bool:
        return self.nonneg_ok and self.marginal_ok and self.sum_ok

    def describe(self) -> str:
        verdict = "passes" if self.ok else "FAILS"
        lines = [
            f"family {self.family!r} ({self.n_events} events) {verdict} the 1-function "
            f"checks on {self.n_points} grid points (resolution {self.grid_resolution}, "
            f"tol {self.tol:g})",
            f"  min value {self.min_value:.6e} at subset index {self.min_subset}, "
            f"point {self.min_point}",
            f"  max marginal residual {self.max_marginal_residual:.6e} for event "
            f"{self.marginal_event} at point {self.marginal_point}",
            f"  max sum deviation {self.max_sum_deviation:.6e} at point {self.sum_point}",
        ]
        return "\n".join(lines)


def verify_one_function(
    k: KopulaFamily, grid_resolution: int = 9, tol: float = 1e-8
) -> OneFunctionReport:
    """Check the 1-function properties of ``k`` on a regular grid.

    The grid is ``grid_resolution`` equally spaced values per axis,
    endpoints 0 and 1 included.  At every grid point w all 2**n mirror
    values are computed and three properties checked: each is
    nonnegative, those containing event x sum to w_x, and all of them
    sum to 1.  The report keeps the worst offender of each kind.
    """
    if grid_resolution < 2:
        raise ParameterRangeError(f"grid_resolution must be >= 2, got {grid_resolution}")
    n = k.context.n_events
    bits = _phenomenon_bits(n)
    masks = np.arange(1 << n)
    n_points = grid_resolution**n

    min_value, min_point, min_subset = np.inf, (), 0
    max_res, res_point, res_event = -np.inf, (), 0
    max_dev, dev_point = -np.inf, ()

    for w in grid_points(n, grid_resolution):
        values = k(w[:, None, :], masks[None, :])  # (rows, 2**n)
        total = values.sum(axis=1)
        msum = values @ bits.astype(np.float64)
        picked = np.argmin(values, axis=1)
        vmin = values[np.arange(values.shape[0]), picked]

        r = int(np.argmin(vmin))
        if vmin[r] < min_value:
            min_value = float(vmin[r])
            min_point = tuple(float(v) for v in w[r])
            min_subset = int(picked[r])

        residual = np.abs(msum - w)
        r, e = np.unravel_index(int(np.argmax(residual)), residual.shape)
        if residual[r, e] > max_res:
            max_res = float(residual[r, e])
            res_point = tuple(float(v) for v in w[r])
            res_event = int(e)

        dev = np.abs(total - 1.0)
        r = int(np.argmax(dev))
        if dev[r] > max_dev:
            max_dev = float(dev[r])
            dev_point = tuple(float(v) for v in w[r])

    return OneFunctionReport(
        family=k.name,
        n_events=n,
        grid_resolution=grid_resolution,
        tol=tol,
        n_points=n_points,
        min_value=min_value,
        min_point=min_point,
        min_subset=min_subset,
        max_marginal_residual=max_res,
        marginal_point=res_point,
        marginal_event=res_event,
        max_sum_deviation=max_dev,
        sum_point=dev_point,
    )


# ---------------------------------------------------------------------------
# shipped families


def independent_kopula(context: EventSetContext) -> KopulaFamily:
    """Product over the mirrored coordinates; fully independent events."""
    n = context.n_events

    def base(w: np.ndarray, masks: np.ndarray) -> np.ndarray:
        return np.prod(_mirror(w, masks, n), axis=-1)

    return KopulaFamily(context, base, "independent")


_PAIR_CONTEXT = EventSetContext(2)


def pair_context() -> EventSetContext:
    """The default two-event context shared by the pair families."""
    return _PAIR_CONTEXT


def parametric_2kopula(
    f: PairFn,
    name: str = "parametric",
    context: EventSetContext | None = None,
    params: Mapping[str, object] | None = None,
) -> KopulaFamily:
    """Lift a pair function to a two-event family.

    The evaluation point (w_x, w_y) is folded coordinate-wise into
    [0, 1/2] and f is applied to the sorted folded pair.  The cell for
    subset X gets one of four linear combinations of that value,
    selected by where X agrees with the set of coordinates at most 1/2
    (a coordinate exactly 1/2 counts as such).  Any f inside the
    extremal bounds yields a valid family; the bounds are enforced here
    at evaluation time, so an out-of-range f raises only when actually
    used.
    """
    ctx = context if context is not None else _PAIR_CONTEXT
    if ctx.n_events != 2:
        raise ParameterRangeError("pair families need a two-event context")

    def base(w: np.ndarray, masks: np.ndarray) -> np.ndarray:
        wx = w[..., 0]
        wy = w[..., 1]
        ax = np.minimum(wx, 1.0 - wx)
        ay = np.minimum(wy, 1.0 - wy)
        lo = np.minimum(ax, ay)
        hi = np.maximum(ax, ay)
        fv = np.asarray(f(lo, hi), dtype=np.float64)
        cap = lo
        err = np.maximum(-fv, fv - cap)
        worst = int(np.argmax(err))
        if err.reshape(-1)[worst] > VALUE_ATOL:
            a_bad = lo.reshape(-1)[worst]
            b_bad = hi.reshape(-1)[worst]
            raise InfeasibleParameterError(
                f"pair function of family {name!r} leaves the admissible band at "
                f"(a, b) = ({a_bad:.6g}, {b_bad:.6g}): value "
                f"{fv.reshape(-1)[worst]:.6e} not in [0, {a_bad:.6e}]"
            )
        fv = np.clip(fv, 0.0, cap)
        agree_x = (wx <= 0.5) == ((masks & 1) != 0)
        agree_y = (wy <= 0.5) == ((masks & 2) != 0)
        # the four slots of the folded doublet table
        return np.where(
            agree_x & agree_y,
            fv,
            np.where(
                agree_x,
                ax - fv,
                np.where(agree_y, ay - fv, 1.0 - ax - ay + fv),
            ),
        )

    return KopulaFamily(ctx, base, name, dict(params or {}))


def frechet_upper_2(context: EventSetContext | None = None) -> KopulaFamily:
    """Maximal pair family: folded intersection mass min(a, b)."""
    return parametric_2kopula(lambda a, b: a + 0.0 * b, "frechet_upper", context)


def frechet_lower_2(context: EventSetContext | None = None) -> KopulaFamily:
    """Minimal pair family: folded intersection mass max(0, a + b - 1)."""
    return parametric_2kopula(
        lambda a, b: np.maximum(0.0, a + b - 1.0), "frechet_lower", context
    )


def convex_combination(
    ks: Sequence[KopulaFamily], weights: Sequence[float]
) -> KopulaFamily:
    """Weighted mixture of families over one shared context."""
    if not ks:
        raise ParameterRangeError("need at least one family to combine")
    if len(ks) != len(weights):
        raise ParameterRangeError(
            f"{len(ks)} families but {len(weights)} weights"
        )
    ctx = ks[0].context
    for k in ks[1:]:
        ctx.require_same(k.context, "convex_combination")
    w = tuple(float(v) for v in weights)
    if not all(np.isfinite(w)):
        raise ParameterRangeError(f"mixture weights must be finite, got {list(w)}")
    if min(w) < -_UNIT_SNAP:
        raise ParameterRangeError(f"negative mixture weight {min(w)}")
    if abs(sum(w) - 1.0) > _UNIT_SNAP:
        raise ParameterRangeError(f"mixture weights sum to {sum(w)!r}, not 1")
    parts = tuple(ks)

    def base(points: np.ndarray, masks: np.ndarray) -> np.ndarray:
        acc = w[0] * parts[0](points, masks)
        for wk, part in zip(w[1:], parts[1:]):
            if wk != 0.0:
                acc = acc + wk * part(points, masks)
        return acc

    name = "convex(" + ", ".join(f"{wk:g}*{k.name}" for wk, k in zip(w, parts)) + ")"
    return KopulaFamily(ctx, base, name, {"weights": w})


def constant_weight(value: float) -> WeightFn:
    v = float(value)
    if not -1.0 <= v <= 1.0:
        raise ParameterRangeError(f"weight {v} outside [-1, 1]")
    return v


def sine_diff_weight(scale: float = 15.0) -> WeightFn:
    """Oscillating weight sin(scale * (a - b)) of the sorted folded pair."""
    s = float(scale)
    if not np.isfinite(s):
        raise ParameterRangeError(f"sine_diff scale must be finite, got {s!r}")

    def alpha(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.sin(s * (a - b))

    return alpha


def _weight_array(alpha: WeightFn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if callable(alpha):
        arr = np.asarray(alpha(a, b), dtype=np.float64)
        arr = np.broadcast_to(arr, a.shape)
        worst = float(np.max(np.abs(arr))) if arr.size else 0.0
        if worst > 1.0 + _UNIT_SNAP:
            raise ParameterRangeError(
                f"weight function left [-1, 1]: max magnitude {worst}"
            )
        return np.clip(arr, -1.0, 1.0)
    return np.full_like(a, float(constant_weight(alpha)))


def convex_updown_2kopula(alpha: WeightFn) -> KopulaFamily:
    """Pointwise mix of the two extremal pair functions.

    alpha = -1 gives the minimal family, +1 the maximal, 0 their
    midpoint (which is not the independent family).
    """
    if not callable(alpha):
        constant_weight(alpha)

    def f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        al = _weight_array(alpha, a, b)
        lower = np.maximum(0.0, a + b - 1.0)
        upper = a  # = min(a, b), arguments arrive sorted
        return 0.5 * (1.0 - al) * lower + 0.5 * (1.0 + al) * upper

    label = "convex_updown" if callable(alpha) else f"convex_updown({float(alpha):g})"
    return parametric_2kopula(f, label, params={"alpha": alpha})


def conjugated_2kopula(alpha: WeightFn) -> KopulaFamily:
    """Product-anchored sweep between zero mass and the maximal family.

    Negative alpha scales the product a*b down to 0 at -1; positive
    alpha pulls it toward min(a, b), reached at +1; alpha = 0 is exact
    independence.
    """
    if not callable(alpha):
        constant_weight(alpha)

    def f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        al = _weight_array(alpha, a, b)
        down = a * b * (1.0 + al)
        up = a * (b * (1.0 - al) + al)
        return np.where(al <= 0.0, down, up)

    label = "conjugated" if callable(alpha) else f"conjugated({float(alpha):g})"
    return parametric_2kopula(f, label, params={"alpha": alpha})


def quarter_sum_2(context: EventSetContext | None = None) -> KopulaFamily:
    """Deliberately broken demo: (w_x + w_y)/4 normalizes but skews marginals."""
    ctx = context if context is not None else _PAIR_CONTEXT

    def base(w: np.ndarray, masks: np.ndarray) -> np.ndarray:
        coords = _mirror(w, masks, 2)
        return 0.25 * (coords[..., 0] + coords[..., 1])

    return KopulaFamily(ctx, base, "quarter_sum")


# ---------------------------------------------------------------------------
# classical one-parameter pair functions


@dataclass(frozen=True)
class PairParamFn:
    """A named one-parameter pair function, range-checked at construction."""

    name: str
    theta: float
    fn: PairFn

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.fn(a, b)


def _log_abs_expm1(z: np.ndarray) -> np.ndarray:
    """log|e**z - 1|, stable for any real z; 0 maps to -inf."""
    big = z > 30.0
    safe = np.where(big, 0.0, z)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(np.expm1(safe)))
    return np.where(big, z, out)


def _amh_fn(theta: float) -> PairFn:
    def f(a, b):
        return a * b / (1.0 - theta * (1.0 - a) * (1.0 - b))

    return f


def _clayton_fn(theta: float) -> PairFn:
    def f(a, b):
        if theta < 0.0:
            return np.maximum(a ** (-theta) + b ** (-theta) - 1.0, 0.0) ** (-1.0 / theta)
        # a (1 + (a/b)^theta - a^theta)^(-1/theta) with a <= b: no power
        # exceeds 1 and the bracket is at least 1, so no theta overflows
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ratio = np.divide(lo, hi, out=np.zeros(np.shape(lo)), where=hi > 0.0)
        return lo * (1.0 + ratio**theta - lo**theta) ** (-1.0 / theta)

    return f


def _frank_fn(theta: float) -> PairFn:
    # work with log magnitudes: the three expm1 factors overflow or
    # underflow long before theta reaches interesting sizes
    def ratio_form(a, b):
        s = (
            _log_abs_expm1(-theta * a)
            + _log_abs_expm1(-theta * b)
            - _log_abs_expm1(-theta)
        )
        if theta > 0.0:
            # the true ratio sits in [-1, 0]; rounding must not push it past -1
            s = np.minimum(s, 0.0)
            with np.errstate(divide="ignore"):
                return -np.log(-np.expm1(s)) / theta
        return -np.logaddexp(0.0, s) / theta

    def expansion_form(a, b):
        # past theta ~ 40 the positive-theta factors all saturate at -1
        # and the ratio degenerates; expand the log's argument instead
        # and pull exp(-theta*a) out of numerator and denominator, so
        # every exponent that remains is nonpositive
        bracket = (
            1.0
            + np.exp(-theta * (b - a))
            - np.exp(-theta * (1.0 - a))
            - np.exp(-theta * b)
        )
        with np.errstate(divide="ignore"):
            out = a - (np.log(bracket) - np.log1p(-np.exp(-theta))) / theta
        return np.clip(out, 0.0, a)

    def f(a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if theta > 10.0:
            return expansion_form(a, b)
        return ratio_form(a, b)

    return f


def _gumbel_fn(theta: float) -> PairFn:
    def f(a, b):
        with np.errstate(divide="ignore"):
            la = (-np.log(a)) ** theta
            lb = (-np.log(b)) ** theta
            return np.exp(-((la + lb) ** (1.0 / theta)))

    return f


def _joe_fn(theta: float) -> PairFn:
    def f(a, b):
        ua = (1.0 - a) ** theta
        ub = (1.0 - b) ** theta
        return 1.0 - (ua + ub - ua * ub) ** (1.0 / theta)

    return f


_CLASSICAL = {
    "amh": (_amh_fn, "theta in [-1, 1)", lambda t: -1.0 <= t < 1.0),
    "clayton": (_clayton_fn, "theta in [-1, inf), theta != 0", lambda t: t >= -1.0 and t != 0.0),
    "frank": (_frank_fn, "theta != 0", lambda t: t != 0.0),
    "gumbel": (_gumbel_fn, "theta in [1, inf)", lambda t: t >= 1.0),
    "joe": (_joe_fn, "theta in [1, inf)", lambda t: t >= 1.0),
}


def classical_pair_param(family: str, theta: float) -> PairParamFn:
    """One of the named one-parameter pair functions.

    Supported names: amh, clayton, frank, gumbel, joe.  The parameter
    range is enforced here; the excluded interior points of clayton and
    frank are rejected rather than continued by their product limits.
    """
    key = family.strip().lower()
    if key not in _CLASSICAL:
        raise ParameterRangeError(
            f"unknown classical family {family!r}; choose from {sorted(_CLASSICAL)}"
        )
    make, domain, ok = _CLASSICAL[key]
    theta = float(theta)
    if not np.isfinite(theta) or not ok(theta):
        raise ParameterRangeError(f"{key}: {domain}, got theta = {theta!r}")
    return PairParamFn(key, theta, make(theta))
