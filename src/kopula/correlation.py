"""Correlation coordinates relative to the admissible intersection windows.

A pair intersection probability p_xy can sit anywhere in its window
[max(0, p_x + p_y - 1), min(p_x, p_y)].  Measuring its offset from the
independent value p_x p_y in units of the available room on that side
gives a correlation in [-1, +1]:

    Kor = Kov / |Kov_minus|   if Kov < 0      Kov      = p_xy - p_x p_y
    Kor = Kov / Kov_plus      if Kov >= 0     Kov_minus = lower - p_x p_y
                                              Kov_plus  = upper - p_x p_y

``kor2`` and ``pxy_from_kor2`` convert back and forth.  The same idea
parametrizes the two triple-intersection values of the three-event
frame construction, except that their windows depend on the already
chosen pair values, and the independent baseline (p_x p_y p_z on the
frame side, (1-p_x) p_y p_z off it) can fall OUTSIDE the window.  Two
conventions are implemented for that case: the first keeps the
baseline and collapses both covariance bounds onto the near window
endpoint (so every Kor lands there); the second moves the anchor point
inside the window, splitting it in proportion to how far past each
endpoint the baseline sits, which keeps the two Kor signs meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    InfeasibleParameterError,
    MarginalSet,
    ParameterRangeError,
    UndefinedCorrelationError,
    VALUE_ATOL,
    _COV_EPS,
    _UNIT_SNAP,
    clean_unit_interval,
)
from .frame import FrameParams, FrechetInterval, _require_ordered_half_rare, frechet_bounds

__all__ = [
    "KovBounds",
    "kor2",
    "pxy_from_kor2",
    "inserted_triple_kov_bounds",
    "params_from_kor3",
]


@dataclass(frozen=True)
class KovBounds:
    """Covariance room around a baseline: signed offsets to the window ends.

    When the baseline sits inside its window, kov_minus <= 0 <= kov_plus.
    A baseline beyond an endpoint collapses both offsets onto that
    endpoint, so they share one sign.
    """

    kov_minus: float
    kov_plus: float


def _unit_pair(a: float, b: float, names: tuple[str, str]) -> list[float]:
    return clean_unit_interval((a, b), names.__getitem__).tolist()


def _check_kor(kor: float) -> float:
    k = float(kor)
    if not abs(k) <= 1.0 + _UNIT_SNAP:  # NaN fails too
        raise ParameterRangeError(f"correlation {kor!r} outside [-1, 1]")
    return min(1.0, max(-1.0, k))


def kor2(p_x: float, p_y: float, p_xy: float) -> float:
    """Correlation coordinate of a pair intersection probability.

    p_xy may stray up to VALUE_ATOL beyond its window (it is pulled back in);
    further out is rejected.  A zero covariance maps to 0 even when a
    window side has no room.
    """
    p_x, p_y = _unit_pair(p_x, p_y, ("p_x", "p_y"))
    if p_xy != p_xy:  # NaN: no window contains it, but it is not infeasible either
        raise ParameterRangeError(f"p_xy = {p_xy!r} is not a number")
    window = frechet_bounds({}, 0b1, p_y, p_x)
    if not window.contains(p_xy):
        raise InfeasibleParameterError(
            f"p_xy = {p_xy!r} outside its window [{window.lower!r}, {window.upper!r}]"
        )
    prod = p_x * p_y
    # covariance from the raw value: clamping into a collapsed window
    # would inject one-ulp dust and turn a zero covariance into kor 1
    kov = float(p_xy) - prod
    if abs(kov) <= _COV_EPS:
        return 0.0
    if kov < 0.0:
        room = prod - window.lower
        if room <= _COV_EPS:
            raise UndefinedCorrelationError(
                f"negative covariance {kov!r} with no room below the product"
            )
        return max(-1.0, kov / room)
    room = window.upper - prod
    if room <= _COV_EPS:
        raise UndefinedCorrelationError(
            f"positive covariance {kov!r} with no room above the product"
        )
    return min(1.0, kov / room)


def pxy_from_kor2(p_x: float, p_y: float, kor: float) -> float:
    """Pair intersection probability with the given correlation coordinate.

    Monotone nondecreasing in kor; -1, 0, +1 hit the window's lower
    end, the product, and the upper end respectively.
    """
    p_x, p_y = _unit_pair(p_x, p_y, ("p_x", "p_y"))
    return _pair_value(p_x, p_y, kor)


def _pair_value(p_x: float, p_y: float, kor: float) -> float:
    # the product always lies in the pair window, so no convention applies
    return _pick_inserted(p_x * p_y, frechet_bounds({}, 0b1, p_y, p_x), kor, 1)


def _triple_setting(
    mode: str, p: MarginalSet, pair_xy: float, pair_xz: float
) -> tuple[float, FrechetInterval]:
    """Baseline and window for one inserted triple value; event 0 frames."""
    if p.context.n_events != 3:
        raise ParameterRangeError(
            f"triple parametrization needs 3 events, got {p.context.n_events}"
        )
    px, py, pz = p.probs
    if mode == "frame":
        mass = px
        facets = {0b01: pair_xy, 0b10: pair_xz}
    elif mode == "complement":
        mass = 1.0 - px
        facets = {0b01: py - pair_xy, 0b10: pz - pair_xz}
    else:
        raise ParameterRangeError(
            f"mode must be 'frame' or 'complement', got {mode!r}"
        )
    return mass * py * pz, frechet_bounds(facets, 0b11, None, mass)


def inserted_triple_kov_bounds(
    mode: str, p: MarginalSet, pair_xy: float, pair_xz: float
) -> tuple[float, KovBounds]:
    """Clamped independence baseline and covariance room for a triple value.

    ``mode`` picks the slice: "frame" for the triple intersection with
    event 0, "complement" for the triple against event 0's complement.
    The offsets are measured from the raw (unclamped) baseline; when it
    lies outside the window both collapse onto the near endpoint.
    """
    pair_xy, pair_xz = _unit_pair(pair_xy, pair_xz, ("pair_xy", "pair_xz"))
    raw, window = _triple_setting(mode, p, pair_xy, pair_xz)
    return window.clamp(raw), KovBounds(*_kov_room(raw, window))


def _kov_room(raw: float, window: FrechetInterval) -> tuple[float, float]:
    """Offsets from ``raw`` to the window ends, collapsed onto the near end if outside."""
    lo, up = window.lower - raw, window.upper - raw
    if lo > 0.0:
        up = lo
    elif up < 0.0:
        lo = up
    return lo, up


def _pick_inserted(
    raw: float, window: FrechetInterval, kor: float, modification: int
) -> float:
    """Resolve one value from its correlation coordinate: move it |kor| of
    the way from the baseline ``raw`` along its room in ``window``."""
    kor = _check_kor(kor)
    lo, hi = _kov_room(raw, window)
    if modification == 2 and not window.lower <= raw <= window.upper:
        # second convention: relocate the anchor inside the window
        den = window.upper + window.lower - 2.0 * raw
        if abs(den) < VALUE_ATOL:
            # degenerate window right at the baseline; endpoint rule applies
            edge = window.lower if raw < window.lower else window.upper
            return window.clamp(edge)
        raw = window.lower + (window.lower - raw) * window.width / den
        lo, hi = window.lower - raw, window.upper - raw
    return window.clamp(raw - kor * lo if kor < 0.0 else raw + kor * hi)


def params_from_kor3(
    p: MarginalSet,
    kor_xy: float,
    kor_xz: float,
    kor_in: float,
    kor_out: float,
    modification: int = 1,
) -> FrameParams:
    """Three-event frame parameters from four correlation coordinates.

    ``p`` must be ordered half-rare (largest first); event 0 frames.
    kor_xy and kor_xz fix the two frame pair values through their plain
    windows; kor_in and kor_out fix the two triple values through the
    windows those pairs induce.  ``modification`` chooses how a triple
    baseline outside its window is handled (see the module docstring).
    """
    if modification not in (1, 2):
        raise ParameterRangeError(f"modification must be 1 or 2, got {modification}")
    px, py, pz = _require_ordered_half_rare(p, 3, "params_from_kor3")
    # the marginals are clean already, and the pair values land in their windows
    a1 = _pair_value(px, py, kor_xy)
    a2 = _pair_value(px, pz, kor_xz)
    raw_in, win_in = _triple_setting("frame", p, a1, a2)
    t_in = _pick_inserted(raw_in, win_in, kor_in, modification)
    raw_out, win_out = _triple_setting("complement", p, a1, a2)
    t_out = _pick_inserted(raw_out, win_out, kor_out, modification)
    return FrameParams.from_triplet(a1, a2, t_in, t_out)
