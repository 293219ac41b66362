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
    clean_unit_interval,
)
from .frame import FrameParams, FrechetInterval, frechet_bounds

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
    if not abs(k) <= 1.0 + 1e-12:  # NaN fails too
        raise ParameterRangeError(f"correlation {kor!r} outside [-1, 1]")
    return min(1.0, max(-1.0, k))


def _pair_window(p_x: float, p_y: float) -> FrechetInterval:
    return frechet_bounds({}, 0b1, p_y, p_x)


def kor2(p_x: float, p_y: float, p_xy: float) -> float:
    """Correlation coordinate of a pair intersection probability.

    p_xy may stray up to 1e-9 beyond its window (it is pulled back in);
    further out is rejected.  A zero covariance maps to 0 even when a
    window side has no room.
    """
    p_x, p_y = _unit_pair(p_x, p_y, ("p_x", "p_y"))
    if p_xy != p_xy:  # NaN: no window contains it, but it is not infeasible either
        raise ParameterRangeError(f"p_xy = {p_xy!r} is not a number")
    window = _pair_window(p_x, p_y)
    if not window.contains(p_xy):
        raise InfeasibleParameterError(
            f"p_xy = {p_xy!r} outside its window [{window.lower!r}, {window.upper!r}]"
        )
    prod = p_x * p_y
    # covariance from the raw value: clamping into a collapsed window
    # would inject one-ulp dust and turn a zero covariance into kor 1
    kov = float(p_xy) - prod
    if abs(kov) <= 1e-12:
        return 0.0
    if kov < 0.0:
        room = prod - window.lower
        if room <= 1e-12:
            raise UndefinedCorrelationError(
                f"negative covariance {kov!r} with no room below the product"
            )
        return max(-1.0, kov / room)
    room = window.upper - prod
    if room <= 1e-12:
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
    return _pair_value(p_x, p_y, _check_kor(kor))


def _pair_value(p_x: float, p_y: float, kor: float) -> float:
    window = _pair_window(p_x, p_y)
    prod = p_x * p_y
    if kor < 0.0:
        raw = prod + kor * (prod - window.lower)
    else:
        raw = prod + kor * (window.upper - prod)
    return window.clamp(raw)


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
        raw = px * py * pz
        known = {0b01: pair_xy, 0b10: pair_xz}
        window = frechet_bounds(known, 0b11, None, px)
    elif mode == "complement":
        raw = (1.0 - px) * py * pz
        known = {0b01: py - pair_xy, 0b10: pz - pair_xz}
        window = frechet_bounds(known, 0b11, None, 1.0 - px)
    else:
        raise ParameterRangeError(
            f"mode must be 'frame' or 'complement', got {mode!r}"
        )
    return raw, window


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
    if raw < window.lower:
        kb = KovBounds(window.lower - raw, window.lower - raw)
    elif raw > window.upper:
        kb = KovBounds(window.upper - raw, window.upper - raw)
    else:
        kb = KovBounds(window.lower - raw, window.upper - raw)
    return window.clamp(raw), kb


def _pick_inserted(
    raw: float, window: FrechetInterval, kor: float, modification: int
) -> float:
    """Resolve one triple value from its correlation coordinate."""
    kor = _check_kor(kor)
    inside = window.lower <= raw <= window.upper
    if modification == 1 or inside:
        if raw < window.lower:
            lo = hi = window.lower - raw
        elif raw > window.upper:
            lo = hi = window.upper - raw
        else:
            lo, hi = window.lower - raw, window.upper - raw
        t = raw - kor * lo if kor < 0.0 else raw + kor * hi
        return window.clamp(t)
    # second convention: relocate the anchor inside the window
    den = window.upper + window.lower - 2.0 * raw
    if abs(den) < 1e-9:
        # degenerate window right at the baseline; endpoint rule applies
        edge = window.lower if raw < window.lower else window.upper
        return window.clamp(edge)
    p0 = window.lower + (window.lower - raw) * window.width / den
    t = p0 - kor * (window.lower - p0) if kor < 0.0 else p0 + kor * (window.upper - p0)
    return window.clamp(t)


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
    probs = [float(v) for v in p.probs]
    if p.context.n_events != 3:
        raise ParameterRangeError(f"need exactly 3 events, got {p.context.n_events}")
    if max(probs) > 0.5 or not probs == sorted(probs, reverse=True):
        raise ParameterRangeError(
            "params_from_kor3 needs ordered half-rare marginals (largest first)"
        )
    px, py, pz = probs
    # the marginals are clean already, and the pair values land in their windows
    a1 = _pair_value(px, py, _check_kor(kor_xy))
    a2 = _pair_value(px, pz, _check_kor(kor_xz))
    raw_in, win_in = _triple_setting("frame", p, a1, a2)
    t_in = _pick_inserted(raw_in, win_in, kor_in, modification)
    raw_out, win_out = _triple_setting("complement", p, a1, a2)
    t_out = _pick_inserted(raw_out, win_out, kor_out, modification)
    return FrameParams.from_triplet(a1, a2, t_in, t_out)
