"""``repr`` text of a block of floats, formatted in numpy passes over the whole block.

``join_reprs(values, sep)`` equals ``sep.join(map(repr, values.tolist()))``
for a finite float64 array.  The digits are Ryu's (U. Adams, "Ryū: fast
float-to-string conversion", PLDI 2018): the shortest decimal that reads
back as the same double, the nearest one among those of that length, and
ties to even.  Every step is a fixed sequence of integer operations, so
it runs on int64 lanes, one numpy call per step for the whole block:

* a value ``m2 * 2**e2`` is scaled by ``2**e2 / 10**e10`` through a
  multiplier that depends only on the binary exponent.  Ryu's 128-bit
  product is five 31-bit limbs here, each limb product exact in int64,
  with one fixed final shift: each multiplier is stored pre-shifted;
* the interval of decimals that read back as the value, scaled the same
  way, tells how many trailing digits can go (``_removed``), and the
  rest are rounded to nearest (``_round``).  Values whose scaled
  interval ends might be exact, such as dyadic fractions and large
  integers, take Ryu's exact-tie path (``_round_exact``);
* the text is laid out by a template per shape (digit count and
  decimal point position), gathered from a small table of characters per
  value, as ``repr`` lays it out: fixed notation for a decimal exponent
  from -4 to 15, else ``d.ddde±XX``.

A call has a fixed cost of a few dozen numpy calls, so the table writers
use it for their full blocks of 2^12 values only.  There, on a table's
values, it takes less than half the time of the C encoder's one
``float.__repr__`` per value.  Where ``repr`` is quick, on zeros and
short decimals, the two come close: zeros skip the digit search, and a
block's text is only as wide as its longest value.  The multiplier and
template tables are built at first use, in a few milliseconds.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["join_reprs"]

_LIMB = 31
_LIMB_MASK = (1 << _LIMB) - 1
_SHIFT = 147  # bits the scaled products drop: four limbs and 23 bits
_P10 = 10 ** np.arange(19, dtype=np.int64)
_HALF = np.concatenate([[np.int64(1) << 62], 5 * _P10[:-1]])  # 5 * 10**(r-1); none for r = 0
_MANT_BITS = 52
_MANT_MASK = (1 << _MANT_BITS) - 1
_BIAS = 1023 + _MANT_BITS + 2  # Ryu's e2 = biased exponent - _BIAS; 2 bits for the bounds


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: the cached tables are shared by every call."""
    a.setflags(write=False)
    return a


def _pow5bits(e):
    """Bit length of 5**e (1 for e = 0), for ints or int arrays."""
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _ryu_tables():
    """Per biased exponent: e10, the multiplier's limbs, the trailing-zero mask; exact range.

    Ryu's ``vr = floor(mv * mul / 2**j)`` is computed here as
    ``floor(mv * (mul << (_SHIFT - j)) / 2**_SHIFT)``: j runs from 118 to
    125, so the shifted multiplier has at most 155 bits, five limbs.
    For ``e2 >= 0``, ``mul`` is an upper approximation of
    ``2**j / 5**q``; below, the top 125 bits of ``5**i``.  The mask is
    ``2**q - 1`` where Ryu tests ``mv`` for ``q`` trailing zero bits,
    else all ones (the test fails).  The exponents where Ryu looks for
    powers of 5, or takes ``q <= 1``, form one range.
    """
    e2 = np.maximum(np.arange(2047), 1) - _BIAS
    up = e2 >= 0
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = np.where(up, q, -e2 - q)  # the power of 5 in the multiplier
    j = np.where(up, q - e2 + 124 + _pow5bits(q), q - _pow5bits(i) + 125)
    pow5 = [5**k for k in range(int(i.max()) + 1)]
    inverse = [(1 << (p.bit_length() + 124)) // p + 1 for p in pow5]
    top = [p >> (p.bit_length() - 125) if p.bit_length() >= 125 else p << (125 - p.bit_length())
           for p in pow5]
    muls = ((inverse if u else top)[k] << (_SHIFT - s)
            for u, k, s in zip(up.tolist(), i.tolist(), j.tolist()))
    words = np.frombuffer(b"".join(m.to_bytes(24, "little") for m in muls), "<u8")
    w0, w1, w2 = words.reshape(-1, 3).T
    limbs = np.array([w0, w0 >> 31, w0 >> 62 | w1 << 2, w1 >> 29, w1 >> 60 | w2 << 4])
    limbs = (limbs & np.uint64(_LIMB_MASK)).astype(np.int64)
    zero_bits = np.where(~up & (q > 1) & (q < 63), (1 << np.minimum(q, 62)) - 1, -1)
    exact = np.flatnonzero(np.where(up, q <= 21, q <= 1))
    arrays = np.where(up, q, q + e2), limbs, zero_bits
    return tuple(map(_read_only, arrays)), (exact[0], exact[-1])


def _scaled(cols: list, limbs: list, s: int = 0) -> np.ndarray:
    """``floor((P + s * mul) / 2**_SHIFT)`` for ``P`` given by its limb columns ``cols``."""
    carry = 0
    for k in range(4):
        x = cols[k] + s * limbs[k] if s else cols[k]
        carry = (x + carry) >> _LIMB  # arithmetic shift: floor, also below zero
    x = (cols[4] + s * limbs[4] if s else cols[4]) + carry
    return (x >> (_SHIFT - 4 * _LIMB)) + (cols[5] << (5 * _LIMB - _SHIFT))


def _trailing_zeros(z: np.ndarray) -> np.ndarray:
    """The number of trailing decimal zeros of each ``z > 0``."""
    count = np.zeros(z.size, np.int64)
    q = z // 10
    lanes = np.flatnonzero(q * 10 == z)  # most lanes end here
    if lanes.size:
        z, more = q[lanes], np.ones(lanes.size, np.int64)
        for k in (16, 8, 4, 2, 1):
            q = z // _P10[k]
            hit = np.flatnonzero(q * _P10[k] == z)
            z[hit] = q[hit]
            more[hit] += k
        count[lanes] = more
    return count


def _removed(vp: np.ndarray, vm: np.ndarray) -> np.ndarray:
    """Ryu's digit count to remove: the largest r with ``vp // 10**r > vm // 10**r``.

    With ``10**r0 <= vp - vm < 10**(r0+1)``, r is r0 unless the interval
    ``(vm, vp]`` holds its one multiple of ``10**(r0+1)``; then r counts
    that multiple's trailing zeros.
    """
    r = np.searchsorted(_P10, vp - vm, side="right")  # r0 + 1
    step = np.take(_P10, r)
    top = vp // step
    lanes = np.flatnonzero(top * step > vm)
    r -= 1
    r[lanes] += 1 + _trailing_zeros(top[lanes])
    return r


def _round(vr: np.ndarray, vm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Ryu's common case: ``vr`` without its r last digits, rounded half up, kept above ``vm``."""
    step = np.take(_P10, r)
    out = vr // step
    out += ((vr - out * step) >= np.take(_HALF, r)) | (out == vm // step)
    return out


def _round_exact(vr, vm, r, vr_exact, vm_exact) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's general case, for lanes where ``vr`` or ``vm`` may be exact: digits and removed count.

    An exact ``vm`` that ends in zeros lets more digits go, and an exact
    tie rounds to even.  ``vm`` is only flagged exact where the interval's
    ends are valid outputs (an even mantissa), so an exact ``vm`` may be
    the output.
    """
    step = np.take(_P10, r)
    vm_exact = vm_exact & (vm % step == 0)
    removed = r.copy()
    lanes = np.flatnonzero(vm_exact)
    removed[lanes] += _trailing_zeros(vm[lanes] // step[lanes])
    step = np.take(_P10, removed)
    below = np.take(_P10, np.maximum(removed - 1, 0))
    out = vr // step
    last = np.where(removed > 0, vr // below - 10 * out, 0)  # the last digit removed
    vr_exact = vr_exact & ((removed == 0) | (vr % below == 0))
    last[vr_exact & (last == 5) & (out % 2 == 0)] = 4
    out += ((out == vm // step) & ~vm_exact) | (last >= 5)
    return out, removed


def _exact_case(lanes, biased, m2, vp, vr_exact, vm_exact) -> None:
    """Ryu's tests for the exponents of ``_ryu_tables``'s exact range, one value at a time."""
    for lane, b, m in zip(lanes.tolist(), biased.tolist(), m2.tolist()):
        e2, mv, accept = b - _BIAS, 4 * m, m % 2 == 0
        mm_shift = m != 1 << _MANT_BITS or b <= 1
        if e2 >= 0:  # is mv, or an end of its interval, a multiple of 5**q?
            p5 = 5 ** (((e2 * 78913) >> 18) - (e2 > 3))
            if mv % 5 == 0:
                vr_exact[lane] = mv % p5 == 0
            elif accept:
                vm_exact[lane] = (mv - 1 - mm_shift) % p5 == 0
            else:
                vp[lane] -= (mv + 2) % p5 == 0
        else:  # q <= 1
            vr_exact[lane] = True
            if accept:
                vm_exact[lane] = mm_shift
            else:
                vp[lane] -= 1


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(digits, e)`` with ``digits * 10**e`` the shortest round-trip decimal of each ``a > 0``."""
    bits = a.view(np.int64)
    biased = bits >> _MANT_BITS
    mant = bits & _MANT_MASK
    (e10, table, zero_bits), (lo, hi) = _ryu_tables()
    m2 = mant | ((biased != 0).astype(np.int64) << _MANT_BITS)
    mv = m2 << 2
    limbs = [np.take(row, biased) for row in table]
    a0, a1 = mv & _LIMB_MASK, mv >> _LIMB
    cols = [a0 * limbs[0], *(a0 * limbs[k] + a1 * limbs[k - 1] for k in range(1, 5)), a1 * limbs[4]]
    vr = _scaled(cols, limbs)
    vp = _scaled(cols, limbs, 2)
    vm = _scaled(cols, limbs, -2)
    pow2 = np.flatnonzero((mant == 0) & (biased > 1))  # the gap below is half the gap above
    if pow2.size:
        vm[pow2] = _scaled([c[pow2] for c in cols], [b[pow2] for b in limbs], -1)
    vr_exact = (mv & np.take(zero_bits, biased)) == 0
    vm_exact = np.zeros(a.size, bool)
    lanes = np.flatnonzero((biased >= lo) & (biased <= hi))
    if lanes.size:
        _exact_case(lanes, biased[lanes], m2[lanes], vp, vr_exact, vm_exact)
    r = _removed(vp, vm)
    digits = _round(vr, vm, r)
    lanes = np.flatnonzero(vr_exact | vm_exact)
    if lanes.size:
        digits[lanes], r[lanes] = _round_exact(
            vr[lanes], vm[lanes], r[lanes], vr_exact[lanes], vm_exact[lanes]
        )
    return digits, np.take(e10, biased) + r


# ---------------------------------------------------------------------------
# text layout: row k of the character table is the digit of 10**(16-k), then
# come these rows and one per separator character; a template lists the rows
# a value's text takes, then the separator's, and NUL rows are dropped

_ZERO, _DOT, _SIGN, _E, _EXP_SIGN, _EXP_100, _EXP_10, _EXP_1, _NUL = range(17, 26)
_FIXED = 20  # decimal point positions written in fixed notation: -3 .. 16


@functools.cache
def _templates(nsep: int) -> tuple[np.ndarray, np.ndarray]:
    """The character-table rows of each text shape and an ``nsep``-character separator; widths.

    Row ``ndig * _FIXED + point + 3`` is fixed notation with ``ndig``
    digits and the decimal point ``point`` places after the first digit's
    place (0.ddd is point 0); row ``18 * _FIXED + ndig`` is exponent
    notation.  The sign and a third exponent digit are rows that read NUL
    where they are absent; NUL pads each template to the longest.
    """
    shapes = [[] for _ in range(18 * _FIXED + 18)]
    for ndig in range(1, 18):
        digits = list(range(17 - ndig, 17))
        for point in range(-3, 17):
            if point <= 0:
                text = [_ZERO, _DOT] + [_ZERO] * -point + digits
            elif point < ndig:
                text = digits[:point] + [_DOT] + digits[point:]
            else:
                text = digits + [_ZERO] * (point - ndig) + [_DOT, _ZERO]
            shapes[ndig * _FIXED + point + 3] = [_SIGN] + text
        fraction = [_DOT] + digits[1:] if ndig > 1 else []
        shapes[18 * _FIXED + ndig] = [_SIGN, digits[0], *fraction, _E, _EXP_SIGN, _EXP_100,
                                      _EXP_10, _EXP_1]
    sep = list(range(_NUL + 1, _NUL + 1 + nsep))
    width = max(map(len, shapes))
    rows = [shape + sep + [_NUL] * (width - len(shape)) for shape in shapes]
    widths = [len(shape) + nsep for shape in shapes]
    return _read_only(np.array(rows, np.intp)), _read_only(np.array(widths, np.intp))


@functools.cache
def _exponent_text() -> np.ndarray:
    """Rows ``_EXP_SIGN.._EXP_1`` for each exponent from -330 to 330: sign and three digits."""
    e = np.arange(-330, 331)
    mag = np.abs(e)
    return _read_only(np.stack([
        np.where(e < 0, ord("-"), ord("+")),
        np.where(mag >= 100, mag // 100 + ord("0"), 0),
        mag // 10 % 10 + ord("0"),
        mag % 10 + ord("0"),
    ]).astype(np.uint8))


def _digit_rows(digits: np.ndarray, out: np.ndarray) -> None:
    """Write the last ``len(out)`` decimal digits of each ``digits``, as ASCII, into rows of ``out``.

    ``digits < 10**17``.  The halves below and above 10**9 fit uint32;
    each row is a quotient by a power of ten, less ten times the row above
    in the same half, in uint8.
    """
    rows = len(out)
    high = (digits // 10**9).astype(np.uint32)
    low = (digits % 10**9).astype(np.uint32)
    q = np.empty(out.shape, np.uint32)
    for row, place in enumerate(range(rows - 1, -1, -1)):
        half, place = (high, place - 9) if place >= 9 else (low, place)
        np.floor_divide(half, np.uint32(10**place), out=q[row])
    out[...] = q  # mod 256: the differences below are exact
    split = max(rows - 9, 0)  # the row of 10**8, the top of the low half
    if split:
        out[1:split] -= out[:split - 1] * np.uint8(10)
    out[split + 1:] -= out[split:-1] * np.uint8(10)
    out += np.uint8(ord("0"))


def join_reprs(values, sep: str) -> str:
    """``sep.join(map(repr, values))`` for finite float64 ``values``; ``sep`` is ASCII without NUL.

    A non-finite value raises ``ValueError``.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    n = x.size
    if n == 0:
        return ""
    bits = x.view(np.int64)
    if ((bits >> _MANT_BITS) & 2047 == 2047).any():
        raise ValueError("join_reprs needs finite values")
    sep_bytes = sep.encode("ascii")
    if b"\0" in sep_bytes:
        raise ValueError("join_reprs needs a separator without NUL")
    a = np.abs(x)
    zero = a == 0
    has_zero = zero.any()
    if has_zero:  # a zero takes the shape of 1.0, and its digit is then written "0"
        digits, e = np.ones(n, np.int64), np.zeros(n, np.int64)
        lanes = np.flatnonzero(~zero)
        digits[lanes], e[lanes] = _shortest(a[lanes])
    else:
        digits, e = _shortest(a)
    ndig = np.searchsorted(_P10, digits, side="right")
    point = e + ndig

    chars = np.empty((_NUL + 1 + len(sep_bytes), n), np.uint8)
    _digit_rows(digits, chars[17 - ndig.max():17])  # no template reads a row above
    if has_zero:
        chars[16, zero] = ord("0")
    chars[_ZERO], chars[_DOT], chars[_E], chars[_NUL] = ord("0"), ord("."), ord("e"), 0
    np.multiply(bits < 0, ord("-"), out=chars[_SIGN], casting="unsafe")
    chars[_EXP_SIGN:_EXP_1 + 1] = np.take(_exponent_text(), np.clip(point + 329, 0, 660), axis=1)
    chars[_NUL + 1:] = np.frombuffer(sep_bytes, np.uint8)[:, None]

    shape = np.where((point < -3) | (point > 16), 18 * _FIXED + ndig, ndig * _FIXED + point + 3)
    templates, widths = _templates(len(sep_bytes))
    width = np.take(widths, shape).max()  # the block's longest text: short values, narrow rows
    flat = np.take(templates[:, :width] * n, shape, axis=0)
    flat += np.arange(n)[:, None]
    text = np.take(chars.reshape(-1), flat)
    del flat
    text = text[text != 0]
    return str(memoryview(text)[:text.size - len(sep_bytes)], "ascii")
