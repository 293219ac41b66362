"""The float-text kernel: ``join_reprs`` against ``repr``, byte for byte.

``kopula._floattext.join_reprs(x, sep)`` must equal
``sep.join(map(repr, x.tolist()))`` for every finite float64 array: the
shortest round-trip digits, nearest and ties-to-even, in ``repr``'s fixed
or exponent layout.  The cases cover every binade, both interval ends of
each power of two, the subnormal range, decimal powers, short decimals,
large round integers, and the notation switches at 1e-4/1e-5 and
1e16/1e17.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kopula._floattext import join_reprs


def assert_reprs(values, sep=","):
    x = np.asarray(values, dtype=np.float64)
    ours, reference = join_reprs(x, sep), sep.join(map(repr, x.tolist()))
    if ours != reference:
        pairs = zip(ours.split(sep), reference.split(sep), x.tolist())
        bad = [(a, b, v.hex()) for a, b, v in pairs if a != b][:5]
        pytest.fail(f"{len(ours)} vs {len(reference)} chars; first differences: {bad}")


def test_seeded_finite_bit_patterns():
    bits = np.random.default_rng(16).integers(0, 1 << 64, 1 << 16, dtype=np.uint64)
    x = bits.view(np.float64)
    assert_reprs(x[np.isfinite(x)])


def test_every_power_of_two_and_its_neighbours():
    powers = 2.0 ** np.arange(-1074, 1024)
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers[:-1], np.inf)
    assert_reprs(np.concatenate([powers, below, above, -powers]))


def test_subnormal_ends_and_the_largest_double():
    assert_reprs([5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -5e-324, -1.7976931348623157e308])


def test_decimal_powers():
    assert_reprs([float(f"1e{k}") for k in range(-323, 309)])


def test_large_round_integers_and_their_neighbours():
    # from 1e10 up, products of 10**k are where Ryu looks for exact multiples of 5**q
    round_numbers = np.concatenate([np.arange(1.0, 2000.0) * 10.0**k for k in range(10, 26)])
    neighbours = [np.nextafter(round_numbers, 0.0), np.nextafter(round_numbers, np.inf)]
    assert_reprs(np.concatenate([round_numbers, *neighbours]))


def test_small_integers_and_thousandths():
    k = np.arange(5001)
    assert_reprs(np.concatenate([k.astype(np.float64), k / 1000]))


def test_notation_switches():
    assert_reprs([1e-4, 1e-5, 1e16, 1e17, 9.999999999999999e-05, 9999999999999998.0,
                  1.2345678901234567e-05, 0.00012345678901234567, 123456789012345.67])


def test_zeros_keep_their_sign():
    assert_reprs([0.0, -0.0, 0.5, -0.0, 0.0])


@pytest.mark.parametrize("sep", [",", ",\n    ", "\n", ""])
def test_any_separator(sep):
    assert_reprs(np.random.default_rng(3).random(100) * 1e-3, sep)


def test_empty_and_single():
    assert join_reprs(np.array([]), ",") == ""
    assert join_reprs(np.array([0.1]), ",") == "0.1"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
def test_hypothesis_lists_of_finite_floats(values):
    assert_reprs(values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raises(bad):
    with pytest.raises(ValueError, match="finite"):
        join_reprs(np.array([0.5, bad, 0.25]), ",")


def test_a_nul_separator_raises():
    with pytest.raises(ValueError, match="NUL"):
        join_reprs(np.array([0.5, 0.25]), "\0")
