"""The per-event cell view against mask enumeration, bit for bit.

Every kernel that reads the cells with or without one event must see the
same cells in the same ascending mask order as a boolean selection over
``np.arange(2**n)``, so that sums round the same way.
"""

import numpy as np
import pytest

import kopula as ko

from helpers import traced_peak

SIZES = range(1, 13)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def has(n, k):
    return (np.arange(1 << n) >> k) & 1 == 1


def rough_epd1(n, seed):
    """A normalised table with cells of very different sizes, so summation order shows."""
    rng = np.random.default_rng(seed)
    v = rng.exponential(size=1 << n) * 10.0 ** rng.integers(-8, 1, size=1 << n)
    return ko.Epd1(ko.EventSetContext(n), v / v.sum())


def reference_validate_epd2(values, n, tol):
    masks = np.arange(1 << n)
    out_of_range = np.nonzero((values < -tol) | (values > 1.0 + tol))[0]
    mono = []
    for k in range(n):
        lower = masks[(masks & 1 << k) == 0]
        gap = values[lower | 1 << k] - values[lower]
        mono += [(int(m), int(m | 1 << k), float(g)) for m, g in zip(lower, gap) if g > 1e-12]
    return [(int(m), float(values[m])) for m in out_of_range], mono


@pytest.mark.parametrize("n", SIZES)
def test_validate_epd2_entries_and_their_order(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(-0.1, 1.1, 1 << n)  # breaks range and monotonicity both
    values[0], values[-1] = 1.0, 1.1  # the full set exceeds every facet
    report = ko.validate_epd2(ko.Epd2(ko.EventSetContext(n), values))
    ranged, mono = reference_validate_epd2(values, n, ko.SUM_ATOL)
    assert mono and report.monotone_entries == tuple(mono)
    assert same_bits([g for *_, g in report.monotone_entries], [g for *_, g in mono])
    assert report.range_entries == tuple(ranged)


def reference_validate_epd1(values, tol):
    negative = [(int(m), float(values[m])) for m in range(values.size) if values[m] < -tol]
    worst = min(range(values.size), key=lambda m: (values[m], m))  # the first of equal minima
    return negative, float(values[worst]), worst


@pytest.mark.parametrize("n", SIZES)
def test_validate_epd1_entries_and_the_minimum(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(-0.1, 0.1, 1 << n)  # about half the cells below -tol
    values[-1] = -0.05
    values[rng.integers(0, 1 << n)] = values.min()  # a tie for the minimum, at n > 1 often
    report = ko.validate_epd1(ko.Epd1(ko.EventSetContext(n), values))
    negative, min_value, min_subset = reference_validate_epd1(values, ko.SUM_ATOL)
    assert negative and report.negative_entries == tuple(negative)
    assert same_bits([v for _, v in report.negative_entries], [v for _, v in negative])
    assert same_bits(report.min_value, min_value) and report.min_subset == min_subset


@pytest.mark.parametrize("n", range(2, 13))
def test_covariance_pair_sums(n):
    d = rough_epd1(n, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                p_i, p_j = d.values[has(n, i)].sum(), d.values[has(n, j)].sum()
                p_ij = d.values[has(n, i) & has(n, j)].sum()
                assert same_bits(ko.covariance_pair(d, i, j), float(p_ij - p_i * p_j))


@pytest.mark.parametrize("n", SIZES)
def test_marginals(n):
    d = rough_epd1(n, n)
    ref = [float(d.values[has(n, k)].sum()) for k in range(n)]
    assert same_bits(ko.marginals(d).probs, ref)


@pytest.mark.parametrize("n", range(2, 13))
def test_frame_split(n):
    d = rough_epd1(n, n)
    for k in range(n):
        occurred, not_occurred = ko.frame_split(d, k)
        assert same_bits(occurred.values, d.values[has(n, k)])
        assert same_bits(not_occurred.values, d.values[~has(n, k)])
        assert same_bits(occurred.mass, d.values[has(n, k)].sum())


@pytest.mark.parametrize("n", range(2, 13))
def test_conditional_epd(n):
    d = rough_epd1(n, n)
    rng = np.random.default_rng(100 + n)
    masks = np.arange(1 << n)
    frames = [0, 1, 1 << (n - 1), (1 << n) - 2] + rng.integers(1, (1 << n) - 1, 6).tolist()
    for frame in frames:
        for y in {0, frame, frame & int(rng.integers(0, 1 << n))}:
            block = d.values[(masks & frame) == y]
            ref = block / float(block.sum())
            assert same_bits(ko.conditional_epd(d, y, frame).values, ref), (frame, y)


@pytest.mark.parametrize("n", SIZES)
def test_sample_summary_marginals(n):
    d = rough_epd1(n, n)
    summary = ko.sample_summary(d, ko.SampleSpec(5000, seed=n))
    counts = np.array(summary["counts"])
    ref = [counts[has(n, k)].sum() / 5000 for k in range(n)]
    assert same_bits(summary["marginals"], ref)


def test_halves_are_raveled_before_they_are_summed():
    # past a numpy buffer's length a strided 2-D sum rounds unlike the contiguous one
    n = 19
    d = rough_epd1(n, n)
    masks = np.arange(1 << n)
    ref = [float(d.values[has(n, k)].sum()) for k in range(n)]
    assert same_bits(ko.marginals(d).probs, ref)
    for i, j in [(4, 7), (12, 5), (18, 10), (0, 1)]:
        p_ij = d.values[has(n, i) & has(n, j)].sum()
        assert same_bits(ko.covariance_pair(d, i, j), float(p_ij - ref[i] * ref[j]))
    for frame, y in [(1 << 4, 1 << 4), (1 << 11, 0), (1 << 12 | 1 << 3, 1 << 3), (1 << 18 | 1, 1)]:
        block = d.values[(masks & frame) == y]
        assert same_bits(ko.conditional_epd(d, y, frame).values, block / float(block.sum()))


def test_validate_epd2_memory_stays_near_one_table():
    n = 18
    d = ko.epd2_from_epd1(rough_epd1(n, 0))
    report, peak = traced_peak(lambda: ko.validate_epd2(d))
    assert report.ok
    assert peak < 1.5 * (1 << n) * 8, f"peak {peak / 2**20:.1f} MB"


def rising_epd2(n):
    """Values rising evenly with the mask: every one of the n * 2**(n-1) steps goes up."""
    return ko.Epd2(ko.EventSetContext(n), np.linspace(0.0, 1.0, 1 << n))


def test_a_report_of_every_step_up_stays_within_a_few_tables():
    # the steps of one event at a time: its gaps, and its two index arrays of
    # at most half a table each; 170.7 tables when every step was a tuple
    n = 16
    d = rising_epd2(n)
    text, peak = traced_peak(lambda: ko.validate_epd2(d).describe())
    assert text.endswith(f"… and {1 + n * (1 << n - 1) - 10} more")
    assert peak < 4 * d.values.nbytes, f"{peak / d.values.nbytes:.1f} tables"


def test_a_report_of_every_cell_negative_stays_within_a_few_tables():
    # the indices of the negative cells, one table; 16.1 tables when each was a tuple
    n = 16
    d = ko.Epd1(ko.EventSetContext(n), np.full(1 << n, -1.0))
    text, peak = traced_peak(lambda: ko.validate_epd1(d).describe())
    assert text.endswith(f"… and {1 + (1 << n) - 10} more")
    assert peak < 4 * d.values.nbytes, f"{peak / d.values.nbytes:.1f} tables"
