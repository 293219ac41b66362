"""Seeded terrace-index sampling."""

import numpy as np
import pytest

import kopula as ko

from helpers import epd1

DOUBLET = (0.56, 0.24, 0.14, 0.06)


class TestSampleSpec:
    def test_sample_count_must_be_positive(self):
        for n in (0, -3):
            with pytest.raises(ko.ParameterRangeError):
                ko.SampleSpec(n)

    def test_seed_must_fit_in_64_bits(self):
        assert ko.SampleSpec(10, seed=(1 << 64) - 1).seed == (1 << 64) - 1
        for seed in (-1, 1 << 64):
            with pytest.raises(ko.ParameterRangeError):
                ko.SampleSpec(10, seed=seed)


class TestSampleEpd1:
    def test_reruns_are_bit_identical(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        spec = ko.SampleSpec(5000, seed=42)
        first = ko.sample_epd1(d, spec)
        second = ko.sample_epd1(d, spec)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        a = ko.sample_epd1(d, ko.SampleSpec(1000, seed=1))
        b = ko.sample_epd1(d, ko.SampleSpec(1000, seed=2))
        assert not np.array_equal(a, b)

    def test_output_shape_and_range(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        out = ko.sample_epd1(d, ko.SampleSpec(1000, seed=3))
        assert out.shape == (1000,)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < ctx2.size

    def test_point_mass(self, ctx2):
        d = epd1(ctx2, (0.0, 0.0, 1.0, 0.0))
        out = ko.sample_epd1(d, ko.SampleSpec(500, seed=9))
        assert np.all(out == 2)

    def test_frequencies_approach_the_table(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        out = ko.sample_epd1(d, ko.SampleSpec(20000, seed=7))
        freq = np.bincount(out, minlength=4) / 20000
        np.testing.assert_allclose(freq, DOUBLET, atol=0.02)

    def test_invalid_table_refused(self):
        ctx = ko.EventSetContext(1)
        bad = ko.Epd1(ctx, np.array([1.1, -0.1]))
        with pytest.raises(ko.InvalidDistributionError):
            ko.sample_epd1(bad, ko.SampleSpec(10))


class TestSampleSummary:
    def test_structure(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        s = ko.sample_summary(d, ko.SampleSpec(2000, seed=5))
        assert s["n_events"] == 2
        assert s["n_samples"] == 2000
        assert s["seed"] == 5
        assert s["labels"] == ["x", "y"]
        assert sum(s["counts"]) == 2000
        assert sum(s["frequencies"]) == pytest.approx(1.0, abs=1e-12)

    def test_marginals_and_standard_errors(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        s = ko.sample_summary(d, ko.SampleSpec(2000, seed=5))
        for k, (m, se) in enumerate(zip(s["marginals"], s["marginal_se"])):
            assert se == pytest.approx((m * (1 - m) / 2000) ** 0.5, abs=1e-15)
        # empirical marginals near the table's within a generous band
        np.testing.assert_allclose(s["marginals"], (0.3, 0.2), atol=0.05)

    def test_summary_is_plain_python(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        s = ko.sample_summary(d, ko.SampleSpec(100, seed=1))
        assert isinstance(s["marginals"][0], float)
        assert isinstance(s["counts"][0], int)

    @pytest.mark.parametrize("trial", range(20))
    def test_counts_are_the_draws_counted(self, trial):
        # counts come from binary searches of the CDF in the sorted uniforms;
        # they must be the per-draw masks counted, zero cells and all
        rng = np.random.default_rng([7, trial])
        n = int(rng.integers(1, 9))
        v = rng.random(1 << n) * (rng.random(1 << n) < 0.6)
        v[int(rng.integers(0, 1 << n))] += 0.1
        d = ko.Epd1(ko.EventSetContext(n), v / v.sum())
        spec = ko.SampleSpec(int(rng.integers(1, 5000)), seed=int(rng.integers(0, 1 << 32)))
        expected = np.bincount(ko.sample_epd1(d, spec), minlength=d.context.size)
        assert ko.sample_summary(d, spec)["counts"] == expected.tolist()
