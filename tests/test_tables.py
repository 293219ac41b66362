"""The one frozen table base shared by Epd1, Epd2 and PseudoDistribution.

Constructors copy what they are given; builders adopt the array they
have just made, so each holds one table where it used to hold two.
The tracemalloc guards count that in units of one 2**18 table, traced
from after the inputs exist.  Also here: the one integer rule for counts
and masks.
"""

import numpy as np
import pytest

import kopula as ko

from helpers import random_epd1, traced_peak

N = 18
TABLE = (1 << N) * 8


@pytest.fixture(scope="module")
def big():
    return random_epd1(np.random.default_rng(18), N)


class TestOneBase:
    @pytest.mark.parametrize("cls", [ko.Epd1, ko.Epd2, ko.PseudoDistribution])
    def test_constructor_copies_flattens_and_freezes(self, ctx2, cls):
        given = np.array([[0.4, 0.3], [0.2, 0.1]])
        d = cls(ctx2, given)
        assert d.values.shape == (4,) and d.values.dtype == np.float64
        assert not d.values.flags.writeable and not np.shares_memory(d.values, given)
        assert d.n_events == 2 and d.value(0b10) == 0.2
        with pytest.raises(AttributeError):
            d.values = given

    @pytest.mark.parametrize(
        "cls, error",
        [
            (ko.Epd1, ko.ContextError),
            (ko.Epd2, ko.ContextError),
            (ko.PseudoDistribution, ko.CompositionError),
        ],
    )
    def test_wrong_size_raises_the_class_its_kind_names(self, ctx2, cls, error):
        with pytest.raises(error, match=r"expected 4 values, got shape \(3,\)"):
            cls(ctx2, [0.5, 0.25, 0.25])
        with pytest.raises(error):
            cls._adopt(ctx2, np.zeros(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pseudo_distribution_must_be_finite(self, ctx2, bad):
        with pytest.raises(ko.InvalidDistributionError, match="values must be finite"):
            ko.PseudoDistribution(ctx2, [0.1, 0.2, bad, 0.1])

    def test_finite_values_whose_sum_overflows_are_kept(self, ctx2):
        big = np.finfo(np.float64).max
        d = ko.PseudoDistribution(ctx2, [big, big, -big, 0.0])
        assert d.values.tolist() == [big, big, -big, 0.0]
        with pytest.raises(ko.InvalidDistributionError, match="values must be finite"):
            ko.PseudoDistribution(ctx2, [np.inf, -np.inf, 0.0, 0.0])

    def test_builders_hold_no_view_of_their_inputs(self, ctx3):
        d = ko.Epd1(ctx3, np.arange(1.0, 9.0) / 36.0)
        inside, outside = ko.frame_split(d, 1)
        built = [
            (ko.epd2_from_epd1(d), d),
            (ko.conditional_epd(d, 0b1), d),
            (ko.conditional_epd(d, 0b100, 0b101), d),
            (inside, d),
            (outside, d),
            (ko.frame_compose(inside, outside, inside.mass), inside),
            (inside.own_epd(), inside),
            (ko.PseudoDistribution.from_own_epd(inside.own_epd(), inside.mass), inside),
            (ko.conditional_from_pseudo(inside), inside),
            (ko.pseudo_from_conditional(ko.conditional_from_pseudo(inside), 0.5), inside),
            (ko.renumber_epd1(d, 0b111), d),
        ]
        for out, source in built:
            assert not out.values.flags.writeable
            assert not np.shares_memory(out.values, source.values)

    def test_compose_of_split_gives_the_table_back_bitwise(self, rng):
        d = random_epd1(rng, 5)
        inside, outside = ko.frame_split(d, 0)
        back = ko.frame_compose(inside, outside, inside.mass, frame_label="x0")
        assert back.values.tobytes() == d.values.tobytes()
        assert back.context == d.context
        own = inside.own_epd()
        again = ko.PseudoDistribution.from_own_epd(own, inside.mass)
        assert np.array_equal(again.values[1:], inside.values[1:])


class TestBuildersAdopt:
    """Peaks at N=18 before the builders adopted: 2.13, 1.56, 2.13 and 1.06 tables."""

    def test_epd2_from_epd1_holds_one_table(self, big):
        out, peak = traced_peak(lambda: ko.epd2_from_epd1(big))
        peak /= TABLE
        assert out.values[0] == pytest.approx(1.0)
        # traced 1.13 tables: the superset sums, adopted
        assert peak < 1.5, f"peak {peak:.2f} tables"

    def test_conditional_epd_holds_its_block_and_the_result(self, big):
        out, peak = traced_peak(lambda: ko.conditional_epd(big, 0b1))
        peak /= TABLE
        assert out.values.sum() == pytest.approx(1.0)
        # traced 1.06 tables when the raveled half and its quotient were two
        # arrays; 0.56 with the half copied once and divided in place, adopted
        assert peak < 0.75, f"peak {peak:.2f} tables"

    def test_frame_compose_holds_one_table(self, big):
        inside, outside = ko.frame_split(big, 0)
        out, peak = traced_peak(lambda: ko.frame_compose(inside, outside, inside.mass))
        peak /= TABLE
        assert out.values.tobytes() == big.values.tobytes()
        # traced 1.13 tables: the stacked slices, adopted
        assert peak < 1.5, f"peak {peak:.2f} tables"

    def test_adopting_checks_finiteness_without_a_table_of_its_own(self, big):
        fresh = big.values.copy()
        out, peak = traced_peak(lambda: ko.Epd1._adopt(big.context, fresh))
        peak /= TABLE
        assert np.shares_memory(out.values, fresh)
        # traced 0.125 tables when finiteness was checked through a 2**N bool array
        assert peak < 1 / 16, f"peak {peak:.3f} tables"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_adopting_rejects_a_non_finite_cell(self, big, bad):
        fresh = big.values.copy()
        fresh[12345] = bad
        with pytest.raises(ko.InvalidDistributionError, match="values must be finite"):
            ko.Epd1._adopt(big.context, fresh)

    def test_own_epd_holds_one_slice(self, big):
        inside, _ = ko.frame_split(big, 0)
        out, peak = traced_peak(inside.own_epd)
        peak /= TABLE
        assert out.values.sum() == pytest.approx(1.0)
        # traced 0.56 tables: one copy of the half-size slice, adopted
        assert peak < 0.75, f"peak {peak:.2f} tables"


class TestIntegerRule:
    """A count or a mask is a Python or numpy integer, never a bool, and is stored as an int."""

    @pytest.mark.parametrize("n", [True, False, 3.0, "3", None])
    def test_context_rejects_non_integers(self, n):
        with pytest.raises(ko.ContextError, match=r"n_events must be an integer in \[1, 24\]"):
            ko.EventSetContext(n)

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3), np.int32(3)])
    def test_context_accepts_numpy_integers(self, n):
        ctx = ko.EventSetContext(n)
        assert type(ctx.n_events) is int and ctx == ko.EventSetContext(3)
        assert ctx.labels == ("x0", "x1", "x2")

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_frame_params_rejects_non_integers(self, n):
        with pytest.raises(ko.ParameterRangeError, match=r"n_events must be an integer"):
            ko.FrameParams(n)

    def test_frame_params_stores_an_int(self):
        assert type(ko.FrameParams(np.int64(3)).n_events) is int

    def test_grid_resolution_rejects_a_bool(self):
        with pytest.raises(ko.ParameterRangeError, match="grid resolution must be an integer"):
            next(ko.grid_points(2, True))

    @pytest.mark.parametrize(
        "n_samples, seed, text",
        [
            (True, 0, "n_samples must be >= 1, got True"),
            (5.0, 0, "n_samples must be >= 1, got 5.0"),
            (5, False, "seed must be a 64-bit unsigned integer, got False"),
            (5, 1.0, "seed must be a 64-bit unsigned integer, got 1.0"),
            (5, 1 << 64, "seed must be a 64-bit unsigned integer"),
            (5, np.int64(-1), "seed must be a 64-bit unsigned integer"),
        ],
    )
    def test_sample_spec_rejects_non_counts(self, n_samples, seed, text):
        with pytest.raises(ko.ParameterRangeError, match=text):
            ko.SampleSpec(n_samples, seed)

    def test_check_mask_rejects_a_bool(self, ctx2):
        with pytest.raises(ko.ContextError, match="subset index True out of range"):
            ctx2.check_mask(True)

    def test_value_rejects_a_bool_mask(self, ctx2):
        d = ko.Epd1(ctx2, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ko.ContextError, match="subset index True out of range"):
            d.value(True)

    def test_renumber_rejects_a_bool_mask(self, ctx2):
        d = ko.Epd1(ctx2, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ko.ContextError, match="subset index True out of range"):
            ko.renumber_epd1(d, True)

    def test_numpy_integer_masks_are_accepted(self, ctx2):
        d = ko.Epd1(ctx2, [0.4, 0.3, 0.2, 0.1])
        assert ctx2.check_mask(np.int64(3)) == 3 and type(ctx2.check_mask(np.int64(3))) is int
        assert d.value(np.int64(1)) == 0.3
        assert ko.renumber_epd1(d, np.int64(1)).values.tolist() == [0.2, 0.1, 0.4, 0.3]  # event 1 flipped

    def test_sample_spec_stores_ints(self, ctx2):
        spec = ko.SampleSpec(np.int64(50), np.uint64((1 << 64) - 1))
        assert type(spec.n_samples) is int and type(spec.seed) is int
        assert spec == ko.SampleSpec(50, (1 << 64) - 1)
        d = ko.Epd1(ctx2, [0.4, 0.3, 0.2, 0.1])
        assert ko.sample_summary(d, spec) == ko.sample_summary(d, ko.SampleSpec(50, (1 << 64) - 1))
