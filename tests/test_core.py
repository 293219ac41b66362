"""Event contexts, the two table kinds, the Möbius pair, and validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kopula as ko
from kopula.core import _finish_epd1
from kopula.oracles import (
    naive_epd1_from_epd2,
    naive_epd2_from_epd1,
    naive_marginals,
)

from helpers import epd1, epd2, random_epd1

DOUBLET_INDEP = (0.56, 0.24, 0.14, 0.06)  # p_x=0.3 (bit 0), p_y=0.2 (bit 1)


@st.composite
def epd1_tables(draw, max_events=6):
    n = draw(st.integers(1, max_events))
    size = 1 << n
    weights = draw(
        st.lists(st.integers(0, 1000), min_size=size, max_size=size).filter(
            lambda v: sum(v) > 0
        )
    )
    values = np.array(weights, dtype=np.float64) / sum(weights)
    return ko.Epd1(ko.EventSetContext(n), values)


class TestEventSetContext:
    def test_default_labels(self):
        assert ko.EventSetContext(3).labels == ("x0", "x1", "x2")

    def test_size_and_full_mask(self, ctx3):
        assert ctx3.size == 8
        assert ctx3.full_mask == 0b111

    def test_event_count_limits(self):
        for n in (0, -1, ko.MAX_EVENTS + 1):
            with pytest.raises(ko.ContextError):
                ko.EventSetContext(n)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ko.ContextError):
            ko.EventSetContext(2, ("a", "a"))

    @pytest.mark.parametrize("label", ["a&b", "a b", "a,b"])
    def test_reserved_characters_rejected(self, label):
        with pytest.raises(ko.ContextError):
            ko.EventSetContext(1, (label,))

    def test_mask_labels(self, ctx2):
        assert ctx2.mask_label(0) == ""
        assert ctx2.mask_label(0b10) == "y"
        assert ctx2.mask_label(0b11) == "x&y"

    def test_mask_from_label_roundtrip(self, ctx3):
        for mask in range(ctx3.size):
            assert ctx3.mask_from_label(ctx3.mask_label(mask)) == mask

    def test_mask_from_label_rejects_unknown(self, ctx2):
        with pytest.raises(ko.ContextError):
            ctx2.mask_from_label("x&zz")

    def test_index_of(self, ctx2):
        assert ctx2.index_of("y") == 1
        with pytest.raises(ko.ContextError):
            ctx2.index_of("zz")

    def test_label_lookup_leaves_identity_alone(self, ctx2):
        fresh = ko.EventSetContext(2, ("x", "y"))
        before = repr(ctx2)
        assert ctx2.index_of("x") == 0
        assert repr(ctx2) == before
        assert ctx2 == fresh and hash(ctx2) == hash(fresh)
        with pytest.raises(ko.ContextError):
            ctx2.index_of(["x"])

    def test_check_mask_bounds(self, ctx2):
        ctx2.check_mask(0b11)
        for mask in (4, -1):
            with pytest.raises(ko.ContextError):
                ctx2.check_mask(mask)


def test_mask_bits():
    assert list(ko.mask_bits(0b1011)) == [0, 1, 3]
    assert list(ko.mask_bits(0)) == []


def test_submasks_enumerates_the_sublattice():
    assert sorted(ko.submasks(0b101)) == [0, 1, 4, 5]
    assert list(ko.submasks(0)) == [0]


@pytest.mark.parametrize("walk", [ko.mask_bits, ko.submasks])
@pytest.mark.parametrize("mask", [-1, -6, np.int64(-2)])
def test_negative_masks_are_rejected(walk, mask):
    # a negative mask has bits without end, so both walks would never stop
    with pytest.raises(ko.ContextError, match="nonnegative"):
        list(walk(mask))


class TestMarginalSet:
    def test_from_values_detects_half_rare(self, ctx2):
        assert ko.MarginalSet.from_values(ctx2, (0.5, 0.25)).half_rare
        assert not ko.MarginalSet.from_values(ctx2, (0.7, 0.2)).half_rare

    def test_is_nonincreasing(self, ctx3):
        assert ko.MarginalSet.from_values(ctx3, (0.5, 0.4, 0.4)).is_nonincreasing()
        assert not ko.MarginalSet.from_values(ctx3, (0.4, 0.5, 0.3)).is_nonincreasing()

    def test_probs_must_be_probabilities(self, ctx2):
        with pytest.raises(ko.KopulaError):
            ko.MarginalSet.from_values(ctx2, (1.2, 0.3))


class TestContainers:
    def test_value_lookup(self, ctx2):
        d = epd1(ctx2, DOUBLET_INDEP)
        assert d.value(0b01) == 0.24
        assert d.n_events == 2

    def test_shape_checked(self, ctx2):
        with pytest.raises(ko.ContextError):
            ko.Epd1(ctx2, np.zeros(3))

    def test_non_finite_rejected(self, ctx2):
        with pytest.raises(ko.InvalidDistributionError):
            ko.Epd1(ctx2, np.array([1.0, 0.0, np.nan, 0.0]))

    def test_values_are_read_only(self, ctx2):
        d = epd1(ctx2, DOUBLET_INDEP)
        with pytest.raises(ValueError):
            d.values[0] = 9.0


class TestMobiusPair:
    def test_single_event_zeta(self, ctx1):
        out = ko.epd2_from_epd1(epd1(ctx1, (0.3, 0.7)))
        np.testing.assert_allclose(out.values, [1.0, 0.7], atol=1e-15)

    def test_doublet_zeta(self, ctx2):
        out = ko.epd2_from_epd1(epd1(ctx2, DOUBLET_INDEP))
        np.testing.assert_allclose(out.values, [1.0, 0.3, 0.2, 0.06], atol=1e-15)

    def test_doublet_inverse(self, ctx2):
        out = ko.epd1_from_epd2(epd2(ctx2, (1.0, 0.3, 0.2, 0.06)))
        np.testing.assert_allclose(out.values, DOUBLET_INDEP, atol=1e-15)

    def test_infeasible_table_names_the_subset(self, ctx2):
        table = epd2(ctx2, (1.0, 0.3, 0.2, 0.25))
        with pytest.raises(ko.InvalidDistributionError, match="y"):
            ko.epd1_from_epd2(table)

    @given(epd1_tables())
    def test_roundtrip_is_identity(self, d):
        back = ko.epd1_from_epd2(ko.epd2_from_epd1(d))
        np.testing.assert_allclose(back.values, d.values, atol=1e-12)

    @given(epd1_tables(max_events=5))
    def test_zeta_matches_naive_oracle(self, d):
        fast = ko.epd2_from_epd1(d)
        slow = naive_epd2_from_epd1(d)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-12)

    @given(epd1_tables(max_events=5))
    def test_mobius_matches_naive_oracle(self, d):
        t2 = ko.epd2_from_epd1(d)
        fast = ko.epd1_from_epd2(t2)
        slow = naive_epd1_from_epd2(t2)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-12)


class TestMarginals:
    def test_independent_doublet(self, ctx2):
        m = ko.marginals(epd1(ctx2, DOUBLET_INDEP))
        np.testing.assert_allclose(m.probs, (0.3, 0.2), atol=1e-15)

    def test_point_mass(self, ctx2):
        m = ko.marginals(epd1(ctx2, (0.0, 1.0, 0.0, 0.0)))
        np.testing.assert_allclose(m.probs, (1.0, 0.0), atol=0)

    def test_second_kind_reads_singleton_rows(self, ctx2):
        m = ko.marginals(epd2(ctx2, (1.0, 0.4, 0.3, 0.3)))
        assert m.probs == (0.4, 0.3)

    @given(epd1_tables(max_events=5))
    def test_matches_naive_oracle(self, d):
        fast = ko.marginals(d).probs
        slow = naive_marginals(d).probs
        np.testing.assert_allclose(fast, slow, atol=1e-12)


class TestCovariancePair:
    def test_positive_dependence(self, ctx2):
        d = epd2(ctx2, (1.0, 0.4, 0.3, 0.3))
        assert ko.covariance_pair(d, 0, 1) == pytest.approx(0.18, abs=1e-15)

    def test_disjoint_events(self, ctx2):
        d = epd2(ctx2, (1.0, 0.4, 0.3, 0.0))
        assert ko.covariance_pair(d, 0, 1) == pytest.approx(-0.12, abs=1e-15)

    def test_first_kind_agrees(self, ctx2):
        d = epd1(ctx2, (0.6, 0.1, 0.0, 0.3))
        assert ko.covariance_pair(d, 0, 1) == pytest.approx(0.18, abs=1e-15)

    @given(epd1_tables(max_events=4))
    def test_both_kinds_agree(self, d):
        t2 = ko.epd2_from_epd1(d)
        for i in range(d.n_events):
            for j in range(d.n_events):
                if i == j:
                    continue
                assert ko.covariance_pair(d, i, j) == pytest.approx(
                    ko.covariance_pair(t2, i, j), abs=1e-12
                )


class TestNegativeDust:
    def test_dust_is_clamped_with_warning(self, ctx2):
        values = np.array([-5e-10, 0.5, 0.3, 0.2])
        with pytest.warns(RuntimeWarning):
            out = _finish_epd1(values, ctx2, "test").values
        assert out[0] == 0.0

    def test_real_negatives_raise(self, ctx2):
        values = np.array([-1e-6, 0.5, 0.3, 0.2])
        with pytest.raises(ko.InvalidDistributionError):
            _finish_epd1(values, ctx2, "test")

    def test_negative_zero_leaves_as_positive_zero_and_nan_stays(self, ctx2):
        values = np.array([-0.0, 0.5, np.nan, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # -0.0 is not dust: no warning
            with pytest.raises(ko.InvalidDistributionError, match="finite"):
                _finish_epd1(values, ctx2, "test")  # in place, up to the finiteness check
        assert values[0] == 0.0 and not np.signbit(values[0])
        assert np.isnan(values[2])

    def test_a_total_off_one_raises(self, ctx2):
        with pytest.raises(
            ko.InvalidDistributionError,
            match=r"^epd1_from_epd2: total mass 1\.00000000\d* deviates from 1 by \+2\.000e-09$",
        ):
            ko.epd1_from_epd2(epd2(ctx2, [1.0 + 2e-9, 0.5, 0.5, 0.25]))

    def test_mobius_inverse_gives_no_negative_zero(self, ctx2):
        out = ko.epd1_from_epd2(epd2(ctx2, [1.0, 0.5, 0.5, -0.0])).values
        assert out.tolist() == [0.0, 0.5, 0.5, 0.0]
        assert not np.signbit(out).any()


class TestValidateEpd1:
    def test_valid_table(self, ctx2):
        report = ko.validate_epd1(epd1(ctx2, DOUBLET_INDEP))
        assert report.ok and report.sum_ok and report.nonnegative_ok
        assert "valid" in report.describe()

    def test_sum_deviation_flagged(self, ctx2):
        report = ko.validate_epd1(epd1(ctx2, (0.5, 0.24, 0.14, 0.06)))
        assert not report.sum_ok
        assert not report.ok

    def test_negative_cell_flagged(self, ctx2):
        report = ko.validate_epd1(epd1(ctx2, (0.62, 0.24, 0.2, -0.06)))
        assert not report.nonnegative_ok
        assert report.min_subset == 0b11
        assert report.min_value == pytest.approx(-0.06)

    def test_tolerance_is_adjustable(self, ctx2):
        d = epd1(ctx2, (0.56 + 1e-7, 0.24, 0.14, 0.06))
        assert not ko.validate_epd1(d).sum_ok
        assert ko.validate_epd1(d, tol=1e-6).sum_ok

    def test_report_text_is_bounded(self):
        ctx = ko.EventSetContext(5)
        values = np.zeros(32)
        values[1:21] = -1e-3
        values[0] = 1.02
        report = ko.validate_epd1(epd1(ctx, values))
        assert len(report.negative_entries) == 20  # the fields stay complete
        lines = report.describe().split("\n")
        assert lines == [
            f"negative probability {-1e-3:.6e} at subset {{{ctx.mask_label(m)}}} (index {m})"
            for m in range(1, 11)
        ] + ["… and 10 more"]


class TestValidateEpd2:
    def test_valid_table(self, ctx2):
        report = ko.validate_epd2(epd2(ctx2, (1.0, 0.3, 0.2, 0.06)))
        assert report.ok

    def test_empty_cell_must_be_one(self, ctx2):
        report = ko.validate_epd2(epd2(ctx2, (0.9, 0.3, 0.2, 0.06)))
        assert not report.empty_ok
        assert not report.ok

    def test_monotonicity_violation_located(self, ctx2):
        report = ko.validate_epd2(epd2(ctx2, (1.0, 0.3, 0.2, 0.35)))
        assert not report.monotone_ok
        pairs = {(sub, sup) for sub, sup, _ in report.monotone_entries}
        assert (1, 3) in pairs and (2, 3) in pairs
        assert "monotonicity" in report.describe()

    def test_out_of_range_entry_flagged(self, ctx2):
        report = ko.validate_epd2(epd2(ctx2, (1.0, 1.2, 0.2, 0.1)))
        assert not report.range_ok

    def test_report_text_keeps_its_first_lines(self, monkeypatch):
        from kopula import core

        ctx = ko.EventSetContext(4)
        values = np.linspace(0.0, 1.5, 16)  # every single-bit step up breaks monotonicity
        report = ko.validate_epd2(epd2(ctx, values))
        count = 1 + len(report.range_entries) + len(report.monotone_entries)
        bounded = report.describe().split("\n")
        monkeypatch.setattr(core, "_report_text", lambda lines, count: "\n".join(lines))
        full = report.describe().split("\n")
        assert len(full) == count > 11
        assert bounded == full[:10] + [f"… and {count - 10} more"]

    @given(epd1_tables(max_events=5))
    def test_every_first_kind_table_induces_a_valid_second_kind(self, d):
        assert ko.validate_epd2(ko.epd2_from_epd1(d)).ok


@given(epd1_tables(max_events=6))
def test_random_first_kind_tables_validate(d):
    assert ko.validate_epd1(d).ok


def test_random_epd_helper_is_valid(rng):
    for n in (1, 3, 6):
        assert ko.validate_epd1(random_epd1(rng, n)).ok
