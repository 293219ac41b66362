"""Frame recursion: slices, composition, interval chains, closed forms."""

import numpy as np
import pytest

import kopula as ko
from kopula.core import _superset_mobius
from kopula.oracles import product_epd1

from helpers import (
    constrained_epd_sampler,
    epd1,
    epd2,
    finish_bound,
    permute_events,
    random_epd1,
)

INDEP_43 = (0.42, 0.28, 0.18, 0.12)  # independent doublet p_x=0.4, p_y=0.3

TRIPLE = (0.5, 0.4, 0.3)
TRIPLE_INDEP_TABLE = (0.21, 0.21, 0.14, 0.14, 0.09, 0.09, 0.06, 0.06)


def triple_marginals(ctx3):
    return ko.MarginalSet.from_values(ctx3, TRIPLE)


class TestConditional:
    def test_frozen_doublet(self, ctx2):
        cond = ko.conditional_epd(epd1(ctx2, INDEP_43), 0b10)
        np.testing.assert_allclose(cond.values, (0.6, 0.4), atol=1e-15)
        assert cond.context.n_events == 1

    def test_conditioning_on_the_complement_cell(self, ctx2):
        cond = ko.conditional_epd(epd1(ctx2, INDEP_43), 0b00, frame_events=0b10)
        np.testing.assert_allclose(cond.values, (0.6, 0.4), atol=1e-15)

    def test_independence_leaves_the_marginal_unchanged(self, ctx3):
        joint = epd1(ctx3, TRIPLE_INDEP_TABLE)
        cond = ko.conditional_epd(joint, 0b010, frame_events=0b110)
        np.testing.assert_allclose(cond.values, (0.5, 0.5), atol=1e-12)

    def test_zero_mass_cell_rejected(self, ctx2):
        point = epd1(ctx2, (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ko.ConditioningError):
            ko.conditional_epd(point, 0b01)

    def test_pattern_must_be_inside_the_frame(self, ctx2):
        with pytest.raises(ko.ConditioningError):
            ko.conditional_epd(epd1(ctx2, INDEP_43), 0b01, frame_events=0b10)


class TestPseudoDistribution:
    def test_scaling(self, ctx1):
        pseudo = ko.pseudo_from_conditional(epd1(ctx1, (0.6, 0.4)), 0.3)
        np.testing.assert_allclose(pseudo.values, (0.18, 0.12), atol=1e-15)
        assert pseudo.mass == pytest.approx(0.3, abs=1e-15)

    def test_roundtrip(self, ctx1, rng):
        for _ in range(10):
            raw = rng.exponential(size=2)
            cond = epd1(ctx1, raw / raw.sum())
            fp = rng.uniform(0.05, 1.0)
            back = ko.conditional_from_pseudo(ko.pseudo_from_conditional(cond, fp))
            np.testing.assert_allclose(back.values, cond.values, atol=1e-12)

    def test_zero_frame_probability_rejected(self, ctx1):
        with pytest.raises(ko.ConditioningError):
            ko.pseudo_from_conditional(epd1(ctx1, (0.6, 0.4)), 0.0)

    def test_frame_probability_above_one_rejected(self, ctx1):
        with pytest.raises(ko.ParameterRangeError):
            ko.pseudo_from_conditional(epd1(ctx1, (0.6, 0.4)), 1.2)

    def test_zero_mass_pseudo_cannot_be_normalized(self, ctx1):
        pseudo = ko.PseudoDistribution(ctx1, np.zeros(2))
        with pytest.raises(ko.ConditioningError):
            ko.conditional_from_pseudo(pseudo)

    def test_own_epd_roundtrip(self, ctx1):
        pseudo = ko.PseudoDistribution(ctx1, np.array([0.18, 0.12]))
        own = pseudo.own_epd()
        assert ko.validate_epd1(own).ok
        np.testing.assert_allclose(own.values, (0.88, 0.12), atol=1e-15)
        back = ko.PseudoDistribution.from_own_epd(own, 0.3)
        np.testing.assert_allclose(back.values, pseudo.values, atol=1e-15)

    def test_a_cell_mass_below_one_minus_the_empty_cell_is_rejected(self):
        own = ko.Epd1(ko.EventSetContext(2), [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ko.CompositionError) as caught:
            ko.PseudoDistribution.from_own_epd(own, 0.0)
        assert str(caught.value) == (
            "cell mass = 0.0 below the smallest admissible, 1 - values[0] = 0.6"
        )

    def test_an_empty_cell_of_dust_below_zero_is_plus_zero(self):
        own = ko.Epd1(ko.EventSetContext(2), [0.4, 0.3, 0.2, 0.1])
        back = ko.PseudoDistribution.from_own_epd(own, 0.6 - 1e-10)
        assert back.values.tolist() == [0.0, 0.3, 0.2, 0.1]
        assert not np.signbit(back.values[0])


class TestFrameSplitCompose:
    def test_split_frozen(self, ctx2):
        inside, outside = ko.frame_split(epd1(ctx2, INDEP_43), 0)
        np.testing.assert_allclose(inside.values, (0.28, 0.12), atol=1e-15)
        np.testing.assert_allclose(outside.values, (0.42, 0.18), atol=1e-15)
        assert inside.mass == pytest.approx(0.4, abs=1e-15)
        assert outside.mass == pytest.approx(0.6, abs=1e-15)

    def test_compose_frozen(self, ctx2):
        inside, outside = ko.frame_split(epd1(ctx2, INDEP_43), 0)
        joint = ko.frame_compose(inside, outside, 0.4)
        np.testing.assert_allclose(joint.values, INDEP_43, atol=1e-15)

    def test_compose_after_splitting_a_non_leading_event(self, ctx2):
        inside, outside = ko.frame_split(epd1(ctx2, INDEP_43), 1)
        joint = ko.frame_compose(inside, outside, 0.3)
        # the frame event lands on bit 0, so swap back before comparing
        swapped = permute_events(joint, (1, 0))
        np.testing.assert_allclose(swapped.values, INDEP_43, atol=1e-15)

    def test_product_intersection_gives_the_independent_doublet(self, ctx1):
        px, py = 0.4, 0.3
        inside = ko.PseudoDistribution(ctx1, np.array([px * (1 - py), px * py]))
        outside = ko.PseudoDistribution(
            ctx1, np.array([(1 - px) * (1 - py), (1 - px) * py])
        )
        joint = ko.frame_compose(inside, outside, px)
        np.testing.assert_allclose(joint.values, INDEP_43, atol=1e-15)

    def test_mass_mismatch_rejected(self, ctx2):
        inside, outside = ko.frame_split(epd1(ctx2, INDEP_43), 0)
        with pytest.raises(ko.CompositionError):
            ko.frame_compose(inside, outside, 0.5)

    def test_incompatible_slices_rejected(self, ctx2, ctx1):
        inside, _ = ko.frame_split(epd1(ctx2, INDEP_43), 0)
        stray = ko.PseudoDistribution(ctx2, np.full(4, 0.15))
        with pytest.raises(ko.KopulaError):
            ko.frame_compose(inside, stray, 0.4)

    def test_split_compose_roundtrip_random(self, rng):
        for _ in range(20):
            joint = random_epd1(rng, 3)
            p0 = float(ko.marginals(joint).probs[0])
            if p0 < 1e-6 or p0 > 1 - 1e-6:
                continue
            inside, outside = ko.frame_split(joint, 0)
            back = ko.frame_compose(inside, outside, p0)
            np.testing.assert_allclose(back.values, joint.values, atol=1e-12)

    def test_frame_label_is_fresh(self, ctx2):
        inside, outside = ko.frame_split(epd1(ctx2, INDEP_43), 0)
        joint = ko.frame_compose(inside, outside, 0.4)
        assert len(set(joint.context.labels)) == 2


class TestFrechetBounds:
    def test_singleton_window(self):
        iv = ko.frechet_bounds({}, 0b1, 0.4, 0.5)
        assert (iv.lower, iv.upper) == (0.0, 0.4)

    def test_singleton_window_with_overlap_floor(self):
        iv = ko.frechet_bounds({}, 0b1, 0.7, 0.8)
        assert iv.lower == pytest.approx(0.5, abs=1e-15)
        assert iv.upper == pytest.approx(0.7, abs=1e-15)

    def test_singleton_needs_the_event_probability(self):
        with pytest.raises(ko.DependencyError):
            ko.frechet_bounds({}, 0b1, None, 0.5)

    def test_pair_window_frozen(self):
        iv = ko.frechet_bounds({0b01: 0.2, 0b10: 0.15}, 0b11, None, 0.5)
        assert iv.lower == pytest.approx(0.0, abs=1e-15)
        assert iv.upper == pytest.approx(0.15, abs=1e-15)

    def test_triple_window_lower_term(self):
        known = {0b011: 0.18, 0b101: 0.18, 0b110: 0.18}
        iv = ko.frechet_bounds(known, 0b111, None, 0.2)
        assert iv.lower == pytest.approx(0.14, abs=1e-15)
        assert iv.upper == pytest.approx(0.18, abs=1e-15)

    def test_missing_facet_rejected(self):
        with pytest.raises(ko.DependencyError, match="facet"):
            ko.frechet_bounds({0b01: 0.2}, 0b11, None, 0.5)

    def test_empty_target_rejected(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.frechet_bounds({}, 0, 0.3, 0.5)

    @pytest.mark.parametrize("target", [-1, -3])
    def test_negative_target_rejected(self, target):
        with pytest.raises(ko.ContextError, match="nonnegative"):
            ko.frechet_bounds({}, target, 0.3, 0.5)


class TestFrechetInterval:
    def test_tiny_inversion_collapses_to_the_midpoint(self):
        iv = ko.FrechetInterval(0.3, 0.3 - 5e-10)
        assert iv.lower == iv.upper == pytest.approx(0.3, abs=1e-9)

    def test_real_inversion_rejected(self):
        with pytest.raises(ko.InfeasibleParameterError):
            ko.FrechetInterval(0.3, 0.29)

    def test_membership_and_clamping(self):
        iv = ko.FrechetInterval(0.1, 0.4)
        assert iv.contains(0.4)
        assert iv.contains(0.4 + 1e-10)
        assert not iv.contains(0.4 + 2e-9)
        assert iv.clamp(0.7) == 0.4
        assert iv.clamp(0.0) == 0.1
        assert iv.width == pytest.approx(0.3, abs=1e-15)


class TestFrameParams:
    def test_independence_keys(self):
        fp = ko.FrameParams.independence(TRIPLE)
        assert fp.intersections == pytest.approx(
            {0b011: 0.2, 0b101: 0.15, 0b110: 0.12, 0b111: 0.06}
        )

    def test_from_triplet_layout(self):
        fp = ko.FrameParams.from_triplet(0.2, 0.15, 0.06, 0.06)
        assert fp.intersections == pytest.approx(
            {0b011: 0.2, 0b101: 0.15, 0b110: 0.12, 0b111: 0.06}
        )

    def test_singleton_key_rejected(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams(3, {0b001: 0.2, 0b011: 0.1})

    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams(3, {0b011: 1.2})

    def test_label_roundtrip(self, ctx3):
        fp = ko.FrameParams.independence(TRIPLE)
        named = fp.to_labels(ctx3)
        assert named == pytest.approx(
            {"x&y": 0.2, "x&z": 0.15, "y&z": 0.12, "x&y&z": 0.06}
        )
        back = ko.FrameParams.from_labels(ctx3, named)
        assert back.intersections == pytest.approx(fp.intersections)

    def test_from_epd2_recovers_independence(self, ctx3):
        product = product_epd1(ctx3, TRIPLE)
        fp = ko.FrameParams.from_epd2(ko.epd2_from_epd1(product))
        expected = ko.FrameParams.independence(TRIPLE)
        assert fp.intersections == pytest.approx(expected.intersections, abs=1e-15)

    def test_complete_table_frozen(self):
        fp = ko.FrameParams.independence(TRIPLE)
        table = fp.complete_table(TRIPLE)
        np.testing.assert_allclose(
            table, (1.0, 0.5, 0.4, 0.2, 0.3, 0.15, 0.12, 0.06), atol=1e-15
        )

    def test_complete_table_requires_every_key(self):
        fp = ko.FrameParams(3, {0b011: 0.2, 0b101: 0.15, 0b111: 0.06})
        with pytest.raises(ko.DependencyError):
            fp.complete_table(TRIPLE)


class TestTripletEpd:
    def test_independence_is_the_product(self, ctx3):
        d = ko.triplet_epd(triple_marginals(ctx3), ko.FrameParams.independence(TRIPLE))
        np.testing.assert_allclose(d.values, TRIPLE_INDEP_TABLE, atol=1e-15)
        np.testing.assert_allclose(
            d.values, product_epd1(ctx3, TRIPLE).values, atol=1e-15
        )

    def test_marginals_recovered_exactly(self, ctx3):
        d = ko.triplet_epd(
            triple_marginals(ctx3), ko.FrameParams.from_triplet(0.3, 0.1, 0.05, 0.08)
        )
        np.testing.assert_allclose(ko.marginals(d).probs, TRIPLE, atol=1e-12)
        assert ko.validate_epd1(d).ok

    def test_upper_corner_zeroes_a_cell(self, ctx3):
        # inner intersection at its cap min(a1, a2) empties the x&z-only cell
        d = ko.triplet_epd(
            triple_marginals(ctx3), ko.FrameParams.from_triplet(0.2, 0.15, 0.15, 0.1)
        )
        assert d.values[0b101] == pytest.approx(0.0, abs=1e-15)

    def test_pair_value_above_marginal_rejected(self, ctx3):
        params = ko.FrameParams.from_triplet(0.45, 0.1, 0.05, 0.05)
        with pytest.raises(ko.InfeasibleParameterError):
            ko.triplet_epd(triple_marginals(ctx3), params)

    def test_clamp_policy_warns_and_repairs(self, ctx3):
        params = ko.FrameParams.from_triplet(0.45, 0.1, 0.05, 0.05)
        with pytest.warns(RuntimeWarning):
            d = ko.triplet_epd(triple_marginals(ctx3), params, policy="clamp")
        assert ko.validate_epd1(d).ok
        np.testing.assert_allclose(ko.marginals(d).probs, TRIPLE, atol=1e-12)

    def test_requires_ordered_marginals(self, ctx3):
        p = ko.MarginalSet.from_values(ctx3, (0.3, 0.4, 0.2))
        with pytest.raises(ko.ParameterRangeError):
            ko.triplet_epd(p, ko.FrameParams.independence((0.3, 0.4, 0.2)))

    def test_requires_half_rare_marginals(self, ctx3):
        p = ko.MarginalSet.from_values(ctx3, (0.7, 0.4, 0.2))
        with pytest.raises(ko.ParameterRangeError):
            ko.triplet_epd(p, ko.FrameParams.independence((0.7, 0.4, 0.2)))


class TestQuadrupletEpd:
    QUAD = (0.5, 0.4, 0.3, 0.2)

    def test_independence_is_the_product(self):
        ctx = ko.EventSetContext(4)
        p = ko.MarginalSet.from_values(ctx, self.QUAD)
        d = ko.quadruplet_epd(p, ko.FrameParams.independence(self.QUAD))
        assert d.values[0] == pytest.approx(0.168, abs=1e-15)
        np.testing.assert_allclose(
            d.values, product_epd1(ctx, self.QUAD).values, atol=3e-16
        )

    def test_top_intersection_above_its_cap_rejected(self):
        ctx = ko.EventSetContext(4)
        p = ko.MarginalSet.from_values(ctx, self.QUAD)
        bad = dict(ko.FrameParams.independence(self.QUAD).intersections)
        bad[0b1111] = 0.05  # above min of the triple intersections (0.024)
        with pytest.raises(ko.InfeasibleParameterError):
            ko.quadruplet_epd(p, ko.FrameParams(4, bad))

    def test_total_mass_the_dust_clamp_adds_is_given_back(self):
        # a feasible walk whose cells {} and {x0} come out as dust below 0: the clamp
        # lifts them to 0, adding 1.6e-9, and the finish takes that back out
        ctx = ko.EventSetContext(4)
        values = np.full(16, 0.01)
        values[[0b0010, 0b0100, 0b1000, 0b0011, 0b0101, 0b1001]] = (
            0.16, 0.18, 0.16, 0.20, 0.13, 0.09)
        values[[0b0000, 0b0001]] = -8e-10
        values[0b1110] += 1.6e-9
        d = epd1(ctx, values)
        p = ko.marginals(d)
        np.testing.assert_allclose(p.probs, (0.46, 0.42, 0.37, 0.31), atol=1e-9)
        params = ko.FrameParams.from_epd2(ko.epd2_from_epd1(d))
        raw = _superset_mobius(params.complete_table(p.probs), 4)
        dust = r"quadruplet_epd: clamped 2 slightly negative cell\(s\) to 0"
        with pytest.warns(RuntimeWarning, match=dust):
            built = ko.quadruplet_epd(p, params)
        assert built.values[:2].tolist() == [0.0, 0.0]
        assert abs(built.values.sum() - raw.sum()) <= finish_bound(4)
        assert ko.validate_epd1(built).ok


class TestBuildNsetEpd:
    def test_doublet_with_rich_first_event(self):
        ctx = ko.EventSetContext(2, ("x", "y"))
        p = ko.MarginalSet.from_values(ctx, (0.7, 0.2))
        # parameters live on the folded sorted events: q = (0.3, 0.2)
        d = ko.build_nset_epd(p, ko.FrameParams.independence((0.3, 0.2)))
        np.testing.assert_allclose(d.values, (0.24, 0.56, 0.06, 0.14), atol=1e-15)

    def test_five_events_independence_matches_the_product(self):
        ctx = ko.EventSetContext(5)
        raw = (0.7, 0.2, 0.55, 0.4, 0.1)
        folded_sorted = tuple(sorted((min(v, 1 - v) for v in raw), reverse=True))
        p = ko.MarginalSet.from_values(ctx, raw)
        d = ko.build_nset_epd(p, ko.FrameParams.independence(folded_sorted))
        np.testing.assert_allclose(
            d.values, product_epd1(ctx, raw).values, atol=1e-12
        )

    def test_dual_route_against_the_mobius_inverse(self, ctx3, rng):
        # any valid table should be reproduced from its own intersections
        tables = constrained_epd_sampler(TRIPLE, rng, 25, scale=0.08)
        for row in tables:
            source = ko.Epd1(ctx3, row)
            params = ko.FrameParams.from_epd2(ko.epd2_from_epd1(source))
            rebuilt = ko.build_nset_epd(triple_marginals(ctx3), params)
            np.testing.assert_allclose(rebuilt.values, row, atol=1e-12)

    def test_param_count_must_match(self, ctx3):
        with pytest.raises(ko.ParameterRangeError):
            ko.build_nset_epd(
                triple_marginals(ctx3), ko.FrameParams.independence((0.3, 0.2))
            )

    def test_shuffled_events_rebuild_the_same_table(self, rng):
        ctx = ko.EventSetContext(3)
        raw = (0.65, 0.4, 0.25)
        folded_sorted = (0.4, 0.35, 0.25)
        params = ko.FrameParams.independence(folded_sorted)
        ref = ko.build_nset_epd(ko.MarginalSet.from_values(ctx, raw), params)
        for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            shuffled = ko.MarginalSet.from_values(ctx, tuple(raw[k] for k in order))
            d = ko.build_nset_epd(shuffled, params)
            back = permute_events(d, order)
            np.testing.assert_allclose(back.values, ref.values, atol=1e-12)


class TestFullProbabilityCheck:
    def test_consistent_decomposition(self, ctx3, rng):
        joint = random_epd1(rng, 3)
        conds = [
            ko.conditional_epd(joint, cell, frame_events=0b001) for cell in (0, 1)
        ]
        masses = (
            1.0 - ko.marginals(joint).probs[0],
            ko.marginals(joint).probs[0],
        )
        frame = ko.Epd1(ko.EventSetContext(1), np.array(masses))
        report = ko.full_probability_check(
            joint, 0b001, conditionals=conds, frame_epd=frame
        )
        assert report.ok
        assert report.frame_deviation <= 1e-12
        assert report.mixture_residual <= 1e-12
        assert report.reconstruction_residual <= 1e-12

    def test_block_masses_reported(self, ctx2):
        report = ko.full_probability_check(epd1(ctx2, INDEP_43), 0b01)
        np.testing.assert_allclose(report.block_masses, (0.6, 0.4), atol=1e-15)

    def test_perturbed_conditional_shows_up_scaled_by_the_cell_mass(self, ctx3):
        joint = ko.Epd1(ctx3, np.asarray(TRIPLE_INDEP_TABLE))
        conds = [
            ko.conditional_epd(joint, cell, frame_events=0b001) for cell in (0, 1)
        ]
        eps = 1e-3
        skew = np.array(conds[1].values)
        skew[0] += eps
        skew[1] -= eps
        conds[1] = ko.Epd1(conds[1].context, skew)
        report = ko.full_probability_check(joint, 0b001, conditionals=conds)
        assert report.reconstruction_residual == pytest.approx(0.5 * eps, rel=1e-9)
        assert not report.ok

    def test_wrong_number_of_conditionals_rejected(self, ctx2):
        with pytest.raises(ko.CompositionError):
            ko.full_probability_check(
                epd1(ctx2, INDEP_43), 0b01, conditionals=[]
            )

    def test_frame_subset_must_be_non_empty(self, ctx2):
        with pytest.raises(ko.ConditioningError):
            ko.full_probability_check(epd1(ctx2, INDEP_43), 0)
