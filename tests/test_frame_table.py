"""The dense intersection table and the event permutations on its tensor view.

``FrameParams`` stores one frozen 2**N array (NaN = not supplied); the
sort and the fold of a frame build are a transpose and a flip.  They are
checked here against the index-based references: the per-subset product
loop, ``HalfRareProjection.unsort_masks`` and ``oracles.naive_renumber``.
"""

import itertools
import math

import numpy as np
import pytest

import kopula as ko
from kopula.cli import run
from kopula.oracles import naive_renumber

from helpers import random_epd1


def per_subset_products(probs):
    """Each intersection as a product over its events, ascending."""
    n = len(probs)
    out = {}
    for mask in range(1 << n):
        bits = [k for k in range(n) if mask >> k & 1]
        if len(bits) >= 2:
            v = 1.0
            for b in bits:
                v *= float(probs[b])
            out[mask] = v
    return out


def projection(n, keep, permutation):
    point = ko.MarginalSet(ko.EventSetContext(n), (0.5,) * n, half_rare=True)
    return ko.HalfRareProjection(point=point, keep=keep, permutation=tuple(permutation))


def reference_unsort_unfold(proj, values):
    ctx = proj.point.context
    e_proj = np.empty(ctx.size)
    e_proj[proj.unsort_masks()] = values
    return naive_renumber(ko.Epd1(ctx, e_proj), proj.keep).values


class TestDenseFrameParams:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_independence_is_bitwise_the_per_subset_product(self, n, rng):
        probs = rng.uniform(0.0, 0.5, n)
        fp = ko.FrameParams.independence(probs)
        assert fp.intersections == per_subset_products(probs)
        assert set(np.flatnonzero(~np.isnan(fp.table))) == set(per_subset_products(probs))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_from_epd2_then_complete_table_is_the_input(self, n, rng):
        values = np.array(ko.epd2_from_epd1(random_epd1(rng, n)).values)
        values[0] = 1.0  # the total, up to float dust
        t = ko.Epd2(ko.EventSetContext(n), values)
        marginals = [float(t.values[1 << k]) for k in range(n)]
        back = ko.FrameParams.from_epd2(t).complete_table(marginals)
        assert np.array_equal(back, t.values)

    def test_mapping_constructor_round_trips(self):
        named = {0b011: 0.2, 0b101: 0.15, 0b110: 0.12, 0b111: 0.06}
        fp = ko.FrameParams(3, named)
        assert fp.intersections == named
        assert list(fp.intersections) == sorted(named)
        assert ko.FrameParams(3, fp.intersections).intersections == named
        assert ko.FrameParams(3, fp.table).intersections == named

    def test_table_is_frozen_nan_where_not_supplied(self):
        fp = ko.FrameParams(3, {0b011: 0.2})
        assert not fp.table.flags.writeable
        assert fp.table.shape == (8,)
        assert np.isnan(np.delete(fp.table, 3)).all()
        with pytest.raises(ko.DependencyError, match="0b101"):
            fp.complete_table((0.5, 0.4, 0.3))

    def test_equality_is_identity(self):
        fp = ko.FrameParams(3, {0b011: 0.2})
        assert fp == fp
        assert fp != ko.FrameParams(3, {0b011: 0.2})

    def test_dust_outside_the_unit_interval_snaps_on_both_sides(self):
        fp = ko.FrameParams(3, {0b011: -5e-13, 0b111: 1.0 + 5e-13})
        assert fp.intersections == {0b011: 0.0, 0b111: 1.0}

    @pytest.mark.parametrize(
        "named",
        [
            {0b1000: 0.1},  # outside the 3-event lattice
            {-3: 0.1},
            {2**70: 0.1},
            {0: 0.1},  # the empty set
            {0b010: 0.1},  # a single event
            {math.nan: 0.1},
            {0b011: math.nan},
            {0b011: None},
            {0b011: [0.1]},
            {0b011: 1.5},
            {0b011: -0.1},
            {0b011: math.inf},
        ],
        ids=repr,
    )
    def test_bad_keys_and_values_raise_parameter_range_error(self, named):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams(3, named)

    @pytest.mark.parametrize(
        "table",
        [
            [0.0] + [np.nan] * 7,  # a value at the empty set
            [np.nan, np.nan, 0.3] + [np.nan] * 5,  # a value at a single event
            [np.nan] * 4,  # wrong length
            [np.nan] * 7 + [2.0],
        ],
    )
    def test_bad_tables_raise_parameter_range_error(self, table):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams(3, np.array(table))

    @pytest.mark.parametrize("n", [0, ko.MAX_EVENTS + 1, 3.0, True, "3", None])
    def test_event_count_must_be_an_integer_in_range(self, n):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams(n, {})

    def test_independence_rejects_too_many_events_before_allocating(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams.independence([0.1] * 40)

    def test_independence_rejects_a_nan_probability(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.FrameParams.independence([0.3, math.nan])


class TestAxisPermutations:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_unsort_unfold_matches_the_index_references(self, n, rng):
        for _ in range(5):
            proj = projection(n, int(rng.integers(0, 1 << n)), rng.permutation(n))
            values = rng.random(1 << n)
            assert np.array_equal(proj.unsort_unfold(values), reference_unsort_unfold(proj, values))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_keep_mask_and_order_at_small_n(self, n, rng):
        values = rng.random(1 << n)
        for keep in range(1 << n):
            for perm in itertools.permutations(range(n)):
                proj = projection(n, keep, perm)
                assert np.array_equal(
                    proj.unsort_unfold(values), reference_unsort_unfold(proj, values)
                )
                # the sort is the scatter through the same mask map, inverted
                assert np.array_equal(proj.sort_table(values), values[proj.unsort_masks()])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_renumber_matches_the_naive_reference(self, n, rng):
        d = random_epd1(rng, n)
        keeps = range(1 << n) if n <= 4 else rng.integers(0, 1 << n, 8)
        for keep in keeps:
            assert np.array_equal(
                ko.renumber_epd1(d, int(keep)).values, naive_renumber(d, int(keep)).values
            )

    def test_full_probability_check_on_a_scattered_frame(self, rng):
        joint = random_epd1(rng, 4)
        frame_events = 0b1010
        conds = [
            ko.conditional_epd(joint, y, frame_events=frame_events)
            for y in (0b0000, 0b0010, 0b1000, 0b1010)
        ]
        masks = np.arange(16)
        masses = [float(joint.values[(masks & frame_events) == y].sum()) for y in (0, 2, 8, 10)]
        frame = ko.Epd1(ko.EventSetContext(2), np.array(masses))
        report = ko.full_probability_check(joint, frame_events, conds, frame)
        assert report.ok
        np.testing.assert_allclose(report.block_masses, masses, atol=1e-15)
        assert report.reconstruction_residual <= 1e-15


class TestUnitIntervalCleaner:
    def test_marginals_snap_dust_and_reject_the_rest(self):
        ctx = ko.EventSetContext(2)
        assert ko.MarginalSet(ctx, (-5e-13, 1.0 + 5e-13)).probs == (0.0, 1.0)
        for bad in ((0.2, 1.5), (math.nan, 0.2), (-1e-9, 0.2)):
            with pytest.raises(ko.ParameterRangeError):
                ko.MarginalSet(ctx, bad)

    def test_correlation_inputs_share_it(self):
        assert ko.pxy_from_kor2(1.0 + 5e-13, 0.4, 0.0) == pytest.approx(0.4, abs=1e-15)
        with pytest.raises(ko.ParameterRangeError, match="p_y"):
            ko.pxy_from_kor2(0.5, 1.5, 0.0)
        with pytest.raises(ko.ParameterRangeError, match="p_x"):
            ko.kor2(math.nan, 0.4, 0.2)


class TestNonFiniteCorrelation:
    P = (0.5, 0.4, 0.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_params_from_kor3_rejects_it(self, ctx3, slot, value):
        kors = [0.0] * 4
        kors[slot] = value
        p = ko.MarginalSet.from_values(ctx3, self.P)
        with pytest.raises(ko.ParameterRangeError):
            ko.params_from_kor3(p, *kors)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_pxy_from_kor2_rejects_it(self, value):
        with pytest.raises(ko.ParameterRangeError):
            ko.pxy_from_kor2(0.5, 0.4, value)

    def test_cli_exits_1_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"marginals": [0.5, 0.4, 0.3], "kor": {"xy": NaN, "xz": 0, "in": 0, "out": 0}}',
            encoding="utf-8",
        )
        assert run(["build", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "correlation nan" in err
        assert "Traceback" not in err


class TestNanWindowInputs:
    @pytest.mark.parametrize(
        "known, target, p, frame_prob",
        [
            ({0b01: math.nan, 0b10: 0.1}, 0b11, None, 0.5),
            ({0b01: 0.1, 0b10: math.nan}, 0b11, None, 0.5),
            ({0b01: 0.1, 0b10: 0.1}, 0b11, None, math.nan),
            ({0b011: 0.1, 0b101: 0.1, 0b110: math.nan}, 0b111, None, 0.5),
            ({}, 0b1, math.nan, 0.5),
            ({}, 0b10, 0.3, math.nan),
        ],
    )
    def test_frechet_bounds_rejects_it(self, known, target, p, frame_prob):
        with pytest.raises(ko.ParameterRangeError, match="NaN"):
            ko.frechet_bounds(known, target, p, frame_prob)

    def test_kor2_rejects_a_nan_intersection(self):
        with pytest.raises(ko.ParameterRangeError, match="p_xy"):
            ko.kor2(0.5, 0.4, math.nan)
