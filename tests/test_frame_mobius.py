"""The frame build as one Möbius inversion, against the recursive reference.

``oracles.recursive_frame_epd1`` is the paper's split-and-recurse
construction and ``oracles.naive_interval_walk`` the mask-by-mask
interval walk; the builders and the vectorized walk must agree with
them.
"""

import re
import warnings

import numpy as np
import pytest

import kopula as ko
from kopula import frame
from kopula.oracles import naive_interval_walk, recursive_frame_epd1


def random_dependent_epd1(rng, n):
    raw = rng.exponential(size=1 << n) ** 2
    return ko.Epd1(ko.EventSetContext(n), raw / raw.sum())


def sorted_half_rare(d):
    """``d`` re-read over its sorted half-rare events, and the projection used."""
    proj = ko.half_rare_projection(ko.marginals(d))
    folded = ko.renumber_epd1(d, proj.keep)
    return ko.Epd1(d.context, folded.values[proj.unsort_masks()]), proj


def params_of(d):
    return ko.FrameParams.from_epd2(ko.epd2_from_epd1(d))


class TestAgainstTheRecursion:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_build_nset_epd_on_sorted_points(self, n, rng):
        for _ in range(3):
            d, _ = sorted_half_rare(random_dependent_epd1(rng, n))
            built = ko.build_nset_epd(ko.marginals(d), params_of(d))
            ref = recursive_frame_epd1(ko.epd2_from_epd1(d))
            np.testing.assert_allclose(built.values, ref.values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_build_nset_epd_on_arbitrary_points(self, n, rng):
        d = random_dependent_epd1(rng, n)
        s, proj = sorted_half_rare(d)
        built = ko.build_nset_epd(ko.marginals(d), params_of(s))
        ref = recursive_frame_epd1(ko.epd2_from_epd1(s)).values
        back = ko.renumber_epd1(built, proj.keep).values[proj.unsort_masks()]
        np.testing.assert_allclose(back, ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(built.values, d.values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, builder", [(3, ko.triplet_epd), (4, ko.quadruplet_epd)])
    def test_closed_size_builders(self, n, builder, rng):
        for _ in range(20):
            d, _ = sorted_half_rare(random_dependent_epd1(rng, n))
            built = builder(ko.marginals(d), params_of(d))
            ref = recursive_frame_epd1(ko.epd2_from_epd1(d))
            np.testing.assert_allclose(built.values, ref.values, rtol=0, atol=1e-15)

    def test_recursion_reports_infeasibility_as_negative_cells(self):
        t = ko.Epd2(ko.EventSetContext(2), np.array([1.0, 0.5, 0.4, 0.45]))
        assert recursive_frame_epd1(t).values.min() < 0.0


def perturbed_table(rng, n):
    t = ko.epd2_from_epd1(random_dependent_epd1(rng, n)).values.copy()
    masks = rng.integers(2, t.size, size=int(rng.integers(1, 4)))
    scale = rng.choice([1e-10, 1e-9, 3e-9, 1e-3, 0.05])
    t[masks] += rng.normal(0.0, scale, size=masks.size)
    return t


def walk_both(t, policy):
    """(table, error text, warnings) from the vectorized and the naive walk."""
    out = []
    for walk in (lambda a: frame._walk_intervals(a, policy, "walk"),
                 lambda a: naive_interval_walk(a, policy)):
        table, error = t.copy(), None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                walk(table)
            except ko.KopulaError as exc:
                error = (type(exc), str(exc))
        out.append((table, error, [str(w.message) for w in caught]))
    return out


class TestVectorizedWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_clamp_gives_the_naive_tables(self, seed):
        rng = np.random.default_rng(seed)
        clamped = 0
        for _ in range(60):
            t = perturbed_table(rng, int(rng.integers(2, 8)))
            (fast, f_err, f_warn), (slow, s_err, s_warn) = walk_both(t, "clamp")
            assert f_err == s_err
            if f_err is None:
                np.testing.assert_array_equal(fast, slow)
                assert len(f_warn) == min(1, len(s_warn))
                if f_warn:
                    clamped += 1
                    count = int(re.search(r"walk: (\d+) intersection", f_warn[0]).group(1))
                    assert count == len(s_warn)
                    assert "clamped into" in f_warn[0]
        assert clamped > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_raise_names_the_naive_interval(self, seed):
        rng = np.random.default_rng(100 + seed)
        raised = 0
        for _ in range(60):
            t = perturbed_table(rng, int(rng.integers(2, 8)))
            (fast, f_err, _), (slow, s_err, _) = walk_both(t, "raise")
            assert f_err == s_err
            if f_err is None:
                np.testing.assert_array_equal(fast, slow)
            else:
                raised += 1
                assert f_err[0] is ko.InfeasibleParameterError
        assert raised > 0

    def test_empty_window_raises_under_either_policy(self):
        # a marginal above 1 puts the pair window's floor 1.1 above its
        # cap 0.5; valid marginals never get here, but both walks must agree
        t = np.array([1.0, 0.5, 1.6, 0.2])
        for policy in ("raise", "clamp"):
            (_, f_err, _), (_, s_err, _) = walk_both(t, policy)
            assert f_err == s_err
            assert f_err[0] is ko.InfeasibleParameterError
            assert "empty feasibility interval" in f_err[1]

    @pytest.mark.parametrize("inversion", [0.9e-9, 1.1e-9])
    @pytest.mark.parametrize("policy", ["raise", "clamp"])
    def test_inverted_windows_collapse_or_empty_alike(self, inversion, policy):
        # a marginal just above 1 inverts the pair window of events (0, 1):
        # its floor p0 + p1 - 1 passes its cap p0 by the inversion
        t = np.array([1.0, 0.5, 1.0 + inversion, 0.5])
        (fast, f_err, f_warn), (slow, s_err, s_warn) = walk_both(t, policy)
        assert f_err == s_err
        if inversion < ko.VALUE_ATOL:
            assert f_err is None
            np.testing.assert_array_equal(fast, slow)
            assert len(f_warn) == len(s_warn) == 1
            assert fast[3] == slow[3] == ko.FrechetInterval(0.5 + inversion, 0.5).lower
        else:
            assert f_err[0] is ko.InfeasibleParameterError
            assert "empty feasibility interval" in f_err[1]


QUAD = (0.5, 0.4, 0.3, 0.2)


class TestWhenTheWalkRuns:
    def test_feasible_table_under_raise_skips_the_walk(self, monkeypatch, rng):
        def no_walk(*args):
            raise AssertionError("the walk ran on a feasible table")

        monkeypatch.setattr(frame, "_walk_intervals", no_walk)
        for n in (3, 6, 9):
            d, _ = sorted_half_rare(random_dependent_epd1(rng, n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ko.build_nset_epd(ko.marginals(d), params_of(d))

    def test_clamp_always_walks(self, monkeypatch):
        calls = []
        walk = frame._walk_intervals
        monkeypatch.setattr(frame, "_walk_intervals", lambda *a: calls.append(walk(*a)))
        p = ko.MarginalSet.from_values(ko.EventSetContext(4), QUAD)
        ko.quadruplet_epd(p, ko.FrameParams.independence(QUAD), policy="clamp")
        assert len(calls) == 1

    def test_top_level_failure_names_its_interval(self):
        p = ko.MarginalSet.from_values(ko.EventSetContext(3), (0.5, 0.4, 0.3))
        params = ko.FrameParams.from_triplet(0.45, 0.1, 0.05, 0.05)
        with pytest.raises(ko.InfeasibleParameterError, match=r"ordered events \(0, 1\)"):
            ko.triplet_epd(p, params)

    def test_deep_failure_ends_in_the_finished_table(self):
        # every top-level window holds, but the off-frame slice has three
        # disjoint events of half its mass each
        p = ko.MarginalSet.from_values(ko.EventSetContext(4), (0.4, 0.3, 0.3, 0.3))
        zero = {m: 0.0 for m in range(16) if bin(m).count("1") >= 2}
        params = ko.FrameParams(4, zero)
        naive_interval_walk(params.complete_table(p.probs), "raise")
        with pytest.raises(ko.InfeasibleParameterError, match="drive the cell"):
            ko.quadruplet_epd(p, params)

    def test_one_dust_text_two_error_classes(self):
        def dust_warnings(build):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build()
            return [str(w.message).split(": ", 1) for w in caught]

        # pairs at their upper ends: rounding leaves one cell a hair below 0
        p = ko.MarginalSet.from_values(ko.EventSetContext(3), (0.5, 0.4, 0.3))
        params = ko.params_from_kor3(p, 1.0, 1.0, 0.0, 0.0)
        ctx1 = ko.EventSetContext(1)
        frame_dust = dust_warnings(lambda: ko.triplet_epd(p, params))
        core_dust = dust_warnings(lambda: ko.epd1_from_epd2(ko.Epd2(ctx1, [1.0, 1.0 + 1e-12])))
        assert frame_dust == [["triplet_epd", "clamped 1 slightly negative cell(s) to 0"]]
        assert core_dust == [["epd1_from_epd2", frame_dust[0][1]]]

        # three events never reach the clamp's error (the walk's windows cover
        # every cell), so the frame side takes the four-event deep failure
        deep = ko.MarginalSet.from_values(ko.EventSetContext(4), (0.4, 0.3, 0.3, 0.3))
        zero = ko.FrameParams(4, {m: 0.0 for m in range(16) if bin(m).count("1") >= 2})
        with pytest.raises(ko.InfeasibleParameterError, match="drive the cell") as frame_err:
            ko.quadruplet_epd(deep, zero)
        with pytest.raises(ko.InvalidDistributionError, match="drive the cell") as core_err:
            ko.epd1_from_epd2(ko.Epd2(ctx1, [1.0, 1.1]))
        assert not isinstance(frame_err.value, ko.InvalidDistributionError)
        assert not isinstance(core_err.value, ko.InfeasibleParameterError)

    @pytest.mark.parametrize("policy", ["clip", 5, None])
    def test_bad_policy_rejected_on_a_feasible_table(self, policy):
        p = ko.MarginalSet.from_values(ko.EventSetContext(4), QUAD)
        params = ko.FrameParams.independence(QUAD)
        for builder in (ko.build_nset_epd, ko.quadruplet_epd):
            with pytest.raises(ko.ParameterRangeError, match="policy"):
                builder(p, params, policy=policy)
