"""Each declared limit is one rule, and every check that reads it goes through it.

A value within 1e-12 outside its unit range ([0, 1] for a probability,
[-1, 1] for a weight) is snapped onto it by ``core.clean_unit_interval``;
further out, or NaN, is a ParameterRangeError naming the first offender.
A frame builder takes a point in the order ``half_rare_projection``
sorts: decreasing, ties within VALUE_ATOL by index.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kopula as ko
from kopula import serialize
from kopula.cli import GridSpec, run
from kopula.core import clean_unit_interval
from kopula.families import _weight_array


# ---------------------------------------------------------------------------
# the one reader of a unit range


def reference_clean(values, low, missing_ok):
    """The rule in plain Python: the cleaned list, or the index of the first offender."""
    out = []
    for i, x in enumerate(values):
        if x != x and missing_ok:
            out.append(x)
        elif not low - 1e-12 < x < 1.0 + 1e-12:  # NaN fails too
            return i
        else:
            out.append(low if x < low else 1.0 if x > 1.0 else x)
    return out


def value_near(low):
    """Floats on both sides of both ends, both zeros, NaN and plain values."""
    ends = [low, 1.0]
    dust = [0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1.1e-12, -1.1e-12, 1e-11, -1e-11]
    return st.one_of(
        st.sampled_from([e + d for e in ends for d in dust]),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -0.5]),
        st.floats(low - 0.5, 1.5),
    )


@pytest.mark.parametrize("missing_ok", [False, True])
@pytest.mark.parametrize("low", [0.0, -1.0])
@given(data=st.data())
def test_clean_unit_interval_is_the_plain_rule(low, missing_ok, data):
    values = data.draw(st.lists(value_near(low), max_size=8))
    expected = reference_clean(values, low, missing_ok)
    name = "v[{}]".format
    if isinstance(expected, int):
        with pytest.raises(ko.ParameterRangeError) as caught:
            clean_unit_interval(values, name, missing_ok=missing_ok, low=low)
        assert str(caught.value) == f"v[{expected}] = {values[expected]!r} outside [{low:g}, 1]"
    else:
        got = clean_unit_interval(values, name, missing_ok=missing_ok, low=low)
        # bit for bit: NaN stays NaN and -0.0 keeps its sign
        assert got.view(np.uint64).tolist() == np.array(expected, float).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# every moved check, at each end of its range

PAIR_A, PAIR_B = np.array([[0.1, 0.25]]), np.array([[0.2, 0.4]])
SLICE = ko.Epd1(ko.EventSetContext(2), [0.4, 0.3, 0.2, 0.1])
FULL_EMPTY_CELL = ko.Epd1(ko.EventSetContext(2), [1.0, 0.0, 0.0, 0.0])  # admits any cell mass


def mixture_weights(x):
    parts = [ko.frechet_upper_2(), ko.frechet_lower_2()]
    return ko.convex_combination(parts, [x, 1.0 - x]).params["weights"]


CHECKS = {
    # name: (low end, what the check makes of x, the start of its error text)
    "constant_weight": (-1.0, ko.constant_weight, "weight = "),
    "weight function": (
        -1.0,
        lambda x: _weight_array(lambda a, b: np.full(a.shape, x), PAIR_A, PAIR_B),
        "weight function at (a, b) = (0.1, 0.2): alpha = ",
    ),
    "mixture weight": (0.0, mixture_weights, "mixture weight 0 = "),
    "grid fixed value": (
        0.0,
        lambda x: list(GridSpec(3, (0,), {1: x}).fixed.values()),
        "fixed value for event 1 = ",
    ),
    "cell mass": (
        0.0,
        lambda x: ko.PseudoDistribution.from_own_epd(SLICE, x).values,
        "cell mass = ",
    ),
    "cell mass, all in the empty cell": (
        0.0,
        lambda x: ko.PseudoDistribution.from_own_epd(FULL_EMPTY_CELL, x).values,
        "cell mass = ",
    ),
    "frame probability": (
        0.0,
        lambda x: ko.pseudo_from_conditional(SLICE, x).values,
        "frame probability = ",
    ),
}


def outcome(check, x):
    """The bits of what the check makes of ``x``, or the class of its error."""
    try:
        return np.asarray(check(x), dtype=np.float64).view(np.uint64).tolist()
    except ko.KopulaError as exc:
        return type(exc)


@pytest.mark.parametrize("at_low", [True, False], ids=["low end", "high end"])
@pytest.mark.parametrize("which", list(CHECKS))
def test_each_check_snaps_dust_onto_its_end_and_rejects_beyond(which, at_low):
    low, check, text = CHECKS[which]
    end, out = (low, -1.0) if at_low else (1.0, 1.0)
    assert outcome(check, end + out * 1e-13) == outcome(check, end)
    beyond = end + out * 1e-11
    with pytest.raises(ko.ParameterRangeError) as caught:
        check(beyond)
    assert str(caught.value) == f"{text}{beyond!r} outside [{low:g}, 1]"


def test_dust_past_one_in_the_mixture_weights_is_snapped():
    assert mixture_weights(1.0 + 1e-13) == (1.0, 0.0)
    assert np.signbit(mixture_weights(1.0 + 1e-13)).tolist() == [False, False]


def test_dust_past_one_in_a_frame_probability_scales_by_one():
    assert ko.pseudo_from_conditional(SLICE, 1.0 + 1e-13).values.tolist() == [0.4, 0.3, 0.2, 0.1]


def test_a_constant_weight_of_dust_past_one_is_one_in_the_family():
    fam = ko.convex_updown_2kopula(1.0 + 1e-13)
    assert fam.params["alpha"] == 1.0 and fam.name == "convex_updown(1)"


@pytest.mark.parametrize("make", [ko.convex_updown_2kopula, ko.conjugated_2kopula])
def test_a_weight_function_that_returns_nan_is_out_of_range(make):
    fam = make(lambda a, b: np.where(a > 0.2, np.nan, 0.5))
    p = ko.MarginalSet.from_values(ko.pair_context(), (0.3, 0.6))
    with pytest.raises(ko.ParameterRangeError, match=r"\(0\.3, 0\.4\): alpha = nan outside"):
        ko.epd_from_kopula(fam, p)


# ---------------------------------------------------------------------------
# the event count and the grid arguments: one rule each, one text at every call


@pytest.mark.parametrize("n", [0, 25, True, 2.0, 10**400], ids=["0", "25", "True", "2.0", "huge"])
def test_each_call_reads_an_event_count_by_one_rule(n):
    text = f"n_events must be an integer in [1, 24], got {n!r}"
    calls = [lambda: ko.FrameParams(n), lambda: ko.grid_points(n, 3)]
    if n in (0, 25):  # independence counts its probabilities
        calls.append(lambda: ko.FrameParams.independence([0.5] * n))
    with pytest.raises(ko.ContextError) as caught:
        ko.EventSetContext(n)
    assert str(caught.value) == text
    for call in calls:
        with pytest.raises(ko.ParameterRangeError) as caught:
            call()
        assert str(caught.value) == text


@pytest.mark.parametrize(
    "resolution, axes, fixed, text",
    [
        (3, [0, 0], {}, "grid axes [0, 0] sweep an event twice"),
        (3, [0], {0: 0.5}, "events [0] are both swept and fixed"),
        (3, [0], {1: 1.5}, "fixed value for event 1 = 1.5 outside [0, 1]"),
        (3, [0], {1: True}, "fixed value for event 1 must be a number, got True"),
        (1, [0], {1: 0.5}, "grid resolution must be an integer in [2, 2**20], got 1"),
    ],
    ids=["repeated_axis", "swept_and_fixed", "fixed_1.5", "fixed_true", "resolution_1"],
)
def test_grid_spec_and_grid_points_read_their_arguments_by_one_rule(resolution, axes, fixed,
                                                                    text):
    with pytest.raises(ko.ParameterRangeError) as caught:
        GridSpec(resolution, tuple(axes), fixed)
    assert str(caught.value) == text
    with pytest.raises(ko.ParameterRangeError) as caught:
        ko.grid_points(2, resolution, axes, fixed)
    assert str(caught.value) == text


# ---------------------------------------------------------------------------
# the command line


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_build_snaps_an_alpha_of_dust_past_one(tmp_path, capsys):
    def built(alpha):
        cfg = {"family": "convex_updown", "alpha": alpha, "marginals": [0.3, 0.4]}
        assert run(["build", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 0
        return capsys.readouterr()

    dusty = built(1.0000000000001)
    assert dusty.err == ""
    assert dusty.out == built(1.0).out


def test_grid_snaps_a_fixed_value_of_dust_past_one(tmp_path, capsys):
    cfg = {"family": "independent", "n": 2, "axes": [0], "fixed": {"1": 1.0000000000001}}
    assert run(["grid", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--resolution", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["1.0"] * 3


@pytest.mark.parametrize(
    "axes, fixed, text",
    [
        ([0, 0], {}, "grid axes [0, 0] sweep an event twice"),
        ([0], {"0": 0.5}, "events [0] are both swept and fixed"),
        ([0], {"1": True}, "fixed value for event 1 must be a number, got True"),
    ],
    ids=["repeated_axis", "swept_and_fixed", "fixed_true"],
)
def test_grid_reports_a_grid_fault_in_one_line_with_exit_1(tmp_path, capsys, axes, fixed, text):
    cfg = {"family": "independent", "n": 2, "axes": axes, "fixed": fixed}
    assert run(["grid", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr() == ("", text + "\n")


def test_build_with_a_nan_weight_function_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(serialize, "sine_diff_weight",
                        lambda scale: lambda a, b: np.full(np.shape(a), np.nan))
    cfg = {"family": "conjugated", "alpha": {"kind": "sine_diff"}, "marginals": [0.3, 0.4]}
    assert run(["build", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr().err == (
        "weight function at (a, b) = (0.3, 0.4): alpha = nan outside [-1, 1]\n"
    )


# ---------------------------------------------------------------------------
# the frame order

NEAR_TIE = (0.3, 0.3 + 1e-12, 0.2)  # tied within VALUE_ATOL: index order
SPLIT = (0.3, 0.3 + 2e-9, 0.2)  # apart: the second comes first


def accepts(build, p):
    try:
        build(p)
    except ko.ParameterRangeError as exc:
        assert "needs half-rare marginals" in str(exc) or "needs marginals in nonincreasing" in str(exc)
        return False
    return True


BUILDERS = {
    3: [
        lambda p: ko.triplet_epd(p, ko.FrameParams.independence(p.probs)),
        lambda p: ko.params_from_kor3(p, 0.0, 0.0, 0.0, 0.0),
    ],
    4: [lambda p: ko.quadruplet_epd(p, ko.FrameParams.independence(p.probs))],
}


@st.composite
def frame_points(draw):
    """Points of 3 or 4 events, often tied within or just beyond VALUE_ATOL."""
    n = draw(st.sampled_from([3, 4]))
    base = st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7])
    jitter = st.sampled_from([0.0, 1e-12, -1e-12, 5e-10, -5e-10, 2e-9, -2e-9])
    probs = [draw(base) + draw(jitter) for _ in range(n)]
    return ko.MarginalSet.from_values(ko.EventSetContext(n), probs)


@given(frame_points())
def test_a_frame_builder_takes_a_point_exactly_when_the_projection_keeps_its_order(p):
    n = p.context.n_events
    proj = ko.half_rare_projection(p)
    ordered = proj.keep == p.context.full_mask and proj.permutation == tuple(range(n))
    for build in BUILDERS[n]:
        assert accepts(build, p) == ordered, p.probs


@pytest.mark.parametrize("kor", [(0.5, 0.1, 0.0, 0.0), (-0.3, 0.8, 0.4, -0.2)])
def test_a_near_tie_builds_as_build_nset_epd_does(kor):
    p = ko.MarginalSet.from_values(ko.EventSetContext(3), NEAR_TIE)
    assert ko.half_rare_projection(p).permutation == (0, 1, 2)
    params = ko.params_from_kor3(p, *kor)
    d = ko.triplet_epd(p, params)
    assert d.values.view(np.uint64).tolist() == \
        ko.build_nset_epd(p, params).values.view(np.uint64).tolist()


def test_a_split_beyond_value_atol_is_refused():
    p = ko.MarginalSet.from_values(ko.EventSetContext(3), SPLIT)
    assert ko.half_rare_projection(p).permutation == (1, 0, 2)
    text = "needs marginals in nonincreasing order"
    with pytest.raises(ko.ParameterRangeError, match=f"params_from_kor3 {text}"):
        ko.params_from_kor3(p, 0.5, 0.1, 0.0, 0.0)
    with pytest.raises(ko.ParameterRangeError, match=f"triplet_epd {text}"):
        ko.triplet_epd(p, ko.FrameParams.independence(p.probs))


@pytest.mark.parametrize("probs, code", [(NEAR_TIE, 0), (SPLIT, 1)])
def test_kor_builds_at_a_near_tie_and_not_past_it(tmp_path, capsys, probs, code):
    cfg = {"marginals": list(probs), "kor": {"xy": 0.5, "xz": 0.1, "in": 0.0, "out": 0.0}}
    assert run(["build", "--config", write_json(tmp_path / "cfg.json", cfg)]) == code
