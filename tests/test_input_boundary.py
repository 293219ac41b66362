"""Fuzz of the input boundary: no input file, flag or argument ends in a traceback.

Every file-reading command gets generated JSON in the config and table
vocabulary, some of it with integers past Python's 4300-digit limit or
nesting 1000 deep, and must answer with an exit code of the contract.
The vocabulary holds strings that only look like event indices: a
superscript digit, a doubled minus and digits past that limit.  The
numeric flags get a fixed list of values, and every callable the
package re-exports gets junk in one numeric, count, label or tolerance
argument: it may raise only a ``KopulaError`` that is also a
``ValueError``.
"""

import contextlib
import io
import json
import math
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kopula as ko
from kopula.cli import run

INDEX_LIKE = ["\u00b9", "--1", "1" * 5000]  # "¹": isdigit() holds, int() refuses it
KEYS = [
    "family", "marginals", "labels", "n", "theta", "alpha", "parts", "weights", "kind",
    "value", "scale", "values", "frame_params", "kor", "xy", "xz", "in", "out",
    "modification", "policy", "resolution", "axes", "fixed", "x0", "x1", "x0&x1", "x1&x0",
    *INDEX_LIKE,
]
WORDS = [
    "independent", "frechet_upper", "frechet_lower", "quarter_sum", "clayton", "frank",
    "convex", "convex_updown", "conjugated", "constant", "sine_diff", "epd1", "epd2",
    "raise", "x0", "x1", "x2", "x0&x1", *INDEX_LIKE,
]
BIG, DEEP = "<big>", "<deep>"  # stand-ins replaced in the text: json.dumps cannot write them
TEXT = {f'"{BIG}"': "1" + "0" * 4400, f'"{DEEP}"': "[" * 1000 + "0.5" + "]" * 1000}

scalars = (
    st.integers(-2, 4) | st.floats(-0.5, 1.5) | st.floats() | st.booleans() | st.none()
    | st.sampled_from(WORDS) | st.sampled_from([BIG, DEEP])
)
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=6),
    max_leaves=16,
)
# one usable document per table kind, build route and family shape; some fuzzed
# documents are one of them with up to two top-level fields replaced
USABLE = [
    {"kind": "epd1", "n": 2, "labels": ["x", "y"], "values": [0.56, 0.24, 0.14, 0.06]},
    {"kind": "epd2", "n": 2, "values": [1.0, 0.3, 0.2, 0.06]},
    {"marginals": [0.3, 0.2], "family": "independent"},
    {"marginals": [0.4, 0.3], "family": "clayton", "theta": 2.0},
    {"family": "conjugated", "alpha": {"kind": "sine_diff", "scale": 15.0}},
    {"family": "convex", "parts": [{"family": "frechet_upper"}, {"family": "quarter_sum"}],
     "weights": [0.5, 0.5]},
    {"family": "independent", "n": 3, "axes": [0, 1], "fixed": {"x2": 0.5}},
    {"marginals": [0.5, 0.4, 0.3],
     "frame_params": {"x0&x1": 0.2, "x0&x2": 0.15, "x1&x2": 0.12, "x0&x1&x2": 0.06}},
    {"marginals": [0.5, 0.4, 0.3], "kor": {"xy": 0.8, "xz": 0.0, "in": 0.2, "out": 0.0},
     "modification": 2},
]
documents = (
    st.builds(
        lambda doc, fields: {**doc, **fields},
        st.sampled_from(USABLE),
        st.dictionaries(st.sampled_from(KEYS), trees, max_size=2),
    )
    | st.dictionaries(st.sampled_from(KEYS), trees, max_size=6)
    | trees
)

COMMANDS = {
    "build": [],
    "grid": ["--resolution", "3"],
    "validate": ["--resolution", "3"],
    "mobius": [],
    "renumber": ["--keep", "1"],
    "sample": ["--n", "10"],
}


@given(doc=documents)
@example(doc={"family": "frechet_upper", "axes": [0, INDEX_LIKE[0]]})
@example(doc={"family": "frechet_upper", "axes": [0, INDEX_LIKE[1]]})
@example(doc={"family": "frechet_upper", "axes": [0, INDEX_LIKE[2]]})
@example(doc={"family": "frechet_upper", "axes": [0], "fixed": {INDEX_LIKE[0]: 0.5}})
@example(doc={"family": "frechet_upper", "axes": [0], "fixed": {INDEX_LIKE[1]: 0.5}})
@example(doc={"family": "frechet_upper", "axes": [0], "fixed": {INDEX_LIKE[2]: 0.5}})
def test_no_input_file_escapes_the_exit_code_contract(tmp_path_factory, doc):
    text = json.dumps(doc)
    for stand_in, replacement in TEXT.items():
        text = text.replace(stand_in, replacement)
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(text, encoding="utf-8")
    for command, args in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run([command, "--config", str(path), *args])
        assert code in ({0, 1, 2, 3} if command == "validate" else {0, 1, 2}), command


# ---------------------------------------------------------------------------
# the library: every callable the package re-exports, with junk in one of its
# numeric, count, label or tolerance arguments and every other argument valid

CTX2, CTX3 = ko.EventSetContext(2), ko.EventSetContext(3)
TABLE = ko.Epd1(CTX2, [0.4, 0.3, 0.2, 0.1])
SLICE_IN = ko.PseudoDistribution(ko.EventSetContext(1), [0.2, 0.1])
SLICE_OUT = ko.PseudoDistribution(ko.EventSetContext(1), [0.5, 0.2])
POINT3 = ko.MarginalSet(CTX3, (0.4, 0.3, 0.2), half_rare=True)
PARAMS3 = ko.FrameParams.independence(POINT3.probs)
UPPER = ko.frechet_upper_2()
INTERVAL = ko.FrechetInterval(0.1, 0.3)

# name: (callable, valid arguments, the places junk goes: an argument's index,
# or (index, key) for one item of a list or mapping argument)
CALLS = {
    "EventSetContext": (ko.EventSetContext, (2, ["a", "b"]), [0, 1, (1, 0)]),
    "EventSetContext.index_of": (CTX2.index_of, ("x0",), [0]),
    "EventSetContext.mask_label": (CTX2.mask_label, (3,), [0]),
    "EventSetContext.mask_from_label": (CTX2.mask_from_label, ("x0&x1",), [0]),
    "EventSetContext.check_mask": (CTX2.check_mask, (3,), [0]),
    "MarginalSet": (ko.MarginalSet, (CTX2, [0.3, 0.2]), [1, (1, 0)]),
    "MarginalSet.from_values": (ko.MarginalSet.from_values, (CTX2, [0.3, 0.7]), [1, (1, 1)]),
    "Epd1": (ko.Epd1, (CTX2, [0.4, 0.3, 0.2, 0.1]), [1, (1, 2)]),
    "Epd2": (ko.Epd2, (CTX2, [1.0, 0.5, 0.3, 0.1]), [1, (1, 0)]),
    "Epd1.value": (TABLE.value, (2,), [0]),
    "PseudoDistribution": (ko.PseudoDistribution, (CTX2, [0.1, 0.1, 0.1, 0.1]), [1, (1, 3)]),
    "PseudoDistribution.from_own_epd": (ko.PseudoDistribution.from_own_epd, (TABLE, 0.9), [1]),
    "covariance_pair": (ko.covariance_pair, (TABLE, 0, 1), [1, 2]),
    "validate_epd1": (ko.validate_epd1, (TABLE, 1e-9), [1]),
    "validate_epd2": (ko.validate_epd2, (ko.epd2_from_epd1(TABLE), 1e-9), [1]),
    "mask_bits": (ko.mask_bits, (5,), [0]),
    "submasks": (ko.submasks, (5,), [0]),
    "phenomenon_point": (ko.phenomenon_point, (POINT3, 1), [1]),
    "phenomenon_marginals": (ko.phenomenon_marginals, (POINT3, 1), [1]),
    "renumber_epd1": (ko.renumber_epd1, (TABLE, 1), [1]),
    "epd_rows_from_kopula": (ko.epd_rows_from_kopula, (UPPER, np.array([[0.3, 0.4]])), [1]),
    "grid_points": (ko.grid_points, (2, 3, [0], {1: 0.5}), [0, 1, 2, 3, (2, 0), (3, 1)]),
    "verify_one_function": (ko.verify_one_function, (UPPER, 3, 1e-8), [1, 2]),
    "parametric_2kopula": (ko.parametric_2kopula, (lambda a, b: a * b, "product"), [1]),
    "convex_combination": (ko.convex_combination, ([UPPER, UPPER], [0.5, 0.5]), [1, (1, 0)]),
    "convex_updown_2kopula": (ko.convex_updown_2kopula, (0.5,), [0]),
    "conjugated_2kopula": (ko.conjugated_2kopula, (0.5,), [0]),
    "classical_pair_param": (ko.classical_pair_param, ("clayton", 2.0), [0, 1]),
    "constant_weight": (ko.constant_weight, (0.5,), [0]),
    "sine_diff_weight": (ko.sine_diff_weight, (15.0,), [0]),
    "FrameParams": (ko.FrameParams, (3, {0b011: 0.1}), [0, 1, (1, 0b011)]),
    "FrameParams.independence": (ko.FrameParams.independence, ([0.4, 0.3],), [0, (0, 1)]),
    "FrameParams.from_triplet": (ko.FrameParams.from_triplet, (0.1, 0.1, 0.02, 0.03), [0, 1, 2, 3]),
    "FrameParams.from_labels": (ko.FrameParams.from_labels, (CTX3, {"x0&x1": 0.1}), [(1, "x0&x1")]),
    "FrameParams.complete_table": (PARAMS3.complete_table, ([0.4, 0.3, 0.2],), [0, (0, 2)]),
    "FrechetInterval": (ko.FrechetInterval, (0.1, 0.3), [0, 1]),
    "FrechetInterval.contains": (INTERVAL.contains, (0.2, 1e-9), [0, 1]),
    "FrechetInterval.clamp": (INTERVAL.clamp, (0.2,), [0]),
    "conditional_epd": (ko.conditional_epd, (TABLE, 1, 1), [1, 2]),
    "pseudo_from_conditional": (ko.pseudo_from_conditional, (TABLE, 0.5), [1]),
    "frame_split": (ko.frame_split, (TABLE, 0), [1]),
    "frame_compose": (ko.frame_compose, (SLICE_IN, SLICE_OUT, 0.3, "f"), [2, 3]),
    "frechet_bounds": (ko.frechet_bounds, ({0b01: 0.1, 0b10: 0.1}, 0b11, None, 0.4),
                       [0, 1, 3, (0, 0b01)]),
    "frechet_bounds, one event": (ko.frechet_bounds, ({}, 0b1, 0.3, 0.4), [2, 3]),
    "triplet_epd": (ko.triplet_epd, (POINT3, PARAMS3, "raise"), [2]),
    "quadruplet_epd": (ko.quadruplet_epd, (
        ko.MarginalSet(ko.EventSetContext(4), (0.4, 0.3, 0.2, 0.1)),
        ko.FrameParams.independence([0.4, 0.3, 0.2, 0.1]), "raise"), [2]),
    "build_nset_epd": (ko.build_nset_epd, (POINT3, PARAMS3, "clamp"), [2]),
    "full_probability_check": (ko.full_probability_check, (TABLE, 1, None, None, 1e-9), [1, 4]),
    "kor2": (ko.kor2, (0.3, 0.4, 0.15), [0, 1, 2]),
    "pxy_from_kor2": (ko.pxy_from_kor2, (0.3, 0.4, 0.5), [0, 1, 2]),
    "inserted_triple_kov_bounds": (ko.inserted_triple_kov_bounds, ("frame", POINT3, 0.1, 0.1),
                                   [0, 2, 3]),
    "params_from_kor3": (ko.params_from_kor3, (POINT3, 0.5, 0.1, 0.0, 0.0, 2), [1, 2, 3, 4, 5]),
    "SampleSpec": (ko.SampleSpec, (10, 0), [0, 1]),
}
# The re-exported callables left out, and why: their arguments are tables,
# contexts, families, points, parameters, streams or documents (which the
# command-line fuzz above covers), they are results the library builds, or
# (dump_json) their errors match the reference encoder's by contract.
NOT_FUZZED = {
    "Epd1Report", "Epd2Report", "FullProbabilityReport", "HalfRareProjection", "KopulaFamily",
    "KovBounds", "OneFunctionReport", "PairParamFn", "build_from_config", "conditional_from_pseudo",
    "dump_json", "epd1_from_epd2", "epd2_from_epd1", "epd_from_dict", "epd_from_kopula",
    "epd_to_dict", "family_from_config", "frechet_lower_2", "frechet_upper_2",
    "half_rare_projection", "independent_kopula", "load_epd", "marginals", "pair_context",
    "quarter_sum_2", "sample_epd1", "sample_summary", "save_epd", "write_epd_csv",
}

HUGE = 10**5000  # past Python's 4300-digit limit: its repr raises
JUNK = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["0.5", "1", "-1", "2.5", "nan", "inf", "1e3", "0x1", "x0"]),
    st.none(),
    st.booleans(),
    st.lists(st.lists(st.floats(0.0, 1.0), max_size=2), min_size=1, max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE]),
)


def _with_junk(args, place, junk):
    """``args`` with ``junk`` at ``place``: an argument's index, or (index, key) of an item."""
    args = list(args)
    if isinstance(place, int):
        args[place] = junk
    else:
        i, key = place
        inner = args[i].copy()
        inner[key] = junk
        args[i] = inner
    return args


def test_the_fuzz_covers_every_re_exported_callable():
    public = {name: getattr(ko, name) for name in dir(ko) if not name.startswith("_")}
    callables = {name for name, obj in public.items() if callable(obj)
                 and not (isinstance(obj, type) and issubclass(obj, ko.KopulaError))}
    fuzzed = {name.split(".")[0].split(",")[0] for name in CALLS}
    assert callables == fuzzed | NOT_FUZZED


@pytest.mark.parametrize("name", list(CALLS))
def test_each_call_takes_its_valid_arguments(name):
    fn, args, _ = CALLS[name]
    fn(*args)


@settings(max_examples=500)
@given(data=st.data())
def test_junk_arguments_raise_a_typed_error_or_nothing(data):
    name = data.draw(st.sampled_from(list(CALLS)), label="call")
    fn, args, places = CALLS[name]
    junk = data.draw(JUNK)
    args = _with_junk(args, data.draw(st.sampled_from(places), label="place"), junk)
    try:
        result = fn(*args)
        if isinstance(result, Iterator):  # the first block, mask or subset
            next(result, None)
        if hasattr(result, "ok"):  # a report reads its tolerance here
            assert result.ok in (True, False)
    except ko.DependencyError:  # a missing value, not a bad one: the one KopulaError that
        assert junk is None        # is no ValueError, by contract
    except ko.KopulaError as exc:
        assert isinstance(exc, ValueError), repr(exc)


CTX1 = ko.EventSetContext(1)
PROBED = {
    # raised numpy's or Python's own exception before the library read its arguments by rule
    "Epd1 of strings": lambda: ko.Epd1(CTX2, ["a", "b", "c", "d"]),
    "from_values with a string": lambda: ko.MarginalSet.from_values(CTX2, ["x", 0.1]),
    "FrameParams of a string": lambda: ko.FrameParams(2, "abc"),
    "kor2 of a string": lambda: ko.kor2("a", 0.1, 0.1),
    "classical theta a string": lambda: ko.classical_pair_param("clayton", "x"),
    "covariance_pair of a string": lambda: ko.covariance_pair(TABLE, "a", 1),
    "grid_points of a string": lambda: ko.grid_points("a", 3),
    "mask_from_label of an int": lambda: CTX2.mask_from_label(5),
    "labels that are ints": lambda: ko.EventSetContext(2, (1, 2)),
    "frame_split of a string": lambda: ko.frame_split(TABLE, "a"),
    "mask_bits of a float": lambda: ko.mask_bits(1.5),
    "submasks of a string": lambda: ko.submasks("a"),
    "FrechetInterval of a string": lambda: ko.FrechetInterval("a", 1),
    "mixture weight a string": lambda: ko.convex_combination([UPPER], ["a"]),
    "tolerance a string": lambda: ko.validate_epd1(TABLE, "a"),
    "sample count past 2**60": lambda: ko.SampleSpec(10**30),
    # were accepted, as their config forms were not
    "a bool marginal": lambda: ko.MarginalSet(CTX2, (True, 0.2)),
    "a numeric-string theta": lambda: ko.classical_pair_param("clayton", "2.5"),
    "numeric-string values": lambda: ko.Epd1(CTX2, ["0.25"] * 4),
    "a negative tolerance": lambda: ko.validate_epd1(TABLE, -1.0),
    "a grid event out of range, not iterated": lambda: ko.grid_points(2, 3, [0, 7]),
}


@pytest.mark.parametrize("name", list(PROBED))
def test_each_probed_call_raises_a_typed_error(name):
    with pytest.raises(ko.KopulaError) as caught:
        PROBED[name]()
    assert isinstance(caught.value, ValueError)


# a family's subset masks are counts in [0, 2**n): floats were truncated and
# strings ended in numpy's ValueError; an interval with a NaN end held no value
@pytest.mark.parametrize(
    "masks, text",
    [
        (np.array([0.0, 1.5]), "subset masks must be integers, got array("),
        ([0, 1.0], "subset mask 1.0 is not an integer in [0, 4)"),
        (2.0, "subset masks must be integers, got 2.0"),
        ("ab", "subset masks must be integers, got 'ab'"),
        (["a"], "subset mask 'a' is not an integer in [0, 4)"),
        (np.array([True, False]), "subset masks must be integers, got array("),
        ([True], "subset mask True is not an integer in [0, 4)"),
        (True, "subset masks must be integers, got True"),
        (-1, "subset mask -1 is not an integer in [0, 4)"),
        ([0, 4], "subset mask 4 is not an integer in [0, 4)"),
        (np.arange(-1, 3), "subset mask -1 is not an integer in [0, 4)"),
        (np.arange(5, dtype=np.uint8), "subset mask 4 is not an integer in [0, 4)"),
    ],
    ids=["float_array", "float_item", "float", "string", "string_item", "bool_array",
         "bool_item", "bool", "minus_one", "four", "minus_one_in_array", "four_in_array"],
)
def test_a_family_reads_its_masks_by_the_count_rule(masks, text):
    with pytest.raises(ko.ParameterRangeError) as caught:
        UPPER([0.3, 0.4], masks)
    assert str(caught.value).startswith(text)


@pytest.mark.parametrize("masks", [3, np.int64(3), [0, 3], (3,), np.array([[1], [3]], np.uint8)])
def test_a_family_takes_masks_that_are_counts(masks):
    want = UPPER([0.3, 0.4], np.asarray(masks, dtype=np.int64))
    assert UPPER([0.3, 0.4], masks).tolist() == want.tolist()


def test_a_family_takes_the_library_s_mask_column_without_a_copy():
    seen = []
    fam = ko.KopulaFamily(CTX2, lambda w, m: seen.append(m) or np.zeros(m.shape), "probe")
    masks = np.arange(4)
    fam([0.3, 0.4], masks[:, None])
    fam([0.3, 0.4], masks)
    assert seen[0].base is masks and seen[1] is masks


@pytest.mark.parametrize("ends", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_an_interval_with_a_nan_end_is_a_range_error(ends):
    with pytest.raises(ko.ParameterRangeError, match="NaN end in the interval"):
        ko.FrechetInterval(*ends)


# ---------------------------------------------------------------------------
# the command line's numeric flags: each value is rejected, or cheap to run

FLAG_VALUES = ["0", "-1", "1", "3", str(2**64), str(10**30), "nan", "inf", "-inf", "1.5",
               "1e3", "0x10", "x0", ""]
FLAGS = {
    # command, flag: the other arguments, and the values that would start a long run
    ("sample", "--n"): (["sample", "--config", "<table>"], set()),
    ("sample", "--seed"): (["sample", "--config", "<table>", "--n", "10"], set()),
    ("oracle", "--n"): (["oracle", "--trials", "1"], set()),
    ("oracle", "--trials"): (["oracle", "--n", "1"], {str(2**64), str(10**30), "1e3"}),
    ("oracle", "--seed"): (["oracle", "--n", "1", "--trials", "1"], set()),
    ("oracle", "--tol"): (["oracle", "--n", "1", "--trials", "1"], set()),
    ("grid", "--resolution"): (["grid", "--config", "<family>"], set()),
    ("validate", "--resolution"): (["validate", "--config", "<family>"], set()),
    ("validate", "--tol"): (["validate", "--config", "<family>", "--resolution", "3"], set()),
    ("renumber", "--keep"): (["renumber", "--config", "<table>"], set()),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    (root / "table.json").write_text(json.dumps(USABLE[0]), encoding="utf-8")
    (root / "family.json").write_text(json.dumps({"family": "frechet_upper"}), encoding="utf-8")
    return {"<table>": str(root / "table.json"), "<family>": str(root / "family.json")}


@pytest.mark.parametrize("flag", list(FLAGS), ids=" ".join)
def test_numeric_flags_end_in_an_exit_code_of_the_contract(inputs, flag):
    args, long_runs = FLAGS[flag]
    for value in FLAG_VALUES:
        if value in long_runs:
            continue
        argv = [inputs.get(a, a) for a in args] + [flag[1], value]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in range(5), argv
        assert "Traceback" not in err.getvalue(), argv
        if code in (1, 2):
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


def test_a_sample_count_past_numpy_s_limit_is_one_line_and_exit_1(inputs, capsys):
    assert run(["sample", "--config", inputs["<table>"], "--n", str(10**30)]) == 1
    assert capsys.readouterr().err == (
        f"n_samples must be at most 2**53, got {10**30}\n"
    )
