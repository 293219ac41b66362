"""Fuzz of the input boundary: no input file ends in a traceback.

Every file-reading command gets generated JSON in the config and table
vocabulary, some of it with integers past Python's 4300-digit limit or
nesting 1000 deep, and must answer with an exit code of the contract.
The vocabulary holds strings that only look like event indices: a
superscript digit, a doubled minus and digits past that limit.
"""

import contextlib
import io
import json

from hypothesis import example, given, strategies as st

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
