"""Table text: the block writers against the reference encoders, byte for byte.

``save_epd``, ``write_epd_csv`` and the writer's splice (``_json_chunks``)
format an array 2^12 values at a time, and ``dump_json`` is the reference
call; the value-by-value encoders in ``kopula.oracles`` fix what the bytes
must be, and tracemalloc guards hold what the writers keep while they
write.  Also here: the sampler's summary against the per-draw
computation, and the typed readers at the table and build-config boundary.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

import kopula as ko
from kopula.cli import run
from kopula.oracles import naive_epd_csv, reference_dump_json
from kopula.serialize import _json_chunks, dump_json, load_epd, save_epd, write_epd_csv

from helpers import random_epd1, traced_peak


def text_of(writer, d) -> str:
    buf = io.StringIO()
    writer(d, buf)
    return buf.getvalue()


def assert_same_text(ours: str, reference: str) -> None:
    """Byte equality, reported by the first differing line: a full diff of 2^13 lines takes minutes."""
    if ours != reference:
        a, b = ours.splitlines(keepends=True), reference.splitlines(keepends=True)
        k = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
        pytest.fail(f"line {k}: {a[k:k + 1]!r} != {b[k:k + 1]!r} ({len(a)} vs {len(b)} lines)")


def custom_context(n: int) -> ko.EventSetContext:
    return ko.EventSetContext(n, tuple(f"ev_{k}" for k in range(n)))


@pytest.mark.parametrize("n", range(1, 15))  # 13 and 14 cross the 2^12-value block boundary
@pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
def test_table_documents_match_the_reference(n, custom, rng):
    d = random_epd1(rng, n)
    if custom:
        d = ko.Epd1(custom_context(n), d.values)
    for table in (d, ko.epd2_from_epd1(d)):
        doc = ko.epd_to_dict(table)
        reference = reference_dump_json(doc)
        assert_same_text(dump_json(doc), reference)
        assert_same_text(text_of(save_epd, table), reference)
        assert_same_text(text_of(write_epd_csv, table), text_of(naive_epd_csv, table))


@pytest.mark.parametrize("n", [12, 13])
def test_csv_across_the_block_boundary(n, rng):
    d = ko.Epd1(custom_context(n), random_epd1(rng, n).values)
    text = text_of(write_epd_csv, d)
    assert_same_text(text, text_of(naive_epd_csv, d))
    lines = text.splitlines()
    assert len(lines) == 1 + (1 << n)
    assert lines[-1].startswith(f"{(1 << n) - 1},ev_0&ev_1&")
    if n == 13:  # the first row of the second block names only the high event
        assert lines[1 + 4096].startswith("4096,ev_12,")
        assert lines[1 + 4097].startswith("4097,ev_0&ev_12,")


def test_csv_writes_in_blocks(rng):
    class Recorder(io.StringIO):
        writes = 0

        def write(self, text):
            Recorder.writes += 1
            return super().write(text)

    write_epd_csv(random_epd1(rng, 14), Recorder())
    assert Recorder.writes == 1 + 4  # the header, then four blocks of 2^12 rows


@pytest.mark.parametrize("n", [1, 3, 8, 13, 14])
def test_sample_summaries_match_the_reference(n, rng):
    d = random_epd1(rng, n)
    doc = ko.sample_summary(d, ko.SampleSpec(5000, seed=n))
    assert_same_text(dump_json(doc), reference_dump_json(doc))


@pytest.mark.parametrize(
    "cfg",
    [
        {"marginals": [0.3, 0.2, 0.6], "family": "independent"},
        {"marginals": [0.4, 0.3], "labels": ["a", "b"], "family": "clayton", "theta": 2.0},
        {"marginals": [0.4, 0.3], "family": {"family": "convex",
                                             "parts": [{"family": "frechet_upper"},
                                                       {"family": "frechet_lower"}],
                                             "weights": [0.5, 0.5]}},
        {"marginals": [0.5, 0.4, 0.3], "labels": ["x", "y", "z"],
         "frame_params": {"x&y": 0.2, "x&z": 0.15, "y&z": 0.12, "x&y&z": 0.06}},
        {"marginals": [0.5, 0.4, 0.3], "kor": {"xy": 0.8, "xz": 0.0, "in": 0.2, "out": 0.0}},
    ],
    ids=["independent", "classical", "convex", "frame_params", "kor"],
)
def test_every_build_route_writes_the_reference_text(cfg):
    d = ko.build_from_config(cfg)
    doc = ko.epd_to_dict(d)
    assert_same_text(dump_json(doc), reference_dump_json(doc))
    assert_same_text(text_of(write_epd_csv, d), text_of(naive_epd_csv, d))


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"a": [], "b": {}, "c": [[], {}]},
        [{"b": 1, "a": [1.5, 2]}, {"c": None}, [[0.1, 0.2], [3]]],
        [True, False, None, 1, 0.5],
        [True, 1, 0.5],
        [False],
        ["a, b", "c,d", ", ", 1.0],
        [float("nan"), float("inf"), -float("inf"), 0.0, -0.0],
        [np.float64(0.1), np.float64(1e-300), 0.3],
        [2**53 + 1, -(2**64), 10**30, 0.1],
        (1, 2.5, (3, 4)),
        {"k": (0.5, 0.25)},
        {3: "int", 2.5: "float", True: "bool", -1e300: "small"},
        {None: "none"},
        ["ünïcode", "quote\"back\\slash", "tab\tnewline\n"],
        [1e16, 1e-5, 123456789.0, 5e-324, 1.7976931348623157e308],
        "scalar, with a comma",
        3.25,
        None,
        [[[[1.0]]]],
        {"values": [0.5, 0.25], "counts": [3, 1], "kind": "epd1", "n": {"k": [1.0]},
         "labels": ["x", "y"], "marginals": [0.75, 2]},
        {"a\"b": [1.0, 2.5], "\u00fc": [3], "\n": [0.5], "plain": [4.0]},
        {"v": [1.0], "values": [2.0, 3.0], "val": [4]},
        {"a": {"values": [1.0], "x": [{"values": [2]}]}, "values": [3.0]},
        {"note": '\n  "values": [', "values": [0.5], "z": "\"values\": [1]"},
        {"a": [True, 1.0], "b": [np.float64(0.5), 0.25], "c": [float("nan"), float("inf"), 1.0],
         "d": [10**30, 2**64, -1], "e": [0.5]},
        {"values": [], "counts": [1, 2]},
        {1: [0.5]},
    ],
)
def test_dump_json_matches_the_reference_on_any_tree(obj):
    assert dump_json(obj) == reference_dump_json(obj)


def test_dump_json_writes_to_a_stream():
    buf = io.StringIO()
    text = dump_json({"values": [0.5, 0.25]}, buf)
    assert buf.getvalue() == text == reference_dump_json({"values": [0.5, 0.25]})


@pytest.mark.parametrize(
    "obj", [[object()], {"a": {1, 2}}, {(1, 2): 0}, {None: 0, 1: 1}, {"a": [1.0], 1: [2.0]}]
)
def test_dump_json_rejects_what_the_reference_rejects(obj):
    with pytest.raises(TypeError) as ours:
        dump_json(obj)
    with pytest.raises(TypeError) as theirs:
        reference_dump_json(obj)
    assert str(ours.value) == str(theirs.value)


_UNIFORM = np.random.default_rng(5).random(2 * 4096 + 7)  # two full blocks and a tail
_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1])
_FULL_WITH_NAN = _UNIFORM[:4096].copy()
_FULL_WITH_NAN[4000] = np.nan


@pytest.mark.parametrize(
    "head, arrays",
    [
        ({"kind": "epd1", "n": 2, "labels": ["x", "y"]}, {"values": np.array([0.5, 0.25, 0.25])}),
        ({'q"uote': 1, "back\\slash": [1.5], "üml": "é", "new\nline": None},
         {'a"b': _SPECIAL, "back\\slash!": np.arange(3), "ü": _UNIFORM[:5], "\n": -_SPECIAL}),
        ({"note": '\n  "values": [', "z": '"values": [1]', "a": {"values": [2.0]}},
         {"values": _UNIFORM[:9]}),
        ({"b": True, "d": [1, 2]}, {"a": np.arange(-3, 3), "c": _SPECIAL, "e": _UNIFORM[:4096]}),
        ({"n_samples": 10}, {"counts": np.arange(2 * 4096 + 7, dtype=np.int64),
                             "frequencies": _UNIFORM}),
        ({}, {"full_with_nan": _FULL_WITH_NAN, "special_block": np.resize(_SPECIAL, 4096)}),
    ],
    ids=["table", "escaped_keys", "marker_in_a_string", "around_the_head", "blocks", "non_finite"],
)
def test_spliced_arrays_match_the_reference(head, arrays):
    """The writer's splice: ``head`` with ``arrays`` as lists, byte for byte.

    Every caller passes non-empty arrays, so only those are checked.
    """
    lists = {key: values.tolist() for key, values in arrays.items()}
    assert_same_text("".join(_json_chunks(head, **arrays)), reference_dump_json({**head, **lists}))


# ---------------------------------------------------------------------------
# the sampler


def per_draw_summary(d: ko.Epd1, spec: ko.SampleSpec) -> dict:
    """The summary as computed from the draws in draw order, one event at a time."""
    masks = ko.sample_epd1(d, spec)
    counts = np.bincount(masks, minlength=d.context.size)
    marg = [float(((masks >> k) & 1).mean()) for k in range(d.context.n_events)]
    return {
        "n_events": d.context.n_events,
        "n_samples": spec.n_samples,
        "seed": spec.seed,
        "labels": list(d.context.labels),
        "counts": [int(c) for c in counts],
        "frequencies": [float(f) for f in counts / spec.n_samples],
        "marginals": marg,
        "marginal_se": [float(np.sqrt(m * (1.0 - m) / spec.n_samples)) for m in marg],
    }


@pytest.mark.parametrize("n, samples", [(1, 10), (2, 1), (5, 3000), (10, 20000)])
def test_sample_summary_equals_the_per_draw_computation(n, samples, rng):
    d = random_epd1(rng, n)
    spec = ko.SampleSpec(samples, seed=n)
    assert_same_text(dump_json(ko.sample_summary(d, spec)), dump_json(per_draw_summary(d, spec)))


def test_sample_draw_order_is_the_inverse_cdf_of_the_stream(rng):
    d = random_epd1(rng, 6)
    spec = ko.SampleSpec(1000, seed=11)
    u = np.random.Generator(np.random.PCG64(11)).random(1000)
    cdf = np.cumsum(d.values)
    expected = np.minimum(np.searchsorted(cdf / cdf[-1], u, side="right"), 63)
    np.testing.assert_array_equal(ko.sample_epd1(d, spec), expected)


def test_sample_summary_on_a_point_mass():
    d = ko.Epd1(ko.EventSetContext(3), [0.0] * 5 + [1.0, 0.0, 0.0])
    doc = ko.sample_summary(d, ko.SampleSpec(50, seed=1))
    assert doc["counts"] == [0] * 5 + [50, 0, 0]
    assert doc["marginals"] == [1.0, 0.0, 1.0]
    assert doc["marginal_se"] == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# the CLI writes the reference text


def test_cli_outputs_equal_the_reference_text(tmp_path, rng):
    n = 5
    d = ko.Epd1(custom_context(n), random_epd1(rng, n).values)
    table = tmp_path / "t.json"
    table.write_text(reference_dump_json(ko.epd_to_dict(d)), encoding="utf-8")

    def out_of(*argv) -> str:
        out = tmp_path / "out"
        assert run([*argv, "--config", str(table), "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")

    assert out_of("mobius") == reference_dump_json(ko.epd_to_dict(ko.epd2_from_epd1(d)))
    assert out_of("mobius", "--format", "csv") == text_of(naive_epd_csv, ko.epd2_from_epd1(d))
    renumbered = ko.renumber_epd1(d, 0b10110)
    assert out_of("renumber", "--keep", "0b10110") == reference_dump_json(
        ko.epd_to_dict(renumbered)
    )
    summary = ko.sample_summary(d, ko.SampleSpec(700, seed=3))
    assert out_of("sample", "--n", "700", "--seed", "3") == reference_dump_json(summary)

    cfg = {"marginals": [0.3, 0.2, 0.6], "labels": ["a", "b", "c"], "family": "independent"}
    table.write_text(json.dumps(cfg), encoding="utf-8")
    built = ko.build_from_config(cfg)
    assert out_of("build", "--format", "csv") == text_of(naive_epd_csv, built)
    assert out_of("build") == reference_dump_json(ko.epd_to_dict(built))


def test_cli_csv_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"marginals": [0.3, 0.2], "family": "independent"}))
    assert run(["build", "--config", str(cfg), "--format", "csv"]) == 0
    d = ko.build_from_config({"marginals": [0.3, 0.2], "family": "independent"})
    assert capsys.readouterr().out == text_of(naive_epd_csv, d)


# ---------------------------------------------------------------------------
# memory while writing: the output table, plus one block of text


class ByteCount:
    """A text sink that keeps only the length of what is written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def test_save_epd_holds_less_than_one_table_while_it_writes(rng):
    d = random_epd1(rng, 18)
    sink = ByteCount()
    _, peak = traced_peak(lambda: save_epd(d, sink))
    assert sink.size == len(dump_json(ko.epd_to_dict(d)))
    assert peak < d.values.nbytes, f"peak {peak / 2**20:.1f} MB"


def test_cli_build_writes_within_its_build_memory(tmp_path, rng):
    n = 18
    cfg = {"marginals": rng.uniform(0.05, 0.95, n).tolist(), "family": "independent"}
    path, out = tmp_path / "cfg.json", tmp_path / "t.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, peak = traced_peak(lambda: run(["build", "--config", str(path), "--out", str(out)]))
    assert code == 0
    assert out.read_text(encoding="utf-8") == dump_json(ko.epd_to_dict(ko.build_from_config(cfg)))
    # the family build peaks at four tables; writing adds one block, not a list and its text
    assert peak < 5 * (1 << n) * 8, f"peak {peak / 2**20:.1f} MB"


def test_cli_sample_holds_arrays_not_lists_once_its_table_is_read(tmp_path, rng, monkeypatch):
    from kopula import cli

    n = 18
    d = random_epd1(rng, n)
    path, out = tmp_path / "t.json", tmp_path / "s.json"
    with open(path, "w", encoding="utf-8") as fp:
        save_epd(d, fp)

    def load_then_reset_peak(fp):  # the JSON read's own peak belongs to load_epd
        table = load_epd(fp)
        tracemalloc.reset_peak()
        return table

    monkeypatch.setattr(cli, "load_epd", load_then_reset_peak)
    argv = ["sample", "--config", str(path), "--out", str(out), "--n", "100000", "--seed", "4"]
    code, peak = traced_peak(lambda: run(argv))
    assert code == 0
    summary = ko.sample_summary(d, ko.SampleSpec(100_000, seed=4))
    assert out.read_text(encoding="utf-8") == dump_json(summary)
    # The table, its CDF and the counts and frequencies arrays traced 6.5 MB;
    # 2**n-entry counts and frequencies lists traced 16.1 MB.
    assert peak < 4 * (1 << n) * 8, f"peak {peak / 2**20:.1f} MB"


def test_oracle_checks_the_table_text(capsys):
    assert run(["oracle", "--n", "4", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "table text: one-pass writers vs reference encoders: 0 of 16 documents differ" in out


def test_oracle_text_mismatch_exit_4(monkeypatch, capsys):
    from kopula import cli

    monkeypatch.setattr(cli, "reference_dump_json", lambda obj: dump_json(obj) + " ")
    assert run(["oracle", "--n", "3", "--trials", "3"]) == 4
    out = capsys.readouterr().out
    assert "9 of 12 documents differ" in out  # three JSON documents per table, n = 1, 2, 3
    assert "DISAGREE" in out


@pytest.mark.parametrize("writer, differ", [("save_epd", 6), ("write_epd_csv", 3)])
def test_oracle_checks_the_table_writers_the_commands_run(monkeypatch, capsys, writer, differ):
    from kopula import cli

    real = getattr(cli, writer)
    monkeypatch.setattr(cli, writer, lambda d, fp: (real(d, fp), fp.write(" ")))
    assert run(["oracle", "--n", "3", "--trials", "1"]) == 4
    assert f"{differ} of 12 documents differ" in capsys.readouterr().out  # per table, n = 1, 2, 3


def test_oracle_checks_the_sample_writer_the_command_runs(monkeypatch, capsys):
    from kopula import cli

    real = cli._json_chunks
    monkeypatch.setattr(cli, "_json_chunks", lambda *a, **bulk: [*real(*a, **bulk), " "])
    assert run(["oracle", "--n", "3", "--trials", "1"]) == 4
    assert "3 of 12 documents differ" in capsys.readouterr().out  # one summary per table


def test_oracle_checks_the_float_text_kernel(capsys):
    assert run(["oracle", "--n", "2", "--trials", "1"]) == 0
    assert "float text: Ryu kernel vs repr: 0 of 4096 values differ" in capsys.readouterr().out


def test_oracle_float_text_mismatch_exit_4(monkeypatch, capsys):
    from kopula import cli

    kernel = cli.join_reprs

    def one_value_off(values, sep):
        texts = kernel(values, sep).split(sep)
        texts[7] += "0"
        return sep.join(texts)

    monkeypatch.setattr(cli, "join_reprs", one_value_off)
    assert run(["oracle", "--n", "2", "--trials", "1"]) == 4
    out = capsys.readouterr().out
    assert "float text: Ryu kernel vs repr: 1 of 4096 values differ" in out
    assert "DISAGREE" in out


# ---------------------------------------------------------------------------
# typed readers


GOOD_TABLE = {"kind": "epd1", "n": 2, "values": [0.56, 0.24, 0.14, 0.06]}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"n": "abc"}, "'n'"),
        ({"n": 1.5}, "'n'"),
        ({"n": 2.0}, "'n'"),
        ({"n": True}, "'n'"),
        ({"n": None}, "'n'"),
        ({"labels": 5}, "labels"),
        ({"labels": "xy"}, "labels"),
        ({"labels": [1, 2]}, "labels"),
        ({"labels": None}, "labels"),
        ({"values": ["a", 0.5, 0.25, 0.25]}, "values"),
        ({"values": [True, 0.0, 0.0, 0.0]}, "values"),
        ({"values": [None, 0.5, 0.25, 0.25]}, "values"),
        ({"values": "abc"}, "values"),
        ({"values": {"0": 1.0}}, "values"),
        ({"values": [10**400, 0, 0, 0]}, "values"),
    ],
    ids=lambda v: repr(v) if isinstance(v, dict) else None,
)
def test_malformed_table_fields(change, field, tmp_path, capsys):
    doc = {**GOOD_TABLE, **change}
    with pytest.raises(ko.ConfigError, match=field):
        ko.epd_from_dict(doc)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["mobius", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [[1, 2], "epd1", 5, None])
def test_table_document_must_be_an_object(doc, tmp_path, capsys):
    with pytest.raises(ko.ConfigError):
        ko.epd_from_dict(doc)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["sample", "--config", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_table_values_are_copied_once():
    values = [0.56, 0.24, 0.14, 0.06]
    d = ko.epd_from_dict({**GOOD_TABLE, "values": values})
    assert d.values.tolist() == values and not d.values.flags.writeable


BASE = {"marginals": [0.4, 0.3]}


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"marginals": ["a", 0.2], "family": "independent"}, "marginals[0]"),
        ({"marginals": [True, 0.2], "family": "independent"}, "marginals[0]"),
        ({"marginals": [0.3, None], "family": "independent"}, "marginals[1]"),
        ({"marginals": [10**400, 0.2], "family": "independent"}, "marginals[0]"),
        ({**BASE, "family": "clayton", "theta": "x"}, "theta"),
        ({**BASE, "family": "clayton", "theta": True}, "theta"),
        ({**BASE, "family": "clayton", "theta": None}, "theta"),
        ({**BASE, "labels": 5, "family": "independent"}, "labels"),
        ({**BASE, "labels": ["a", 2], "family": "independent"}, "labels"),
        ({**BASE, "family": {"family": "independent", "n": "abc"}}, "'n'"),
        ({**BASE, "family": {"family": "independent", "n": 1.5}}, "'n'"),
        ({**BASE, "family": {"family": "independent", "labels": 5}}, "labels"),
        ({**BASE, "family": "convex_updown", "alpha": {"kind": "constant", "value": "x"}},
         "'value'"),
        ({**BASE, "family": "conjugated", "alpha": {"kind": "sine_diff", "scale": [1]}},
         "'scale'"),
        ({**BASE, "family": {"family": "convex", "parts": [{"family": "frechet_upper"}],
                             "weights": ["a"]}}, "weights[0]"),
        ({"marginals": [0.5, 0.4, 0.3], "kor": {"xy": "x", "xz": 0, "in": 0, "out": 0}},
         "'xy'"),
        ({"marginals": [0.5, 0.4, 0.3], "kor": {"xy": 0, "xz": 0, "in": 0, "out": False}},
         "'out'"),
        ({"marginals": [0.5, 0.4, 0.3], "kor": {"xy": 0, "xz": 0, "in": 0, "out": 0},
          "modification": "x"}, "modification"),
        ({"marginals": [0.5, 0.4, 0.3], "kor": {"xy": 0, "xz": 0, "in": 0, "out": 0},
          "modification": 1.5}, "modification"),
        ({**BASE, "family": "conjugated", "alpha": 10**400}, "conjugated"),
    ],
    ids=lambda v: None if isinstance(v, dict) else v,
)
def test_malformed_build_fields(cfg, field, tmp_path, capsys):
    with pytest.raises(ko.ConfigError, match=field.replace("[", r"\[").replace("]", r"\]")):
        ko.build_from_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["build", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_library_callers_may_pass_numpy_numbers():
    table = {**GOOD_TABLE, "n": np.int64(2), "values": list(np.array(GOOD_TABLE["values"]))}
    assert ko.epd_from_dict(table).values.tolist() == GOOD_TABLE["values"]
    named = {"x0&x1": np.float64(0.2), "x0&x2": 0.15, "x1&x2": 0.12, "x0&x1&x2": np.float64(0.06)}
    d = ko.build_from_config({"marginals": [np.float64(0.5), 0.4, 0.3], "frame_params": named})
    plain = {k: float(v) for k, v in named.items()}
    expect = ko.build_from_config({"marginals": [0.5, 0.4, 0.3], "frame_params": plain})
    assert d.values.tobytes() == expect.values.tobytes()


def test_well_typed_fields_still_build():
    d = ko.build_from_config({"marginals": [1, 0], "labels": ["a", "b"],
                              "family": {"family": "independent", "n": 2}})
    np.testing.assert_array_equal(d.values, (0.0, 1.0, 0.0, 0.0))
    d = ko.build_from_config({"marginals": [0.5, 0.4, 0.3],
                              "kor": {"xy": 0, "xz": 0, "in": 0, "out": 0}, "modification": 2})
    assert ko.validate_epd1(d).ok
