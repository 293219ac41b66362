"""The batched ``grid`` sweep against the point-by-point reference.

``kopula grid`` evaluates a family once per block of grid points;
``oracles.pointwise_grid`` is the loop it replaced, one
``epd_from_kopula`` call per point.  The header, the row order, the
point and terrace_mask columns, the NaN rows and the stderr notes must
match it exactly.  The values are bitwise equal too, except for pair
functions built on ``**``, whose array path may round by one ulp.
"""

import json

import numpy as np
import pytest

import kopula as ko
from kopula import cli
from kopula.cli import run
from kopula.oracles import pointwise_grid
from kopula.serialize import _grid_csv_rows

from helpers import traced_peak

PAIR_CONFIGS = [
    ({"family": "independent", "n": 2}, True),
    ({"family": "frechet_upper"}, True),
    ({"family": "frechet_lower"}, True),
    ({"family": "quarter_sum"}, True),
    ({"family": "amh", "theta": -0.7}, True),
    ({"family": "frank", "theta": 4.0}, True),
    ({"family": "frank", "theta": 45.0}, True),
    ({"family": "convex_updown", "alpha": -0.4}, True),
    ({"family": "conjugated", "alpha": {"kind": "sine_diff", "scale": 15}}, True),
    ({"family": "clayton", "theta": 2.5}, False),
    ({"family": "clayton", "theta": -0.5}, False),
    ({"family": "gumbel", "theta": 3.0}, False),
    ({"family": "joe", "theta": 2.0}, False),
    (
        {
            "family": "convex",
            "parts": [{"family": "frechet_upper"}, {"family": "joe", "theta": 1.5}],
            "weights": [0.3, 0.7],
        },
        False,
    ),
]


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def sweep(tmp_path, capsys, cfg, resolution):
    """Exit code, CSV lines and stderr lines of one ``kopula grid`` run."""
    out = tmp_path / "grid.csv"
    argv = ["grid", "--config", write_config(tmp_path, cfg), "--out", str(out)]
    code = run(argv + ["--resolution", str(resolution)])
    return code, out.read_text(encoding="utf-8").splitlines(), capsys.readouterr().err.splitlines()


def header(n):
    return ",".join(
        [f"w_{k}" for k in range(n)] + ["terrace_mask"] + [f"v_{m}" for m in range(1 << n)]
    )


def assert_same_grid(lines, rows, n, exact):
    assert lines[0] == header(n)
    assert len(lines) == 1 + len(rows)
    got = [line.split(",") for line in lines[1:]]
    want = [row.split(",") for row in rows]
    assert [g[: n + 1] for g in got] == [w[: n + 1] for w in want]
    if exact:
        assert lines[1:] == rows
    else:
        a = np.array([g[n + 1:] for g in got], dtype=np.float64)
        b = np.array([w[n + 1:] for w in want], dtype=np.float64)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)


def config_id(value):
    return json.dumps(value) if isinstance(value, dict) else None


@pytest.mark.parametrize("cfg, exact", PAIR_CONFIGS, ids=config_id)
def test_pair_families_match_the_pointwise_loop(tmp_path, capsys, cfg, exact):
    code, lines, err = sweep(tmp_path, capsys, cfg, 21)
    assert code == 0 and err == []
    rows, notes = pointwise_grid(ko.family_from_config(cfg), 21, (0, 1), {})
    assert notes == []
    assert_same_grid(lines, rows, 2, exact)


@pytest.mark.parametrize(
    "n, resolution, axes, fixed",
    [
        (3, 7, [0, 2], {"1": 0.3}),
        (4, 5, [0, "x1", 3], {"x2": 0.55}),
        (3, 4, [], {"0": 0.2, "1": 0.5, "2": 0.9}),
        (4, 9, [0, 1, 2, 3], {}),  # 6,561 rows: crosses the 4,096-row block boundary
    ],
)
def test_independent_grids_match_the_pointwise_loop(tmp_path, capsys, n, resolution, axes, fixed):
    cfg = {"family": "independent", "n": n, "axes": axes, "fixed": fixed}
    code, lines, err = sweep(tmp_path, capsys, cfg, resolution)
    assert code == 0 and err == []
    fam = ko.family_from_config(cfg)
    index = [int(a[1:]) if isinstance(a, str) else a for a in axes]
    held = {int(k.lstrip("x")): v for k, v in fixed.items()}
    rows, _ = pointwise_grid(fam, resolution, index, held)
    assert len(rows) == resolution ** len(axes)
    assert_same_grid(lines, rows, n, exact=True)


def leaky_pair():
    """A pair function that leaves its band wherever the smaller folded coordinate passes 0.3."""
    return ko.parametric_2kopula(lambda a, b: np.where(a > 0.3, 1.2 * a, a * b), "leaky")


def sagging_pair():
    """Independence with the both-events cell pushed below zero for w_x > 0.75,
    and dust below zero (inside the clamp band) in the no-event cell."""
    indep = ko.independent_kopula(ko.pair_context())

    def base(w, masks):
        dip = np.where((masks == 3) & (w[..., 0] > 0.75), 0.05, 0.0)
        dust = np.where(masks == 0, 1e-12, 0.0)
        return indep(w, masks) - dip - dust

    return ko.KopulaFamily(ko.pair_context(), base, "sagging")


def strict_quad():
    """Four independent events, refused by the whole block if any point has w_0 > 0.9,
    the way a pair function out of its band refuses."""
    ctx = ko.EventSetContext(4)
    indep = ko.independent_kopula(ctx)

    def base(w, masks):
        if (w[..., 0] > 0.9).any():
            raise ko.InfeasibleParameterError(f"w_0 past 0.9 in a block of {w.size // 4} point(s)")
        return indep(w, masks)

    return ko.KopulaFamily(ctx, base, "strict")


@pytest.mark.parametrize(
    "make, n, resolution",
    [(leaky_pair, 2, 11), (sagging_pair, 2, 11), (strict_quad, 4, 9)],
)
def test_infeasible_rows_match_the_pointwise_loop(
    tmp_path, capsys, monkeypatch, make, n, resolution
):
    fam = make()
    monkeypatch.setattr(cli, "family_from_config", lambda cfg: fam)
    code, lines, err = sweep(tmp_path, capsys, {"family": "stub"}, resolution)
    assert code == 0
    rows, notes = pointwise_grid(fam, resolution, tuple(range(n)), {})
    assert 0 < len(notes) < len(rows)
    assert err == notes + [f"grid: {len(notes)} infeasible row(s) written as nan"]
    assert sum(row.endswith(",nan") for row in rows) == len(notes)
    assert_same_grid(lines, rows, n, exact=True)


def test_a_fixed_minus_zero_is_written_apart_from_zero_cells(tmp_path, capsys):
    cfg = {"family": "independent", "n": 3, "axes": [0, 1], "fixed": {"2": -0.0}}
    code, lines, err = sweep(tmp_path, capsys, cfg, 5)
    assert code == 0 and err == []
    rows, _ = pointwise_grid(ko.family_from_config(cfg), 5, (0, 1), {2: -0.0})
    assert_same_grid(lines, rows, 3, exact=True)
    assert all(line.split(",")[2] == "-0.0" for line in lines[1:])
    assert all("0.0" in line.split(",")[4:] for line in lines[1:])


def test_nan_rows_of_an_infeasible_family_keep_their_text(tmp_path, capsys, monkeypatch):
    fam = strict_quad()
    monkeypatch.setattr(cli, "family_from_config", lambda cfg: fam)
    cfg = {"family": "stub", "axes": [0, 1, 2], "fixed": {"3": -0.0}}
    code, lines, err = sweep(tmp_path, capsys, cfg, 11)
    assert code == 0
    rows, notes = pointwise_grid(fam, 11, (0, 1, 2), {3: -0.0})
    assert err == notes + [f"grid: {len(notes)} infeasible row(s) written as nan"]
    assert_same_grid(lines, rows, 4, exact=True)
    assert sum(line.endswith(",nan") for line in lines) == len(notes) == 121


def test_grid_rows_format_each_bit_pattern_as_repr():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
    odd = [*nans.view(np.float64), 0.0, -0.0, np.inf, -np.inf, 5e-324, 0.1, 1.0]
    w = np.array([[0.0, -0.0], [np.nan, 0.5], [-0.0, -0.0]])
    values = np.array([odd[:7], odd[3:], odd[::-1][3:]])
    keep = np.array([3, 0, 3])
    want = "".join(
        ",".join([*map(repr, wr), str(kr), *map(repr, vr)]) + "\n"
        for wr, kr, vr in zip(w.tolist(), keep.tolist(), values.tolist())
    )
    assert _grid_csv_rows(w, keep, values) == want
    assert want.count("nan") == 1 + 3 + 3


def test_a_pair_grid_across_two_blocks_matches_the_pointwise_loop(tmp_path, capsys):
    cfg = {"family": "frank", "theta": 4.0}
    code, lines, err = sweep(tmp_path, capsys, cfg, 129)
    assert code == 0 and err == []
    rows, _ = pointwise_grid(ko.family_from_config(cfg), 129, (0, 1), {})
    assert len(rows) == 129**2 > 1 << 14  # blocks of 16,384 rows
    assert_same_grid(lines, rows, 2, exact=True)


@pytest.mark.parametrize(
    "extra",
    [
        {"axes": [0], "fixed": {"1": "abc"}},
        {"axes": [0], "fixed": {"1": None}},
        {"axes": [0], "fixed": {"1": True}},
        {"axes": [0], "fixed": [0.3]},
        {"axes": [0], "fixed": {"1": 0.3, "x1": 0.4}},
        {"axes": [0], "fixed": {"1": 1.5}},
        {"axes": 5},
        {"axes": [0, 0, 1]},
        {"axes": [0, 1.0]},
        {"axes": [0, None]},
        {"axes": [0, 1], "fixed": {"1": 0.3}},
        {"resolution": "abc"},
        {"resolution": 2.7},
        {"resolution": True},
        {"resolution": 1},
        {"resolution": 10**400},
    ],
    ids=json.dumps,
)
def test_malformed_grid_configs_exit_1_without_a_traceback(tmp_path, capsys, extra):
    doc = {"family": "independent", "n": 2, **extra}
    with pytest.raises((ko.ConfigError, ko.ParameterRangeError)):
        cli._grid_spec(doc, ko.EventSetContext(2), 0)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "grid.csv"
    assert run(["grid", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["axes", "fixed"])
@pytest.mark.parametrize(
    "key", ["\u00b9", "--1", "1" * 5000, int("1" * 4000), "x" * 5000],
    ids=["sup1", "minus2", "digits", "json_int", "label"],
)
def test_event_names_that_only_look_like_indices_exit_1_on_one_line(tmp_path, capsys, key, where):
    extra = {"axes": [0, key]} if where == "axes" else {"axes": [0], "fixed": {key: 0.5}}
    cfg = write_config(tmp_path, {"family": "independent", "n": 2, **extra})
    out = tmp_path / "grid.csv"
    assert run(["grid", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err
    assert len(err) < 200, err[:300]  # a long key is shown as its head and its length
    assert not out.exists()


@pytest.mark.parametrize(
    "key, shown",
    [([1] * 3000, "[1, 1, 1, 1, 1, 1, 1… (9000 characters)"), (1.5, "1.5"), (None, "None")],
    ids=["long_list", "float", "null"],
)
def test_an_axis_that_is_no_event_name_is_shown_clipped(tmp_path, capsys, key, shown):
    cfg = write_config(tmp_path, {"family": "independent", "n": 2, "axes": [0, key]})
    assert run(["grid", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"grid 'axes': events are named by index or label, got {shown}\n"


@pytest.mark.parametrize("where", ["axes", "fixed"])
def test_an_unknown_label_names_its_field(tmp_path, capsys, where):
    extra = {"axes": [0, "zz"]} if where == "axes" else {"axes": [0], "fixed": {"zz": 0.5}}
    cfg = write_config(tmp_path, {"family": "independent", "n": 2, **extra})
    assert run(["grid", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"grid '{where}': unknown event label 'zz'\n"


@pytest.mark.parametrize(
    "extra",
    [{"axes": ["0"], "fixed": {"1": 0.5}}, {"axes": ["-0"], "fixed": {"01": 0.5}},
     {"axes": ["x0"], "fixed": {"x1": 0.5}}, {"axes": [0], "fixed": {"0001": 0.5}}],
    ids=json.dumps,
)
def test_ascii_digit_strings_and_labels_name_events(tmp_path, capsys, extra):
    expect = sweep(tmp_path, capsys, {"family": "frank", "theta": 4.0, "axes": [0],
                                      "fixed": {"1": 0.5}}, 5)
    assert sweep(tmp_path, capsys, {"family": "frank", "theta": 4.0, **extra}, 5) == expect


def test_grid_writes_block_by_block(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["grid", "--config", write_config(tmp_path, {"family": "independent", "n": 2}),
            "--resolution", "401", "--out", str(out)]
    code, peak = traced_peak(lambda: run(argv))
    assert code == 0
    assert out.stat().st_size > 10 * 2**20  # 160,801 rows
    # One block of 16,384 rows, its floats and its text, traces about 8.5 MB;
    # holding the whole CSV before writing it traced 44.8 MB.
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_a_grid_that_fails_part_way_keeps_its_exit_code_and_the_rows_written(
    tmp_path, capsys, monkeypatch
):
    ctx = ko.EventSetContext(4)
    indep = ko.independent_kopula(ctx)

    def base(w, masks):
        if (w[..., 0] > 0.9).any():
            raise ko.ParameterRangeError("w_0 past 0.9")
        return indep(w, masks)

    monkeypatch.setattr(cli, "family_from_config", lambda cfg: ko.KopulaFamily(ctx, base, "edgy"))
    code, lines, err = sweep(tmp_path, capsys, {"family": "stub"}, 9)
    assert code == 1 and err == ["w_0 past 0.9"]
    rows, _ = pointwise_grid(indep, 9, tuple(range(4)), {})
    assert lines == [header(4)] + rows[:4096]  # the first block of 4,096 rows, w_0 <= 0.875


@pytest.mark.parametrize(
    "axes, fixed, text",
    [
        ([0], {5: 0.5}, "grid event 5 is not an integer in [0, 2)"),
        ([0, 7], None, "grid event 7 is not an integer in [0, 2)"),
        ([0], {1: 1.5}, "fixed value for event 1 = 1.5 outside [0, 1]"),
        ([0, 0], None, "grid axes [0, 0] sweep an event twice"),
        ([0], {0: 0.5}, "events [0] are both swept and fixed"),
    ],
    ids=["fixed_out_of_range", "axis_out_of_range", "fixed_value_above_one",
         "repeated_axis", "swept_and_fixed"],
)
def test_grid_points_checks_its_events_and_fixed_values(axes, fixed, text):
    with pytest.raises(ko.ParameterRangeError) as caught:
        list(ko.grid_points(2, 3, axes, fixed))
    assert str(caught.value) == text


def test_grid_points_snaps_a_fixed_value_of_dust():
    (block,) = ko.grid_points(2, 3, [0], {1: 1.0 + 1e-13})
    assert block[:, 1].tolist() == [1.0, 1.0, 1.0]
