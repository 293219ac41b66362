"""JSON table documents, CSV export, and the config dispatch."""

import io

import numpy as np
import pytest

import kopula as ko
from kopula.serialize import CLASSICAL_FAMILIES, dump_json

from helpers import epd1, epd2

DOUBLET = (0.56, 0.24, 0.14, 0.06)
TRIPLE_INDEP_TABLE = (0.21, 0.21, 0.14, 0.14, 0.09, 0.09, 0.06, 0.06)


class TestTableDocuments:
    def test_to_dict_frozen(self, ctx2):
        doc = ko.epd_to_dict(epd1(ctx2, DOUBLET))
        assert doc == {
            "kind": "epd1",
            "n": 2,
            "labels": ["x", "y"],
            "values": [0.56, 0.24, 0.14, 0.06],
        }

    def test_roundtrip_first_kind(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        back = ko.epd_from_dict(ko.epd_to_dict(d))
        assert isinstance(back, ko.Epd1)
        np.testing.assert_array_equal(back.values, d.values)
        assert back.context.labels == ("x", "y")

    def test_roundtrip_second_kind(self, ctx2):
        d = epd2(ctx2, (1.0, 0.3, 0.2, 0.06))
        back = ko.epd_from_dict(ko.epd_to_dict(d))
        assert isinstance(back, ko.Epd2)
        np.testing.assert_array_equal(back.values, d.values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ko.ConfigError):
            ko.epd_from_dict({"kind": "nope", "n": 1, "values": [1.0, 0.0]})

    def test_missing_key_rejected(self):
        with pytest.raises(ko.ConfigError):
            ko.epd_from_dict({"kind": "epd1", "n": 1})

    def test_axioms_checked_on_load(self):
        doc = {"kind": "epd1", "n": 1, "values": [0.6, 0.6]}
        with pytest.raises(ko.InvalidDistributionError):
            ko.epd_from_dict(doc)

    def test_save_load_through_a_stream(self, ctx2):
        d = epd1(ctx2, DOUBLET)
        buf = io.StringIO()
        ko.save_epd(d, buf)
        buf.seek(0)
        back = ko.load_epd(buf)
        np.testing.assert_array_equal(back.values, d.values)

    def test_load_rejects_broken_json(self):
        with pytest.raises(ko.ConfigError):
            ko.load_epd(io.StringIO("{not json"))

    @pytest.mark.parametrize(
        "text", ['{"n": 1' + "0" * 5000 + "}", "[" * 100_000], ids=["digits", "nesting"]
    )
    def test_load_rejects_json_it_cannot_decode(self, text):
        with pytest.raises(ko.ConfigError, match="^not valid JSON: "):
            ko.load_epd(io.StringIO(text))


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def test_csv_export_frozen(ctx2):
    buf = io.StringIO()
    ko.write_epd_csv(epd1(ctx2, DOUBLET), buf)
    assert buf.getvalue() == (
        "mask,subset_labels,value\n"
        "0,,0.56\n"
        "1,x,0.24\n"
        "2,y,0.14\n"
        "3,x&y,0.06\n"
    )


class TestFamilyFromConfig:
    def test_independent_by_count(self):
        fam = ko.family_from_config({"family": "independent", "n": 3})
        assert fam.context.n_events == 3

    def test_independent_by_labels(self):
        fam = ko.family_from_config({"family": "independent", "labels": ["a", "b"]})
        assert fam.context.labels == ("a", "b")

    def test_independent_needs_a_size(self):
        with pytest.raises(ko.ConfigError):
            ko.family_from_config({"family": "independent"})

    @pytest.mark.parametrize("name", CLASSICAL_FAMILIES)
    def test_classical_families_need_theta(self, name):
        with pytest.raises(ko.ConfigError):
            ko.family_from_config({"family": name})

    def test_classical_family_records_theta(self):
        fam = ko.family_from_config({"family": "clayton", "theta": 2.0})
        assert fam.params["theta"] == 2.0

    def test_constant_alpha_as_number(self):
        fam = ko.family_from_config({"family": "convex_updown", "alpha": 0.25})
        assert fam.context.n_events == 2

    def test_sine_alpha_as_object(self):
        fam = ko.family_from_config(
            {"family": "conjugated", "alpha": {"kind": "sine_diff", "scale": 15}}
        )
        report = ko.verify_one_function(fam, grid_resolution=5)
        assert report.ok

    def test_unknown_weight_kind_rejected(self):
        with pytest.raises(ko.ConfigError):
            ko.family_from_config(
                {"family": "convex_updown", "alpha": {"kind": "mystery"}}
            )

    def test_convex_combination(self):
        fam = ko.family_from_config(
            {
                "family": "convex",
                "parts": [{"family": "frechet_upper"}, {"family": "frechet_lower"}],
                "weights": [0.5, 0.5],
            }
        )
        p = ko.MarginalSet.from_values(fam.context, (0.4, 0.3))
        np.testing.assert_allclose(
            ko.epd_from_kopula(fam, p).values, (0.45, 0.25, 0.15, 0.15), atol=1e-15
        )

    def test_convex_needs_parallel_lists(self):
        with pytest.raises(ko.ConfigError):
            ko.family_from_config({"family": "convex", "parts": "upper"})

    def test_unknown_family_rejected(self):
        with pytest.raises(ko.ConfigError):
            ko.family_from_config({"family": "gaussian"})

    def test_family_key_required(self):
        with pytest.raises(ko.ConfigError):
            ko.family_from_config({"theta": 2.0})


class TestBuildFromConfig:
    def test_flat_independent(self):
        d = ko.build_from_config({"marginals": [0.3, 0.2], "family": "independent"})
        np.testing.assert_allclose(d.values, DOUBLET, atol=1e-15)

    def test_flat_classical_with_top_level_theta(self):
        d = ko.build_from_config(
            {"marginals": [0.4, 0.3], "family": "clayton", "theta": 2.0}
        )
        assert ko.validate_epd1(d).ok
        np.testing.assert_allclose(ko.marginals(d).probs, (0.4, 0.3), atol=1e-12)
        assert d.values[0b11] == pytest.approx(0.2472256930290988, abs=1e-12)

    def test_nested_family_object(self):
        d = ko.build_from_config(
            {"marginals": [0.4, 0.3], "family": {"family": "frechet_upper"}}
        )
        np.testing.assert_allclose(d.values, (0.6, 0.1, 0.0, 0.3), atol=1e-15)

    def test_event_count_mismatch_rejected(self):
        with pytest.raises(ko.ConfigError):
            ko.build_from_config(
                {"marginals": [0.3, 0.2], "family": {"family": "independent", "n": 3}}
            )

    def test_frame_params_route(self):
        d = ko.build_from_config(
            {"marginals": [0.7, 0.2], "frame_params": {"x0&x1": 0.06}}
        )
        np.testing.assert_allclose(d.values, (0.24, 0.56, 0.06, 0.14), atol=1e-15)

    def test_frame_params_with_custom_labels(self):
        d = ko.build_from_config(
            {
                "marginals": [0.5, 0.4, 0.3],
                "labels": ["x", "y", "z"],
                "frame_params": {"x&y": 0.2, "x&z": 0.15, "y&z": 0.12, "x&y&z": 0.06},
            }
        )
        np.testing.assert_allclose(d.values, TRIPLE_INDEP_TABLE, atol=1e-15)

    def test_kor_route_zero_is_independence(self):
        d = ko.build_from_config(
            {
                "marginals": [0.5, 0.4, 0.3],
                "kor": {"xy": 0, "xz": 0, "in": 0, "out": 0},
            }
        )
        np.testing.assert_allclose(d.values, TRIPLE_INDEP_TABLE, atol=1e-15)

    def test_kor_route_checks_keys(self):
        with pytest.raises(ko.ConfigError):
            ko.build_from_config(
                {"marginals": [0.5, 0.4, 0.3], "kor": {"xy": 0, "xz": 0}}
            )

    def test_exactly_one_route_required(self):
        with pytest.raises(ko.ConfigError):
            ko.build_from_config({"marginals": [0.3, 0.2]})
        with pytest.raises(ko.ConfigError):
            ko.build_from_config(
                {
                    "marginals": [0.3, 0.2],
                    "family": "independent",
                    "frame_params": {"x0&x1": 0.06},
                }
            )

    def test_marginals_required(self):
        with pytest.raises(ko.ConfigError):
            ko.build_from_config({"family": "independent"})

    def test_infeasible_frame_value_surfaces(self):
        with pytest.raises(ko.InfeasibleParameterError):
            ko.build_from_config(
                {"marginals": [0.5, 0.4], "frame_params": {"x0&x1": 0.45}}
            )


@pytest.mark.parametrize(
    "frame_params, label",
    [
        ({"x0&x1": 0.05, "x1&x0": 0.06}, "x0&x1"),  # one subset named twice
        ({"x0&x1": None}, "x0&x1"),
        ({"x0&x1": [0.1]}, "x0&x1"),
        ({"x0&x1": True}, "x0&x1"),
        ({"x0&x1": "0.1"}, "x0&x1"),
        ({"x0&x1": float("nan")}, "x0&x1"),
        ({"x0&x1": 10**400}, "x0&x1"),
    ],
    ids=["duplicate", "null", "list", "bool", "string", "nan", "huge"],
)
def test_frame_params_take_json_numbers_once_per_subset(frame_params, label, tmp_path, capsys):
    from kopula.cli import run

    cfg = {"marginals": [0.5, 0.4], "frame_params": frame_params}
    with pytest.raises(ko.ConfigError, match=label):
        ko.build_from_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(dump_json(cfg), encoding="utf-8")
    assert run(["build", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert label in err
    assert "Traceback" not in err
