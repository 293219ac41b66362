"""End-to-end runs of the command line front end.

Everything goes through ``run(argv)`` so the exit-code contract is what
is actually asserted; output lands in tmp files or capsys.
"""

import json

import numpy as np
import pytest

import kopula as ko
from kopula.cli import run

from helpers import epd1

DOUBLET = (0.56, 0.24, 0.14, 0.06)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def doublet_file(tmp_path, ctx2):
    path = tmp_path / "doublet.json"
    with open(path, "w", encoding="utf-8") as fp:
        ko.save_epd(epd1(ctx2, DOUBLET), fp)
    return str(path)


class TestBuild:
    def test_independent_to_file(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json", {"marginals": [0.3, 0.2], "family": "independent"}
        )
        out = tmp_path / "table.json"
        assert run(["build", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "epd1"
        np.testing.assert_allclose(doc["values"], DOUBLET, atol=1e-15)

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"marginals": [0.3, 0.2], "labels": ["x", "y"], "family": "independent"},
        )
        assert run(["build", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mask,subset_labels,value"
        assert [line.split(",")[1] for line in lines[1:]] == ["", "x", "y", "x&y"]
        values = [float(line.split(",")[2]) for line in lines[1:]]
        np.testing.assert_allclose(values, DOUBLET, atol=1e-15)

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["build", "--config", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_broken_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert run(["build", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_infeasible_parameters_exit_2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"marginals": [0.5, 0.4], "frame_params": {"x0&x1": 0.45}},
        )
        assert run(["build", "--config", cfg]) == 2
        assert capsys.readouterr().err != ""

    def test_bad_route_exit_1(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"marginals": [0.3, 0.2]})
        assert run(["build", "--config", cfg]) == 1

    @pytest.mark.parametrize("policy", ["clip", 5])
    def test_bad_policy_on_a_feasible_table_exit_1(self, tmp_path, policy, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"marginals": [0.5, 0.4], "frame_params": {"x0&x1": 0.2}, "policy": policy},
        )
        assert run(["build", "--config", cfg]) == 1
        assert "policy" in capsys.readouterr().err

    def test_deep_infeasibility_exit_2(self, tmp_path, capsys):
        # the top-level windows hold; the off-frame slice does not
        pairs = {f"x{i}&x{j}": 0.0 for i in range(4) for j in range(i + 1, 4)}
        triples = {"x0&x1&x2": 0.0, "x0&x1&x3": 0.0, "x0&x2&x3": 0.0, "x1&x2&x3": 0.0}
        cfg = write_json(
            tmp_path / "cfg.json",
            {"marginals": [0.4, 0.3, 0.3, 0.3],
             "frame_params": {**pairs, **triples, "x0&x1&x2&x3": 0.0}},
        )
        out = tmp_path / "table.json"
        assert run(["build", "--config", cfg, "--out", str(out)]) == 2
        assert "drive the cell" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, text",
        [
            ({"family": "convex", "parts": [{"family": "frechet_upper"}], "weights": [float("nan")]},
             "weights must be finite"),
            ({"family": "conjugated", "alpha": {"kind": "sine_diff", "scale": float("inf")}},
             "scale must be finite"),
        ],
    )
    def test_non_finite_family_setting_exit_1(self, tmp_path, capsys, family, text):
        cfg = write_json(tmp_path / "cfg.json", {"marginals": [0.3, 0.2], **family})
        assert run(["build", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert text in err
        assert "Traceback" not in err


class TestArgparseContract:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["build"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_back_to_back_runs_keep_their_own_exit_codes(
        self, tmp_path, doublet_file, capsys
    ):
        # the parser is built once per process and shared by every run
        broken = write_json(tmp_path / "broken.json", {"family": "quarter_sum"})
        renumber = ["renumber", "--config", doublet_file, "--keep", "1"]
        assert run(renumber + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("mask,subset_labels,value")
        assert run(["validate", "--config", broken, "--resolution", "3"]) == 3
        assert run(["sample", "--config", doublet_file, "--n", "oops"]) == 1
        capsys.readouterr()
        assert run(renumber) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "epd1"
        assert run(["oracle", "--n", "2", "--trials", "2"]) == 0


class TestValidate:
    def test_passing_family(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"family": "frechet_upper"})
        assert run(["validate", "--config", cfg, "--resolution", "7"]) == 0
        assert "passes" in capsys.readouterr().out

    def test_broken_family_exit_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"family": "quarter_sum"})
        assert run(["validate", "--config", cfg]) == 3
        assert "marginal" in capsys.readouterr().out


class TestMobius:
    def test_roundtrip(self, tmp_path, doublet_file):
        mid = tmp_path / "second.json"
        assert run(["mobius", "--config", doublet_file, "--out", str(mid)]) == 0
        doc = json.loads(mid.read_text(encoding="utf-8"))
        assert doc["kind"] == "epd2"
        np.testing.assert_allclose(doc["values"], (1.0, 0.3, 0.2, 0.06), atol=1e-15)

        back = tmp_path / "first.json"
        assert run(["mobius", "--config", str(mid), "--out", str(back)]) == 0
        doc = json.loads(back.read_text(encoding="utf-8"))
        assert doc["kind"] == "epd1"
        np.testing.assert_allclose(doc["values"], DOUBLET, atol=1e-15)

    def test_invalid_second_kind_exit_2(self, tmp_path, capsys):
        # monotone, so it loads, but the empty cell inverts to -0.1
        path = write_json(
            tmp_path / "bad2.json",
            {"kind": "epd2", "n": 2, "labels": ["x", "y"], "values": [1.0, 0.9, 0.8, 0.6]},
        )
        assert run(["mobius", "--config", path]) == 2
        capsys.readouterr()


class TestRenumber:
    @pytest.mark.parametrize("keep", ["x", "1", "0x1"])
    def test_keep_forms(self, tmp_path, doublet_file, keep):
        out = tmp_path / f"out_{keep}.json"
        assert run(["renumber", "--config", doublet_file, "--keep", keep, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        np.testing.assert_allclose(doc["values"], (0.14, 0.06, 0.56, 0.24), atol=1e-15)

    def test_keep_everything_is_identity(self, tmp_path, doublet_file, capsys):
        assert run(["renumber", "--config", doublet_file, "--keep", "x&y"]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["values"], DOUBLET, atol=1e-15)

    def test_unknown_label_exit_1(self, doublet_file, capsys):
        assert run(["renumber", "--config", doublet_file, "--keep", "q"]) == 1
        capsys.readouterr()

    def test_second_kind_rejected(self, tmp_path, doublet_file, capsys):
        mid = tmp_path / "second.json"
        run(["mobius", "--config", doublet_file, "--out", str(mid)])
        assert run(["renumber", "--config", str(mid), "--keep", "1"]) == 1
        capsys.readouterr()


class TestSample:
    def test_deterministic_output(self, tmp_path, doublet_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["sample", "--config", doublet_file, "--n", "2000", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        doc = json.loads(a.read_text(encoding="utf-8"))
        assert doc["n_samples"] == 2000 and doc["seed"] == 7
        assert sum(doc["counts"]) == 2000
        np.testing.assert_allclose(doc["marginals"], (0.3, 0.2), atol=0.05)

    def test_second_kind_rejected(self, tmp_path, doublet_file, capsys):
        mid = tmp_path / "second.json"
        run(["mobius", "--config", doublet_file, "--out", str(mid)])
        assert run(["sample", "--config", str(mid), "--n", "10"]) == 1
        capsys.readouterr()

    def test_bad_n_exit_1(self, doublet_file, capsys):
        assert run(["sample", "--config", doublet_file, "--n", "0"]) == 1
        capsys.readouterr()


class TestGrid:
    def test_sweep_shape_and_values(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"family": "independent", "n": 2})
        out = tmp_path / "grid.csv"
        assert run(["grid", "--config", cfg, "--resolution", "3", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "w_0,w_1,terrace_mask,v_0,v_1,v_2,v_3"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            cells = line.split(",")
            w = [float(c) for c in cells[:2]]
            values = np.array([float(c) for c in cells[3:]])
            expected = [
                (1 - w[0]) * (1 - w[1]),
                w[0] * (1 - w[1]),
                (1 - w[0]) * w[1],
                w[0] * w[1],
            ]
            np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_terrace_mask_column(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"family": "independent", "n": 2})
        out = tmp_path / "grid.csv"
        run(["grid", "--config", cfg, "--resolution", "3", "--out", str(out)])
        rows = {}
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            cells = line.split(",")
            rows[(float(cells[0]), float(cells[1]))] = int(cells[2])
        assert rows[(0.0, 0.0)] == 0b11
        assert rows[(1.0, 1.0)] == 0b00
        assert rows[(1.0, 0.0)] == 0b10

    def test_fixed_axis(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"family": "independent", "n": 2, "axes": [0], "fixed": {"1": 0.25}},
        )
        out = tmp_path / "grid.csv"
        assert run(["grid", "--config", cfg, "--resolution", "5", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 5
        assert all(line.split(",")[1] == "0.25" for line in lines[1:])

    def test_unswept_event_exit_1(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json", {"family": "independent", "n": 3, "axes": [0]}
        )
        assert run(["grid", "--config", cfg]) == 1
        assert "axes" in capsys.readouterr().err


def test_oracle_smoke(capsys):
    assert run(["oracle", "--n", "3", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out and "trials = 5" in out


def test_oracle_checks_the_frame_build_against_the_recursion(capsys):
    assert run(["oracle", "--n", "4", "--trials", "5"]) == 0
    assert "frame build: Möbius vs recursive reference" in capsys.readouterr().out


def test_oracle_mismatch_exit_4(monkeypatch, capsys):
    from kopula import cli, oracles

    def skewed(t):
        d = oracles.recursive_frame_epd1(t)
        return ko.Epd1(d.context, d.values + 1e-6)

    monkeypatch.setattr(cli, "recursive_frame_epd1", skewed)
    assert run(["oracle", "--n", "3", "--trials", "3"]) == 4
    assert "DISAGREE" in capsys.readouterr().out
