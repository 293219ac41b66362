"""frame_params keys: the canonical-name lookup against the per-key parse.

A build config names each intersection by a subset label.  Keys spelled
as ``EventSetContext.mask_label`` spells them are found by looking up
every subset's canonical name; any other spelling falls back to parsing
each key.  Both must give the same table bit for bit, and errors must
name the key as the caller wrote it.
"""

import json

import numpy as np
import pytest

import kopula as ko
from kopula.cli import run
from kopula.phenomena import half_rare_projection
from kopula.serialize import _frame_params_from_config, _subset_label_blocks


def point(rng, labels) -> ko.MarginalSet:
    ctx = ko.EventSetContext(len(labels), tuple(labels))
    return ko.MarginalSet.from_values(ctx, rng.uniform(0.05, 0.95, len(labels)).tolist())


def canonical_config(rng, ctx) -> dict:
    """A random value for every subset of size >= 2, keyed by its canonical name."""
    return {ctx.mask_label(m): float(rng.random()) for m in range(ctx.size) if m & (m - 1)}


def parsed_table(p: ko.MarginalSet, named) -> np.ndarray:
    """The per-key parse: every key through ``mask_from_label``, then the transpose."""
    t = np.full(p.context.size, np.nan)
    for key, value in named.items():
        t[p.context.mask_from_label(key)] = value
    return half_rare_projection(p).sort_table(t)


def respelled(key: str, k: int) -> str:
    """A non-canonical spelling of ``key``: events reversed, or padded with spaces."""
    parts = key.split("&")
    return "&".join(reversed(parts)) if k % 2 else " " + " & ".join(parts) + " "


def assert_same_bits(ours: np.ndarray, reference: np.ndarray) -> None:
    assert ours.dtype == reference.dtype == np.float64
    assert ours.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", range(1, 15))
@pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
def test_label_blocks_spell_every_mask_in_order(n, custom):
    labels = tuple(f"a{k}" if k else "a" for k in range(n)) if custom else ()
    ctx = ko.EventSetContext(n, labels)
    blocks = list(_subset_label_blocks(ctx))
    assert [start for start, _ in blocks] == list(range(0, ctx.size, 1 << min(n, 12)))
    names = [name for _, block in blocks for name in block]
    assert names == [ctx.mask_label(m) for m in range(ctx.size)]


@pytest.mark.parametrize("n", range(2, 15))
def test_lookup_matches_per_key_parse(n):
    rng = np.random.default_rng(700 + n)
    p = point(rng, [f"x{k}" for k in range(n)])
    named = canonical_config(rng, p.context)
    ours = _frame_params_from_config(p, named).table
    assert_same_bits(ours, parsed_table(p, named))
    keys = list(named)
    rng.shuffle(keys)
    assert_same_bits(_frame_params_from_config(p, {k: named[k] for k in keys}).table, ours)


@pytest.mark.parametrize("n", [3, 12, 13])
def test_mixed_spellings_fall_back_to_the_same_table(n):
    rng = np.random.default_rng(800 + n)
    p = point(rng, [f"x{k}" for k in range(n)])
    named = canonical_config(rng, p.context)
    picked = set(rng.choice(len(named), size=max(1, len(named) // 7), replace=False).tolist())
    mixed = {respelled(k, i) if i in picked else k: v for i, (k, v) in enumerate(named.items())}
    assert set(mixed) != set(named)
    ours = _frame_params_from_config(p, mixed).table
    assert_same_bits(ours, parsed_table(p, mixed))
    assert_same_bits(ours, _frame_params_from_config(p, named).table)


@pytest.mark.parametrize("n", [4, 13])
def test_labels_sharing_prefixes(n):
    rng = np.random.default_rng(900 + n)
    labels = ["a", "a1", "a10", "a100", "b", "a0", "ab", "b1", "a11", "a01", "c", "a1a", "ca"][:n]
    p = point(rng, labels)
    named = canonical_config(rng, p.context)
    assert "a&a1&a10" in named
    assert_same_bits(_frame_params_from_config(p, named).table, parsed_table(p, named))
    first = next(iter(named))
    mixed = {respelled(k, 1) if k == first else k: v for k, v in named.items()}
    assert_same_bits(_frame_params_from_config(p, mixed).table, parsed_table(p, mixed))


@pytest.mark.parametrize("n", [12, 13])
def test_canonical_keys_never_reach_the_per_key_parse(n, monkeypatch):
    """The fast path must not quietly fall back: with the parser broken, a canonical build still runs."""
    rng = np.random.default_rng(1000 + n)
    probs = rng.uniform(0.05, 0.5, n)
    products = np.ones(1 << n)
    for k in range(n):
        products[1 << k:2 << k] = products[:1 << k] * probs[k]
    ctx = ko.EventSetContext(n)
    named = {ctx.mask_label(m): float(products[m]) for m in range(ctx.size) if m & (m - 1)}

    def broken(self, text):
        raise AssertionError(f"per-key parse of {text!r}")

    monkeypatch.setattr(ko.EventSetContext, "mask_from_label", broken)
    d = ko.build_from_config({"marginals": probs.tolist(), "frame_params": named})
    np.testing.assert_allclose(d.values, [
        np.prod(np.where([m >> k & 1 for k in range(n)], probs, 1 - probs))
        for m in range(1 << n)
    ], atol=1e-12)


def build_error(tmp_path, capsys, frame_params):
    """The library error and the CLI's exit code and message for one config."""
    cfg = {"marginals": [0.1, 0.3, 0.2], "frame_params": frame_params}
    with pytest.raises(ko.KopulaError) as info:
        ko.build_from_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = run(["build", "--config", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(info.value) in err
    return type(info.value), str(info.value), code


FULL = {"x0&x1": 0.03, "x0&x2": 0.02, "x1&x2": 0.06, "x0&x1&x2": 0.006}


@pytest.mark.parametrize(
    "frame_params, cls, text",
    [
        ({**FULL, "x1&x0": 0.03}, ko.ConfigError,
         "frame_params names the subset 'x0&x1' more than once"),
        ({**FULL, "x0&x9": 0.03}, ko.ContextError, "unknown event label 'x9'"),
        ({**FULL, "x0&x0": 0.03}, ko.ContextError, "event 'x0' repeated in subset label"),
        ({k: v for k, v in FULL.items() if k != "x0&x1"}, ko.DependencyError,
         "no intersection value supplied for frame_params['x0&x1']"),
        ({"x1&x0": 0.03, "x0&x2": 0.02, "x1&x2": 0.06}, ko.DependencyError,
         "no intersection value supplied for frame_params['x0&x1&x2']"),
        ({**FULL, "x2": 0.2}, ko.ParameterRangeError,
         "parameter keys must be subsets of size >= 2, got frame_params['x2']"),
        ({**FULL, " x2 ": 0.2}, ko.ParameterRangeError,
         "parameter keys must be subsets of size >= 2, got frame_params[' x2 ']"),
        ({**FULL, "x0&x2": 1.5}, ko.ParameterRangeError,
         "frame_params['x0&x2'] = 1.5 outside [0, 1]"),
        ({"x0&x1": 0.03, "x2&x0": -0.5, "x1&x2": 0.06, "x0&x1&x2": 0.006}, ko.ParameterRangeError,
         "frame_params['x2&x0'] = -0.5 outside [0, 1]"),
    ],
    ids=["twice", "unknown", "repeated", "missing", "missing-mixed", "single",
         "single-spaced", "range", "range-mixed"],
)
def test_errors_name_the_key_as_written(tmp_path, capsys, frame_params, cls, text):
    assert build_error(tmp_path, capsys, frame_params) == (cls, text, 1)


def test_both_label_routes_reject_two_spellings_of_one_subset():
    named = {"x0&x1": 0.1, "x1&x0": 0.2}
    p = ko.MarginalSet.from_values(ko.EventSetContext(2), [0.5, 0.4])
    with pytest.raises(ko.ConfigError, match="the subset 'x0&x1' more than once"):
        _frame_params_from_config(p, named)
    with pytest.raises(ko.ContextError, match="the subset 'x0&x1' more than once"):
        ko.FrameParams.from_labels(p.context, named)
