"""JSON and CSV formats, and the config dispatch used by the CLI.

Tables travel as one JSON object:

    {"kind": "epd1" | "epd2", "n": 2, "labels": ["x0", "x1"],
     "values": [0.56, 0.24, 0.14, 0.06]}

with values in subset-mask order.  Loading validates against the
axioms of the declared kind.  CSV is export-only, one labelled subset
per row.  Every input document is decoded by ``_read_json``, the one
``json.load``.  Every JSON output is the text of ``_json_chunks``, the
one writer: ``json.dumps`` writes the document with each number array a
command writes (a table's values) left empty, and each is spliced back
in, formatted ``_BLOCK`` values at a time by ``_number_text``: a full
block of 2^12 finite float64 values through ``_floattext.join_reprs``
(Ryu's digits in numpy passes, which beat the C encoder on full blocks
only), any other block through the C encoder; the CSV writer formats its
values the same way.  ``save_epd`` and the CLI's sample summary hand the
pieces to the file as they come, so a table is written from its array
without a list or text of its own; ``dump_json`` is the reference call
itself, with no splice, so tables go through ``save_epd``.  The rows of ``kopula grid`` are formatted by
``_grid_csv_rows`` a block at a time, each distinct float once.

Family and build configs are flat JSON objects; ``family_from_config``
and ``build_from_config`` are the single dispatch points, so the CLI
and tests share one vocabulary.  The typed readers (``_read_number`` and
the rest) are the one typing rule for every field and grid event name:
``core``'s readers, which the library reads its arguments with, bound to
``ConfigError``.
See the README for the full schema.
"""

from __future__ import annotations

import contextlib
import functools
import json
from itertools import repeat
from typing import IO, Iterator, Mapping

import numpy as np

from ._floattext import join_reprs
from . import core
from .core import (
    ContextError,
    DependencyError,
    Epd1,
    Epd2,
    EventSetContext,
    InvalidDistributionError,
    KopulaError,
    MarginalSet,
    ParameterRangeError,
    _clip,
    _is_int,
    _is_number,
    clean_unit_interval,
    validate_epd1,
    validate_epd2,
)
from .correlation import params_from_kor3
from .families import (
    _CLASSICAL,
    KopulaFamily,
    classical_pair_param,
    conjugated_2kopula,
    convex_combination,
    convex_updown_2kopula,
    epd_from_kopula,
    frechet_lower_2,
    frechet_upper_2,
    independent_kopula,
    parametric_2kopula,
    quarter_sum_2,
    sine_diff_weight,
)
from .frame import FrameParams, _low_masks, build_nset_epd, triplet_epd
from .phenomena import half_rare_projection

__all__ = [
    "ConfigError",
    "epd_to_dict",
    "epd_from_dict",
    "save_epd",
    "load_epd",
    "write_epd_csv",
    "dump_json",
    "family_from_config",
    "build_from_config",
    "CLASSICAL_FAMILIES",
]

CLASSICAL_FAMILIES = tuple(_CLASSICAL)


class ConfigError(KopulaError, ValueError):
    """A config document is structurally wrong or missing required keys."""


def _read_json(fp: IO[str]) -> dict:
    """The one decode of an input document, config or table, which must be a JSON object.

    Anything else is a ConfigError, JSON past Python's int-digit or recursion
    limit included.  A ``UnicodeDecodeError`` passes, for the caller to name the file.
    """
    try:
        obj = json.load(fp)
    except UnicodeDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("expected a JSON object at top level")
    return obj


_BLOCK_EVENTS = 12
_BLOCK = 1 << _BLOCK_EVENTS  # values, or CSV rows, formatted per piece of output text


def _number_text(block: np.ndarray, sep: str) -> str:
    """The JSON text of the numbers in ``block``, ``sep`` between them.

    A full ``_BLOCK`` of finite float64 values goes through ``join_reprs``;
    any other block through the C encoder, as the values of one list.
    """
    if block.size == _BLOCK and block.dtype == np.float64:
        with contextlib.suppress(ValueError):  # a non-finite value: the encoder writes it
            return join_reprs(block, sep)
    return json.dumps(block.tolist(), separators=(sep, ": "))[1:-1]


def _json_chunks(obj, **bulk: np.ndarray) -> Iterator[str]:
    """The canonical text of ``obj`` with the arrays ``bulk`` added as top-level lists, in pieces.

    Joined, the pieces are ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``
    (``oracles.reference_dump_json``), where ``doc`` is ``obj`` with
    ``bulk[key].tolist()`` under each key.  That call writes ``obj`` with
    each of ``bulk`` empty, and each array's body is spliced in, ``_BLOCK``
    values a piece, by ``_number_text``.  Every caller's arrays are non-empty;
    an empty one would be written ``[\\n  ]``, where ``json.dumps`` writes ``[]``.
    """
    rest = json.dumps({**obj, **dict.fromkeys(bulk, [])} if bulk else obj, sort_keys=True, indent=2)
    for key in sorted(bulk):  # the order the keys appear in the text
        marker = f"\n  {json.dumps(key)}: ["  # only a top-level key starts a line at indent 2
        head, rest = rest.split(marker, 1)  # rest starts with the list's "]"
        yield head
        yield marker
        values = bulk[key]
        for start in range(0, len(values), _BLOCK):
            yield ",\n    " if start else "\n    "
            yield _number_text(values[start:start + _BLOCK], ",\n    ")
        yield "\n  "
    yield rest
    yield "\n"


def dump_json(obj, fp: IO[str] | None = None) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    This is the reference call (``oracles.reference_dump_json``).  Write a
    table with ``save_epd``: it splices in the values array, and is four to
    five times faster than ``dump_json(epd_to_dict(d))`` at N = 16 and 18.
    """
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if fp is not None:
        fp.write(text)
    return text


# ---------------------------------------------------------------------------
# typed readers: every field of a table or config, and every event a grid
# names, goes through one of these, so a wrong JSON type is a ConfigError.
# The rules are core's, the library's own (a JSON number is a real; true,
# false and "0.5" are not); here they raise a ConfigError.

_read_number = functools.partial(core._read_number, error=ConfigError)
_read_int = functools.partial(core._read_int, error=ConfigError)
_read_numbers = functools.partial(core._read_numbers, error=ConfigError)


def _read_event(key, ctx: EventSetContext, what: str) -> int:
    """An event's index: a JSON integer (not a bool) or a string of ASCII decimal
    digits with an optional leading '-' is one; any other string is a label in ``ctx``."""
    if isinstance(key, str):
        if not (key.isascii() and key.removeprefix("-").isdigit()):
            try:
                return ctx.index_of(key)
            except ContextError as exc:  # an unknown label, named with its field
                raise ContextError(f"{what}: {exc}") from None
        try:
            key = int(key)
        except ValueError:  # more digits than int() reads: no event has that index
            raise ParameterRangeError(f"{what}: no event with index {_clip(key)}") from None
    elif not _is_int(key):
        raise ConfigError(f"{what}: events are named by index or label, got {_clip(repr(key))}")
    if not 0 <= key < ctx.n_events:
        raise ParameterRangeError(f"{what}: no event with index {_clip(str(key))}")
    return int(key)


def _read_labels(obj: Mapping, what: str) -> tuple[str, ...]:
    """The optional 'labels' list of strings; empty means the default names."""
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise ConfigError(f"{what} 'labels' must be a list of strings, got {labels!r}")
    return tuple(labels)


# ---------------------------------------------------------------------------
# table round trip


def _table_head(d: Epd1 | Epd2) -> dict:
    """The table document of ``d`` without its values."""
    return {
        "kind": "epd1" if isinstance(d, Epd1) else "epd2",
        "n": d.context.n_events,
        "labels": list(d.context.labels),
    }


def epd_to_dict(d: Epd1 | Epd2) -> dict:
    return {**_table_head(d), "values": d.values.tolist()}


def epd_from_dict(obj: Mapping) -> Epd1 | Epd2:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"table document must be an object, got {type(obj).__name__}")
    try:
        kind = obj["kind"]
        n = obj["n"]
        values = obj["values"]
    except KeyError as exc:
        raise ConfigError(f"table document is missing {exc}") from None
    if kind not in ("epd1", "epd2"):
        raise ConfigError(f"unknown table kind {kind!r}")
    ctx = EventSetContext(_read_int(n, "table 'n'"), _read_labels(obj, "table"))
    cls, check = (Epd1, validate_epd1) if kind == "epd1" else (Epd2, validate_epd2)
    d = cls._adopt(ctx, _read_numbers(values, "table 'values'"))  # the one float64 copy
    report = check(d)
    if not report.ok:
        raise InvalidDistributionError(report.describe())
    return d


def save_epd(d: Epd1 | Epd2, fp: IO[str]) -> None:
    """Write ``dump_json(epd_to_dict(d))`` to ``fp``, formatting ``d.values`` a block at a time."""
    fp.writelines(_json_chunks(_table_head(d), values=d.values))


def load_epd(fp: IO[str]) -> Epd1 | Epd2:
    return epd_from_dict(_read_json(fp))


def _subset_label_blocks(ctx: EventSetContext) -> Iterator[tuple[int, list[str]]]:
    """``ctx.mask_label`` of every mask, in mask order, as ``(start, labels)`` blocks.

    The names of the low 12 events' subsets are built once by doubling;
    each block of 2^12 masks adds its high events' name to them.
    """
    low = [""]
    for name in ctx.labels[:_BLOCK_EVENTS]:
        low += [f"{s}&{name}" if s else name for s in low]
    for start in range(0, ctx.size, len(low)):
        high = ctx.mask_label(start)
        yield start, [f"{s}&{high}" if s else high for s in low] if high else low


def write_epd_csv(d: Epd1 | Epd2, fp: IO[str]) -> None:
    """One ``mask,subset_labels,value`` row per subset, in mask order.

    The text is that of ``oracles.naive_epd_csv``: ``mask_label`` of each
    mask and the shortest round-trip repr of its value, formatted by
    ``_number_text``.  Each block of ``_subset_label_blocks`` goes to
    ``fp`` in one write.
    """
    fp.write("mask,subset_labels,value\n")
    for start, labels in _subset_label_blocks(d.context):
        stop = start + len(labels)
        rows = zip(range(start, stop), labels, _number_text(d.values[start:stop], "\n").split("\n"))
        fp.write("".join([f"{m},{lab},{v}\n" for m, lab, v in rows]))


def _grid_csv_rows(w: np.ndarray, keep: np.ndarray, values: np.ndarray) -> str:
    """The ``grid`` CSV rows of a block: each point ``w``, its terrace mask ``keep`` and its cells.

    The text is ``repr`` of every float and ``str`` of every mask, comma
    separated (``oracles.pointwise_grid``).  Floats are told apart by
    their bit patterns, so -0.0 keeps its sign, and each distinct one is
    formatted once: a grid's axes take few values, and its cells repeat.
    """
    n = w.shape[1]
    floats = np.concatenate([w, values], axis=1)
    distinct, where = np.unique(floats.view(np.int64), return_inverse=True)
    masks, mask_where = np.unique(keep, return_inverse=True)
    texts = np.array(
        [*map(repr, distinct.view(np.float64).tolist()), *map(str, masks.tolist())], dtype=object
    )
    where = np.insert(where.reshape(floats.shape), n, mask_where + distinct.size, axis=1)
    cells = texts[where].tolist()
    del floats, distinct, where, texts  # the arrays go before the rows are joined
    lines = list(map(",".join, cells))
    del cells  # and so do the distinct texts, before the block's text is joined
    lines.append("")  # the last row's newline, without copying the block's text
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# family configs


def _weight_from_config(obj, what: str):
    if _is_number(obj):  # a constant: the family checks its range
        return _read_number(obj, what)
    if isinstance(obj, Mapping):
        kind = obj.get("kind")
        if kind == "constant":
            return _read_number(obj.get("value", 0.0), f"{what} 'value'")
        if kind == "sine_diff":
            return sine_diff_weight(_read_number(obj.get("scale", 15.0), f"{what} 'scale'"))
        raise ConfigError(f"{what}: unknown weight kind {kind!r}")
    raise ConfigError(f"{what}: expected a number or a weight object, got {obj!r}")


def family_from_config(obj: Mapping) -> KopulaFamily:
    """Build a family from a flat config object.

    The "family" key selects the kind; the rest is per-kind:
    independent takes "n" (or "labels"), the classical names take
    "theta", convex_updown and conjugated take "alpha", and convex
    takes parallel "weights" and "parts" lists of nested configs.
    """
    if not isinstance(obj, Mapping):
        raise ConfigError(f"family config must be an object, got {type(obj).__name__}")
    name = obj.get("family")
    if not isinstance(name, str):
        raise ConfigError("family config needs a 'family' name")
    name = name.strip().lower()

    if name == "independent":
        labels = _read_labels(obj, "independent family")
        n = _read_int(obj.get("n", len(labels)), "independent family 'n'")
        if n < 1:
            raise ConfigError("independent family needs 'n' or 'labels'")
        return independent_kopula(EventSetContext(n, labels))
    if name == "frechet_upper":
        return frechet_upper_2()
    if name == "frechet_lower":
        return frechet_lower_2()
    if name == "quarter_sum":
        return quarter_sum_2()
    if name in CLASSICAL_FAMILIES:
        if "theta" not in obj:
            raise ConfigError(f"{name} family needs 'theta'")
        pf = classical_pair_param(name, _read_number(obj["theta"], f"{name} family 'theta'"))
        return parametric_2kopula(
            pf, f"{name}({pf.theta:g})", params={"theta": pf.theta}
        )
    if name == "convex_updown":
        return convex_updown_2kopula(_weight_from_config(obj.get("alpha", 0.0), name))
    if name == "conjugated":
        return conjugated_2kopula(_weight_from_config(obj.get("alpha", 0.0), name))
    if name == "convex":
        parts = obj.get("parts")
        weights = obj.get("weights")
        if not isinstance(parts, list) or not isinstance(weights, list):
            raise ConfigError("convex family needs 'parts' and 'weights' lists")
        return convex_combination(
            [family_from_config(part) for part in parts],
            [_read_number(w, f"convex weights[{k}]") for k, w in enumerate(weights)],
        )
    raise ConfigError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# build configs


def _marginals_from_config(obj: Mapping) -> MarginalSet:
    probs = obj.get("marginals")
    if not isinstance(probs, list) or not probs:
        raise ConfigError("build config needs a non-empty 'marginals' list")
    ctx = EventSetContext(len(probs), _read_labels(obj, "build config"))
    return MarginalSet.from_values(ctx, _read_numbers(probs, "marginals"))


def _canonical_table(ctx: EventSetContext, named: Mapping) -> np.ndarray | None:
    """The caller-order table of ``named`` when every key is a subset's canonical name.

    Each block of canonical names is looked up in ``named``; a subset no
    key names reads NaN.  Keys are distinct, so fewer hits than keys means
    some key is spelled otherwise, and the answer is None.
    """
    t = np.empty(ctx.size)
    get = named.get
    for start, labels in _subset_label_blocks(ctx):
        t[start:start + len(labels)] = np.fromiter(
            map(get, labels, repeat(np.nan)), np.float64, len(labels)
        )
    return t if np.count_nonzero(~np.isnan(t)) == len(named) else None


def _frame_params_from_config(p: MarginalSet, named: Mapping) -> FrameParams:
    """Translate label-keyed intersections to a table over the sorted events.

    Keys name the caller's events, each standing for its folded image, and
    no subset twice; values are finite JSON numbers in [0, 1].  Canonically
    spelled keys (``ctx.mask_label``) are found by lookup, any other
    spelling is parsed key by key.  Every subset of size >= 2, and no
    other, needs a value; errors name the key as the caller wrote it.
    The caller-order table is transposed into the frame build's order.
    """
    ctx = p.context

    def name(i: int) -> str:
        return f"frame_params[{list(named)[i]!r}]"

    values = core._read_items(list(named.values()), name, ConfigError)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ConfigError(f"{name(k)} must be a finite number, got {float(values[k])!r}")
    masks = None
    t = _canonical_table(ctx, named)
    if t is None:
        masks = np.array([ctx.mask_from_label(str(key)) for key in named], dtype=np.int64)
        twice = int(np.argmax(np.bincount(masks, minlength=ctx.size)))
        if np.count_nonzero(masks == twice) > 1:
            raise ConfigError(
                f"frame_params names the subset {ctx.mask_label(twice)!r} more than once"
            )
        t = np.full(ctx.size, np.nan)
        t[masks] = values
    clean_unit_interval(values, name)  # range check only
    low = _low_masks(ctx.n_events)
    stray = ~np.isnan(t[low])
    if stray.any():
        mask = int(low[np.argmax(stray)])
        key = ctx.mask_label(mask) if masks is None else list(named)[int(np.argmax(masks == mask))]
        raise ParameterRangeError(
            f"parameter keys must be subsets of size >= 2, got frame_params[{key!r}]"
        )
    missing = np.isnan(t)
    missing[low] = False
    if missing.any():
        raise DependencyError(
            "no intersection value supplied for "
            f"frame_params[{ctx.mask_label(int(np.argmax(missing)))!r}]"
        )
    return FrameParams(ctx.n_events, half_rare_projection(p).sort_table(t))


def build_from_config(obj: Mapping) -> Epd1:
    """One of three builds: a family, frame parameters, or correlations.

    A "family" key evaluates that family at the marginal point; a
    "frame_params" mapping runs the frame build; a "kor"
    object (keys xy, xz, in, out, three events only) goes through the
    correlation parametrization first.
    """
    if not isinstance(obj, Mapping):
        raise ConfigError("build config must be a JSON object")
    p = _marginals_from_config(obj)
    routes = [key for key in ("family", "frame_params", "kor") if key in obj]
    if len(routes) != 1:
        raise ConfigError(
            f"build config needs exactly one of 'family', 'frame_params', 'kor'; got {routes}"
        )
    route = routes[0]
    if route == "family":
        fam_obj = obj["family"]
        if isinstance(fam_obj, str):
            fam_obj = {key: value for key, value in obj.items() if key != "marginals"}
        if (
            isinstance(fam_obj, Mapping)
            and fam_obj.get("family") == "independent"
            and "n" not in fam_obj
            and "labels" not in fam_obj
        ):
            fam_obj = {**fam_obj, "n": p.context.n_events}
        fam = family_from_config(fam_obj)
        if fam.context.n_events != p.context.n_events:
            raise ConfigError(
                f"family {fam.name!r} covers {fam.context.n_events} events, "
                f"marginals have {p.context.n_events}"
            )
        # rebind to the marginal point's labels
        fam = KopulaFamily(p.context, fam.base, fam.name, fam.params)
        return epd_from_kopula(fam, p)
    if route == "frame_params":
        named = obj["frame_params"]
        if not isinstance(named, Mapping):
            raise ConfigError("'frame_params' must map subset labels to probabilities")
        params = _frame_params_from_config(p, named)
        policy = obj.get("policy", "raise")
        return build_nset_epd(p, params, policy=policy)
    kor = obj["kor"]
    if not isinstance(kor, Mapping):
        raise ConfigError("'kor' must be an object with keys xy, xz, in, out")
    missing = [key for key in ("xy", "xz", "in", "out") if key not in kor]
    if missing:
        raise ConfigError(f"'kor' is missing {missing}")
    params = params_from_kor3(
        p,
        *(_read_number(kor[key], f"kor {key!r}") for key in ("xy", "xz", "in", "out")),
        modification=_read_int(obj.get("modification", 1), "'modification'"),
    )
    return triplet_epd(p, params)
