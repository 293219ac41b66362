"""Command line front end.

Subcommands: build, grid, sample, validate, oracle, mobius, renumber.
Exit codes are a stable contract, and ``run`` alone maps library errors
onto them (``InfeasibleParameterError`` and ``InvalidDistributionError``
to 2, any other ``KopulaError`` to 1, as one line on stderr):

    0  success
    1  unusable input: bad flags, malformed config, parameter outside
       its declared range
    2  infeasible: parameters violate a probability bound (the bound is
       printed)
    3  axiom violation found by validate
    4  oracle cross-check mismatch

A warning prints as one ``kopula: warning: <message>`` line on stderr.
Configs are single JSON documents; see the README for the schema.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
import warnings
from dataclasses import dataclass, field
from typing import IO, Callable, Mapping

import numpy as np

from ._floattext import join_reprs
from .core import (
    Epd1,
    Epd2,
    EventSetContext,
    InfeasibleParameterError,
    InvalidDistributionError,
    KopulaError,
    MarginalSet,
    ParameterRangeError,
    _tolerance,
    epd1_from_epd2,
    epd2_from_epd1,
    marginals,
)
from .correlation import params_from_kor3
from .families import (
    _CHECK_RESOLUTION,
    _CHECK_TOL,
    _grid_args,
    epd_from_kopula,
    epd_rows_from_kopula,
    grid_points,
    independent_kopula,
    verify_one_function,
)
from .frame import FrameParams, triplet_epd, build_nset_epd
from .oracles import (
    naive_epd1_from_epd2,
    naive_epd2_from_epd1,
    naive_epd_csv,
    naive_marginals,
    naive_renumber,
    product_epd1,
    recursive_frame_epd1,
    reference_dump_json,
)
from .phenomena import _half_rare_keep, half_rare_projection, renumber_epd1
from .sampling import SampleSpec, _summary_arrays, sample_summary
from .serialize import (
    _BLOCK,
    ConfigError,
    _grid_csv_rows,
    _json_chunks,
    _read_event,
    _read_json,
    build_from_config,
    epd_to_dict,
    family_from_config,
    load_epd,
    save_epd,
    write_epd_csv,
)

__all__ = ["GridSpec", "main", "run"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_AXIOM = 3
EXIT_ORACLE = 4


class _CliFailure(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse wants exit code 2 for usage errors; the contract says 1
    def error(self, message: str) -> None:
        raise _CliFailure(EXIT_PARSE, f"{self.prog}: {message}")


@dataclass(frozen=True)
class GridSpec:
    """Which events sweep the unit interval, and where the rest are held."""

    resolution: int
    axes: tuple[int, ...]
    fixed: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        resolution, fixed = _grid_args(self.resolution, self.axes, self.fixed)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "fixed", fixed)


def _grid_spec(cfg: Mapping, ctx: EventSetContext, resolution: int) -> GridSpec:
    """The grid a config asks for; a nonzero ``resolution`` overrides the config's."""
    n = ctx.n_events
    axes = cfg.get("axes", list(range(n)))
    if not isinstance(axes, list):
        raise ConfigError(f"'axes' must be a list of events, got {axes!r}")
    fixed = cfg.get("fixed", {})
    if not isinstance(fixed, Mapping):
        raise ConfigError(f"'fixed' must map events to probabilities, got {fixed!r}")
    held = {_read_event(k, ctx, "grid 'fixed'"): v for k, v in fixed.items()}
    if len(held) != len(fixed):
        raise ConfigError(f"'fixed' names an event twice: {list(fixed)}")
    swept = tuple(_read_event(k, ctx, "grid 'axes'") for k in axes)
    spec = GridSpec(resolution or cfg.get("resolution", _CHECK_RESOLUTION), swept, held)
    missing = [k for k in range(n) if k not in spec.axes and k not in spec.fixed]
    if missing:
        raise ParameterRangeError(
            f"events {missing} neither swept nor fixed; add them to 'axes' or 'fixed'"
        )
    return spec


def _read_file(path: str, parse: Callable[[IO[str]], object]) -> object:
    """``parse`` of the input file at ``path``; an unusable file is exit 1, naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return parse(fp)
    except UnicodeDecodeError as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: not UTF-8 text: {exc}") from None
    except (OSError, KopulaError) as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: {exc}") from None


def _emit(write: Callable[[IO[str]], object], out: str | None) -> None:
    """Hand ``write`` the output stream: the ``--out`` file, or stdout."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fp:
                write(fp)
        except OSError as exc:
            raise _CliFailure(EXIT_PARSE, f"{out}: {exc}") from None
    else:
        write(sys.stdout)


def _epd_writer(d: Epd1 | Epd2, fmt: str) -> Callable[[IO[str]], object]:
    return functools.partial(write_epd_csv if fmt == "csv" else save_epd, d)


# ---------------------------------------------------------------------------
# subcommands: one that writes a table drops its input before it opens the
# output, so it holds the output alone, plus one block of text, while it writes


def _cmd_build(args: argparse.Namespace) -> int:
    cfg = _read_file(args.config, _read_json)
    d = build_from_config(cfg)
    del cfg
    _emit(_epd_writer(d, args.format), args.out)
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    cfg = _read_file(args.config, _read_json)
    fam = family_from_config(cfg)
    ctx = fam.context
    n = ctx.n_events
    spec = _grid_spec(cfg, ctx, args.resolution)
    header = (
        ",".join(f"w_{k}" for k in range(n))
        + ",terrace_mask,"
        + ",".join(f"v_{m}" for m in range(ctx.size))
    )

    def write(fp: IO[str]) -> None:  # one write per block of grid points, as it is formatted
        fp.write(header + "\n")
        skipped = 0
        for w in grid_points(n, spec.resolution, spec.axes, spec.fixed):
            values, failures = epd_rows_from_kopula(fam, w)
            for r, exc in failures:
                print(f"grid: infeasible at {tuple(w[r].tolist())}: {exc}", file=sys.stderr)
            skipped += len(failures)
            fp.write(_grid_csv_rows(w, _half_rare_keep(w), values))
        if skipped:
            print(f"grid: {skipped} infeasible row(s) written as nan", file=sys.stderr)

    _emit(write, args.out)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    d = _read_file(args.config, load_epd)
    if not isinstance(d, Epd1):
        raise _CliFailure(EXIT_PARSE, "sampling needs a first-kind table (kind 'epd1')")
    spec = SampleSpec(args.n, args.seed)
    head, counts, frequencies = _summary_arrays(d, spec)
    del d
    text = _json_chunks(head, counts=counts, frequencies=frequencies)
    _emit(lambda fp: fp.writelines(text), args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _read_file(args.config, _read_json)
    fam = family_from_config(cfg)
    report = verify_one_function(fam, args.resolution, args.tol)
    print(report.describe())
    return EXIT_OK if report.ok else EXIT_AXIOM


def _cmd_mobius(args: argparse.Namespace) -> int:
    d = _read_file(args.config, load_epd)
    out = epd2_from_epd1(d) if isinstance(d, Epd1) else epd1_from_epd2(d)
    del d
    _emit(_epd_writer(out, args.format), args.out)
    return EXIT_OK


def _cmd_renumber(args: argparse.Namespace) -> int:
    d = _read_file(args.config, load_epd)
    if not isinstance(d, Epd1):
        raise _CliFailure(EXIT_PARSE, "renumbering needs a first-kind table (kind 'epd1')")
    text = str(args.keep).strip()
    try:
        keep = int(text, 0)
    except ValueError:
        keep = d.context.mask_from_label(text)
    out = renumber_epd1(d, keep)
    del d
    _emit(_epd_writer(out, args.format), args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= 6:
        raise _CliFailure(EXIT_PARSE, f"oracle runs need 1 <= n <= 6 events, got {n}")
    trials = args.trials
    if trials < 1:
        raise _CliFailure(EXIT_PARSE, f"oracle runs need --trials >= 1, got {trials}")
    _tolerance(args.tol, "--tol")
    if args.seed < 0:
        raise _CliFailure(EXIT_PARSE, f"--seed must be >= 0, got {args.seed}")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    ctx, ctx3 = EventSetContext(n), EventSetContext(3)

    # a check runs one trial; it reads this module's bindings, so a patched kernel is checked
    def table() -> Epd1:
        v = rng.random(ctx.size)
        return Epd1(ctx, v / v.sum())

    def gaps(*pairs) -> tuple[float, ...]:
        return tuple(float(np.max(np.abs(np.subtract(a, b)))) for a, b in pairs)

    def superset_transform():
        d1 = table()
        fast = epd2_from_epd1(d1)
        slow = naive_epd2_from_epd1(d1)
        return gaps((fast.values, slow.values), (epd1_from_epd2(fast).values, d1.values))

    def marginal_sums():
        d1 = table()
        return gaps((marginals(d1).probs, naive_marginals(d1).probs))

    def renumbering():
        d1 = table()
        keep = int(rng.integers(0, ctx.size))
        fast = renumber_epd1(d1, keep)
        slow = naive_renumber(d1, keep)
        return gaps((fast.values, slow.values), (renumber_epd1(fast, keep).values, d1.values))

    def independent_family():
        probs = rng.random(n)
        d = epd_from_kopula(independent_kopula(ctx), MarginalSet.from_values(ctx, probs))
        return gaps((d.values, product_epd1(ctx, probs).values))

    def frame_triplet():
        px, py, pz = np.sort(rng.uniform(0.0, 0.5, 3))[::-1]
        p = MarginalSet(ctx3, (float(px), float(py), float(pz)), half_rare=True)
        params = params_from_kor3(p, *rng.uniform(-1.0, 1.0, 4), modification=2)
        ref = naive_epd1_from_epd2(Epd2(ctx3, params.complete_table(p.probs)))
        return gaps((triplet_epd(p, params).values, ref.values))

    def frame_independence():
        probs = rng.random(n)
        p = MarginalSet.from_values(ctx, probs)
        proj = half_rare_projection(p)
        q = [proj.point.probs[k] for k in proj.permutation]
        d = build_nset_epd(p, FrameParams.independence(q))
        return gaps((d.values, product_epd1(ctx, probs).values))

    def frame_recursive():
        d1 = table()
        p = marginals(d1)
        proj = half_rare_projection(p)
        unsort = proj.unsort_masks()
        t = Epd2(ctx, epd2_from_epd1(renumber_epd1(d1, proj.keep)).values[unsort])
        fast = build_nset_epd(p, FrameParams.from_epd2(t))
        back = renumber_epd1(fast, proj.keep).values[unsort]
        return gaps((back, recursive_frame_epd1(t).values), (fast.values, d1.values))

    checks = [
        ("superset transform, fast vs naive + roundtrip", superset_transform),
        ("marginals, tensor vs enumeration", marginal_sums),
        ("renumbering, permutation vs re-derivation + involution", renumbering),
        ("independent family vs product formula", independent_family),
        ("frame triplet vs alternating superset sums", frame_triplet),
        ("frame build (independence) vs product formula", frame_independence),
        ("frame build: Möbius vs recursive reference", frame_recursive),
    ]
    lines = [f"oracle cross-checks: n = {n}, trials = {trials}, seed = {args.seed}"]
    worst = 0.0
    for name, check in checks:  # check-major: this order fixes what each check draws
        diff = 0.0
        for _ in range(trials):
            diff = max(diff, *check())
        worst = max(worst, diff)
        lines.append(f"  {name}: max |diff| = {diff:.3e}")

    def text(write: Callable[..., object], *args) -> str:
        write(*args, fp := io.StringIO())
        return fp.getvalue()

    differ = 0
    for m in range(1, n + 1):  # one table per event count: the text logic is not random
        v = rng.random(1 << m)
        d1 = Epd1(EventSetContext(m), v / v.sum())
        d2, spec = epd2_from_epd1(d1), SampleSpec(4 << m, seed=m)
        head, counts, frequencies = _summary_arrays(d1, spec)
        fast = (text(save_epd, d1), text(save_epd, d2), text(write_epd_csv, d1),
                "".join(_json_chunks(head, counts=counts, frequencies=frequencies)))
        slow = (reference_dump_json(epd_to_dict(d1)), reference_dump_json(epd_to_dict(d2)),
                text(naive_epd_csv, d1), reference_dump_json(sample_summary(d1, spec)))
        differ += sum(map(str.__ne__, fast, slow))  # the writers the commands run
    worst = max(worst, float(differ))
    lines.append(f"  table text: one-pass writers vs reference encoders: "
                 f"{differ} of {4 * n} documents differ")

    # the writers' float-text kernel on one full block: finite bit patterns of
    # every exponent, after both zeros and the ends of the subnormal range
    bits = (rng.integers(0, 2, _BLOCK, dtype=np.uint64) << np.uint64(63)
            | rng.integers(0, 2047, _BLOCK, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 1 << 52, _BLOCK, dtype=np.uint64))
    block = bits.view(np.float64)
    block[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308]
    texts = join_reprs(block, ",").split(",")
    reprs = map(repr, block.tolist())
    wrong = sum(map(str.__ne__, texts, reprs)) if len(texts) == _BLOCK else _BLOCK
    worst = max(worst, float(wrong))
    lines.append(f"  float text: Ryu kernel vs repr: {wrong} of {_BLOCK} values differ")
    verdict = "agree" if worst <= args.tol else "DISAGREE"
    lines.append(f"kernels {verdict} within {args.tol:g} (worst {worst:.3e})")
    print("\n".join(lines))
    return EXIT_OK if worst <= args.tol else EXIT_ORACLE


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="kopula", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, *, fmt: bool = False) -> None:
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if fmt:
            p.add_argument(
                "--format", choices=("json", "csv"), default="json", help="output format"
            )

    p = sub.add_parser("build", help="construct a table from a config")
    p.add_argument("--config", metavar="PATH", required=True)
    common(p, fmt=True)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("grid", help="sweep a family over marginal grid points (CSV)")
    p.add_argument("--config", metavar="PATH", required=True)
    p.add_argument("--resolution", metavar="K", type=int, default=0,
                   help="points per axis (overrides the config)")
    common(p)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("sample", help="draw seeded occurrence patterns from a table")
    p.add_argument("--config", metavar="PATH", required=True, help="table JSON file")
    p.add_argument("--n", metavar="N", type=int, default=10000, help="sample count")
    p.add_argument("--seed", metavar="S", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("validate", help="grid-check the 1-function properties of a family")
    p.add_argument("--config", metavar="PATH", required=True)
    p.add_argument("--resolution", metavar="K", type=int, default=_CHECK_RESOLUTION)
    p.add_argument("--tol", metavar="X", type=float, default=_CHECK_TOL)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("oracle", help="cross-check fast kernels against brute force")
    p.add_argument("--n", metavar="N", type=int, default=5, help="events per instance (<= 6)")
    p.add_argument("--trials", metavar="T", type=int, default=100)
    p.add_argument("--seed", metavar="S", type=int, default=0)
    p.add_argument("--tol", metavar="X", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("mobius", help="convert between the two table kinds")
    p.add_argument("--config", metavar="PATH", required=True, help="table JSON file")
    common(p, fmt=True)
    p.set_defaults(fn=_cmd_mobius)

    p = sub.add_parser("renumber", help="complement the events outside a kept subset")
    p.add_argument("--config", metavar="PATH", required=True, help="table JSON file")
    p.add_argument("--keep", metavar="MASK", required=True,
                   help="kept events: an integer mask or a label expression like x0&x2")
    common(p, fmt=True)
    p.set_defaults(fn=_cmd_renumber)

    return parser


def _warning_line(message, *_) -> str:
    """A warning as one stderr line, without its file, line number and source text."""
    return f"kopula: warning: {message}\n"


def run(argv: list[str] | None = None) -> int:
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except _CliFailure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code
    except (InfeasibleParameterError, InvalidDistributionError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except KopulaError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except (MemoryError, RecursionError) as exc:  # unusable input: too big for the memory or stack
        what = "out of memory" if isinstance(exc, MemoryError) else "input nested too deeply"
        print(f"kopula: {what}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        warnings.formatwarning = shown


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
