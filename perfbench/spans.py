"""Spans around the calls from one kopula module into another.

The tracer wraps the names listed in ``SPANS`` where other kopula modules
bound them (``from .frame import build_nset_epd`` makes
``kopula.serialize.build_nset_epd`` such a binding), so the program's own
code stays unchanged.  A span is named ``<defining module>.<public name>``.
Per span it keeps the call count, busy time, self time (busy time less
the time of its direct child spans) and the number of ``KopulaError``s
that left it.  Spans are aggregated as they close rather than stored.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SPANS = {
    "serialize": ("build_from_config", "family_from_config", "load_epd", "dump_json", "write_epd_csv"),
    "frame": ("FrameParams", "build_nset_epd", "triplet_epd"),
    "correlation": ("params_from_kor3",),
    "families": ("epd_from_kopula", "verify_one_function"),
    "phenomena": ("half_rare_projection", "renumber_epd1"),
    "core": ("MarginalSet", "epd2_from_epd1", "epd1_from_epd2", "validate_epd1", "validate_epd2"),
    "sampling": ("sample_summary",),
}
# The benchmark calls cli.run itself; that call is the root span of an op.
ROOT_SPAN = "cli.run"
SPAN_NAMES = (ROOT_SPAN,) + tuple(f"{mod}.{name}" for mod, names in SPANS.items() for name in names)
# Spans whose result is a built table; their cells add up to frame.cells.
CELL_SPANS = ("frame.build_nset_epd", "frame.triplet_epd")


class _TracedClass:
    """Stands in for a class: construction and class-level calls are spans."""

    def __init__(self, tracer: "Tracer", name: str, cls: type) -> None:
        self._cls = cls
        self._tracer = tracer
        self._name = name
        self._call = tracer.wrap(name, cls)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr: str):
        value = getattr(self._cls, attr)
        if callable(value) and not isinstance(value, type):
            value = self._tracer.wrap(self._name, value)
            setattr(self, attr, value)
        return value

    def __instancecheck__(self, obj) -> bool:
        # keeps isinstance(x, MarginalSet) working inside a patched module
        return isinstance(obj, self._cls)


class Tracer:
    """Span statistics and counters, plus the patching that records them."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        from kopula import KopulaError

        row = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        cells = name in CELL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if cells:
                    counters["frame.cells"] += result.values.size
                return result
            except KopulaError:
                row[3] += 1
                raise
            finally:
                busy = clock() - start
                child = stack.pop()
                row[0] += 1
                row[1] += busy
                row[2] += busy - child
                if stack:
                    stack[-1] += busy

        return traced

    def install(self) -> None:
        """Wrap every cross-module binding of the names in ``SPANS``."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("kopula.")}
        for mod_name, names in SPANS.items():
            home = modules.get(f"kopula.{mod_name}")
            for name in names:
                span = f"{mod_name}.{name}"
                original = getattr(home, name, None)  # a missing name reports zeros
                if original is None:
                    continue
                traced = (_TracedClass(self, span, original) if isinstance(original, type)
                          else self.wrap(span, original))
                for caller in modules.values():
                    if caller is not home and getattr(caller, name, None) is original:
                        self._patched.append((caller, name, original))
                        setattr(caller, name, traced)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-span metrics of everything recorded since the last reset."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, busy, own, failed = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = own
            out[f"{name}.failed"] = failed
        out["frame.cells"] = self.counters["frame.cells"]
        return out
