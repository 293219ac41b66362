"""Seeded categorical sampling of occurrence patterns.

The generator is PCG64 behind numpy's Generator front end: named,
seedable, and stable across platforms, so a summary produced from the
same table, sample count, and seed is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Epd1,
    InvalidDistributionError,
    ParameterRangeError,
    _event_sums,
    _is_int,
    _shown,
    validate_epd1,
)

__all__ = ["SampleSpec", "sample_epd1", "sample_summary"]


# The largest sample count: 2**53, the largest a float64 holds exactly (the
# frequencies divide by it); numpy refuses an array of 2**60 draws or more.
_MAX_SAMPLES = 1 << 53


@dataclass(frozen=True)
class SampleSpec:
    """A sample count in [1, 2**53] and a 64-bit unsigned seed; else a ParameterRangeError."""

    n_samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.n_samples) or self.n_samples < 1:
            raise ParameterRangeError(f"n_samples must be >= 1, got {_shown(self.n_samples)}")
        if self.n_samples > _MAX_SAMPLES:
            raise ParameterRangeError(
                f"n_samples must be at most 2**53, got {_shown(self.n_samples)}"
            )
        if not _is_int(self.seed) or not 0 <= int(self.seed) < 1 << 64:
            raise ParameterRangeError(
                f"seed must be a 64-bit unsigned integer, got {_shown(self.seed)}"
            )
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))


def _cdf_and_uniforms(d: Epd1, spec: SampleSpec) -> tuple[np.ndarray, np.ndarray]:
    """The table's normalized CDF and the spec's PCG64 uniforms, in draw order."""
    report = validate_epd1(d)
    if not report.ok:
        raise InvalidDistributionError(f"refusing to sample: {report.describe()}")
    cdf = np.cumsum(d.values)
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return cdf, rng.random(spec.n_samples)


def sample_epd1(d: Epd1, spec: SampleSpec) -> np.ndarray:
    """Draw occurrence-pattern masks, distributed per the table.

    Inverse-CDF draws from one PCG64 stream; a fixed seed fixes the
    output exactly.
    """
    cdf, u = _cdf_and_uniforms(d, spec)
    return np.minimum(np.searchsorted(cdf, u, side="right"), d.context.size - 1).astype(np.int64)


def _summary_arrays(d: Epd1, spec: SampleSpec) -> tuple[dict, np.ndarray, np.ndarray]:
    """``sample_summary`` with its 2**n-entry ``counts`` and ``frequencies`` left as arrays.

    The first item is the summary without those two keys.  Mask k is
    drawn for a uniform in ``[cdf[k-1], cdf[k])``, so its count is the
    difference of two positions of the CDF among the sorted uniforms: one
    binary search per cell.  The last end, ``cdf[-1] = 1``, is above
    every uniform.
    """
    n = d.context.n_events
    cdf, u = _cdf_and_uniforms(d, spec)
    u.sort()
    ends = np.searchsorted(u, cdf, side="left")
    del cdf, u
    counts = ends.copy()
    counts[1:] -= ends[:-1]
    del ends
    marg = _event_sums(counts, n) / spec.n_samples
    head = {
        "n_events": n,
        "n_samples": spec.n_samples,
        "seed": spec.seed,
        "labels": list(d.context.labels),
        "marginals": marg.tolist(),
        "marginal_se": np.sqrt(marg * (1.0 - marg) / spec.n_samples).tolist(),
    }
    return head, counts, counts / spec.n_samples


def sample_summary(d: Epd1, spec: SampleSpec) -> dict:
    """Empirical terrace frequencies and marginals, with standard errors.

    Plain-python values throughout so the dict serializes to identical
    bytes on reruns (keys sorted at dump time).  The counts ignore draw
    order: they are read off the sorted uniforms at the CDF's cell
    boundaries; the marginals are exact integer sums of the counts.
    """
    head, counts, frequencies = _summary_arrays(d, spec)
    return {**head, "counts": counts.tolist(), "frequencies": frequencies.tolist()}
