"""The one finish of a first-kind table, on a dense, strongly dependent Clayton table.

Its raw Möbius inverse has rounding dust below zero, and zeroing the dust
adds mass that grows with N: 5.4e-14 at N = 12, 6.1e-12 at N = 16 and
1.5e-9 at N = 22, past SUM_ATOL.  The finish takes that mass back out of
the positive cells, so every route keeps the raw inverse's total.
"""

import math
import warnings

import numpy as np
import pytest

import kopula as ko
from kopula.core import _superset_mobius

from helpers import U, clayton_intersections, finish_bound


def finished_on_every_route(n):
    """The Clayton table's raw inverse, and its finished table on the three routes."""
    q, t = clayton_intersections(n)
    ctx = ko.EventSetContext(n)
    raw = _superset_mobius(t, n)
    p = ko.MarginalSet.from_values(ctx, q)
    fam = ko.KopulaFamily(ctx, lambda w, masks: raw[masks], "raw inverse")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tables = {
            "frame": ko.build_nset_epd(p, ko.FrameParams.from_epd2(ko.Epd2(ctx, t))),
            "mobius": ko.epd1_from_epd2(ko.Epd2(ctx, t)),
            "family": ko.epd_from_kopula(fam, p),
        }
    dust = f"clamped {int((raw < 0.0).sum())} slightly negative cell(s) to 0"
    assert [str(w.message).endswith(dust) for w in caught] == [True] * 3  # the walk moves nothing
    return raw, tables


@pytest.mark.parametrize("n", [12, 16])
def test_every_route_gives_the_same_cells_and_keeps_the_raw_total(n):
    raw, tables = finished_on_every_route(n)
    frame = tables["frame"].values
    for route, d in tables.items():
        assert np.array_equal(d.values.view(np.uint64), frame.view(np.uint64)), route
        assert abs(d.values.sum() - raw.sum()) <= finish_bound(n), route
        assert ko.validate_epd1(d).ok, route
    assert (frame[raw < 0.0] == 0.0).all()


@pytest.mark.parametrize("n", [10, 12, 14, 16])
def test_the_inverse_is_the_exact_alternating_sum_of_its_float_inputs(n):
    """The dust is in the input: the butterfly rounds no cell but the empty one.

    Every entry t[S] past the empty one lies in [1/4, 1/2), a multiple of
    2**-54.  Every butterfly value of a nonempty cell is an alternating sum
    of such entries and, up to dust, the mass of a set of patterns that all
    hold S, so below 1/2: a multiple of 2**-54 fewer than 2**53 times, held
    exactly.  Only the empty cell meets t[{}] = 1, and it rounds at most once
    in each of the n passes, on values at most 1."""
    q, t = clayton_intersections(n)
    assert 0.25 <= t[1:].min() and t[1:].max() < 0.5
    raw = _superset_mobius(t, n)
    masks = np.arange(1 << n)
    rng = np.random.default_rng(n)
    cells = np.unique(np.concatenate([rng.integers(1, 1 << n, 48), np.argsort(raw)[:16]]))
    for x in [0, *cells.tolist()]:
        above = masks[(masks & x) == x]
        exact = math.fsum(np.where(np.bitwise_count(above ^ x) & 1, -t[above], t[above]).tolist())
        if x:
            assert raw[x] == exact, x
        else:
            assert abs(raw[x] - exact) <= n * U
    assert (raw[cells] < 0.0).any()  # the dust is among the cells checked


def test_the_sampler_never_draws_a_cell_the_finish_set_to_zero():
    q, t = clayton_intersections(12)
    zeroed = np.flatnonzero(_superset_mobius(t, 12) < 0.0)
    with pytest.warns(RuntimeWarning, match=f"clamped {zeroed.size} slightly negative"):
        d = ko.epd1_from_epd2(ko.Epd2(ko.EventSetContext(12), t))
    assert (d.values[zeroed] == 0.0).all()
    spec = ko.SampleSpec(200_000, seed=3)
    counts = np.array(ko.sample_summary(d, spec)["counts"])
    assert counts.sum() == spec.n_samples and (counts[zeroed] == 0).all()
    assert not np.isin(ko.sample_epd1(d, spec), zeroed).any()


def test_the_dust_of_an_unfolded_table_is_in_its_input():
    """On the independence table at p = 0.99, unfolded, each negative cell of the
    inverse is the exact alternating sum of its float inputs, already below 0: no
    order of inversion, folding first included, can keep it at 0."""
    n = 12
    t = np.ones(1)
    for _ in range(n):
        t = np.concatenate([t, t * 0.99])
    raw = _superset_mobius(t, n)
    dust = np.flatnonzero(raw < 0.0)
    assert dust.size == 562
    masks = np.arange(1 << n)
    for x in dust.tolist():
        above = masks[(masks & x) == x]
        exact = math.fsum(np.where(np.bitwise_count(above ^ x) & 1, -t[above], t[above]).tolist())
        assert raw[x] == exact < 0.0, x
