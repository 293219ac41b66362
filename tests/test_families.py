"""Closed-form distribution families and the one-function verifier."""

import itertools
import re
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kopula as ko

from helpers import finish_bound, product_table, traced_peak

PAIR = ko.pair_context()


def pair_marginals(px, py):
    return ko.MarginalSet.from_values(PAIR, (px, py))


def table(family, px, py):
    return ko.epd_from_kopula(family, pair_marginals(px, py)).values


class TestFrozenTables:
    def test_independent_doublet(self):
        ctx = ko.EventSetContext(2, ("x", "y"))
        fam = ko.independent_kopula(ctx)
        out = ko.epd_from_kopula(fam, ko.MarginalSet.from_values(ctx, (0.3, 0.2)))
        np.testing.assert_allclose(out.values, (0.56, 0.24, 0.14, 0.06), atol=1e-15)

    def test_independent_monoplet(self):
        ctx = ko.EventSetContext(1, ("x",))
        out = ko.epd_from_kopula(
            ko.independent_kopula(ctx), ko.MarginalSet.from_values(ctx, (0.3,))
        )
        np.testing.assert_allclose(out.values, (0.7, 0.3), atol=1e-15)

    @pytest.mark.parametrize(
        "px,py,expected",
        [
            (0.4, 0.3, (0.6, 0.1, 0.0, 0.3)),
            (0.3, 0.3, (0.7, 0.0, 0.0, 0.3)),
            (0.5, 0.25, (0.5, 0.25, 0.0, 0.25)),  # seam coordinate
        ],
    )
    def test_upper_frechet(self, px, py, expected):
        np.testing.assert_allclose(
            table(ko.frechet_upper_2(PAIR), px, py), expected, atol=1e-15
        )

    @pytest.mark.parametrize(
        "px,py,expected",
        [
            (0.4, 0.3, (0.3, 0.4, 0.3, 0.0)),
            (0.7, 0.8, (0.0, 0.2, 0.3, 0.5)),
        ],
    )
    def test_lower_frechet(self, px, py, expected):
        np.testing.assert_allclose(
            table(ko.frechet_lower_2(PAIR), px, py), expected, atol=1e-15
        )

    def test_convex_mixture_of_bounds(self):
        mix = ko.convex_combination(
            [ko.frechet_upper_2(PAIR), ko.frechet_lower_2(PAIR)], [0.5, 0.5]
        )
        np.testing.assert_allclose(
            table(mix, 0.4, 0.3), (0.45, 0.25, 0.15, 0.15), atol=1e-15
        )

    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (1.0, (0.6, 0.1, 0.0, 0.3)),
            (-1.0, (0.3, 0.4, 0.3, 0.0)),
            (0.0, (0.45, 0.25, 0.15, 0.15)),
        ],
    )
    def test_updown_interpolates_the_bounds(self, alpha, expected):
        fam = ko.convex_updown_2kopula(ko.constant_weight(alpha))
        np.testing.assert_allclose(table(fam, 0.4, 0.3), expected, atol=1e-15)

    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (1.0, (0.6, 0.1, 0.0, 0.3)),
            (-1.0, (0.3, 0.4, 0.3, 0.0)),
            (0.0, (0.42, 0.28, 0.18, 0.12)),  # alpha 0 degenerates to independence
        ],
    )
    def test_conjugated_family(self, alpha, expected):
        fam = ko.conjugated_2kopula(ko.constant_weight(alpha))
        np.testing.assert_allclose(table(fam, 0.4, 0.3), expected, atol=1e-15)


class TestVerifier:
    @pytest.mark.parametrize(
        "family",
        [
            ko.frechet_upper_2(PAIR),
            ko.frechet_lower_2(PAIR),
            ko.independent_kopula(ko.EventSetContext(3)),
            ko.convex_updown_2kopula(ko.sine_diff_weight()),
            ko.conjugated_2kopula(ko.sine_diff_weight()),
            ko.parametric_2kopula(ko.classical_pair_param("amh", -0.5).fn, name="amh"),
            ko.parametric_2kopula(ko.classical_pair_param("clayton", 2.0).fn, name="clayton"),
            ko.parametric_2kopula(ko.classical_pair_param("frank", -3.0).fn, name="frank"),
            ko.parametric_2kopula(ko.classical_pair_param("gumbel", 2.5).fn, name="gumbel"),
            ko.parametric_2kopula(ko.classical_pair_param("joe", 3.0).fn, name="joe"),
        ],
        ids=lambda f: f.name,
    )
    def test_shipped_families_pass(self, family):
        report = ko.verify_one_function(family, grid_resolution=7, tol=1e-8)
        assert report.ok, report.describe()

    def test_quarter_sum_counterexample_fails_on_marginals_only(self):
        report = ko.verify_one_function(ko.quarter_sum_2(), grid_resolution=9, tol=1e-8)
        assert not report.ok
        assert not report.marginal_ok
        assert report.sum_ok
        assert report.nonneg_ok
        # residual |w/2 + 1/4 - w| peaks at the hypercube corners
        assert report.max_marginal_residual == pytest.approx(0.25, abs=1e-12)
        assert "marginal" in report.describe()

    def test_report_counts_grid_points(self):
        report = ko.verify_one_function(ko.frechet_upper_2(PAIR), grid_resolution=5)
        assert report.n_points == 25
        assert report.grid_resolution == 5

    def test_nan_everywhere_fails_at_the_first_point_and_cell(self):
        def base(w, masks):
            return np.full(np.broadcast_shapes(masks.shape, w.shape[:-1]), np.nan)

        report = ko.verify_one_function(ko.KopulaFamily(PAIR, base, "void"), 5)
        assert not report.ok and "FAILS" in report.describe()
        assert np.isnan(report.min_value) and np.isnan(report.max_sum_deviation)
        assert (report.min_point, report.min_subset) == ((0.0, 0.0), 0)
        assert report.sum_point == (0.0, 0.0)

    def test_first_nan_is_the_worst_and_stays(self):
        # 200**2 points run in three blocks; NaNs in the second and third, a
        # negative cell before them in the first
        axis = np.linspace(0.0, 1.0, 200)
        spots = [(10, 10, 0, -1.0), (100, 50, 3, np.nan), (150, 10, 1, np.nan), (190, 0, 0, np.nan)]
        indep = ko.independent_kopula(PAIR)

        def base(w, masks):
            out = indep(w, masks)
            for i, j, m, v in spots:
                at = (w[..., 0] == axis[i]) & (w[..., 1] == axis[j]) & (masks == m)
                out = np.where(at, v, out)
            return out

        report = ko.verify_one_function(ko.KopulaFamily(PAIR, base, "holes"), 200)
        first = (float(axis[100]), float(axis[50]))
        assert not report.ok
        assert np.isnan(report.min_value)
        assert (report.min_point, report.min_subset) == (first, 3)
        assert report.sum_point == first and np.isnan(report.max_sum_deviation)

    @pytest.mark.parametrize("resolution", [1, 0, -3, 2**20 + 1, 10**400, 2.0, True, "9"])
    def test_resolution_outside_its_rule_is_a_range_error(self, resolution):
        match = r"grid resolution must be an integer in \[2, 2\*\*20\]"
        with pytest.raises(ko.ParameterRangeError, match=match):
            ko.verify_one_function(ko.frechet_upper_2(PAIR), resolution)
        with pytest.raises(ko.ParameterRangeError, match=match):
            next(ko.grid_points(2, resolution))

    @pytest.mark.parametrize("resolution", [2, np.int64(3), 2**20])
    def test_resolution_inside_its_rule(self, resolution):
        first = next(ko.grid_points(1, resolution))
        assert first[:2].tolist() == [[0.0], [1.0 / (resolution - 1)]]


def grid_reference(n, resolution, axes, fixed):
    """The grid as ``itertools.product`` over ``np.linspace`` gives it, one row per point."""
    axis = np.linspace(0.0, 1.0, resolution).tolist()
    rows = np.zeros((resolution ** len(axes), n))
    for k, v in fixed.items():
        rows[:, k] = v
    product = list(itertools.product(axis, repeat=len(axes)))
    rows[:, axes] = np.reshape(product, (len(rows), len(axes)))
    return rows


def check_grid_blocks(n, resolution, axes, fixed):
    blocks = list(ko.grid_points(n, resolution, axes, fixed))
    step = max(1, (1 << 16) >> n)
    assert all(len(b) == step for b in blocks[:-1]) and 1 <= len(blocks[-1]) <= step
    assert all(b.flags.f_contiguous and b.shape[1] == n for b in blocks)
    got, want = np.concatenate(blocks), grid_reference(n, resolution, axes, fixed)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def grid_cases(draw):
    n = draw(st.integers(1, 6))
    axes = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    # at most about 20,000 points, so the reference stays quick
    top = 60 if len(axes) < 2 else min(60, int(20_000 ** (1 / len(axes))))
    resolution = draw(st.integers(2, top))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    fixed = {k: draw(unit) for k in range(n) if k not in axes}
    return n, resolution, axes, fixed


class TestGridPoints:
    """The blocks of ``grid_points`` against ``itertools.product``, bit for bit."""

    @given(grid_cases())
    def test_blocks_are_the_product_grid(self, case):
        check_grid_blocks(*case)

    @pytest.mark.parametrize(
        "n, resolution, axes, fixed",
        [(2, 401, [0, 1], {}), (1, 70_000, [0], {}), (3, 41, [2, 0], {1: 0.3})],
        ids=["pair-401", "one-axis-70000", "swapped-axes"],
    )
    def test_runs_that_cross_block_edges(self, n, resolution, axes, fixed):
        check_grid_blocks(n, resolution, axes, fixed)


class TestEpdFromKopula:
    def test_marginals_recovered(self, rng):
        fam = ko.parametric_2kopula(ko.classical_pair_param("frank", 4.0).fn, name="frank")
        for _ in range(20):
            px, py = rng.uniform(0.01, 0.99, size=2)
            d = ko.epd_from_kopula(fam, pair_marginals(px, py))
            assert ko.validate_epd1(d).ok
            np.testing.assert_allclose(ko.marginals(d).probs, (px, py), atol=1e-12)

    def test_context_mismatch_rejected(self):
        ctx = ko.EventSetContext(2, ("a", "b"))
        fam = ko.frechet_upper_2(PAIR)
        with pytest.raises(ko.ContextError):
            ko.epd_from_kopula(fam, ko.MarginalSet.from_values(ctx, (0.4, 0.3)))

    def test_negative_family_rejected(self):
        def base(w, masks):
            return np.full(np.broadcast(w[..., 0], masks).shape, -0.1)

        fam = ko.KopulaFamily(context=PAIR, base=base, name="neg", params={})
        with pytest.raises(ko.InfeasibleParameterError):
            ko.epd_from_kopula(fam, pair_marginals(0.4, 0.3))

    def test_pair_function_outside_band_rejected(self):
        fam = ko.parametric_2kopula(lambda a, b: 1.2 * np.minimum(a, b), name="over")
        with pytest.raises(ko.InfeasibleParameterError, match="band"):
            ko.epd_from_kopula(fam, pair_marginals(0.4, 0.3))


class TestEvaluator:
    def test_argument_coercion(self):
        fam = ko.frechet_upper_2(PAIR)
        value = fam([0.4, 0.3], 3)
        assert isinstance(float(value), float)

    def test_swap_symmetry(self, rng):
        fam = ko.parametric_2kopula(ko.classical_pair_param("clayton", 2.0).fn, name="clayton")
        for _ in range(50):
            w = rng.uniform(0.0, 1.0, size=2)
            flipped = w[::-1].copy()
            assert fam(w, 0b01) == pytest.approx(fam(flipped, 0b10), abs=1e-15)
            assert fam(w, 0b11) == pytest.approx(fam(flipped, 0b11), abs=1e-15)

    def test_cell_values_tile_the_point(self, rng):
        fam = ko.conjugated_2kopula(ko.sine_diff_weight())
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=2)
            cells = np.array([fam(w, m) for m in range(4)])
            assert cells.sum() == pytest.approx(1.0, abs=1e-12)
            assert cells[1] + cells[3] == pytest.approx(w[0], abs=1e-12)
            assert cells[2] + cells[3] == pytest.approx(w[1], abs=1e-12)


def _decimal_context(ctx):
    ctx.prec, ctx.Emax, ctx.Emin = 50, MAX_EMAX, MIN_EMIN


def _ln1m(x):
    """log(1 - x) for a Decimal x in [0, 1/2], without cancellation at small x."""
    return -(x + x * x / 2 + x**3 / 3) if x < Decimal("1e-12") else (1 - x).ln()


def _expm1(z):
    return z + z * z / 2 + z**3 / 6 if abs(z) < Decimal("1e-12") else z.exp() - 1


def gumbel_decimal(a, b, theta):
    """exp(-(x^t + y^t)^(1/t)), x = -log a, y = -log b, to 50 digits, x factored out."""
    if min(a, b) == 0.0:
        return 0.0
    with localcontext() as ctx:
        _decimal_context(ctx)
        t = Decimal(theta)
        x, y = -Decimal(min(a, b)).ln(), -Decimal(max(a, b)).ln()
        return float((-x * ((((y / x).ln() * t).exp() + 1).ln() / t).exp()).exp())


def joe_decimal(a, b, theta):
    """1 - (u + v - uv)^(1/t), u = (1 - a)^t, v = (1 - b)^t, to 50 digits, u factored out."""
    lo, hi = Decimal(min(a, b)), Decimal(max(a, b))
    with localcontext() as ctx:
        _decimal_context(ctx)
        t = Decimal(theta)
        p, q = _ln1m(lo), _ln1m(hi)
        rest = _expm1((1 + ((q - p) * t).exp() - (q * t).exp()).ln() / t)
        return float(lo - (1 - lo) * rest)


STEEP_REFERENCES = {"gumbel": gumbel_decimal, "joe": joe_decimal}
# a = 0, a = b and b = 1/2, the points the textbook forms broke at, and tiny arguments
STEEP_POINTS = [
    (0.0, 0.0), (0.0, 0.3), (0.0, 0.5), (0.3, 0.3), (0.5, 0.5), (0.2206, 0.2206),
    (0.1, 0.5), (0.25, 0.5), (0.4999, 0.5), (0.1304, 0.1956), (0.0151, 0.0227),
    (0.01, 0.02), (1e-5, 1e-5), (1e-300, 0.4),
]


class TestClassicalPairFunctions:
    def test_spot_values(self):
        assert ko.classical_pair_param("amh", 0.0).fn(0.3, 0.4) == pytest.approx(0.12, abs=1e-15)
        assert ko.classical_pair_param("gumbel", 1.0).fn(0.3, 0.4) == pytest.approx(0.12, abs=1e-14)
        assert ko.classical_pair_param("clayton", 1.0).fn(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-14)
        assert ko.classical_pair_param("joe", 2.0).fn(0.5, 0.5) == pytest.approx(
            1 - np.sqrt(0.4375), abs=1e-14
        )

    def test_frank_matches_direct_formula(self):
        theta = 2.0
        f = ko.classical_pair_param("frank", theta).fn
        a, b = 0.3, 0.4
        direct = -np.log1p(np.expm1(-theta * a) * np.expm1(-theta * b) / np.expm1(-theta)) / theta
        assert f(a, b) == pytest.approx(direct, abs=1e-14)

    def test_frank_is_stable_for_large_theta(self):
        f = ko.classical_pair_param("frank", 80.0).fn
        value = float(f(0.49, 0.5))
        assert 0.0 <= value <= 0.49

    @pytest.mark.parametrize("theta", [50.0, 200.0, 1e6, 1e308])
    def test_clayton_tends_to_the_minimum_at_large_theta(self, theta):
        f = ko.classical_pair_param("clayton", theta).fn
        assert f(0.01, 0.02) == pytest.approx(0.01, rel=1e-12)
        assert f(np.array([0.0, 0.0]), np.array([0.0, 0.3])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("theta", [150.0, 1e3, 1e4, 1e6, 1e308])
    @pytest.mark.parametrize("name", ["gumbel", "joe"])
    def test_gumbel_and_joe_at_large_theta(self, name, theta):
        """Against 50 digits, at points that overflowed or underflowed the textbook forms."""
        a, b = np.array(STEEP_POINTS).T
        got = ko.classical_pair_param(name, theta).fn(a, b)
        want = [STEEP_REFERENCES[name](x, y, theta) for x, y in STEEP_POINTS]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2**-52)

    @pytest.mark.parametrize("name", ["gumbel", "joe"])
    def test_gumbel_and_joe_forms_meet_at_theta_100(self, name):
        """The steep form starts just past theta = 100; there both forms agree."""
        axis = np.linspace(0.0, 0.5, 201)
        a, b = (v.ravel() for v in np.meshgrid(axis, axis))
        textbook = ko.classical_pair_param(name, 100.0).fn(a, b)
        steep = ko.classical_pair_param(name, np.nextafter(100.0, np.inf)).fn(a, b)
        assert np.max(np.abs(textbook - steep)) <= 2**-52  # two ulps of 1/2

    def test_theta_is_recorded(self):
        pf = ko.classical_pair_param("clayton", 2.5)
        assert pf.name == "clayton"
        assert pf.theta == 2.5

    @pytest.mark.parametrize(
        "family,theta",
        [
            ("amh", 1.0),
            ("amh", -1.5),
            ("clayton", 0.0),
            ("clayton", -2.0),
            ("frank", 0.0),
            ("gumbel", 0.5),
            ("joe", 0.9),
        ],
    )
    def test_out_of_range_theta_rejected(self, family, theta):
        with pytest.raises(ko.ParameterRangeError):
            ko.classical_pair_param(family, theta)

    def test_unknown_family_rejected(self):
        with pytest.raises(ko.ParameterRangeError, match="amh"):
            ko.classical_pair_param("nope", 1.0)


class TestWeightFunctions:
    def test_constant_weight_beyond_one_rejected(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.constant_weight(1.5)

    def test_callable_weight_beyond_one_rejected_at_evaluation(self):
        fam = ko.convex_updown_2kopula(lambda a, b: 1.5 + 0.0 * a)
        with pytest.raises(ko.ParameterRangeError):
            ko.epd_from_kopula(fam, pair_marginals(0.4, 0.3))

    def test_sine_weight_stays_in_range(self, rng):
        alpha = ko.sine_diff_weight()
        values = alpha(rng.uniform(0, 0.5, size=100), rng.uniform(0, 0.5, size=100))
        assert np.all(np.abs(values) <= 1.0)


class TestConvexCombination:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.convex_combination([ko.frechet_upper_2(PAIR)], [0.4])

    def test_negative_weights_rejected(self):
        with pytest.raises(ko.ParameterRangeError):
            ko.convex_combination(
                [ko.frechet_upper_2(PAIR), ko.frechet_lower_2(PAIR)], [1.5, -0.5]
            )


def classical(name, theta):
    return ko.parametric_2kopula(ko.classical_pair_param(name, theta), name)


PAIR_FAMILIES = [
    ko.independent_kopula(PAIR),
    ko.frechet_upper_2(PAIR),
    ko.frechet_lower_2(PAIR),
    ko.convex_updown_2kopula(0.3),
    ko.convex_updown_2kopula(ko.sine_diff_weight(15.0)),
    ko.conjugated_2kopula(-0.4),
    ko.conjugated_2kopula(ko.sine_diff_weight(15.0)),
    classical("amh", 0.5),
    classical("amh", -1.0),
    classical("clayton", 2.5),
    classical("clayton", -0.5),
    classical("frank", 4.0),
    classical("frank", -3.0),
    classical("frank", 50.0),
    classical("gumbel", 2.0),
    classical("joe", 3.0),
    ko.quarter_sum_2(),
    ko.convex_combination(
        [ko.frechet_upper_2(PAIR), ko.frechet_lower_2(PAIR), ko.independent_kopula(PAIR)],
        [0.2, 0.5, 0.3],
    ),
]


def layout_points(n, rows=256, seed=5):
    """Random points with about half their coordinates exactly 0, 1/2 or 1."""
    rng = np.random.default_rng(seed + n)
    w = rng.random((rows, n))
    exact = rng.random((rows, n)) < 0.5
    w[exact] = rng.choice([0.0, 0.5, 1.0], size=int(exact.sum()))
    return w


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


class TestLayout:
    """Cells-outer and cells-inner blocks of one family hold the same bits."""

    @pytest.mark.parametrize("family", PAIR_FAMILIES, ids=lambda f: f.name)
    def test_pair_families(self, family):
        w = layout_points(2)
        masks = np.arange(4)
        outer = family(w[None, :, :], masks[:, None]).T
        inner = family(w[:, None, :], masks[None, :])
        assert same_bits(outer, inner)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_independent(self, n):
        fam = ko.independent_kopula(ko.EventSetContext(n))
        w = layout_points(n)
        masks = np.arange(1 << n)
        outer = fam(w[None, :, :], masks[:, None]).T
        inner = fam(w[:, None, :], masks[None, :])
        # the product over mirrored coordinates as np.prod takes it, k ascending
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        reference = np.prod(np.where(bits, w[:, None, :], 1.0 - w[:, None, :]), axis=-1)
        assert same_bits(outer, inner)
        assert same_bits(inner, reference)
        assert same_bits(fam(w[0], masks), reference[0])

    @pytest.mark.parametrize(
        "family",
        PAIR_FAMILIES + [ko.independent_kopula(ko.EventSetContext(n)) for n in range(1, 9)],
        ids=lambda f: f"{f.name}-{f.context.n_events}",
    )
    def test_memory_order_of_the_points(self, family):
        """Grid blocks are column-major; a C-ordered copy gives the same bits."""
        n = family.context.n_events
        c_order = layout_points(n)
        f_order = np.asfortranarray(c_order)
        assert f_order.flags.f_contiguous and c_order.flags.c_contiguous
        masks = np.arange(1 << n)
        assert same_bits(family(f_order[None, :, :], masks[:, None]),
                         family(c_order[None, :, :], masks[:, None]))
        assert same_bits(family(f_order[:, None, :], masks[None, :]),
                         family(c_order[:, None, :], masks[None, :]))


LIFTED_PAIR_FNS = [
    ("upper", lambda a, b: a + 0.0 * b),
    ("lower", lambda a, b: np.maximum(0.0, a + b - 1.0)),
    *((f"{name}({theta:g})", ko.classical_pair_param(name, theta)) for name, theta in [
        ("amh", -1.0), ("clayton", 2.5), ("frank", -4.0), ("frank", 50.0), ("gumbel", 3.0),
        ("joe", 3.0),
    ]),
]


def four_slot_reference(f, w, masks):
    """The pair lift applied cell by cell: (rows, cells) from f on the block's folded pairs."""
    ax = np.minimum(w[:, 0], 1.0 - w[:, 0])
    ay = np.minimum(w[:, 1], 1.0 - w[:, 1])
    lo = np.minimum(ax, ay)
    fv = np.clip(np.asarray(f(lo, np.maximum(ax, ay)), dtype=np.float64), 0.0, lo)
    out = np.empty((len(w), len(masks)))
    for r, (wx, wy) in enumerate(w):
        for c, m in enumerate(masks):
            agree_x = (wx <= 0.5) == bool(m & 1)
            agree_y = (wy <= 0.5) == bool(m & 2)
            if agree_x and agree_y:
                out[r, c] = fv[r]
            elif agree_x:
                out[r, c] = ax[r] - fv[r]
            elif agree_y:
                out[r, c] = ay[r] - fv[r]
            else:
                out[r, c] = 1.0 - ax[r] - ay[r] + fv[r]
    return out


@pytest.mark.parametrize("name, f", LIFTED_PAIR_FNS, ids=[name for name, _ in LIFTED_PAIR_FNS])
def test_pair_lift_fills_the_four_slots_cell_by_cell(name, f):
    corners = np.array([(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)])
    w = np.concatenate([corners, layout_points(2, rows=64)])
    masks = np.arange(4)
    fam = ko.parametric_2kopula(f, name)
    want = four_slot_reference(f, w, masks)
    assert same_bits(fam(w[:, None, :], masks[None, :]), want)
    assert same_bits(fam(w[None, :, :], masks[:, None]).T, want)
    for m in masks:  # a scalar mask, against the block and against each corner alone
        assert same_bits(fam(w, np.int64(m)), want[:, m])
        # corners only: elsewhere a 0-d ``**`` may round unlike the block's
        for r, corner in enumerate(corners):
            assert same_bits(fam(corner, np.int64(m)), want[r, m])


def lifted_block(f, w):
    """The pair lift of ``f`` on the (rows, 2) points ``w``, cells-outer as the verifier asks."""
    return ko.parametric_2kopula(f, "banded")(w[None, :, :], np.arange(4)[:, None])


def by_first_coordinate(values):
    """A pair function that gives ``values[a]`` at the listed a, and a * b elsewhere."""

    def f(a, b):
        out = a * b
        for key, v in values.items():
            out = np.where(a == key, v, out)
        return out

    return f


class TestBand:
    """The band check of the pair lift: which row it names, NaN and -0.0."""

    def band_error(self, f, w):
        with pytest.raises(ko.InfeasibleParameterError) as caught:
            lifted_block(f, w)
        return str(caught.value)

    def test_the_larger_excursion_is_named(self):
        f = by_first_coordinate({0.125: -0.125, 0.25: 0.5})
        for w in ([[0.125, 0.5], [0.25, 0.5]], [[0.25, 0.5], [0.125, 0.5]]):
            assert self.band_error(f, np.array(w)) == (
                "pair function of family 'banded' leaves the admissible band at "
                "(a, b) = (0.25, 0.5): value 5.000000e-01 not in [0, 2.500000e-01]"
            )

    def test_a_tie_names_the_first_row(self):
        f = by_first_coordinate({0.125: -0.125, 0.25: 0.375})  # both 0.125 out
        w = np.array([[0.4, 0.3], [0.125, 0.5], [0.25, 0.5]])
        assert self.band_error(f, w).endswith(
            "(a, b) = (0.125, 0.5): value -1.250000e-01 not in [0, 1.250000e-01]"
        )
        assert self.band_error(f, w[[0, 2, 1]]).endswith(
            "(a, b) = (0.25, 0.5): value 3.750000e-01 not in [0, 2.500000e-01]"
        )

    def test_a_nan_row_before_an_out_of_band_row_raises_nothing(self):
        f = by_first_coordinate({0.125: np.nan, 0.25: 0.5})
        out = lifted_block(f, np.array([[0.125, 0.5], [0.25, 0.5]]))
        assert np.isnan(out[:, 0]).all()
        assert out[:, 1].tolist() == [0.5, 0.0, 0.25, 0.25]  # clipped to the upper bound

    @pytest.mark.parametrize("family", PAIR_FAMILIES, ids=lambda f: f.name)
    def test_an_empty_block_leaves_no_band(self, family):
        rows, failures = ko.epd_rows_from_kopula(family, np.empty((0, 2)))
        assert rows.shape == (0, 4) and failures == []

    def test_an_in_band_negative_zero_keeps_its_sign(self):
        f = by_first_coordinate({0.3: -0.0})
        cells = ko.parametric_2kopula(f, "banded")(np.array([0.3, 0.4]), np.arange(4))
        assert np.signbit(cells).tolist() == [False, False, False, True]  # both agree: f itself
        block = lifted_block(f, np.array([[0.3, 0.4], [0.2, 0.4]]))  # in band: no error
        assert (block[:, 0] == cells).all()


def reference_report(k, resolution, tol=1e-8):
    """The report fields of ``verify_one_function``, scanned point by point.

    Rows in grid order, then subsets or events within a row; only a
    strictly worse value replaces the one kept, so ties go to the first.
    Each row is evaluated as a one-row block: numpy may round ``**``
    differently on a 0-d point than in an array.
    """
    n = k.context.n_events
    masks = np.arange(1 << n)
    out = {
        "min_value": np.inf, "min_point": (), "min_subset": 0,
        "max_marginal_residual": -np.inf, "marginal_point": (), "marginal_event": 0,
        "max_sum_deviation": -np.inf, "sum_point": (),
    }
    for block in ko.grid_points(n, resolution):
        for r in range(len(block)):
            values = k(block[r : r + 1], masks)
            point = tuple(float(v) for v in block[r])
            for x, v in enumerate(values):
                if v < out["min_value"]:
                    out.update(min_value=float(v), min_point=point, min_subset=x)
            for e in range(n):
                residual = abs(values[(masks >> e) & 1 == 1].sum() - block[r, e])
                if residual > out["max_marginal_residual"]:
                    out.update(max_marginal_residual=float(residual),
                               marginal_point=point, marginal_event=e)
            dev = abs(values.sum() - 1.0)
            if dev > out["max_sum_deviation"]:
                out.update(max_sum_deviation=float(dev), sum_point=point)
    out["ok"] = (
        out["min_value"] >= -tol
        and out["max_marginal_residual"] <= tol
        and out["max_sum_deviation"] <= tol
    )
    return out


class TestReportAgainstPointScan:
    @pytest.mark.parametrize("resolution", range(5, 10))
    @pytest.mark.parametrize("family", PAIR_FAMILIES, ids=lambda f: f.name)
    def test_pair_families_every_field(self, family, resolution):
        report = ko.verify_one_function(family, resolution)
        ref = reference_report(family, resolution)
        assert {key: getattr(report, key) for key in ref} == ref

    @pytest.mark.parametrize("resolution", range(5, 10))
    @pytest.mark.parametrize("n", [3, 4])
    def test_independent_wider(self, n, resolution):
        fam = ko.independent_kopula(ko.EventSetContext(n))
        report = ko.verify_one_function(fam, resolution)
        ref = reference_report(fam, resolution)
        # the cell sums may associate differently: residual and deviation
        # agree to rounding, the rest exactly
        assert report.ok == ref["ok"]
        for key in ("min_value", "min_point", "min_subset"):
            assert getattr(report, key) == ref[key]
        assert abs(report.max_marginal_residual - ref["max_marginal_residual"]) <= 1e-15
        assert abs(report.max_sum_deviation - ref["max_sum_deviation"]) <= 1e-15

    @pytest.mark.parametrize("resolution", range(5, 10))
    def test_quarter_sum_tie_goes_to_the_first_corner(self, resolution):
        # the residual 1/4 is tied at every corner and for both events
        report = ko.verify_one_function(ko.quarter_sum_2(), resolution)
        assert report.max_marginal_residual == 0.25
        assert report.marginal_point == (0.0, 0.0)
        assert report.marginal_event == 0


def passes(name, n, points, resolution):
    return (
        f"family {name!r} ({n} events) passes the 1-function checks on {points} grid points "
        f"(resolution {resolution}, tol 1e-08)\n"
    )


RECORDED_REPORTS = [
    (ko.frechet_upper_2(PAIR), 401, passes("frechet_upper", 2, 160801, 401)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0)\n"
     "  max marginal residual 1.110223e-16 for event 1 at point (0.06, 0.5025000000000001)\n"
     "  max sum deviation 2.220446e-16 at point (0.0375, 0.28750000000000003)"),
    (classical("clayton", 2.5), 401, passes("clayton", 2, 160801, 401)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0)\n"
     "  max marginal residual 1.110223e-16 for event 1 at point (0.0025, 0.51)\n"
     "  max sum deviation 2.220446e-16 at point (0.0025, 0.0025)"),
    (classical("frank", -4.0), 401, passes("frank", 2, 160801, 401)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0)\n"
     "  max marginal residual 1.110223e-16 for event 1 at point (0.0025, 0.505)\n"
     "  max sum deviation 2.220446e-16 at point (0.0025, 0.0025)"),
    (classical("gumbel", 3.0), 401, passes("gumbel", 2, 160801, 401)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0)\n"
     "  max marginal residual 1.110223e-16 for event 1 at point (0.0025, 0.51)\n"
     "  max sum deviation 2.220446e-16 at point (0.0025, 0.0075)"),
    (PAIR_FAMILIES[-1], 401,
     passes("convex(0.2*frechet_upper, 0.5*frechet_lower, 0.3*independent)", 2, 160801, 401)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0)\n"
     "  max marginal residual 2.220446e-16 for event 1 at point (0.0175, 1.0)\n"
     "  max sum deviation 3.330669e-16 at point (0.0775, 0.05)"),
    (ko.independent_kopula(ko.EventSetContext(3)), 31, passes("independent", 3, 29791, 31)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0, 0.0)\n"
     "  max marginal residual 3.330669e-16 for event 2 at point "
     "(0.26666666666666666, 0.26666666666666666, 0.9666666666666667)\n"
     "  max sum deviation 4.440892e-16 at point "
     "(0.03333333333333333, 0.13333333333333333, 0.13333333333333333)"),
    (ko.independent_kopula(ko.EventSetContext(4)), 13, passes("independent", 4, 28561, 13)
     + "  min value 0.000000e+00 at subset index 1, point (0.0, 0.0, 0.0, 0.0)\n"
     "  max marginal residual 4.440892e-16 for event 2 at point "
     "(0.16666666666666666, 0.16666666666666666, 0.9166666666666666, 0.16666666666666666)\n"
     "  max sum deviation 6.661338e-16 at point "
     "(0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.25)"),
]


@pytest.mark.parametrize(
    "family, resolution, text", RECORDED_REPORTS,
    ids=[f"{f.name}-{f.context.n_events}" for f, _, _ in RECORDED_REPORTS],
)
def test_report_text_is_the_recorded_one(family, resolution, text):
    """The report text, pinned: evaluating in place must not move it by a digit."""
    assert ko.verify_one_function(family, resolution).describe() == text


@pytest.mark.parametrize(
    "family, resolution, bound",
    [
        # traced 3.70 MiB with out-of-place lift and checks, 3.14 MiB in place,
        # 2.88 MiB with grid blocks built from runs (no index or digit arrays)
        (classical("clayton", 2.5), 401, 3.2),
        # traced 2.08 MiB with out-of-place products and checks, 1.44 MiB in place
        (ko.independent_kopula(ko.EventSetContext(4)), 13, 1.75),
    ],
    ids=["clayton-401", "independent4-13"],
)
def test_verify_one_function_evaluates_in_place(family, resolution, bound):
    _, peak = traced_peak(lambda: ko.verify_one_function(family, resolution))
    peak /= 2**20
    assert peak < bound, f"peak {peak:.2f} MiB"


def test_independent_table_memory_stays_near_one_table():
    n = 18
    ctx = ko.EventSetContext(n)
    probs = np.linspace(0.05, 0.95, n)
    point = ko.MarginalSet.from_values(ctx, probs)
    fam = ko.independent_kopula(ctx)
    d, peak = traced_peak(lambda: ko.epd_from_kopula(fam, point))
    assert peak < 6 * (1 << n) * 8, f"peak {peak / 2**20:.1f} MB"
    assert same_bits(d.values, product_table(probs))


def off_by(offset, name):
    """Independence moved by ``offset`` in the no-event cell, every exact zero made -0.0."""
    indep = ko.independent_kopula(PAIR)

    def base(w, masks):
        out = indep(w, masks) - np.where(masks == 0, offset, 0.0)
        return np.where(out == 0.0, -0.0, out)

    return ko.KopulaFamily(PAIR, base, name)


KEPT = (-1e-12, 0.5, 0.2, 0.3 + 1e-12)


class TestOneCleanup:
    """The family route finishes through ``core._finish_epd1``, as the others do."""

    def test_dust_is_one_warning_and_positive_zeros(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = table(off_by(1e-12, "dusty"), 1.0, 0.3)
        assert [str(w.message) for w in caught] == [
            "family 'dusty' at point (1.0, 0.3): clamped 1 slightly negative cell(s) to 0"
        ]
        # the 1e-12 the clamp adds comes back out of the positive cells in proportion
        assert values.tolist() == pytest.approx([0.0, 0.7, 0.0, 0.3], rel=1.5e-12, abs=0.0)
        assert abs(values.sum() - (1.0 - 1e-12)) <= finish_bound(2)
        assert not np.signbit(values).any()

    def test_a_total_off_one_raises_on_both_routes(self):
        text = (r"^family 'heavy' at point \(0\.5, 0\.5\): "
                r"total mass 1\.00000000\d* deviates from 1 by \+2\.000e-09$")
        fam = off_by(-2e-9, "heavy")
        with pytest.raises(ko.InfeasibleParameterError, match=text):
            table(fam, 0.5, 0.5)
        rows, failures = ko.epd_rows_from_kopula(fam, np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.isnan(rows).all() and [r for r, _ in failures] == [0, 1]
        assert re.match(text, str(failures[0][1]))

    def test_a_table_of_dust_alone_fails_its_total(self):
        fam = ko.KopulaFamily(PAIR, lambda w, masks: np.where(masks == 0, -1e-12, 0.0), "dust")
        with pytest.warns(RuntimeWarning, match="clamped 1 slightly negative"), pytest.raises(
            ko.InfeasibleParameterError,
            match=r"^family 'dust' at point \(0\.5, 0\.5\): total mass 0\.0 deviates from 1 by "
            r"-1\.000e\+00$",
        ):
            table(fam, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_non_finite_row_is_listed_and_the_others_kept(self, bad):
        indep = ko.independent_kopula(PAIR)

        def base(w, masks):  # ``bad`` in cell {y} wherever w_x is 0.7
            out = indep(w, masks)
            return np.where((w[..., 0] == 0.7) & (masks == 2), bad, out)

        fam = ko.KopulaFamily(PAIR, base, "holed")
        text = (rf"^family 'holed' at point \(0\.7, 0\.4\): the inputs drive the cell \{{x1\}} "
                rf"\(index 2\) to {bad} and the total to {bad}; values must be finite$")
        with pytest.raises(ko.InfeasibleParameterError, match=text):
            table(fam, 0.7, 0.4)
        rows, failures = ko.epd_rows_from_kopula(fam, np.array([[0.3, 0.4], [0.7, 0.4]]))
        assert same_bits(rows[0], table(indep, 0.3, 0.4)) and np.isnan(rows[1]).all()
        assert [r for r, _ in failures] == [1] and re.match(text, str(failures[0][1]))

    def test_a_cell_below_the_band_names_family_point_and_cell(self):
        with pytest.raises(
            ko.InfeasibleParameterError,
            match=r"^family 'sunk' at point \(1\.0, 0\.3\): the inputs drive the cell \{\} "
            r"\(index 0\) to -1\.000000e-06",
        ):
            table(off_by(1e-6, "sunk"), 1.0, 0.3)

    @pytest.mark.parametrize("writeable", [False, True], ids=["read-only", "kept"])
    def test_the_array_a_family_returns_is_not_written_into(self, writeable):
        kept = np.array(KEPT)
        kept.setflags(write=writeable)

        def base(w, masks):
            return kept.reshape(np.broadcast_shapes(masks.shape, w.shape[:-1]))

        fam = ko.KopulaFamily(PAIR, base, "keeper")
        with pytest.warns(RuntimeWarning, match="clamped 1 slightly negative"):
            d = ko.epd_from_kopula(fam, pair_marginals(0.5, 0.5))
            rows, failures = ko.epd_rows_from_kopula(fam, np.array([[0.5, 0.5]]))
        clamped = [0.0, *KEPT[1:]]  # each cell then gives back at most 1e-12 of itself
        assert d.values.tolist() == pytest.approx(clamped, rel=1.5e-12, abs=0.0)
        assert abs(d.values.sum() - np.sum(KEPT)) <= finish_bound(2)
        assert failures == [] and same_bits(rows[0], d.values)
        assert same_bits(kept, np.array(KEPT))

    @pytest.mark.parametrize(
        "fam",
        [off_by(1e-12, "dusty"), off_by(0.0, "signed"), ko.frechet_upper_2(PAIR)],
        ids=lambda f: f.name,
    )
    def test_grid_rows_are_the_pointwise_tables_bit_for_bit(self, fam):
        (w,) = ko.grid_points(2, 11)
        rows, failures = ko.epd_rows_from_kopula(fam, w)
        assert failures == []
        want = np.array([ko.epd_from_kopula(fam, pair_marginals(*p)).values for p in w])
        assert same_bits(rows, want)
        assert not np.signbit(rows).any()

    def test_frank_zero_cell_is_positive_zero(self):
        fam = ko.parametric_2kopula(ko.classical_pair_param("frank", 4.0).fn, name="frank")
        assert np.signbit(fam(np.array([0.0, 0.3]), np.arange(4))[3])  # the evaluator's -0.0
        values = table(fam, 0.0, 0.3)
        assert values[3] == 0.0 and not np.signbit(values).any()
