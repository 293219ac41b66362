"""Closed-form distribution families and the one-function verifier."""

import numpy as np
import pytest

import kopula as ko

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
