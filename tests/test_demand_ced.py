"""Constant-elasticity demand: worked values, closed forms (the package's
and the per-flow oracles of ``demand_oracles``) vs numeric oracles, and
fit self-consistency."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from demand_oracles import (
    ced_bundle_price,
    ced_consumer_surplus,
    ced_demand,
    ced_optimal_price,
    ced_potential_profit,
    ced_profit,
)
from tierpricing.bundling import ModelContext
from tierpricing.demand_ced import ced_bundle, ced_fit_gamma, ced_fit_valuations
from tierpricing.domain import DomainError, NumericalFailure


def numeric_best_price(profit_of_price, lo, hi, rel_tol=1e-12):
    """Independent 1-D maximizer (bounded Brent via scipy)."""
    res = minimize_scalar(lambda p: -profit_of_price(p), bounds=(lo, hi),
                          method="bounded", options={"xatol": rel_tol * hi})
    return res.x


class TestDemand:
    def test_unit_point(self):
        assert ced_demand(1.0, 1.0, 3.3) == 1.0

    def test_direct_evaluation(self):
        assert ced_demand(2.0, 1.0, 2.0) == 4.0

    def test_symmetric_pair_setup(self):
        # two flows with v=1, alpha=2 at price 2 each demand 0.25
        assert ced_demand(1.0, 2.0, 2.0) == 0.25

    def test_rejects_nonpositive_price(self):
        with pytest.raises(DomainError):
            ced_demand(1.0, 0.0, 2.0)


class TestProfit:
    def test_single_flow_worked_value(self):
        assert ced_profit([1.0], [2.0], [1.0], 2.0) == pytest.approx(0.25)

    def test_zero_margin_contributes_nothing(self):
        assert ced_profit([1.3], [0.7], [0.7], 1.5) == 0.0

    def test_separability_doubles(self):
        one = ced_profit([1.2], [2.5], [0.9], 1.7)
        two = ced_profit([1.2, 1.2], [2.5, 2.5], [0.9, 0.9], 1.7)
        assert two == pytest.approx(2 * one, rel=1e-15)


class TestOptimalPrice:
    def test_worked_value(self):
        assert ced_optimal_price(1.0, 2.0) == 2.0

    def test_elastic_limit_approaches_cost(self):
        assert ced_optimal_price(1.0, 1e6) == pytest.approx(1.0 + 1e-6, rel=1e-9)

    def test_matches_numeric_maximizer(self):
        # includes the (c=3, alpha=1.1) -> 33 point
        cases = [(3.0, 1.1), (1.0, 2.0), (0.4, 5.0), (7.0, 1.3)]
        for c, alpha in cases:
            closed = float(ced_optimal_price(c, alpha))
            oracle = numeric_best_price(
                lambda p: ced_profit([1.0], [p], [c], alpha), c * 1.0001, closed * 10
            )
            assert closed == pytest.approx(oracle, rel=1e-6)
        assert float(ced_optimal_price(3.0, 1.1)) == pytest.approx(33.0, rel=1e-12)

    def test_random_cases_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            v = rng.uniform(0.5, 30.0)
            c = rng.uniform(0.1, 20.0)
            alpha = rng.uniform(1.05, 9.0)
            closed = float(ced_optimal_price(c, alpha))
            oracle = numeric_best_price(
                lambda p: ced_profit([v], [p], [c], alpha), c * 1.0001, closed * 20
            )
            assert closed == pytest.approx(oracle, rel=1e-6)


class TestBundlePrice:
    def test_singleton_reduces_to_flow_optimum(self):
        assert ced_bundle_price([1.7], [0.8], 2.3) == pytest.approx(
            float(ced_optimal_price(0.8, 2.3)), rel=1e-15
        )

    def test_equal_valuations_price_mean_cost(self):
        # alpha * mean(c) / (alpha-1) = 2 * 2 / 1 = 4
        assert ced_bundle_price([1.0, 1.0], [1.0, 3.0], 2.0) == pytest.approx(4.0)

    def test_random_bundle_against_1d_search(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.uniform(0.5, 5.0, size=5)
            c = rng.uniform(0.2, 4.0, size=5)
            alpha = 1.5
            closed = ced_bundle_price(v, c, alpha)
            oracle = numeric_best_price(
                lambda p: ced_profit(v, np.full(5, p), c, alpha),
                c.min() * 1.0001, closed * 20,
            )
            assert closed == pytest.approx(oracle, rel=1e-6)

    def test_empty_bundle_rejected(self):
        with pytest.raises(DomainError):
            ced_bundle_price([], [], 2.0)


class TestConsumerSurplus:
    def test_worked_value_against_quadrature(self):
        # utility integral minus payment for v=1, alpha=2, p=2
        v, alpha, p = 1.0, 2.0, 2.0
        q = float(ced_demand(v, p, alpha))
        utility, _ = quad(lambda x: v * x ** (-1 / alpha), 0.0, q)
        assert utility - p * q == pytest.approx(0.5, rel=1e-9)
        assert ced_consumer_surplus([v], [p], alpha) == pytest.approx(0.5, rel=1e-12)

    def test_random_cases_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(0.5, 10.0)
            alpha = rng.uniform(1.1, 6.0)
            p = rng.uniform(0.2, 30.0)
            q = float(ced_demand(v, p, alpha))
            utility, _ = quad(lambda x: v * x ** (-1 / alpha), 0.0, q)
            assert ced_consumer_surplus([v], [p], alpha) == pytest.approx(
                utility - p * q, rel=1e-7
            )

    def test_vanishes_at_high_price(self):
        assert ced_consumer_surplus([1.0], [1e12], 2.0) < 1e-10

    def test_homogeneous_in_valuation(self):
        base = ced_consumer_surplus([1.0], [2.0], 2.0)
        assert ced_consumer_surplus([2.0], [2.0], 2.0) == pytest.approx(4 * base)

    def test_positive_for_finite_prices(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.1, 10, 30)
        p = rng.uniform(0.1, 50, 30)
        assert ced_consumer_surplus(v, p, 1.4) > 0

    def test_unit_price_variant(self):
        v, p, alpha = np.array([2.0]), np.array([3.0]), 2.5
        default = ced_consumer_surplus(v, p, alpha)
        variant = ced_consumer_surplus(v, p, alpha, unit_price_offset=True)
        expected = alpha * v[0] ** alpha * p[0] ** (1 - alpha) / (alpha - 1) - p[0]
        assert variant == pytest.approx(float(expected), rel=1e-12)
        assert variant != default

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            ced_consumer_surplus([1.0], [1.0], 1.0)


class TestFitting:
    def test_valuation_worked_values(self):
        assert ced_fit_valuations([4.0], 2.0, 2.0)[0] == pytest.approx(4.0)
        assert ced_fit_valuations([1.0], 17.3, 4.2)[0] == pytest.approx(17.3)

    @pytest.mark.parametrize("p0, alpha, message", [
        (20.0, 1.0, "CED requires alpha > 1, got 1.0"),
        (20.0, float("nan"), "alpha must be finite, got nan"),
        (0.0, 2.0, "p0 must be positive, got 0.0"),
        (float("inf"), 2.0, "p0 must be finite, got inf"),
    ])
    def test_valuations_refuse_outside_the_domain(self, p0, alpha, message):
        with pytest.raises(DomainError) as info:
            ced_fit_valuations([1.0, 2.0], p0, alpha)
        assert str(info.value) == message

    def test_demand_inversion_identity(self):
        rng = np.random.default_rng(1)
        q = rng.lognormal(2.0, 1.5, size=100)
        p0, alpha = 20.0, 1.7
        v = ced_fit_valuations(q, p0, alpha)
        np.testing.assert_allclose(ced_demand(v, p0, alpha), q, rtol=1e-12)

    def test_gamma_single_flow_self_consistency(self):
        v = ced_fit_valuations([5.0], 2.0, 2.0)
        gamma = ced_fit_gamma(v, [1.0], 2.0, 2.0)
        assert gamma == pytest.approx(1.0)
        assert float(ced_optimal_price(gamma * 1.0, 2.0)) == pytest.approx(2.0)

    def test_gamma_uniform_relative_costs(self):
        v = ced_fit_valuations([3.0, 8.0, 1.0], 10.0, 3.0)
        k = 4.0
        gamma = ced_fit_gamma(v, [k, k, k], 10.0, 3.0)
        assert gamma == pytest.approx(10.0 * 2.0 / (3.0 * k))

    def test_gamma_zeroes_uniform_price_gradient(self):
        # central difference of total profit at p0 under uniform pricing
        rng = np.random.default_rng(8)
        q = rng.lognormal(1.0, 1.2, size=50)
        f_d = rng.uniform(0.5, 20.0, size=50)
        p0, alpha = 20.0, 1.6
        v = ced_fit_valuations(q, p0, alpha)
        gamma = ced_fit_gamma(v, f_d, p0, alpha)
        c = gamma * f_d
        h = p0 * 1e-6
        n = len(q)
        up = ced_profit(v, np.full(n, p0 + h), c, alpha)
        down = ced_profit(v, np.full(n, p0 - h), c, alpha)
        scale = abs(ced_profit(v, np.full(n, p0), c, alpha)) / p0
        assert abs(up - down) / (2 * h) <= 1e-5 * scale

    def test_fit_round_trip_bundle_price_is_p0(self):
        rng = np.random.default_rng(21)
        for alpha in (1.1, 2.0, 5.0):
            q = rng.lognormal(1.0, 1.5, size=80)
            f_d = rng.uniform(0.2, 30.0, size=80)
            p0 = 20.0
            fit = ModelContext.from_ced([f"f{i}" for i in range(80)], q, q * 0 + 1.0, f_d,
                                        p0, alpha)
            assert ced_bundle_price(fit.v, fit.c, alpha) == pytest.approx(p0, rel=1e-6)

    @pytest.mark.parametrize("q, alpha", [([1e308, 1e308, 5.0], 1.1), ([3.0, 7.0], 240.0)])
    def test_gamma_names_an_overflowing_power(self, q, alpha):
        # 20**alpha * q or its sum passes float64
        v = ced_fit_valuations(q, 20.0, alpha)
        with pytest.raises(NumericalFailure, match=rf"^v\*\*alpha overflows float64 "
                                                   rf"at alpha={alpha!r}$"):
            ced_fit_gamma(v, np.ones(len(q)), 20.0, alpha)


    def test_gamma_names_overflowing_relative_costs(self):
        # sum(v**alpha) is ordinary; f_d * v**alpha is not
        v = ced_fit_valuations([3.0, 7.0], 20.0, 1.1)
        with pytest.raises(NumericalFailure, match=r"^relative cost times v\*\*alpha overflows "
                                                   r"float64 \(largest relative cost 1e\+308\)$"):
            ced_fit_gamma(v, np.array([1e308, 5.0]), 20.0, 1.1)

    @pytest.mark.parametrize("p0, f_d, term", [
        (1e-300, [1.0, 2.0], r"p0\*\(alpha-1\)\*sum\(v\*\*alpha\)"),   # v**alpha is 0
        (1e-200, [1.0, 2.0], r"p0\*\(alpha-1\)\*sum\(v\*\*alpha\)"),   # the product is
        (1e-100, [1e-300, 1e-300], r"alpha\*sum\(relative cost times v\*\*alpha\)"),
    ], ids=["v-alpha", "product", "relative-costs"])
    def test_gamma_names_an_underflowing_sum(self, p0, f_d, term):
        # refused before the division, so 0/0 warns of nothing
        v = ced_fit_valuations([3.0, 7.0], p0, 1.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=rf"^{term} underflows float64 to 0 "
                                                       rf"at p0={p0!r}, alpha=1.1$"):
                ced_fit_gamma(v, np.array(f_d), p0, 1.1)

    def test_gamma_at_a_tiny_ordinary_p0_is_positive(self):
        v = ced_fit_valuations([3.0, 7.0], 1e-100, 1.1)
        assert ced_fit_gamma(v, np.array([1.0, 2.0]), 1e-100, 1.1) > 0

class TestBundle:
    def test_worked_values(self):
        # v = c = 1, alpha = 2: price 2 and profit 1/4, exactly
        price, profit = ced_bundle(np.array([1.0, 2.0]), np.array([1.0, 3.0]), 2.0)
        assert price.tolist() == [2.0, 3.0]
        assert profit.tolist() == [0.25, 2.0 / 3.0 / 2.0]

    def test_equals_per_flow_oracles(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            v = rng.uniform(0.5, 5.0, size=n)
            c = rng.uniform(0.2, 6.0, size=n)
            alpha = rng.uniform(1.05, 7.0)
            w = v ** alpha
            price, profit = ced_bundle(np.array([w.sum()]), np.array([(c * w).sum()]),
                                       alpha)
            assert price[0] == pytest.approx(ced_bundle_price(v, c, alpha), rel=1e-12)
            assert profit[0] == pytest.approx(
                ced_profit(v, np.full(n, price[0]), c, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha, v, p", [
        (200.0, [20.0, 25.0, 30.0], [40.0, 50.0, 45.0]),
        (400.0, [3.0, 4.0, 5.0], [6.5, 6.0, 7.0]),
    ])
    def test_profit_where_the_price_power_underflows(self, alpha, v, p):
        # p**(1-alpha) underflows float64 at these prices, while v**alpha
        # and the profit p*(v/p)**alpha*(1 - c/p) are within range
        v, p = np.array(v), np.array(p)
        c = p * (alpha - 1.0) / alpha
        with np.errstate(under="ignore"):
            assert np.all(p ** (1.0 - alpha) < np.finfo(float).tiny)
        w = v ** alpha
        price, profit = ced_bundle(w, c * w, alpha)
        np.testing.assert_allclose(price, p, rtol=1e-13)
        expected = [ced_profit([vi], [pi], [ci], alpha) for vi, pi, ci in zip(v, p, c)]
        assert min(expected) > 1e-200
        np.testing.assert_allclose(profit, expected, rtol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-300, 1e300) | st.sampled_from([np.nan, np.inf]),
                              st.floats(1e-6, 1e3)), min_size=1, max_size=20),
           st.floats(1.0001, 500.0))
    # a power past the largest float and one below the smallest normal
    # one, with a profit in range
    @example([(1e-300, 1e-6), (1.0, 1.0)], 100.0)
    @example([(1e300, 10.0), (1.0, 1.0)], 200.0)
    def test_bits_of_the_plain_expressions(self, sums, alpha):
        # ced_bundle works in place and builds the out-of-range mask only
        # when a power leaves the range (overflow, underflow or NaN); its
        # bits are those of the plain expressions with the mask always built
        W, mean_cost = (np.array(column) for column in zip(*sums))
        with np.errstate(all="ignore"):
            X = W * mean_cost
            price = alpha * X / ((alpha - 1.0) * W)
            power = price ** (1.0 - alpha)
            profit = W * power / alpha
            outside = ~((power >= np.finfo(float).tiny) & (power <= np.finfo(float).max))
            half = price[outside] ** ((1.0 - alpha) / 2.0)
            profit[outside] = W[outside] * half * half / alpha
            got = ced_bundle(W, X, alpha)
        for a, b in zip(got, (price, profit)):
            assert a.tobytes() == b.tobytes()


class TestPotentialProfit:
    def test_worked_values(self):
        assert float(ced_potential_profit(1.0, 1.0, 2.0)) == pytest.approx(0.25)
        assert float(ced_potential_profit(1.0, 2.0, 2.0)) == pytest.approx(0.125)

    def test_equals_profit_at_optimal_price(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = rng.uniform(0.2, 10.0)
            c = rng.uniform(0.1, 8.0)
            alpha = rng.uniform(1.05, 7.0)
            direct = ced_profit([v], [float(ced_optimal_price(c, alpha))], [c], alpha)
            assert float(ced_potential_profit(v, c, alpha)) == pytest.approx(
                direct, rel=1e-12
            )


class TestRefinement:
    def test_splitting_a_bundle_never_reduces_profit(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(2, 9)
            v = rng.uniform(0.5, 5.0, size=n)
            c = rng.uniform(0.2, 6.0, size=n)
            alpha = rng.uniform(1.1, 4.0)
            whole = ced_profit(v, np.full(n, ced_bundle_price(v, c, alpha)), c, alpha)
            cut = int(rng.integers(1, n))
            parts = 0.0
            for idx in (slice(0, cut), slice(cut, n)):
                price = ced_bundle_price(v[idx], c[idx], alpha)
                parts += ced_profit(v[idx], np.full(len(v[idx]), price), c[idx], alpha)
            assert parts >= whole - 1e-12 * abs(whole)
