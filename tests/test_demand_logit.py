"""Logit demand: shares, solver optimality, surplus vs Gumbel
simulation, fitting round trips, bundle aggregation identities."""

import numpy as np
import pytest

from tierpricing.demand_logit import (
    EULER_GAMMA,
    _gradient_ascent,
    _profit_gradient,
    fit_logit,
    logit_bundle_cost,
    logit_bundle_valuation,
    logit_consumer_surplus,
    logit_demand,
    logit_fit_gamma,
    logit_fit_valuations,
    logit_potential_profit,
    logit_profit,
    logit_shares,
    logit_solve_prices,
)
from tierpricing.domain import (
    DomainError,
    EmptyBundle,
    NoConvergence,
    NonPositiveGamma,
    OverflowGuard,
)


def random_instance(rng, n, alpha_range=(0.5, 3.0)):
    v = rng.uniform(1.0, 10.0, size=n)
    c = rng.uniform(0.2, 6.0, size=n)
    alpha = rng.uniform(*alpha_range)
    return v, c, alpha


class TestShares:
    def test_single_flow_split_at_valuation(self):
        s, s0 = logit_shares([5.0], [5.0], 1.3)
        assert s[0] == pytest.approx(0.5)
        assert s0 == pytest.approx(0.5)

    def test_symmetric_flows(self):
        n = 7
        s, s0 = logit_shares(np.full(n, 3.0), np.full(n, 3.0), 2.0)
        np.testing.assert_allclose(s, 1 / (n + 1), rtol=1e-14)
        assert s0 == pytest.approx(1 / (n + 1))

    def test_expensive_flow_share_vanishes(self):
        s, _ = logit_shares([4.0, 4.0], [4.0, 400.0], 1.0)
        assert s[1] < 1e-100
        assert s[0] > 0.49

    def test_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v, c, alpha = random_instance(rng, int(rng.integers(1, 40)))
            p = c * rng.uniform(1.0, 3.0, size=len(c))
            s, s0 = logit_shares(v, p, alpha)
            assert abs(s.sum() + s0 - 1.0) < 1e-12

    def test_stabilization_matches_naive_in_safe_range(self):
        rng = np.random.default_rng(3)
        v, c, alpha = random_instance(rng, 12)
        p = c + 0.5
        s, s0 = logit_shares(v, p, alpha)
        e = np.exp(alpha * (v - p))
        naive = e / (e.sum() + 1.0)
        np.testing.assert_allclose(s, naive, atol=1e-12)
        assert s0 == pytest.approx(1.0 / (e.sum() + 1.0), abs=1e-12)

    def test_large_exponents_still_normalized(self):
        # alpha*(v-p) around 600: naive exp overflows, shares must not
        s, s0 = logit_shares([600.0, 599.0], [0.0, 0.0], 1.0)
        assert abs(s.sum() + s0 - 1.0) < 1e-12
        assert s[0] > s[1]

    def test_overflow_guard_raised(self):
        with pytest.raises(OverflowGuard):
            logit_shares([800.0], [0.0], 1.0)

    def test_demand_scales_with_consumer_mass(self):
        q1 = logit_demand([2.0, 1.0], [1.5, 1.5], 1.0, 100.0)
        q2 = logit_demand([2.0, 1.0], [1.5, 1.5], 1.0, 200.0)
        np.testing.assert_allclose(q2, 2 * q1, rtol=1e-15)


class TestProfit:
    def test_zero_margin(self):
        c = np.array([1.0, 2.0])
        assert logit_profit([3.0, 4.0], c, c, 1.1, 50.0) == 0.0

    def test_linear_in_consumer_mass(self):
        v = [3.0, 4.0]
        p = [2.0, 2.5]
        c = [1.0, 1.5]
        assert logit_profit(v, p, c, 1.1, 20.0) == pytest.approx(
            2 * logit_profit(v, p, c, 1.1, 10.0), rel=1e-15
        )

    def test_bundle_collapse_preserves_profit(self):
        # two flows at one shared price == single flow with aggregate (v, c)
        rng = np.random.default_rng(4)
        v, c, alpha = random_instance(rng, 2)
        p = float(np.max(c)) + 1.0
        collapsed_v = logit_bundle_valuation(v, alpha)
        collapsed_c = logit_bundle_cost(c, v, alpha)
        whole = logit_profit(v, [p, p], c, alpha, 7.0)
        single = logit_profit([collapsed_v], [p], [collapsed_c], alpha, 7.0)
        assert single == pytest.approx(whole, rel=1e-12)


class TestSolver:
    def test_fixed_point_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            v, c, alpha = random_instance(rng, int(rng.integers(2, 30)))
            p = logit_solve_prices(v, c, alpha, tol=1e-10)
            _, s0 = logit_shares(v, p, alpha)
            np.testing.assert_allclose(p, c + 1.0 / (alpha * s0), atol=1e-9)

    def test_common_markup(self):
        rng = np.random.default_rng(6)
        v, c, alpha = random_instance(rng, 8)
        p = logit_solve_prices(v, c, alpha)
        markups = p - c
        np.testing.assert_allclose(markups, markups[0], rtol=1e-9)

    def test_symmetric_instance_symmetric_prices(self):
        p = logit_solve_prices([4.0, 4.0, 4.0], [1.5, 1.5, 1.5], 1.2)
        np.testing.assert_allclose(p, p[0], rtol=1e-12)

    def test_unattractive_market_limit(self):
        # v -> -inf pushes s0 -> 1 and markup -> 1/alpha
        alpha = 2.0
        p = logit_solve_prices([-400.0, -380.0], [1.0, 2.0], alpha)
        np.testing.assert_allclose(p, [1.0 + 1 / alpha, 2.0 + 1 / alpha], rtol=1e-9)

    def test_profit_gradient_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            v, c, alpha = random_instance(rng, 10)
            k = 40.0
            p = logit_solve_prices(v, c, alpha, tol=1e-10)
            scale = abs(logit_profit(v, p, c, alpha, k))
            h = 1e-5
            for i in range(len(p)):
                up, down = p.copy(), p.copy()
                up[i] += h
                down[i] -= h
                grad = (logit_profit(v, up, c, alpha, k)
                        - logit_profit(v, down, c, alpha, k)) / (2 * h)
                assert abs(grad) < 1e-5 * scale

    def test_local_optimality_against_perturbations(self):
        rng = np.random.default_rng(8)
        v, c, alpha = random_instance(rng, 10)
        p = logit_solve_prices(v, c, alpha)
        best = logit_profit(v, p, c, alpha, 1.0)
        for _ in range(1000):
            trial = p + rng.uniform(-0.5, 0.5, size=len(p))
            if np.all(trial > 0):
                assert logit_profit(v, trial, c, alpha, 1.0) <= best + 1e-12

    def test_optimal_profit_identity(self):
        # at the optimum all margins equal 1/(alpha*s0), which collapses
        # total profit to K * (markup - 1/alpha) exactly
        rng = np.random.default_rng(30)
        for _ in range(5):
            v, c, alpha = random_instance(rng, int(rng.integers(2, 20)))
            k = float(rng.uniform(1.0, 50.0))
            p = logit_solve_prices(v, c, alpha, tol=1e-12)
            markup = float((p - c)[0])
            assert logit_profit(v, p, c, alpha, k) == pytest.approx(
                k * (markup - 1.0 / alpha), rel=1e-9
            )

    def test_small_outside_share_converges(self):
        # terminal s0 well below the undamped stability threshold, so
        # the solver must shrink its damping to converge
        v = np.array([10.0, 10.0, 10.0])
        c = np.array([1.0, 1.0, 1.0])
        alpha = 2.0
        p = logit_solve_prices(v, c, alpha, tol=1e-10)
        _, s0 = logit_shares(v, p, alpha)
        assert s0 < 0.1
        np.testing.assert_allclose(p, c + 1.0 / (alpha * s0), atol=1e-9)

    def test_no_convergence_raises_with_residual(self):
        with pytest.raises(NoConvergence) as err:
            logit_solve_prices([5.0, 6.0], [1.0, 2.0], 1.5, tol=1e-14, max_iter=3)
        assert err.value.residual is not None

    def test_gradient_fallback_reaches_optimal_profit(self):
        # the ascent optimizes profit, which is flat near the optimum;
        # assert profit optimality rather than argument-space residual
        rng = np.random.default_rng(9)
        v, c, alpha = random_instance(rng, 6)
        optimal = logit_profit(v, logit_solve_prices(v, c, alpha, tol=1e-12),
                               c, alpha, 1.0)
        p = _gradient_ascent(c + 3.0, v, c, alpha, 1e-9, 50_000)
        assert logit_profit(v, p, c, alpha, 1.0) == pytest.approx(optimal, rel=1e-10)
        _, s0 = logit_shares(v, p, alpha)
        np.testing.assert_allclose(p, c + 1.0 / (alpha * s0), atol=1e-3)

    def test_analytic_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        v, c, alpha = random_instance(rng, 5)
        p = c + rng.uniform(0.5, 2.0, size=5)
        grad = _profit_gradient(p, v, c, alpha)
        h = 1e-6
        for i in range(5):
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd = (logit_profit(v, up, c, alpha, 1.0)
                  - logit_profit(v, down, c, alpha, 1.0)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestConsumerSurplus:
    def test_single_flow_worked_value(self):
        got = logit_consumer_surplus([2.0], [2.0], 1.0, 1.0)
        assert got == pytest.approx(EULER_GAMMA + np.log(2.0), rel=1e-12)

    def test_empty_market(self):
        assert logit_consumer_surplus([], [], 2.0, 10.0) == pytest.approx(
            10.0 * EULER_GAMMA / 2.0
        )

    def test_matches_gumbel_simulation(self):
        rng = np.random.default_rng(12)
        draws = 1_000_000
        for _ in range(3):
            v, c, alpha = random_instance(rng, 6)
            p = c + rng.uniform(0.2, 1.5, size=6)
            k = 11.0
            closed = logit_consumer_surplus(v, p, alpha, k)
            utilities = alpha * (v - p) + rng.gumbel(size=(draws, 6))
            outside = rng.gumbel(size=draws)
            sim = k * np.mean(np.maximum(utilities.max(axis=1), outside)) / alpha
            assert closed == pytest.approx(sim, rel=0.01)


class TestFitting:
    def test_share_round_trip(self):
        rng = np.random.default_rng(14)
        q = rng.lognormal(1.0, 1.4, size=60)
        p0, alpha, s0 = 20.0, 1.1, 0.2
        v = logit_fit_valuations(q, p0, alpha, s0)
        s, s0_got = logit_shares(v, np.full(60, p0), alpha)
        np.testing.assert_allclose(s, q * (1 - s0) / q.sum(), atol=1e-9)
        assert s0_got == pytest.approx(s0, abs=1e-9)

    def test_flow_at_outside_share_valued_at_p0(self):
        # a flow whose fitted share equals s0 has valuation exactly p0
        s0 = 0.25
        shares = np.array([0.3, 0.25, 0.2])  # second equals s0; sum = 1 - s0
        q = shares / (1 - s0)  # any common scale works
        v = logit_fit_valuations(q, 20.0, 1.7, s0)
        assert v[1] == pytest.approx(20.0, rel=1e-12)

    def test_demand_ratio_to_valuation_gap(self):
        alpha, s0 = 1.3, 0.2
        q = np.array([np.exp(alpha), 1.0])
        v = logit_fit_valuations(q, 20.0, alpha, s0)
        assert v[0] - v[1] == pytest.approx(1.0, rel=1e-12)

    def test_gamma_zeroes_uniform_price_gradient(self):
        rng = np.random.default_rng(15)
        for n in (1, 50):
            q = rng.lognormal(1.0, 1.2, size=n)
            f_d = rng.uniform(0.5, 20.0, size=n)
            p0, alpha, s0 = 20.0, 1.1, 0.2
            v = logit_fit_valuations(q, p0, alpha, s0)
            gamma = logit_fit_gamma(v, f_d, p0, alpha)
            c = gamma * f_d
            h = p0 * 1e-6
            up = logit_profit(v, np.full(n, p0 + h), c, alpha, 1.0)
            down = logit_profit(v, np.full(n, p0 - h), c, alpha, 1.0)
            scale = abs(logit_profit(v, np.full(n, p0), c, alpha, 1.0)) / p0
            assert abs(up - down) / (2 * h) <= 1e-5 * scale

    def test_gamma_permutation_invariant_under_uniform_costs(self):
        rng = np.random.default_rng(16)
        q = rng.lognormal(1.0, 1.0, size=12)
        v = logit_fit_valuations(q, 20.0, 1.1, 0.2)
        f_d = np.full(12, 3.0)
        g1 = logit_fit_gamma(v, f_d, 20.0, 1.1)
        g2 = logit_fit_gamma(rng.permutation(v), f_d, 20.0, 1.1)
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_nonpositive_gamma_surfaces(self):
        # markup 1/(alpha*s0) above p0 cannot be rationalized
        q = np.array([5.0, 3.0])
        v = logit_fit_valuations(q, 1.0, 1.0, 0.2)
        with pytest.raises(NonPositiveGamma):
            logit_fit_gamma(v, np.array([1.0, 2.0]), 1.0, 1.0)

    def test_fit_consumer_mass_reproduces_demand(self):
        rng = np.random.default_rng(17)
        q = rng.lognormal(0.5, 1.0, size=30)
        d = rng.uniform(1, 100, size=30)
        fit = fit_logit([f"f{i}" for i in range(30)], q, d, d + 5.0, 20.0, 1.1, 0.2)
        demand = logit_demand(fit.v, np.full(30, 20.0), 1.1, fit.consumer_mass)
        np.testing.assert_allclose(demand, q, rtol=1e-9)


class TestBundleAggregates:
    def test_identical_flows_gain_log_n(self):
        alpha = 1.7
        v = np.full(5, 3.0)
        assert logit_bundle_valuation(v, alpha) == pytest.approx(
            3.0 + np.log(5) / alpha, rel=1e-12
        )

    def test_singleton_identity(self):
        assert logit_bundle_valuation([4.2], 1.3) == pytest.approx(4.2, rel=1e-15)
        assert logit_bundle_cost([2.5], [4.2], 1.3) == 2.5

    def test_total_purchase_share_preserved(self):
        rng = np.random.default_rng(18)
        v, c, alpha = random_instance(rng, 9)
        p0 = 4.0
        s, s0 = logit_shares(v, np.full(9, p0), alpha)
        v_all = logit_bundle_valuation(v, alpha)
        s_b, s0_b = logit_shares([v_all], [p0], alpha)
        assert s_b[0] == pytest.approx(s.sum(), rel=1e-12)
        assert s0_b == pytest.approx(s0, rel=1e-12)

    def test_equal_valuations_mean_cost(self):
        c = np.array([1.0, 5.0, 3.0])
        assert logit_bundle_cost(c, np.full(3, 2.0), 1.1) == pytest.approx(c.mean())

    def test_dominant_valuation_takes_cost(self):
        c = np.array([1.0, 9.0])
        v = np.array([50.0, 1.0])
        assert logit_bundle_cost(c, v, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_cost_within_bounds(self):
        rng = np.random.default_rng(19)
        v, c, alpha = random_instance(rng, 11)
        agg = logit_bundle_cost(c, v, alpha)
        assert c.min() <= agg <= c.max()

    def test_empty_rejected(self):
        with pytest.raises(EmptyBundle):
            logit_bundle_valuation([], 1.0)
        with pytest.raises(EmptyBundle):
            logit_bundle_cost([], [], 1.0)

    def test_bundle_of_everything_price_matches_shared_price_solve(self):
        # solving the aggregate == constraining the original to one price
        rng = np.random.default_rng(20)
        v, c, alpha = random_instance(rng, 7)
        v_all = logit_bundle_valuation(v, alpha)
        c_all = logit_bundle_cost(c, v, alpha)
        p_bundle = logit_solve_prices([v_all], [c_all], alpha, tol=1e-12)[0]
        # shared-price profit of the original system, maximized numerically
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda p: -logit_profit(v, np.full(7, p), c, alpha, 1.0),
            bounds=(float(np.min(c)), float(np.max(c)) + 50.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert p_bundle == pytest.approx(res.x, abs=1e-6)


class TestPotentialProfit:
    def test_proportional_to_demand(self):
        w = logit_potential_profit(np.array([3.0, 6.0]), 1.1, 0.2, 100.0)
        assert w[1] / w[0] == pytest.approx(2.0, rel=1e-15)

    def test_scaling_demand_keeps_bundling(self):
        from tierpricing.bundling import token_bucket_bundles

        rng = np.random.default_rng(21)
        q = rng.lognormal(1.0, 1.0, size=20)
        ids = [f"f{i}" for i in range(20)]
        w1 = logit_potential_profit(q, 1.1, 0.2, 50.0)
        w2 = logit_potential_profit(q * 37.0, 1.1, 0.2, 50.0)
        b1 = token_bucket_bundles(w1, ids, 4)
        b2 = token_bucket_bundles(w2, ids, 4)
        assert np.array_equal(b1.labels, b2.labels)

    def test_profit_weighting_equals_demand_weighting(self):
        from tierpricing.bundling import token_bucket_bundles

        rng = np.random.default_rng(22)
        for _ in range(5):
            q = rng.lognormal(1.0, 1.3, size=15)
            ids = [f"f{i}" for i in range(15)]
            w = logit_potential_profit(q, 1.4, 0.3, 10.0)
            assert np.array_equal(token_bucket_bundles(w, ids, 3).labels,
                                  token_bucket_bundles(q, ids, 3).labels)

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(DomainError):
            logit_potential_profit(np.array([0.0]), 1.1, 0.2, 1.0)
