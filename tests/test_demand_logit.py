"""Logit demand: shares, solver optimality, surplus vs Gumbel
simulation, fitting round trips, bundle aggregation identities."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw, logsumexp

from demand_oracles import (
    logit_bundle_aggregate,
    logit_consumer_surplus,
    logit_demand,
    logit_profit,
    logit_shares,
)
from tierpricing import demand_logit
from tierpricing.bundling import ModelContext
from tierpricing.demand_logit import (
    EULER_GAMMA,
    MAX_SAFE_EXPONENT,
    _guard_exponent,
    _markup_residual,
    _shifted_sum,
    logit_fit_gamma,
    logit_fit_valuations,
    logit_markup,
    logit_solve_prices,
    logit_value,
)
from tierpricing.domain import (
    Bundling,
    DomainError,
    NoConvergence,
    NumericalFailure,
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
        with pytest.raises(NumericalFailure, match=r"^max exponent alpha\*\(v-p\) = 800 "
                                                   r"exceeds safe range$"):
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
        collapsed_v, collapsed_c = logit_bundle_aggregate(v, c, alpha)
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
        # the loop runs out of budget, and the exact prices miss this tol
        # by their rounding residue
        with pytest.raises(NoConvergence) as err:
            logit_solve_prices([5.0, 6.0], [1.0, 2.0], 1.5, tol=1e-300, max_iter=3)
        assert 1e-300 <= err.value.residual < 1e-12


# The solver's fixed point as first written: the whole price vector
# iterates, each step through logit_shares and the full share vector.
# logit_solve_prices iterates the common markup alone and must land on
# the same prices up to rounding.
def reference_markup_residual(p, v, c, alpha):
    _, s0 = logit_shares(v, p, alpha)
    target = c + 1.0 / (alpha * s0)
    return target, float(np.max(np.abs(p - target)))


def reference_fixed_point(v, c, alpha, tol=1e-8, max_iter=50_000):
    """The prices of the fixed-point loop, or None when it runs out of
    budget and the exact markup takes over."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    p = c + 1.0 / alpha
    lam = 0.5
    best_p, best_res = p, np.inf
    for _ in range(max_iter):
        target, residual = reference_markup_residual(p, v, c, alpha)
        if residual < tol:
            return p
        if residual < best_res:
            best_p, best_res = p, residual
        elif lam > 1e-4:
            lam *= 0.5
            p = best_p
            target, residual = reference_markup_residual(p, v, c, alpha)
        p = (1.0 - lam) * p + lam * target
    return None


def reference_exact_prices(v, c, alpha, tol=1e-8, max_iter=None):
    """c + logit_markup, or NoConvergence when even these miss tol: what
    the solver returns once the fixed point runs out of budget."""
    p = c + logit_markup(v, c, alpha)
    _, residual = reference_markup_residual(p, v, c, alpha)
    if not residual < tol:
        raise NoConvergence(
            f"exact prices miss tol {tol:.3g} (residual {residual:.3g})",
            residual=residual,
        )
    return p


def lambertw_markup(v, c, alpha):
    """(1 + W(S/e))/alpha with S = sum exp(alpha*(v - c)), from scipy."""
    s_over_e = np.exp(logsumexp(alpha * (np.asarray(v) - np.asarray(c))) - 1.0)
    return float((1.0 + lambertw(s_over_e).real) / alpha)


def foc_residual(p, v, c, alpha):
    """max|p - c - 1/(alpha*s0(p))| relative to max|p|."""
    _, s0 = logit_shares(v, p, alpha)
    return float(np.max(np.abs(p - c - 1.0 / (alpha * s0))) / np.max(np.abs(p)))


def outcome(solve, *args, **kwargs):
    """Prices, or the type, message and residual of the error raised."""
    try:
        return solve(*args, **kwargs)
    except NumericalFailure as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)


# Below this tol the residual of the returned prices is rounding, so the
# reference and the solver may land on either side of it.
ROUNDING_FLOOR_TOL = 1e-10


def assert_near_exact_markup(p, v, c, alpha, tol):
    """p meets tol in price space and lies within tol + 4 ulp of c plus
    the Lambert-W markup m_W: T(m) = 1/(alpha*s0(c + m)) falls in m, so
    |m - m_W| <= |m - T(m)|."""
    _, residual = reference_markup_residual(p, v, c, alpha)
    assert residual < tol
    gap = np.max(np.abs(p - c - lambertw_markup(v, c, alpha)))
    assert gap <= tol + 4 * np.spacing(np.max(np.abs(p)))


# Where the solver's loop and the reference loop both converge but stop
# on different steps, their prices differ by about one damped step,
# lam*tol. The largest such gap seen, relative to the largest price, was
# 2.3e-11: 35 of 62,035 converged random markets at tol 1e-8 stopped
# apart, each a slow descent (final lam 1/128 to 1/16) whose residual
# crossed tol within the rounding drift of the vector iterates from the
# scalar ones.
STOP_STEP_RTOL = 1e-10


def stop_apart(v, c, alpha, prices, tol, max_iter):
    """Whether the solver's loop returned ``prices`` and the reference
    loop stops on a different step. The solver's step count is the
    least budget that still returns ``prices``, and 0 where the exact
    markup priced the market."""
    lo, hi = 0, max_iter
    while lo < hi:
        mid = (lo + hi) // 2
        p = outcome(logit_solve_prices, v, c, alpha, tol=tol, max_iter=mid)
        if isinstance(p, np.ndarray) and np.array_equal(p, prices):
            hi = mid
        else:
            lo = mid + 1
    if lo == 0:
        return False
    return (reference_fixed_point(v, c, alpha, tol, lo) is None
            or reference_fixed_point(v, c, alpha, tol, lo - 1) is not None)


def assert_same_outcome(v, c, alpha, **kwargs):
    """The solver against the reference: the fixed point where it
    converges, the exact markup (checked against scipy's Lambert W)
    where it runs out of budget. Prices agree to 1e-12 relative, unless
    both loops converge and stop on different steps, as rounding moves
    the step on which a slow descent crosses tol: then they agree to
    STOP_STEP_RTOL of the largest price. An error has the same type and
    message. At a tol below the rounding floor, prices or NoConvergence
    are each accepted on their own terms. Every returned price vector
    passes assert_near_exact_markup. Returns the outcome and whether the
    reference ran out of budget."""
    v, c = np.asarray(v, dtype=float), np.asarray(c, dtype=float)
    tol = kwargs.get("tol", 1e-8)
    got = outcome(logit_solve_prices, v, c, alpha, **kwargs)
    want = outcome(reference_fixed_point, v, c, alpha, **kwargs)
    stalled = want is None
    if stalled:
        markup = lambertw_markup(v, c, alpha)
        assert logit_markup(v, c, alpha) == pytest.approx(markup, rel=1e-13, abs=0)
        want = outcome(reference_exact_prices, v, c, alpha, **kwargs)
        if isinstance(want, np.ndarray):
            assert foc_residual(want, v, c, alpha) <= 1e-12
    if isinstance(got, np.ndarray):
        assert_near_exact_markup(got, v, c, alpha, tol)
    elif got[0] is NoConvergence:
        markup = lambertw_markup(v, c, alpha)
        assert tol <= got[2] <= 1e-12 * np.max(c + markup)
    errors = {x[0] for x in (got, want) if isinstance(x, tuple)}
    if not errors:
        if not np.allclose(got, want, rtol=1e-12, atol=0):
            assert not stalled
            assert stop_apart(v, c, alpha, got, tol, kwargs.get("max_iter", 50_000))
            assert np.max(np.abs(got - want)) <= STOP_STEP_RTOL * np.max(np.abs(want))
    elif tol >= ROUNDING_FLOOR_TOL or NumericalFailure in errors:
        assert isinstance(got, tuple) and got == want
    return got, stalled


def stall_market(seed):
    """A small market on which the fixed point exhausts its budget."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    q = rng.lognormal(1.0, 1.5, n)
    d = rng.uniform(1, 100, n)
    fit = ModelContext.from_logit([f"f{i}" for i in range(n)], q, d, d, 20.0, 1.1, 0.2)
    return fit.v, fit.c, fit.alpha


@st.composite
def solver_inputs(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([1.0, 10.0, 60.0]))
    v = rng.uniform(-spread, spread, n) + draw(st.floats(-50.0, 50.0))
    c = rng.uniform(0.0, 8.0, n)
    alpha = draw(st.floats(0.05, 12.0))
    kwargs = {}
    tols = [1e-6, 1e-10]
    if draw(st.booleans()):
        # the budget runs out and the exact markup finishes, which may
        # itself miss the tighter tols
        kwargs["max_iter"] = draw(st.sampled_from([1, 2, 3, 50, 400]))
        tols += [1e-13, 1e-15]
    if draw(st.booleans()):
        kwargs["tol"] = draw(st.sampled_from(tols))
    return v, c, alpha, kwargs


class TestSolverOracle:
    """logit_solve_prices against reference_fixed_point, against the
    exact markup where that runs out of budget, and against scipy's
    Lambert W everywhere (see assert_same_outcome)."""

    @settings(max_examples=200, deadline=None)
    @given(solver_inputs())
    def test_same_outcome_as_reference(self, inputs):
        v, c, alpha, kwargs = inputs
        assert_same_outcome(v, c, alpha, **kwargs)

    def test_same_prices_at_5000_flows(self):
        rng = np.random.default_rng(7)
        q = rng.lognormal(1.0, 1.2, 5000)
        d = rng.uniform(1, 100, 5000)
        fit = ModelContext.from_logit([f"f{i}" for i in range(5000)], q, d, d + 10.0,
                                      20.0, 1.1, 0.2)
        prices, stalled = assert_same_outcome(fit.v, fit.c, fit.alpha)
        assert isinstance(prices, np.ndarray) and prices.shape == (5000,)
        assert not stalled

    @pytest.mark.parametrize("seed", [286, 1009, 1657])
    def test_stalled_market_solved_by_the_exact_markup(self, seed):
        v, c, alpha = stall_market(seed)
        prices, stalled = assert_same_outcome(v, c, alpha)
        assert stalled and np.array_equal(prices, c + logit_markup(v, c, alpha))

    def test_overflow_raises_the_same_message(self):
        v = np.array([MAX_SAFE_EXPONENT + 50.0, 1.0])
        (error, message, _), _ = assert_same_outcome(v, np.array([1.0, 2.0]), 1.0)
        assert error is NumericalFailure and "exceeds safe range" in message

    @pytest.mark.parametrize("market, max_iter, stalled", [
        ("ordinary", 0, True), ("ordinary", 1, True),
        ("unattractive", 0, True), ("unattractive", 1, False),
    ])
    def test_edge_budgets(self, market, max_iter, stalled):
        # max_iter = 0 never enters the loop, so the exact markup prices
        # the market; max_iter = 1 returns the start c + 1/alpha where it
        # already meets tol, as in the unattractive market (s0 = 1 up to
        # rounding), and the exact markup otherwise
        if market == "ordinary":
            v, c, alpha = random_instance(np.random.default_rng(5), 12)
        else:
            v, c, alpha = np.array([-400.0, -380.0]), np.array([1.0, 2.0]), 2.0
        prices, ran_out = assert_same_outcome(v, c, alpha, max_iter=max_iter)
        assert ran_out is stalled
        start = c + 1.0 / alpha
        assert np.array_equal(prices, c + logit_markup(v, c, alpha) if stalled else start)


class TestValue:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.floats(0.05, 120.0),
           st.floats(-900.0, 800.0))
    def test_equals_per_flow_forms(self, seed, n, alpha, offset):
        # one max-shifted pass gives the per-flow profit and surplus bit
        # for bit, and the same error where an exponent leaves the safe
        # range; alpha*(v - p) is spread by 200 about ``offset``
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 10.0, n)
        p = v - (offset + rng.uniform(-100.0, 100.0, n)) / alpha
        c = p * rng.uniform(0.1, 1.2, n)
        k = float(rng.uniform(0.1, 100.0))
        try:
            expected = (logit_profit(v, p, c, alpha, k),
                        logit_consumer_surplus(v, p, alpha, k))
        except NumericalFailure as exc:
            with pytest.raises(NumericalFailure) as got:
                logit_value(v, p, c, alpha, k)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            assert logit_value(v, p, c, alpha, k) == expected


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
    @pytest.mark.parametrize("p0, alpha, s0, message", [
        (20.0, 0.0, 0.2, "logit requires alpha > 0, got 0.0"),
        (float("nan"), 1.1, 0.2, "p0 must be finite, got nan"),
        (-1.0, 1.1, 0.2, "p0 must be positive, got -1.0"),
        (20.0, 1.1, 0.0, "logit requires s0 in (0,1), got 0.0"),
        (20.0, 1.1, 1.0, "logit requires s0 in (0,1), got 1.0"),
    ])
    def test_valuations_refuse_outside_the_domain(self, p0, alpha, s0, message):
        with pytest.raises(DomainError) as info:
            logit_fit_valuations([1.0, 2.0], p0, alpha, s0)
        assert str(info.value) == message

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

    def test_underflowing_share_is_rejected_before_its_log(self):
        # 0.8e-300 / 1e30 is below the smallest float64; ln(0) would be
        # -inf (and a RuntimeWarning, an error under this suite)
        q = np.array([5.0, 1e-300, 1e30])
        with pytest.raises(NumericalFailure, match=r"^flow 1: market share of demand 1e-300 "
                                                   r"in total 1e\+30 underflows float64"):
            logit_fit_valuations(q, 20.0, 1.1, 0.2)
        with pytest.raises(NumericalFailure, match=r"^flow b: "):
            logit_fit_valuations(q, 20.0, 1.1, 0.2, ids=["a", "b", "c"])

    def test_overflowing_demand_total_is_rejected(self):
        # every share would be q/inf = 0, and the first flow blamed
        with pytest.raises(NumericalFailure, match=r"^the demand total overflows float64"):
            logit_fit_valuations(np.array([1e308, 1e308, 5.0]), 20.0, 1.1, 0.2)

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
        with pytest.raises(NumericalFailure, match=r"^fitted gamma = -2.91: p0 = 1.0 cannot be "
                                                   r"the rational uniform price at alpha = "
                                                   r"1.0 with these shares$"):
            logit_fit_gamma(v, np.array([1.0, 2.0]), 1.0, 1.0)

    def test_gamma_names_overflowing_relative_costs(self):
        # equal shares put every E at exp(shift); each f_d * E is finite
        # and their sum is not
        v = logit_fit_valuations(np.ones(3), 20.0, 1.1, 0.2)
        with pytest.raises(NumericalFailure, match=r"^relative cost times exp\(alpha\*\(v - "
                                                   r"p0\)\) overflows float64 \(largest "
                                                   r"relative cost 1e\+308\)$"):
            logit_fit_gamma(v, np.array([1e308, 1e308, 5.0]), 20.0, 1.1)

    def test_gamma_past_float64_is_nonpositive(self):
        # at s0 = 1e-200 the sum of E is about 1e200, so D*(alpha*p0 - 1 - D)
        # is about -1e400: the markup exceeds p0, reported as such
        v = logit_fit_valuations(np.array([5.0, 3.0]), 20.0, 1.1, 1e-200)
        with pytest.raises(NumericalFailure, match=r"^fitted gamma = -inf: p0 = 20.0 "):
            logit_fit_gamma(v, np.array([1.0, 2.0]), 20.0, 1.1)

    def test_fit_consumer_mass_reproduces_demand(self):
        rng = np.random.default_rng(17)
        q = rng.lognormal(0.5, 1.0, size=30)
        d = rng.uniform(1, 100, size=30)
        fit = ModelContext.from_logit([f"f{i}" for i in range(30)], q, d, d + 5.0,
                                      20.0, 1.1, 0.2)
        demand = logit_demand(fit.v, np.full(30, 20.0), 1.1, fit.consumer_mass)
        np.testing.assert_allclose(demand, q, rtol=1e-9)


class TestBundleAggregates:
    def test_identical_flows_gain_log_n(self):
        alpha = 1.7
        v = np.full(5, 3.0)
        valuation, _ = logit_bundle_aggregate(v, np.ones(5), alpha)
        assert valuation == pytest.approx(3.0 + np.log(5) / alpha, rel=1e-12)

    def test_singleton_identity(self):
        valuation, cost = logit_bundle_aggregate([4.2], [2.5], 1.3)
        assert valuation == pytest.approx(4.2, rel=1e-15)
        assert cost == 2.5

    def test_total_purchase_share_preserved(self):
        rng = np.random.default_rng(18)
        v, c, alpha = random_instance(rng, 9)
        p0 = 4.0
        s, s0 = logit_shares(v, np.full(9, p0), alpha)
        v_all, _ = logit_bundle_aggregate(v, c, alpha)
        s_b, s0_b = logit_shares([v_all], [p0], alpha)
        assert s_b[0] == pytest.approx(s.sum(), rel=1e-12)
        assert s0_b == pytest.approx(s0, rel=1e-12)

    def test_equal_valuations_mean_cost(self):
        c = np.array([1.0, 5.0, 3.0])
        _, cost = logit_bundle_aggregate(np.full(3, 2.0), c, 1.1)
        assert cost == pytest.approx(c.mean())

    def test_dominant_valuation_takes_cost(self):
        c = np.array([1.0, 9.0])
        v = np.array([50.0, 1.0])
        _, cost = logit_bundle_aggregate(v, c, 2.0)
        assert cost == pytest.approx(1.0, abs=1e-10)

    def test_cost_within_bounds(self):
        rng = np.random.default_rng(19)
        v, c, alpha = random_instance(rng, 11)
        _, agg = logit_bundle_aggregate(v, c, alpha)
        assert c.min() <= agg <= c.max()

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            logit_bundle_aggregate([], [], 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_separate_sums_bit_for_bit(self, seed):
        # one shared exponential gives exactly the numbers of the
        # valuation and the cost each computed on its own
        rng = np.random.default_rng(seed)
        v, c, alpha = random_instance(rng, int(rng.integers(1, 3000)))
        v = v + 800.0 / alpha  # exp(alpha*v) overflows without the shift
        shift = float(np.max(alpha * v))
        valuation = float((shift + np.log(np.sum(np.exp(alpha * v - shift)))) / alpha)
        e = np.exp(alpha * v - shift)
        assert logit_bundle_aggregate(v, c, alpha) == (
            valuation, float(np.sum(c * e) / np.sum(e)))

    def test_bundle_of_everything_price_matches_shared_price_solve(self):
        # solving the aggregate == constraining the original to one price
        rng = np.random.default_rng(20)
        v, c, alpha = random_instance(rng, 7)
        v_all, c_all = logit_bundle_aggregate(v, c, alpha)
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


# The logit kernels as they were written before they took their steps in
# place (one new array per operation), kept to pin the in-place kernels
# to the same bits.
def expression_shifted_exp(v, p, alpha):
    x = alpha * (np.asarray(v, dtype=float) - np.asarray(p, dtype=float))
    shift = float(np.max(x, initial=0.0))
    _guard_exponent(shift)
    e = np.exp(x - shift)
    return shift, e, np.sum(e) + np.exp(-shift)


def expression_value(v, p, c, alpha, consumer_mass):
    shift, e, den = expression_shifted_exp(v, p, alpha)
    margin = np.asarray(p, dtype=float) - np.asarray(c, dtype=float)
    profit = float(consumer_mass * np.sum(e / den * margin))
    lse = shift + np.log(den)
    return profit, float(consumer_mass * (EULER_GAMMA + lse) / alpha)


def expression_markup_residual(p, v, c, alpha):
    shift, _, den = expression_shifted_exp(v, p, alpha)
    s0 = float(np.exp(-shift) / den)
    return float(np.max(np.abs(p - (c + 1.0 / (alpha * s0)))))


def expression_shifted_sum(v, c, alpha):
    y = alpha * (np.asarray(v, dtype=float) - np.asarray(c, dtype=float))
    y_max = float(np.max(y))
    return y_max, float(np.sum(np.exp(y - y_max)))


def expression_solve_prices(v, c, alpha):
    """``logit_solve_prices`` with the expression kernels in place of
    the in-place ones."""
    with mock.patch.multiple(demand_logit, _shifted_sum=expression_shifted_sum,
                             _markup_residual=expression_markup_residual):
        return logit_solve_prices(v, c, alpha)


def expression_baselines(ctx):
    """(pi_orig, cs_orig, pi_max, cs_max) of a logit market: the blended
    baseline first, so that its failure is the one raised where the
    per-flow prices would fail too."""
    k = ctx.consumer_mass
    blended = expression_value(ctx.v, ctx.p0, ctx.c, ctx.alpha, k)
    per_flow = expression_solve_prices(ctx.v, ctx.c, ctx.alpha)
    return (*blended, *expression_value(ctx.v, per_flow, ctx.c, ctx.alpha, k))


def expression_price(ctx, bundling):
    """The logit branch of ``ModelContext.price`` in expressions."""
    members = bundling.members
    occupied = np.flatnonzero(bundling.sizes)
    sizes = bundling.sizes[occupied]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    prices = np.full(bundling.num_bundles, np.nan)
    y = ctx.alpha * ctx.v[members]
    shift = np.maximum.reduceat(y, starts)
    e = np.exp(y - np.repeat(shift, sizes))
    bounds = list(zip(starts.tolist(), ends.tolist()))
    W, X = (np.array([np.add.reduce(term[a:b]) for a, b in bounds])
            for term in (e, ctx.c[members] * e))
    v_b, c_b = (shift + np.log(W)) / ctx.alpha, X / W
    prices[occupied] = p_b = expression_solve_prices(v_b, c_b, ctx.alpha)
    return (prices, *expression_value(v_b, p_b, c_b, ctx.alpha, ctx.consumer_mass))


def bits(compute):
    """The bytes of every number ``compute()`` returns, or the type and
    message of the NumericalFailure it raises."""
    try:
        got = compute()
    except NumericalFailure as exc:
        return type(exc), str(exc)
    return [np.asarray(x, dtype=float).tobytes() for x in got]


def exponents(rng, n, alpha, offset, spread):
    """v and per-flow prices p with alpha*(v - p) spread by ``spread``
    about ``offset``, and a uniform price p0 at ``offset``."""
    p0 = float(rng.uniform(1.0, 50.0))
    v = p0 + (offset + rng.uniform(-spread, spread, n)) / alpha
    return v, v - (offset + rng.uniform(-spread, spread, n)) / alpha, p0


# exponents anywhere, and close to either side of the overflow guard;
# equal, close, spread and mostly underflowing exponentials
OFFSETS = st.one_of(st.floats(-900.0, 800.0),
                    st.floats(MAX_SAFE_EXPONENT - 5.0, MAX_SAFE_EXPONENT + 5.0))
SPREADS = st.sampled_from([0.0, 0.5, 2.0, 10.0, 100.0])


class TestInPlaceKernels:
    """The in-place logit kernels and the logit ``ModelContext`` give the
    bits of the expressions they replaced, or raise the same failure."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.floats(0.05, 120.0),
           OFFSETS, SPREADS, st.booleans())
    def test_kernels_match_expressions(self, seed, n, alpha, offset, spread, uniform):
        # a scalar p0 or per-flow prices
        rng = np.random.default_rng(seed)
        v, p, p0 = exponents(rng, n, alpha, offset, spread)
        if uniform:
            p = p0
        c = np.abs(p) * rng.uniform(0.1, 1.2, n)
        k = float(rng.uniform(0.1, 100.0))
        assert bits(lambda: logit_value(v, p, c, alpha, k)) == bits(
            lambda: expression_value(v, p, c, alpha, k))
        if n:
            assert bits(lambda: [_markup_residual(p, v, c, alpha)]) == bits(
                lambda: [expression_markup_residual(p, v, c, alpha)])
            assert bits(lambda: _shifted_sum(v, c, alpha)) == bits(
                lambda: expression_shifted_sum(v, c, alpha))

    def test_overwrite_p_leaves_the_margins(self):
        v, p, c = np.array([3.0, 4.0]), np.array([2.0, 2.5]), np.array([1.0, 2.0])
        expected = expression_value(v, p, c, 1.1, 50.0)
        assert logit_value(v, p, c, 1.1, 50.0, overwrite_p=True) == expected
        assert p.tolist() == [1.0, 0.5]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.05, 120.0),
           OFFSETS, SPREADS,
           st.sampled_from(["random", "one-flow", "runs"]))
    def test_price_matches_expressions(self, seed, n, alpha, offset, spread, tiers):
        # one-flow bundles, and members of a compact bundling (the
        # smallest unsigned type) as well as intp ones
        rng = np.random.default_rng(seed)
        v, _, p0 = exponents(rng, n, alpha, offset, spread)
        c = p0 * rng.uniform(0.05, 1.5, n)
        market = SimpleNamespace(v=v, c=c, alpha=alpha, p0=p0,
                                 consumer_mass=float(rng.uniform(0.1, 100.0)))
        try:
            ctx = ModelContext([f"f{i}" for i in range(n)], rng.uniform(1.0, 9.0, n),
                               np.ones(n), v, c, None, "logit", alpha, p0, s0=0.2,
                               consumer_mass=market.consumer_mass)
        except NumericalFailure as exc:
            assert bits(lambda: expression_baselines(market)) == (type(exc), str(exc))
            return
        assert bits(lambda: (ctx.pi_orig, ctx.cs_orig, ctx.pi_max, ctx.cs_max)) == bits(
            lambda: expression_baselines(ctx))
        num_bundles = int(rng.integers(1, n + 3))
        if tiers == "one-flow":
            bundling = Bundling(rng.permutation(n) % num_bundles, max(num_bundles, n))
        elif tiers == "runs":
            cuts = np.sort(rng.integers(0, n + 1, num_bundles - 1))
            bundling = Bundling.from_runs(rng.permutation(n), [0, *cuts, n], compact=True)
        else:
            bundling = Bundling(rng.integers(0, num_bundles, n), num_bundles)
        assert bits(lambda: ctx.price(bundling)) == bits(
            lambda: expression_price(ctx, bundling))
