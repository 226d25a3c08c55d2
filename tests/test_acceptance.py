"""Acceptance criteria, one test per criterion (A1-A10).

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers and then asserts at the criterion's stated tolerance. Run with
``pytest tests/test_acceptance.py -v -s`` to see every line.

A6 and A9 assert the headline capture levels profit-weighted bundling
attains on real transit traffic. The synthetic generator draws demand
and distance independently (no joint structure is known to match),
and at low price sensitivity standalone-profit weights are essentially
demand weights, so profit-weighted bundles mix all cost levels and
cannot recover the headline capture on such data. The criteria are
kept faithful to their statement and are expected to fail; they are
marked ``known_fixture_gap`` so the rest of the suite can be selected
with ``-m "not known_fixture_gap"``.
"""

import numpy as np
import pytest

from demand_oracles import (
    ced_optimal_price,
    ced_profit,
    logit_consumer_surplus,
    logit_profit,
    logit_shares,
)
from tierpricing.bundling import (
    ModelContext,
    Strategy,
    build_bundles,
    evaluate_bundling,
    optimal_bundles,
    token_bucket_bundles,
)
from tierpricing.demand_logit import logit_solve_prices
from tierpricing.domain import Bundling, DemandModel
from tierpricing.experiments import ExperimentConfig, fit_context, load_flows


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def eu_flows():
    """The shared 10k-flow fixture matched to the EU transit network's
    reference summary statistics."""
    return load_flows(ExperimentConfig(n_flows=10_000, seed=7))


def eu_context(eu_flows, **overrides) -> ModelContext:
    config = ExperimentConfig(n_flows=10_000, seed=7, **overrides)
    return fit_context(eu_flows, config)


def random_fitted_ced(rng, n=100):
    q = rng.lognormal(1.0, 1.4, size=n)
    f_d = rng.uniform(0.5, 30.0, size=n)
    p0 = rng.uniform(5.0, 30.0)
    alpha = rng.uniform(1.05, 10.0)
    return ModelContext.from_ced([f"f{i:03d}" for i in range(n)], q, np.ones(n), f_d,
                                 p0, alpha), p0


def random_fitted_logit(rng, n=100):
    q = rng.lognormal(1.0, 1.4, size=n)
    f_d = rng.uniform(0.5, 30.0, size=n)
    p0 = rng.uniform(15.0, 30.0)
    alpha = rng.uniform(0.8, 3.0)
    s0 = rng.uniform(0.15, 0.8)
    return ModelContext.from_logit([f"f{i:03d}" for i in range(n)], q, np.ones(n), f_d,
                                   p0, alpha, s0), p0


def test_a1_closed_form_worked_example():
    # a unit flow (v = c = 1, alpha = 2) priced alone by the per-flow
    # closed form and as a one-flow bundle of a market
    price = float(ced_optimal_price(1.0, 2.0))
    profit = ced_profit([1.0], [price], [1.0], 2.0)
    unit = ModelContext(["f"], [1.0], [1.0], [1.0], [1.0], None, DemandModel.CED, 2.0, 2.0)
    prices, bundle_profit, _ = unit.price(Bundling(np.zeros(1, dtype=np.intp), 1))
    ok = (abs(price - 2.0) < 1e-9 and abs(profit - 0.25) < 1e-9
          and prices[0] == price and bundle_profit == profit)
    report("A1", ok, f"unit CED flow prices at {price} for profit {profit}")


def test_a2_fit_self_consistency_both_models():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        for build in (random_fitted_ced, random_fitted_logit):
            ctx, p0 = build(rng)
            single = Bundling(np.zeros(len(ctx.ids), dtype=int), 1)
            outcome = evaluate_bundling(ctx, single)
            worst = max(worst, abs(outcome.prices[0] - p0) / p0,
                        abs(outcome.profit_capture))
    ok = worst < 1e-4
    report("A2", ok, f"50 seeds x 2 models, worst B=1 deviation {worst:.2e}")


def test_a3_oracle_dominance_and_monotonicity():
    rng = np.random.default_rng(33)
    heuristics = (Strategy.DEMAND_WEIGHTED, Strategy.COST_WEIGHTED,
                  Strategy.PROFIT_WEIGHTED, Strategy.COST_DIVISION,
                  Strategy.INDEX_DIVISION)
    violations = 0
    for trial in range(100):
        n = int(rng.integers(3, 11))
        q = rng.lognormal(1.0, 1.2, size=n)
        f_d = rng.uniform(0.5, 30.0, size=n)
        ids = [f"f{i}" for i in range(n)]
        if trial % 10 < 7:
            ctx = ModelContext.from_ced(ids, q, np.ones(n), f_d, 20.0,
                                        float(rng.uniform(1.1, 5.0)))
        else:
            ctx = ModelContext.from_logit(ids, q, np.ones(n), f_d, 20.0,
                                          float(rng.uniform(0.8, 2.0)), 0.2)
        previous = -np.inf
        for num_bundles in range(1, n + 1):
            best = evaluate_bundling(ctx, optimal_bundles(ctx, num_bundles))
            slack = 1e-9 * abs(best.profit)
            if best.profit < previous - slack:
                violations += 1
            previous = best.profit
            if num_bundles in (2, 3):
                for strategy in heuristics:
                    got = evaluate_bundling(
                        ctx, build_bundles(strategy, ctx, num_bundles)
                    )
                    if got.profit > best.profit + slack:
                        violations += 1
    ok = violations == 0
    report("A3", ok, f"100 instances, {violations} dominance/monotonicity violations")


def test_a4_logit_solver_correctness():
    rng = np.random.default_rng(44)
    worst_residual = 0.0
    worst_gradient = 0.0
    beaten = 0
    for _ in range(20):
        n = int(rng.integers(3, 15))
        v = rng.uniform(1.0, 10.0, size=n)
        c = rng.uniform(0.2, 6.0, size=n)
        alpha = float(rng.uniform(0.5, 3.0))
        p = logit_solve_prices(v, c, alpha, tol=1e-8)
        _, s0 = logit_shares(v, p, alpha)
        worst_residual = max(worst_residual,
                             float(np.max(np.abs(p - c - 1.0 / (alpha * s0)))))
        scale = abs(logit_profit(v, p, c, alpha, 1.0))
        h = 1e-5
        for i in range(n):
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            grad = (logit_profit(v, up, c, alpha, 1.0)
                    - logit_profit(v, down, c, alpha, 1.0)) / (2 * h)
            worst_gradient = max(worst_gradient, abs(grad) / scale)
        base = logit_profit(v, p, c, alpha, 1.0)
        shocks = rng.uniform(-0.5, 0.5, size=(1000, n))
        trials = p + shocks
        x = alpha * (v - trials)
        shift = np.maximum(x.max(axis=1, keepdims=True), 0.0)
        e = np.exp(x - shift)
        den = e.sum(axis=1) + np.exp(-shift[:, 0])
        profits = np.einsum("ij,ij->i", e / den[:, None], trials - c)
        beaten += int(np.sum(profits > base + 1e-12))
    ok = worst_residual < 1e-8 and worst_gradient < 1e-5 and beaten == 0
    report("A4", ok, (f"residual {worst_residual:.2e}, gradient "
                      f"{worst_gradient:.2e} of scale, {beaten} perturbations won"))


def test_a5_logit_surplus_monte_carlo():
    rng = np.random.default_rng(55)
    draws = 1_000_000
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        v = rng.uniform(1.0, 10.0, size=n)
        c = rng.uniform(0.2, 6.0, size=n)
        alpha = float(rng.uniform(0.5, 3.0))
        k = float(rng.uniform(1.0, 100.0))
        p = c + rng.uniform(0.2, 2.0, size=n)
        closed = logit_consumer_surplus(v, p, alpha, k)
        inside = alpha * (v - p) + rng.gumbel(size=(draws, n))
        outside = rng.gumbel(size=draws)
        sim = k * np.mean(np.maximum(inside.max(axis=1), outside)) / alpha
        worst = max(worst, abs(closed - sim) / abs(sim))
    ok = worst < 0.01
    report("A5", ok, f"10 instances x 1e6 draws, worst relative gap {worst:.4f}")


@pytest.mark.known_fixture_gap
def test_a6_headline_profit_capture(eu_flows):
    ctx = eu_context(eu_flows)
    captures = {}
    for num_bundles in (3, 4):
        out = evaluate_bundling(
            ctx, build_bundles(Strategy.PROFIT_WEIGHTED, ctx, num_bundles)
        )
        captures[num_bundles] = out.profit_capture
    ok = captures[4] >= 0.85 and captures[4] >= captures[3] - 0.02
    report("A6", ok, (f"profit-weighted capture B3 {captures[3]:.4f}, "
                      f"B4 {captures[4]:.4f} (threshold 0.85)"))


def test_a7_token_bucket_exactness():
    bundling = token_bucket_bundles([30.0, 10.0, 10.0, 10.0],
                                    ["f1", "f2", "f3", "f4"], 2)
    expected = [0, 1, 1, 1]
    ok = bundling.labels.tolist() == expected
    report("A7", ok, f"labels {bundling.labels.tolist()}")


def test_a8_theta_monotonicity(eu_flows):
    grid = (0.0, 0.2, 0.5, 1.0)
    pi_max = [eu_context(eu_flows, theta=theta).pi_max for theta in grid]
    diffs = np.diff(pi_max)
    ok = bool(np.all(diffs <= 1e-9 * abs(pi_max[0])))
    report("A8", ok, "pi_max by theta " + ", ".join(f"{x:.1f}" for x in pi_max))


@pytest.mark.known_fixture_gap
def test_a9_sensitivity_worst_case(eu_flows):
    captures = []
    for alpha in (1.1, 2.0, 5.0, 10.0):
        ctx = eu_context(eu_flows, alpha=alpha)
        out = evaluate_bundling(ctx, build_bundles(Strategy.PROFIT_WEIGHTED, ctx, 2))
        captures.append(out.profit_capture)
    worst = min(captures)
    ok = worst >= 0.7
    report("A9", ok, (f"B=2 capture by alpha {[round(c, 4) for c in captures]}, "
                      f"min {worst:.4f} (threshold 0.7)"))


def test_a10_surplus_tracks_profit(eu_flows):
    worst = 0.0
    for model in (DemandModel.CED, DemandModel.LOGIT):
        config = ExperimentConfig(n_flows=10_000, seed=7, demand_model=model)
        ctx = fit_context(eu_flows, config)
        for num_bundles in (2, 3, 4, 8):
            out = evaluate_bundling(
                ctx, build_bundles(Strategy.PROFIT_WEIGHTED, ctx, num_bundles)
            )
            worst = max(worst, abs(out.surplus_capture - out.profit_capture))
    ok = worst <= 0.15
    report("A10", ok, f"both models, max |surplus - profit| capture gap {worst:.4f}")
