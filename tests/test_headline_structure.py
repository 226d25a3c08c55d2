"""What the tier-count headline does and does not require of the data.

The headline result that a handful of tiers captures most attainable
profit holds on the synthetic fixture for every cost-aware strategy and
for the exact optimal search. Profit-weighted bundling additionally needs
demand and cost to be aligned: its token-bucket order is essentially a
demand order at low price sensitivity, so on independently sampled
demand/distance data its bundles mix all cost levels and capture almost
nothing (the two acceptance criteria marked ``known_fixture_gap``).
These tests quantify both sides of that boundary so regressions in
either direction are caught.
"""

import numpy as np
import pytest

from tierpricing.bundling import (
    ModelContext,
    Strategy,
    build_bundles,
    evaluate_bundling,
    optimal_bundles,
)
from tierpricing.cost_models import class_labels, relative_costs, split_by_dest_type
from tierpricing.domain import CostKind, CostModelSpec, FlowTable
from tierpricing.experiments import ExperimentConfig, fit_context, load_flows


@pytest.fixture(scope="module")
def eu_independent():
    flows = load_flows(ExperimentConfig(n_flows=10_000, seed=7))
    return flows, fit_context(flows, ExperimentConfig(n_flows=10_000, seed=7))


@pytest.fixture(scope="module")
def eu_aligned(eu_independent):
    """Same marginals, comonotone alignment: the largest demand rides
    the shortest distance (the structure real transit data leans to)."""
    flows, _ = eu_independent
    q_sorted = np.sort(flows.demand)[::-1]
    d_sorted = np.sort(flows.distance)
    rel = d_sorted + 0.2 * d_sorted.max()
    return ModelContext.from_ced(flows.ids, q_sorted, d_sorted, rel, 20.0, 1.1)


class TestFewTiersSuffice:
    def test_exhaustive_search_reaches_headline_at_four_tiers(self, eu_independent):
        _, ctx = eu_independent
        capture = {
            num_bundles: evaluate_bundling(ctx, optimal_bundles(ctx, num_bundles)).profit_capture
            for num_bundles in (2, 4, 8)
        }
        assert capture[4] >= 0.85
        assert capture[2] >= 0.6
        # diminishing returns: the 2->4 step dwarfs the 4->8 step
        assert capture[4] - capture[2] > capture[8] - capture[4]

    def test_cost_ranked_strategies_capture_most_by_eight_tiers(self, eu_independent):
        _, ctx = eu_independent
        for strategy in (Strategy.INDEX_DIVISION, Strategy.COST_WEIGHTED):
            out4 = evaluate_bundling(ctx, build_bundles(strategy, ctx, 4))
            out8 = evaluate_bundling(ctx, build_bundles(strategy, ctx, 8))
            assert out4.profit_capture >= 0.75
            assert out8.profit_capture >= 0.85


class TestProfitWeightedNeedsAlignment:
    def test_captures_little_on_independent_data(self, eu_independent):
        _, ctx = eu_independent
        out = evaluate_bundling(ctx, build_bundles(Strategy.PROFIT_WEIGHTED, ctx, 4))
        assert out.profit_capture <= 0.05

    def test_alignment_restores_most_of_the_capture(self, eu_independent, eu_aligned):
        _, independent = eu_independent
        flat = evaluate_bundling(
            independent, build_bundles(Strategy.PROFIT_WEIGHTED, independent, 4)
        ).profit_capture
        aligned = evaluate_bundling(
            eu_aligned, build_bundles(Strategy.PROFIT_WEIGHTED, eu_aligned, 4)
        ).profit_capture
        assert aligned >= 0.5
        assert aligned - flat >= 0.5

    def test_aligned_capture_grows_with_tier_count(self, eu_aligned):
        captures = [
            evaluate_bundling(
                eu_aligned, build_bundles(Strategy.PROFIT_WEIGHTED, eu_aligned, b)
            ).profit_capture
            for b in (2, 3, 4)
        ]
        assert captures == sorted(captures)
        assert captures[0] >= 0.4


class TestTwoClassMarkets:
    def test_class_constraint_beats_plain_profit_weighting(self):
        # destination-type pricing with two pure classes: refusing to mix
        # classes dominates the unconstrained heuristic at two tiers
        rng = np.random.default_rng(5)
        draws = [(rng.lognormal(2, 1.5), rng.lognormal(3.5, 0.6)) for _ in range(400)]
        base = FlowTable([f"f{i:04d}" for i in range(400)],
                         [q for q, _ in draws], [d for _, d in draws])
        for theta in (0.3, 0.5, 0.7):
            flows = split_by_dest_type(base, theta)
            spec = CostModelSpec(CostKind.DEST_TYPE, theta=theta)
            rel = relative_costs(spec, flows)
            ctx = ModelContext.from_ced(flows.ids, flows.demand, flows.distance, rel,
                                        20.0, 1.1, class_labels(spec, flows))
            constrained = evaluate_bundling(
                ctx, build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 2)
            )
            plain = evaluate_bundling(
                ctx, build_bundles(Strategy.PROFIT_WEIGHTED, ctx, 2)
            )
            assert constrained.profit_capture >= plain.profit_capture
