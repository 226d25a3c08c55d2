"""Invariances of whole runs: permuting the flows with their ids, and
scaling every distance, under both demand models, every default
strategy and B = 1..6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing.bundling import Strategy, build_bundles, evaluate_bundling
from tierpricing.domain import CostKind, DemandModel, FlowTable
from tierpricing.experiments import DEFAULT_STRATEGIES, ExperimentConfig, fit_context

TIERS = range(1, 7)
NUMBERS = ("profit", "consumer_surplus", "profit_capture", "surplus_capture")


@st.composite
def markets(draw):
    """The flows of a small market, with tied demands and distances or
    spread ones, and a run's config: either demand model, linear or
    concave costs."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = rng.choice((1.0, 2.0, 5.0), n)
        d = rng.choice((5.0, 10.0, 50.0), n)
    else:
        q = rng.lognormal(1.0, 1.2, size=n)
        d = rng.uniform(1.0, 100.0, size=n)
    flows = FlowTable([f"f{i:02d}" for i in range(n)], q, d)
    config = ExperimentConfig(
        demand_model=draw(st.sampled_from(list(DemandModel))),
        cost_kind=draw(st.sampled_from([CostKind.LINEAR, CostKind.CONCAVE])))
    return flows, config


def run(flows, config):
    """Labels and outcome of every default strategy at every B, and
    whether rounding, not the strategy's rule, decides the labels; and
    the condition of the captures, which divide by the gap between the
    per-flow and the blended baseline: max over profit and surplus of
    |maximum| / |maximum - blended|."""
    ctx = fit_context(flows, config)
    distinct = len(np.unique(ctx.c))
    baselines = ((ctx.pi_max, ctx.pi_orig), (ctx.cs_max, ctx.cs_orig), (1.0, 0.0))
    condition = max(abs(top) / abs(top - blended) if top != blended else np.inf
                    for top, blended in baselines)
    out = {}
    for strategy in DEFAULT_STRATEGIES:
        for num_bundles in TIERS:
            bundling = build_bundles(strategy, ctx, num_bundles)
            if strategy is Strategy.OPTIMAL:
                # every split of a group of equal costs earns the same
                tied = num_bundles > distinct
            elif strategy is Strategy.COST_DIVISION:
                tied = on_range_edge(ctx.c, num_bundles)
            else:
                tied = False
            out[strategy, num_bundles] = (
                bundling.labels, evaluate_bundling(ctx, bundling, degenerate_ok=True), tied)
    return out, condition


def on_range_edge(c, num_bundles):
    """Whether a cost lies on an inner edge j*max(c)/B of cost-division's
    ranges, where rounding picks its range (a FOUND line in CHANGES.md)."""
    ranks = c * num_bundles / c.max()
    edges = (np.abs(ranks - np.round(ranks)) < 1e-9) & (ranks < num_bundles - 0.5)
    return bool(edges.any())


def assert_numbers_agree(got, expected, tol, condition, perm=slice(None)):
    """Profit, surplus and each flow's price to ``tol`` relative,
    captures to ``tol`` times their ``condition`` absolute (NaN where a
    baseline is degenerate); ``got`` and ``expected`` are (labels,
    outcome) pairs, and ``got``'s flows are ``expected``'s taken in the
    order ``perm``."""
    (got_labels, got), (labels, expected) = got, expected
    for name in NUMBERS:
        a, b = getattr(got, name), getattr(expected, name)
        if name.endswith("capture"):
            assert a == pytest.approx(b, rel=0, abs=tol * condition, nan_ok=True), name
        else:
            assert a == pytest.approx(b, rel=tol, abs=0), name
    assert np.array(got.prices)[got_labels] == pytest.approx(
        np.array(expected.prices)[labels][perm], rel=tol, abs=0)


@settings(max_examples=60, deadline=None)
@given(markets(), st.data())
def test_permuting_flows_permutes_labels(case, data):
    # where rounding decides, the optimal search may split a group of
    # equal costs elsewhere, at the same profit and flow prices
    flows, config = case
    perm = np.array(data.draw(st.permutations(range(len(flows)))))
    moved = FlowTable(flows.ids[perm], flows.demand[perm], flows.distance[perm])
    (before, condition), (after, _) = run(flows, config), run(moved, config)
    for key, (labels, outcome, tied) in before.items():
        moved_labels, moved_outcome, _ = after[key]
        if tied and key[0] is Strategy.COST_DIVISION:
            continue
        if not tied:
            assert np.array_equal(moved_labels, labels[perm]), key
        assert_numbers_agree((moved_labels, moved_outcome), (labels, outcome), 1e-12,
                             condition, perm)


@settings(max_examples=60, deadline=None)
@given(markets(), st.integers(-20, 20))
def test_power_of_two_distance_scaling_changes_nothing(case, exponent):
    # f(d) is d plus a multiple of d_max (linear) or a function of
    # d/d_max (concave): scaling by 2**j scales it exactly, the fitted
    # gamma exactly back, and leaves every unit cost as it was
    flows, config = case
    scaled = FlowTable(flows.ids, flows.demand, flows.distance * 2.0 ** exponent)
    (before, _), (after, _) = run(flows, config), run(scaled, config)
    for key, (labels, outcome, _) in before.items():
        scaled_labels, scaled_outcome, _ = after[key]
        assert np.array_equal(scaled_labels, labels), key
        assert_numbers_agree((scaled_labels, scaled_outcome), (labels, outcome), 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(markets(), st.sampled_from([0.3, 7.0, 1e3]))
def test_distance_scaling_keeps_captures(case, k):
    # gamma absorbs the scale, so the unit costs move by rounding only
    flows, config = case
    scaled = FlowTable(flows.ids, flows.demand, flows.distance * k)
    (before, _), (after, _) = run(flows, config), run(scaled, config)
    for key, (_, outcome, tied) in before.items():
        if tied and key[0] is Strategy.COST_DIVISION:
            continue
        _, scaled_outcome, _ = after[key]
        for name in ("profit_capture", "surplus_capture"):
            assert getattr(scaled_outcome, name) == pytest.approx(
                getattr(outcome, name), rel=0, abs=1e-9, nan_ok=True), (key, name)


@pytest.mark.xfail(strict=True, reason="cost-division ranges have no tie rule "
                                       "(a FOUND line in CHANGES.md)")
def test_cost_division_edge_is_scale_free():
    # f04's cost is exactly a third of the maximum, on the edge of the
    # first two of three ranges; after scaling the distances by 0.3
    # rounding puts it in the upper range, and the capture jumps from
    # 0.9792 to 1.0
    flows = FlowTable([f"f{i:02d}" for i in range(6)], [5.0, 2.0, 2.0, 1.0, 1.0, 1.0],
                      [5.0, 5.0, 5.0, 50.0, 10.0, 50.0])
    config = ExperimentConfig()
    scaled = FlowTable(flows.ids, flows.demand, flows.distance * 0.3)
    labels = [build_bundles(Strategy.COST_DIVISION, fit_context(f, config), 3).labels
              for f in (flows, scaled)]
    assert np.array_equal(labels[1], labels[0])
