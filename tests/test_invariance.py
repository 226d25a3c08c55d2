"""Invariances of whole runs: permuting the flows with their ids, and
scaling every distance or every demand, under both demand models, every
default strategy and B = 1..6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing.bundling import Strategy, build_bundles, evaluate_bundling
from tierpricing.domain import CostKind, DemandModel, FlowTable, NoConvergence
from tierpricing.experiments import (
    DEFAULT_STRATEGIES,
    ExperimentConfig,
    fit_context,
    run_capture_curve,
)
from tierpricing.ingestion import preset_moments, synth_generate

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
            # every split of a group of equal costs earns the same
            tied = strategy is Strategy.OPTIMAL and num_bundles > distinct
            out[strategy, num_bundles] = (
                bundling.labels, evaluate_bundling(ctx, bundling), tied)
    return out, condition


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
    for key, (_, outcome, _) in before.items():
        _, scaled_outcome, _ = after[key]
        for name in ("profit_capture", "surplus_capture"):
            assert getattr(scaled_outcome, name) == pytest.approx(
                getattr(outcome, name), rel=0, abs=1e-9, nan_ok=True), (key, name)


def assert_captures_agree(got, expected, condition):
    """Both captures of every (strategy, B) to 1e-12 times the
    ``condition`` of ``expected``'s run, absolute."""
    for key, (_, outcome, _) in expected.items():
        for name in ("profit_capture", "surplus_capture"):
            assert getattr(got[key][1], name) == pytest.approx(
                getattr(outcome, name), rel=0, abs=1e-12 * condition, nan_ok=True), \
                (key, name)


@settings(max_examples=60, deadline=None)
@given(markets(), st.integers(-3, 3))
def test_power_of_two_demand_scaling_keeps_labels_and_captures(case, exponent):
    # a market with every demand k times as large has the same unit
    # costs, and profits and surpluses k times as large, so the same
    # tiers and captures; where rounding decides, the optimal search may
    # split a group of equal costs elsewhere (see the xfail below)
    flows, config = case
    scaled = FlowTable(flows.ids, flows.demand * 2.0 ** exponent, flows.distance)
    (before, condition), (after, _) = run(flows, config), run(scaled, config)
    for key, (labels, _, tied) in before.items():
        if not tied:
            assert np.array_equal(after[key][0], labels), key
    assert_captures_agree(after, before, condition)


@pytest.mark.xfail(strict=True, reason="rounding of equal scores decides where the "
                                       "optimal search splits a group of equal costs")
def test_doubled_demand_splits_equal_costs_alike():
    # two distinct costs and four tiers: every split of the 10-mile and
    # 50-mile groups earns the same, and the doubled market splits the
    # other group; costs and captures (1.0) agree
    flows = FlowTable([f"f{i:02d}" for i in range(9)],
                      [5.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                      [50.0, 10.0, 50.0, 10.0, 10.0, 50.0, 50.0, 10.0, 10.0])
    config = ExperimentConfig()
    doubled = FlowTable(flows.ids, flows.demand * 2.0, flows.distance)
    labels = [build_bundles(Strategy.OPTIMAL, fit_context(f, config), 4).labels
              for f in (flows, doubled)]
    assert np.array_equal(labels[1], labels[0])


@settings(max_examples=60, deadline=None)
@given(markets(), st.sampled_from([3.0, 0.1]))
def test_demand_scaling_keeps_captures(case, k):
    flows, config = case
    scaled = FlowTable(flows.ids, flows.demand * k, flows.distance)
    (before, condition), (after, _) = run(flows, config), run(scaled, config)
    assert_captures_agree(after, before, condition)


@pytest.mark.xfail(strict=True, reason="the damped logit price loop stops at a point "
                                       "that depends on the demand scale")
def test_tripled_logit_demand_keeps_captures():
    # eu-isp, 2,000 flows, seed 3: at cost-weighted B = 5 the bundle
    # prices move by 2.5e-9 and the surplus capture by 5.0e-9 (condition
    # 5.5); priced by c + logit_markup, the two agree to 2e-15
    flows = synth_generate(preset_moments("eu-isp", 2000, seed=3))
    config = ExperimentConfig(demand_model=DemandModel.LOGIT)
    tripled = FlowTable(flows.ids, flows.demand * 3.0, flows.distance)
    (before, condition), (after, _) = run(flows, config), run(tripled, config)
    assert_captures_agree(after, before, condition)


@pytest.mark.xfail(strict=True, reason="the damped logit price loop stops at a point "
                                       "that depends on the cost scale")
def test_scaled_logit_distances_keep_captures():
    # a market test_distance_scaling_keeps_captures found: 26 flows,
    # logit, concave costs, every distance times 0.3; at index-division
    # B = 5 the surplus capture moves from 0.6264188003584423 to
    # 0.6264188035672839, by 3.2e-9 against that property's 1e-9; priced
    # by c + logit_markup, no capture of any strategy and B moves by more
    # than 4.7e-15
    q = [2.90770257603224, 7.8572468982124555, 7.600532416479252, 1.42078830256968,
         2.737717137232194, 3.193641202073613, 2.61894231773361, 2.087831504619266,
         1.182668074662416, 2.1207627092621846, 10.552101683070093, 0.4212835226301446,
         2.0503940093015185, 4.041150930209433, 8.230512309326052, 10.650704573768348,
         2.2509588085520567, 2.4965102959169063, 1.2340842897267656, 10.87266609675514,
         0.27521778771597544, 0.6787875606353903, 3.913257510418361, 4.5447755660139375,
         10.598567571247093, 6.524265697794498]
    d = [41.42280331991396, 27.733565084767722, 54.08043474873888, 57.64173849764098,
         97.20664028553959, 95.29426149360542, 31.3930552118692, 92.3916705231506,
         63.2329232358206, 16.66082053570223, 84.23339718615064, 41.87067625741575,
         26.963174999937372, 26.694507881977987, 46.34760762474443, 6.927395762063956,
         45.70033583285209, 93.8930203222907, 81.84873067837923, 65.55037214663092,
         99.1909481488647, 15.538260917739565, 59.47298462617427, 58.48071596577002,
         23.941288896589754, 54.467176039424544]
    flows = FlowTable([f"f{i:02d}" for i in range(len(q))], q, d)
    config = ExperimentConfig(demand_model=DemandModel.LOGIT, cost_kind=CostKind.CONCAVE)
    scaled = FlowTable(flows.ids, flows.demand, flows.distance * 0.3)
    (before, _), (after, _) = run(flows, config), run(scaled, config)
    for key, (_, outcome, _) in before.items():
        for name in ("profit_capture", "surplus_capture"):
            assert getattr(after[key][1], name) == pytest.approx(
                getattr(outcome, name), rel=0, abs=1e-9, nan_ok=True), (key, name)


@pytest.mark.xfail(strict=True, raises=NoConvergence,
                   reason="the logit price solver compares an absolute price residual "
                          "with 1e-8, below one ulp of prices near 1e9")
def test_logit_captures_do_not_depend_on_the_price_scale():
    # the same alpha*p0 is the same market at another price scale: every
    # valuation, cost and price is scaled by 1e9 and every capture kept;
    # at alpha 1e-8 and p0 1e9 the price residual is 4.77e-7
    runs = [run_capture_curve(ExperimentConfig(demand_model=DemandModel.LOGIT,
                                               n_flows=2000, alpha=alpha, p0=p0))[0]
            for alpha, p0 in ((10.0, 1.0), (1e-8, 1e9))]
    for got, want in zip(runs[1], runs[0]):
        for name in ("profit_capture", "surplus_capture"):
            assert got[name] == pytest.approx(want[name], rel=0, abs=1e-6), \
                (want["strategy"], want["num_bundles"], name)


def test_cost_division_edge_is_scale_free():
    # f04's cost is exactly a third of the maximum, on the edge of the
    # first two of three ranges; rounding leaves c*B/c_max a hair below
    # 1 at one scale and on it at the other, and the tie slack puts f04
    # in the upper range at both (a capture of 1.0, not 0.9792)
    flows = FlowTable([f"f{i:02d}" for i in range(6)], [5.0, 2.0, 2.0, 1.0, 1.0, 1.0],
                      [5.0, 5.0, 5.0, 50.0, 10.0, 50.0])
    config = ExperimentConfig()
    scaled = FlowTable(flows.ids, flows.demand, flows.distance * 0.3)
    labels = [build_bundles(Strategy.COST_DIVISION, fit_context(f, config), 3).labels
              for f in (flows, scaled)]
    assert np.array_equal(labels[1], labels[0])
