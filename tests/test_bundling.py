"""Bundling strategies, oracle checks of the exact optimal search
(brute-force enumeration and an O(n^2 B) dynamic program), and capture
metric arithmetic."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tierpricing import bundling
from tierpricing.bundling import (
    ModelContext,
    Strategy,
    build_bundles,
    evaluate_bundling,
    optimal_bundles,
    profit_capture,
    tiers_of,
    token_bucket_bundles,
)
from demand_oracles import (
    bundle_profit_closed_form,
    ced_bundle_price,
    ced_consumer_surplus,
    ced_potential_profit,
    ced_profit,
    logit_bundle_aggregate,
    logit_consumer_surplus,
    logit_profit,
)
from tierpricing.demand_ced import ced_bundle
from tierpricing.demand_logit import logit_markup, logit_solve_prices
from tierpricing.domain import (
    Bundling,
    CostKind,
    DemandModel,
    DomainError,
    OverflowGuard,
)


# few distinct distances, so that many flows share a unit cost
TIED_DISTANCES = (5.0, 10.0, 50.0)


def every_partition(items):
    """All set partitions of ``items`` (independent recursive
    enumeration; the oracle the dynamic program is checked against)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in every_partition(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def demands(rng, n, tiny=0):
    """Observed demands; ``tiny`` of them are 1e-20, below the rounding
    of the other flows' sums, so that a block boundary moved across such
    a flow leaves W and X, and the block's score, exactly unchanged."""
    q = rng.lognormal(1.0, 1.2, size=n)
    if tiny:
        q[rng.permutation(n)[:tiny]] = 1e-20
    return q


def ced_context(rng, n, alpha=1.5, p0=20.0, tied=False, offset=False, tiny=0):
    q = demands(rng, n, tiny)
    d = rng.choice(TIED_DISTANCES, n) if tied else rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    return ModelContext.from_ced([f"f{i:02d}" for i in range(n)], q, d, rel, p0, alpha,
                                 cs_unit_price_offset=offset)


def logit_context(rng, n, alpha=1.1, p0=20.0, s0=0.2, tied=False, tiny=0):
    q = demands(rng, n, tiny)
    d = rng.choice(TIED_DISTANCES, n) if tied else rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    return ModelContext.from_logit([f"f{i:02d}" for i in range(n)], q, d, rel, p0,
                                   alpha, s0)


def spread_logit_context(rng, n):
    """A logit market, alpha in 0.05..120, whose alpha*v spans more than
    745: shifted by the market's maximum, exp(alpha*v) is zero for every
    flow of the low cluster, so a bundle of them keeps its value only
    when shifted by its own maximum. alpha*(v - c) stays below 100, in
    the range of the price solver."""
    alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(120.0))))
    high = rng.random(n) < 0.5
    high[:2] = True, False
    y = np.where(high, 1000.0, 0.0) + rng.uniform(1.0, 60.0, n)  # alpha*v
    v = y / alpha
    c = (y - rng.uniform(0.1, 0.9, n) * np.minimum(y, 100.0)) / alpha
    return ModelContext([f"f{i:02d}" for i in range(n)], demands(rng, n),
                        rng.uniform(1.0, 100.0, n), v, c, None, DemandModel.LOGIT,
                        alpha, float(v.max()), s0=0.2, consumer_mass=10.0)


def tied_ced_context(rng, n):
    return ced_context(rng, n, tied=True)


def offset_ced_context(rng, n):
    """A CED market whose surplus subtracts the unit price."""
    return ced_context(rng, n, offset=True)


def tied_logit_context(rng, n):
    return logit_context(rng, n, tied=True)


def tiny_ced_context(rng, n):
    return ced_context(rng, n, tiny=n // 10)


def tiny_logit_context(rng, n):
    return logit_context(rng, n, tiny=n // 10)


class TestTokenBucket:
    def test_worked_example(self):
        # demands 30/10/10/10 into two bundles: heavy flow alone
        b = token_bucket_bundles([30.0, 10.0, 10.0, 10.0], ["f1", "f2", "f3", "f4"], 2)
        assert b.labels.tolist() == [0, 1, 1, 1]

    def test_single_bundle(self):
        b = token_bucket_bundles([5.0, 1.0, 2.0], ["a", "b", "c"], 1)
        assert b.labels.tolist() == [0, 0, 0]

    def test_enough_bundles_gives_singletons(self):
        weights = [8.0, 5.0, 3.0, 1.0]
        for extra in (0, 2):
            b = token_bucket_bundles(weights, list("abcd"), len(weights) + extra)
            assert b.effective_bundles == len(weights)
            counts = np.bincount(b.labels)
            assert all(c == 1 for c in counts[counts > 0])

    def test_every_flow_assigned(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            weights = rng.lognormal(0.0, 1.5, size=n)
            ids = [f"f{i}" for i in range(n)]
            num_bundles = int(rng.integers(1, 12))
            b = token_bucket_bundles(weights, ids, num_bundles)
            assert b.labels.shape == (n,)
            assert np.all((0 <= b.labels) & (b.labels < num_bundles))
            assert b.effective_bundles <= min(num_bundles, n)

    def test_ties_break_by_flow_id(self):
        b1 = token_bucket_bundles([2.0, 2.0, 2.0], ["c", "a", "b"], 2)
        b2 = token_bucket_bundles([2.0, 2.0, 2.0], ["a", "b", "c"], 2)
        assert dict(zip("cab", b1.labels.tolist())) == \
            dict(zip("abc", b2.labels.tolist()))

    def test_uniform_weights_fill_in_id_order(self):
        # equal costs give a round-robin-by-budget fill; count stays <= B
        b = token_bucket_bundles([2.0] * 6, [f"f{i}" for i in range(6)], 3)
        assert b.effective_bundles <= 3
        assert b.labels.tolist() == [0, 0, 1, 1, 2, 2]

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DomainError):
            token_bucket_bundles([1.0, 0.0], ["a", "b"], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_weights(self, bad):
        with pytest.raises(DomainError):
            token_bucket_bundles([1.0, bad, 2.0], ["a", "b", "c"], 2)

    def test_rejects_misaligned_ids(self):
        with pytest.raises(DomainError):
            token_bucket_bundles([1.0, 2.0], ["a"], 2)


class TestDivisionStrategies:
    def test_cost_division_edges(self):
        # max cost $10 with two bundles: [0, 5) and [5, 10]; a cost within
        # relative slack 1e-12 of the edge is on it
        rng = np.random.default_rng(1)
        ctx = ced_context(rng, 8)
        object.__setattr__(ctx, "c", np.array([1.0, 4.99, 5.0, 7.0, 10.0, 0.5,
                                               5.0 * (1 - 1e-13), 5.0 * (1 - 1e-11)]))
        b = build_bundles(Strategy.COST_DIVISION, ctx, 2)
        assert ctx.ids.tolist() == [f"f{i:02d}" for i in range(8)]
        assert b.labels.tolist() == [0, 0, 1, 1, 1, 0, 1, 0]

    def test_cost_division_empty_ranges_allowed(self):
        rng = np.random.default_rng(2)
        ctx = ced_context(rng, 4)
        object.__setattr__(ctx, "c", np.array([1.0, 1.1, 9.9, 10.0]))
        b = build_bundles(Strategy.COST_DIVISION, ctx, 4)
        assert b.num_bundles == 4
        assert b.effective_bundles == 2

    def test_index_division_rank_groups(self):
        rng = np.random.default_rng(3)
        ctx = ced_context(rng, 100)
        b = build_bundles(Strategy.INDEX_DIVISION, ctx, 4)
        order = np.argsort(ctx.c, kind="stable")
        sizes = [0, 0, 0, 0]
        for rank, i in enumerate(order):
            assert b.labels[i] == rank // 25
            sizes[rank // 25] += 1
        assert sizes == [25, 25, 25, 25]

    def test_index_division_last_group_smaller(self):
        rng = np.random.default_rng(4)
        ctx = ced_context(rng, 10)
        b = build_bundles(Strategy.INDEX_DIVISION, ctx, 3)
        assert np.bincount(b.labels).tolist() == [4, 4, 2]


class TestClassConstrained:
    def _labeled_context(self, rng, n=12):
        q = rng.lognormal(1.0, 1.0, size=n)
        d = rng.uniform(1.0, 100.0, size=n)
        labels = ["customer" if i % 3 else "peer" for i in range(n)]
        rel = d * np.where(np.array(labels) == "peer", 2.0, 1.0)
        return ModelContext.from_ced([f"f{i:02d}" for i in range(n)], q, d, rel, 20.0,
                                     1.5, labels=labels)

    def test_never_mixes_classes(self):
        rng = np.random.default_rng(5)
        ctx = self._labeled_context(rng)
        labels = ctx.class_labels.tolist()
        for num_bundles in (2, 3, 5):
            b = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, num_bundles)
            bundle_classes: dict[int, set] = {}
            for i, bundle in enumerate(b.labels.tolist()):
                bundle_classes.setdefault(bundle, set()).add(labels[i])
            assert all(len(cls) == 1 for cls in bundle_classes.values())

    def test_each_class_gets_a_bundle(self):
        rng = np.random.default_rng(6)
        ctx = self._labeled_context(rng)
        b = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 2)
        bundles_of: dict[str, set] = {}
        for label, bundle in zip(ctx.class_labels.tolist(), b.labels.tolist()):
            bundles_of.setdefault(label, set()).add(bundle)
        assert set(bundles_of) == {"customer", "peer"}
        assert bundles_of["customer"].isdisjoint(bundles_of["peer"])

    def test_missing_labels_rejected(self):
        rng = np.random.default_rng(7)
        ctx = ced_context(rng, 5)
        with pytest.raises(DomainError,
                           match="^class-constrained bundling requires class labels$"):
            build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 2)

    def test_fewer_bundles_than_classes_falls_back(self):
        rng = np.random.default_rng(8)
        ctx = self._labeled_context(rng)
        b = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 1)
        assert b.effective_bundles == 1


class TestOptimal:
    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context,
                                          tied_ced_context, tied_logit_context])
    def test_matches_brute_force_enumeration(self, make_ctx):
        rng = np.random.default_rng(9)
        for trial in range(4):
            n = int(rng.integers(3, 7))
            ctx = make_ctx(rng, n)
            for num_bundles in (1, 2, n):
                best = -np.inf
                for parts in every_partition(list(range(n))):
                    if len(parts) > num_bundles:
                        continue
                    labels = np.empty(n, dtype=int)
                    for j, block in enumerate(parts):
                        labels[block] = j
                    best = max(best, partition_profit(ctx, labels))
                got = partition_profit(ctx, optimal_bundles(ctx, num_bundles).labels)
                assert got == pytest.approx(best, rel=1e-9)

    def test_two_cost_classes_recovered(self):
        # flows forming two (v, c) classes split exactly on the class line
        ids = [f"f{i}" for i in range(6)]
        q = np.array([4.0, 4.0, 4.0, 9.0, 9.0, 9.0])
        d = np.array([1.0, 1.0, 1.0, 50.0, 50.0, 50.0])
        ctx = ModelContext.from_ced(ids, q, d, d, 20.0, 2.0)
        b = optimal_bundles(ctx, 2)
        groups = {}
        for fid, bundle in zip(ctx.ids, b.labels.tolist()):
            groups.setdefault(bundle, set()).add(fid)
        assert {frozenset(g) for g in groups.values()} == {
            frozenset({"f0", "f1", "f2"}), frozenset({"f3", "f4", "f5"}),
        }

    def test_single_bundle_trivial(self):
        rng = np.random.default_rng(10)
        ctx = ced_context(rng, 5)
        b = optimal_bundles(ctx, 1)
        assert b.effective_bundles == 1

    def test_enough_bundles_reaches_per_flow_max(self):
        rng = np.random.default_rng(11)
        for make_ctx in (ced_context, logit_context):
            ctx = make_ctx(rng, 6)
            out = evaluate_bundling(ctx, optimal_bundles(ctx, 6))
            assert out.profit == pytest.approx(ctx.pi_max, rel=1e-9)
            assert out.profit_capture == pytest.approx(1.0, abs=1e-9)

    def test_dominates_heuristics(self):
        rng = np.random.default_rng(12)
        heuristics = [Strategy.DEMAND_WEIGHTED, Strategy.COST_WEIGHTED,
                      Strategy.PROFIT_WEIGHTED, Strategy.COST_DIVISION,
                      Strategy.INDEX_DIVISION]
        for make_ctx in (ced_context, logit_context):
            for trial in range(5):
                n = int(rng.integers(4, 11))
                ctx = make_ctx(rng, n)
                for num_bundles in (2, 3):
                    best = evaluate_bundling(ctx, optimal_bundles(ctx, num_bundles)).profit
                    for strat in heuristics:
                        got = evaluate_bundling(
                            ctx, build_bundles(strat, ctx, num_bundles)
                        ).profit
                        assert got <= best + 1e-9 * abs(best)

    def test_profit_nondecreasing_in_bundle_count(self):
        rng = np.random.default_rng(13)
        for make_ctx in (ced_context, logit_context):
            ctx = make_ctx(rng, 8)
            profits = [
                evaluate_bundling(ctx, optimal_bundles(ctx, k)).profit
                for k in range(1, 9)
            ]
            diffs = np.diff(profits)
            assert np.all(diffs >= -1e-9 * abs(profits[-1]))

    def test_equals_brute_force_at_eight_flows(self):
        rng = np.random.default_rng(14)
        ctx = ced_context(rng, 8)
        partitions = list(every_partition(list(range(8))))
        profits = []
        for parts in partitions:
            labels = np.empty(8, dtype=int)
            for j, block in enumerate(parts):
                labels[block] = j
            profits.append(evaluate_bundling(ctx, Bundling(labels, len(parts))).profit)
        for num_bundles in (2, 3, 4):
            best = max(p for p, parts in zip(profits, partitions)
                       if len(parts) <= num_bundles)
            got = evaluate_bundling(ctx, optimal_bundles(ctx, num_bundles))
            assert got.profit == pytest.approx(best, rel=1e-9)

    def test_contiguous_handles_larger_sets(self):
        rng = np.random.default_rng(15)
        ctx = ced_context(rng, 200)
        out = evaluate_bundling(ctx, optimal_bundles(ctx, 4))
        assert 0.0 <= out.profit_capture <= 1.0 + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        ctx = ced_context(rng, 9)
        b1 = optimal_bundles(ctx, 3)
        b2 = optimal_bundles(ctx, 3)
        assert np.array_equal(b1.labels, b2.labels)

    def test_more_bundles_than_flows(self):
        ctx = ced_context(np.random.default_rng(16), 3)
        b = optimal_bundles(ctx, 5)
        assert b.num_bundles == 5
        assert b.labels[ctx.cost_order].tolist() == [0, 1, 2]

    def test_rejects_nonpositive_bundle_count(self):
        ctx = ced_context(np.random.default_rng(17), 3)
        with pytest.raises(DomainError):
            optimal_bundles(ctx, 0)

    @pytest.mark.parametrize("alpha", [16.0, 20.0, 100.0])
    def test_large_alpha_equals_contiguous_enumeration(self, alpha):
        # the bundle profit kappa * W**alpha * X**(1-alpha) overflowed
        # float64 at these alphas; every partition of the cost order into
        # at most B blocks is priced by the per-flow oracles
        n = 12
        ctx = ced_context(np.random.default_rng(30), n, alpha=alpha)
        order = sorted(range(n), key=lambda i: (ctx.c[i], ctx.ids[i]))

        def oracle_profit(blocks):
            p = np.empty(n)
            for block in blocks:
                p[block] = ced_bundle_price(ctx.v[block], ctx.c[block], alpha)
            return ced_profit(ctx.v, p, ctx.c, alpha)

        for num_bundles in range(1, 7):
            best = max(
                oracle_profit([order[lo:hi] for lo, hi in zip((0, *cuts), (*cuts, n))])
                for k in range(num_bundles)
                for cuts in itertools.combinations(range(1, n), k))
            labels = optimal_bundles(ctx, num_bundles).labels
            got = oracle_profit([np.flatnonzero(labels == b) for b in range(num_bundles)])
            assert got == pytest.approx(best, rel=1e-12, abs=0)
            assert evaluate_bundling(ctx, Bundling(labels, num_bundles)).profit == \
                pytest.approx(best, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_candidates_never_pick_a_start(self, bad):
        # a depth pass takes the first candidate equal to its node's
        # best, which needs a finite best; the top scan meets overflow
        # first on real markets, so the bad value is planted in the
        # layer the next depth passes read
        ctx = ced_context(np.random.default_rng(32), 60)
        optimal_bundles(ctx, 2)
        ctx._optimum.value[30] = bad
        with pytest.raises(OverflowGuard):
            optimal_bundles(ctx, 3)

    def test_answers_do_not_depend_on_request_order(self):
        # the DP's layers are cached on the context and grown on demand
        rng = np.random.default_rng(19)
        for make_ctx in (ced_context, logit_context):
            seed = int(rng.integers(2**32))
            up = make_ctx(np.random.default_rng(seed), 40)
            down = make_ctx(np.random.default_rng(seed), 40)
            ascending = {k: optimal_bundles(up, k).labels for k in range(1, 9)}
            for k in range(8, 0, -1):
                assert np.array_equal(optimal_bundles(down, k).labels, ascending[k])


class TestEvaluate:
    def test_singletons_capture_one(self):
        rng = np.random.default_rng(19)
        for make_ctx in (ced_context, logit_context):
            ctx = make_ctx(rng, 12)
            singles = Bundling(np.arange(12), 12)
            out = evaluate_bundling(ctx, singles)
            assert out.profit_capture == pytest.approx(1.0, abs=1e-9)

    def test_single_bundle_capture_zero(self):
        rng = np.random.default_rng(20)
        for make_ctx in (ced_context, logit_context):
            ctx = make_ctx(rng, 30)
            whole = Bundling(np.zeros(len(ctx.ids), dtype=int), 1)
            out = evaluate_bundling(ctx, whole)
            assert out.profit_capture == pytest.approx(0.0, abs=1e-4)
            assert out.prices[0] == pytest.approx(ctx.p0, rel=1e-4)

    @pytest.mark.parametrize("model", list(DemandModel))
    @pytest.mark.parametrize("kind", list(CostKind))
    def test_one_tier_price_is_the_calibrated_rate(self, kind, model):
        # the fit makes p0 the optimal uniform price under every cost
        # model: under CED the one-bundle price, under logit the exact
        # equal markup on the one-bundle aggregate
        from tierpricing.experiments import ExperimentConfig, fit_context, load_flows

        config = ExperimentConfig(demand_model=model, cost_kind=kind, theta=0.5,
                                  p0=5.0, n_flows=2000, seed=3)
        ctx = fit_context(load_flows(config), config)
        if model is DemandModel.CED:
            whole = Bundling(np.zeros(len(ctx.ids), dtype=int), 1)
            price = evaluate_bundling(ctx, whole).prices[0]
        else:
            v_b, c_b = logit_bundle_aggregate(ctx.v, ctx.c, ctx.alpha)
            price = c_b + logit_markup([v_b], [c_b], ctx.alpha)
        assert price == pytest.approx(5.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind, theta, n_flows, seed, offset", [
        # the two markets whose one-tier capture was rounding residue
        # (-7.7e-14 and 4.4e-12) while the blended baseline had a
        # uniform-price formula of its own
        (CostKind.LINEAR, 0.2, 5000, 3, False),
        (CostKind.REGIONAL, 0.2, 20000, 1, False),
        (CostKind.CONCAVE, 0.5, 3000, 12, True),
        (CostKind.DEST_TYPE, 0.4, 3000, 5, False),
    ])
    def test_ced_one_tier_capture_is_exactly_zero(self, kind, theta, n_flows, seed,
                                                  offset):
        from tierpricing.experiments import (DEFAULT_STRATEGIES, ExperimentConfig,
                                             run_capture_curve)

        split = kind is CostKind.DEST_TYPE
        strategies = DEFAULT_STRATEGIES + (
            (Strategy.CLASS_PROFIT_WEIGHTED,) if split else ())
        config = ExperimentConfig(cost_kind=kind, theta=theta, n_flows=n_flows,
                                  seed=seed, bundles=(1,), strategies=strategies,
                                  split_dest_type=split, cs_unit_price_offset=offset)
        rows, _ = run_capture_curve(config)
        assert len(rows) == len(strategies)
        for row in rows:
            assert row["profit_capture"] == 0.0 and row["surplus_capture"] == 0.0, row

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("kind", list(CostKind))
    def test_ced_one_tier_per_flow_captures_exactly_one(self, kind, offset):
        # the per-flow maximum is the all-singleton labelling, priced by
        # the arithmetic of every tiering
        from tierpricing.experiments import ExperimentConfig, fit_context, load_flows

        for seed in range(25):
            config = ExperimentConfig(cost_kind=kind, theta=0.5, n_flows=40, seed=seed,
                                      cs_unit_price_offset=offset)
            ctx = fit_context(load_flows(config), config)
            out = evaluate_bundling(ctx, Bundling(np.arange(len(ctx)), len(ctx)))
            assert out.profit_capture == 1.0 and out.surplus_capture == 1.0, seed

    def test_terms_computed_only_for_the_optimum_under_logit(self):
        rng = np.random.default_rng(26)
        ctx = logit_context(rng, 40)
        for strat in (Strategy.PROFIT_WEIGHTED, Strategy.COST_DIVISION):
            evaluate_bundling(ctx, build_bundles(strat, ctx, 3))
        assert "terms" not in vars(ctx)
        optimal_bundles(ctx, 3)
        w, x = ctx.terms
        np.testing.assert_array_equal(w, np.exp(ctx.alpha * (ctx.v - ctx.v.max())))
        np.testing.assert_array_equal(x, ctx.c * w)

    def test_ced_surplus_capture_equals_profit_capture(self):
        # at per-bundle-optimal prices surplus is profit * alpha/(alpha-1),
        # so the two captures coincide exactly under this demand model
        rng = np.random.default_rng(21)
        ctx = ced_context(rng, 25)
        for strat in (Strategy.PROFIT_WEIGHTED, Strategy.COST_DIVISION):
            out = evaluate_bundling(ctx, build_bundles(strat, ctx, 3))
            assert out.surplus_capture == pytest.approx(out.profit_capture, rel=1e-9)

    def test_empty_bundles_priced_nan(self):
        rng = np.random.default_rng(22)
        ctx = ced_context(rng, 4)
        b = Bundling([0, 0, 2, 2], 3)
        out = evaluate_bundling(ctx, b)
        assert np.isnan(out.prices[1])
        assert not np.isnan(out.prices[0])
        assert out.effective_bundles == 2

    @pytest.mark.parametrize("n_flows", [5, 2000])
    @pytest.mark.parametrize("model", list(DemandModel))
    def test_effective_bundles_equal_the_bundlings_count(self, model, n_flows):
        # the count taken from pricing equals the bundling's own, for
        # every strategy (the dest-type split gives class labels) and B
        from tierpricing.experiments import ExperimentConfig, fit_context, load_flows

        config = ExperimentConfig(demand_model=model, cost_kind=CostKind.DEST_TYPE,
                                  split_dest_type=True, n_flows=n_flows, seed=4)
        ctx = fit_context(load_flows(config), config)
        fewer = 0
        for strat in Strategy:
            for num_bundles in range(1, 9):
                b = build_bundles(strat, ctx, num_bundles)
                out = evaluate_bundling(ctx, b)
                assert type(out.effective_bundles) is int
                assert out.effective_bundles == b.effective_bundles, (strat, num_bundles)
                fewer += b.effective_bundles < num_bundles
        assert fewer > 0

    def test_logit_bundle_prices_share_markup(self):
        rng = np.random.default_rng(23)
        ctx = logit_context(rng, 15)
        out = evaluate_bundling(ctx, build_bundles(Strategy.INDEX_DIVISION, ctx, 3))
        prices = np.array(out.prices)
        assert np.all(np.isfinite(prices))

    def test_logit_aggregation_is_exact(self):
        # bundled-system profit and surplus must equal the original
        # system evaluated at the same shared within-bundle prices
        rng = np.random.default_rng(25)
        ctx = logit_context(rng, 20)
        for strat in (Strategy.DEMAND_WEIGHTED, Strategy.COST_DIVISION):
            bundling = build_bundles(strat, ctx, 4)
            out = evaluate_bundling(ctx, bundling)
            per_flow = np.array(out.prices)[bundling.labels]
            direct = logit_profit(ctx.v, per_flow, ctx.c, ctx.alpha,
                                  ctx.consumer_mass)
            assert out.profit == pytest.approx(direct, rel=1e-12)
            direct_cs = logit_consumer_surplus(ctx.v, per_flow, ctx.alpha,
                                               ctx.consumer_mass)
            assert out.consumer_surplus == pytest.approx(direct_cs, rel=1e-12)


P0_GRID = (5.0, 10.0, 20.0, 30.0)


@st.composite
def ced_markets(draw):
    """The arguments of ced_context bar p0: a seed, a flow count, alpha,
    the surplus convention and whether distances tie."""
    return (draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 60)),
            draw(st.floats(1.05, 6.0)), draw(st.booleans()), draw(st.booleans()))


class TestMetamorphic:
    @settings(max_examples=200, deadline=None)
    @given(ced_markets())
    # two flows whose fitted costs differ by 0.09%: the capture
    # denominators are rounding-scale, so the per-flow maximum must be
    # priced by the arithmetic of ``ModelContext.price`` for the
    # captures to agree across p0
    @example((280, 2, 2.0, False, False))
    @example((280, 2, 1.5, False, False))
    # tied costs whose cost-weighted prefix sum meets a bundle's target
    # exactly: B=4 captured 0.8119 at p0 = 5, 10 and 20 but 0.9750 at 30
    # while a bundle closed on a running budget <= 0 with no tie slack
    @example((2277316257, 24, 1.9104494742869556, True, True))
    def test_ced_captures_do_not_depend_on_p0(self, market):
        # v scales as p0 and the fitted costs as p0, so every price
        # scales as p0 and every profit and surplus by one factor; a
        # market whose costs all tie has no capture at any p0
        seed, n, alpha, offset, tied = market
        contexts = [ced_context(np.random.default_rng(seed), n, alpha=alpha, p0=p0,
                                offset=offset, tied=tied) for p0 in P0_GRID]
        for strategy in (Strategy.OPTIMAL, Strategy.DEMAND_WEIGHTED,
                         Strategy.COST_WEIGHTED, Strategy.PROFIT_WEIGHTED,
                         Strategy.COST_DIVISION, Strategy.INDEX_DIVISION):
            for num_bundles in range(1, 5):
                outcomes = [evaluate_bundling(ctx, build_bundles(strategy, ctx, num_bundles))
                            for ctx in contexts]
                for out in outcomes[1:]:
                    assert out.profit_capture == pytest.approx(
                        outcomes[0].profit_capture, rel=0, abs=1e-9, nan_ok=True)
                    assert out.surplus_capture == pytest.approx(
                        outcomes[0].surplus_capture, rel=0, abs=1e-9, nan_ok=True)


class TestProfitCapture:
    def test_endpoints(self):
        assert profit_capture(30.0, 10.0, 30.0) == 1.0
        assert profit_capture(10.0, 10.0, 30.0) == 0.0

    def test_halfway_worked_example(self):
        # 15% above original against a 30% ceiling is half the capture
        assert profit_capture(1.15, 1.0, 1.30) == pytest.approx(0.5)

    def test_out_of_range_reported_as_is(self):
        assert profit_capture(5.0, 10.0, 30.0) == pytest.approx(-0.25)

    def test_degenerate_baseline(self):
        assert math.isnan(profit_capture(10.0, 20.0, 20.0 + 1e-13))


class TestBundlingTotality:
    def test_every_strategy_partitions_exactly(self):
        rng = np.random.default_rng(24)
        ctx = ced_context(rng, 23)
        strategies = [s for s in Strategy if s is not Strategy.CLASS_PROFIT_WEIGHTED]
        for strat in strategies:
            for num_bundles in (1, 3, 7):
                b = build_bundles(strat, ctx, num_bundles)
                assert b.labels.shape == (len(ctx.ids),)
                assert all(0 <= i < num_bundles for i in b.labels.tolist())

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_no_bundles_is_a_domain_error(self, strategy):
        # index-division divided by the tier count before any check did
        for ctx in labelled_markets():
            with pytest.raises(DomainError, match="num_bundles must be >= 1, got 0"):
                build_bundles(strategy, ctx, 0)

    def test_token_buckets_refuse_no_bundles(self):
        with pytest.raises(DomainError, match="num_bundles must be >= 1, got 0"):
            token_bucket_bundles([1.0, 2.0], ["a", "b"], 0)


def labelled_markets():
    """A class-labelled CED and logit market, for every strategy."""
    rng = np.random.default_rng(26)
    n = 15
    q = rng.lognormal(1.0, 1.0, size=n)
    d = rng.uniform(1.0, 100.0, size=n)
    labels = ["customer" if i % 3 else "peer" for i in range(n)]
    rel = d * np.where(np.array(labels) == "peer", 2.0, 1.0)
    ids = [f"f{i:02d}" for i in range(n)]
    return (ModelContext.from_ced(ids, q, d, rel, 20.0, 1.5, labels=labels),
            ModelContext.from_logit(ids, q, d, rel, 20.0, 1.1, 0.2, labels=labels))


class TestStrategyNames:
    """A strategy or model may be given by its value wherever it is held."""

    @pytest.mark.parametrize("model", list(DemandModel))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_tiers_of_a_name_are_the_members(self, strategy, model):
        assert tiers_of(strategy.value, model.value) is tiers_of(strategy, model)
        assert tiers_of(strategy.value, model) is tiers_of(strategy, model.value)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_name_builds_the_members_tiers(self, strategy):
        for ctx in labelled_markets():
            for num_bundles in (1, 2, 4):
                by_name = build_bundles(strategy.value, ctx, num_bundles)
                by_member = build_bundles(strategy, ctx, num_bundles)
                assert np.array_equal(by_name.members, by_member.members)
                assert np.array_equal(by_name.sizes, by_member.sizes)

    def test_unknown_names_are_domain_errors(self):
        with pytest.raises(DomainError, match="strategy: unknown value 'best'"):
            tiers_of("best", DemandModel.CED)
        with pytest.raises(DomainError, match="model: unknown value 'probit'"):
            tiers_of(Strategy.OPTIMAL, "probit")


# ---------------------------------------------------------------------------
# Per-flow reference implementations and properties against them
# ---------------------------------------------------------------------------


def reference_token_bucket(weights, flow_ids, num_bundles):
    """Per-flow token-bucket loop of the closing rule: visit flows by
    decreasing weight (ties by flow id), each joining the open bundle j,
    which closes once the running sum of the visited weights reaches
    (j+1)*share, share = total/B, within a relative slack of 1e-12; the
    last bundle never closes. The running sum adds one flow at a time,
    as ``np.cumsum`` does. Returns labels in the order of ``flow_ids``."""
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], flow_ids[i]))
    share = weights.sum() / num_bundles
    labels = [None] * n
    j, running = 0, 0.0
    for i in order:
        labels[i] = j
        running += weights[i]
        if j + 1 < num_bundles and running >= (j + 1) * share * (1 - 1e-12):
            j += 1
    return labels


def reference_pricing(ctx, labels, num_bundles):
    """Per-bundle pricing loop over member lists built flow by flow;
    returns (prices, profit, surplus). Under CED each bundle is valued by
    ``ced_bundle``, whose formula ``test_ced_equals_per_flow_oracles``
    checks against the per-flow oracles."""
    members = [[] for _ in range(num_bundles)]
    for i, b in enumerate(labels):
        members[b].append(i)
    occupied = [b for b, m in enumerate(members) if m]
    prices = np.full(num_bundles, np.nan)
    if ctx.model is DemandModel.CED:
        # each bundle's sums over its members in flow order, then one
        # price and profit per bundle; surplus alpha/(alpha-1) times the
        # profit, or, subtracting unit prices, alpha*W*p**(1-alpha)/(alpha-1)
        # less n*p per bundle
        alpha = ctx.alpha
        w = ctx.v ** alpha
        x = ctx.c * w
        W = np.array([np.sum(w[members[b]]) for b in occupied])
        X = np.array([np.sum(x[members[b]]) for b in occupied])
        sizes = np.array([len(members[b]) for b in occupied])
        p_b, profit_b = ced_bundle(W, X, alpha)
        prices[occupied] = p_b
        profit = float(np.sum(profit_b))
        if ctx.cs_unit_price_offset:
            surplus = float(np.sum(alpha * alpha / (alpha - 1.0) * profit_b - sizes * p_b))
        else:
            surplus = alpha / (alpha - 1.0) * profit
    else:
        aggregates = [logit_bundle_aggregate(ctx.v[members[b]], ctx.c[members[b]],
                                             ctx.alpha) for b in occupied]
        v_b = np.array([valuation for valuation, _ in aggregates])
        c_b = np.array([cost for _, cost in aggregates])
        p_b = logit_solve_prices(v_b, c_b, ctx.alpha)
        prices[occupied] = p_b
        profit = logit_profit(v_b, p_b, c_b, ctx.alpha, ctx.consumer_mass)
        surplus = logit_consumer_surplus(v_b, p_b, ctx.alpha, ctx.consumer_mass)
    return prices, profit, surplus


def partition_profit(ctx, labels):
    """Profit of a partition at its bundles' optimal prices; unlike the
    captures it is defined when every flow has the same cost."""
    return reference_pricing(ctx, labels, max(labels) + 1)[1]


def reference_evaluate(ctx, labels, num_bundles):
    """``reference_pricing`` plus the two captures; returns (prices,
    profit, surplus, profit capture, surplus capture)."""
    prices, profit, surplus = reference_pricing(ctx, labels, num_bundles)
    capture = profit_capture(profit, ctx.pi_orig, ctx.pi_max)
    s_capture = profit_capture(surplus, ctx.cs_orig, ctx.cs_max)
    return prices, profit, surplus, capture, s_capture


TIED_WEIGHTS = (0.25, 0.5, 1.0, 1.5, 3.0, 10.0)


@st.composite
def bucket_cases(draw, kinds=("tied", "spread", "dominant")):
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(kinds))
    if kind == "spread":
        weights = draw(st.lists(
            st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n))
    else:
        weights = draw(st.lists(st.sampled_from(TIED_WEIGHTS), min_size=n, max_size=n))
    if kind == "dominant":
        weights[draw(st.integers(0, n - 1))] = 1e6
    # short ids from a small alphabet repeat, so id ties occur as well
    ids = draw(st.lists(st.text("aZ0\u00e9", min_size=1, max_size=3),
                        min_size=n, max_size=n))
    num_bundles = draw(st.integers(1, 2 * n + 2))
    return weights, ids, num_bundles


class TestTokenBucketOracle:
    @settings(max_examples=400, deadline=None)
    @given(bucket_cases())
    def test_labels_equal_per_flow_loop(self, case):
        weights, ids, num_bundles = case
        b = token_bucket_bundles(weights, ids, num_bundles)
        expected = reference_token_bucket(weights, ids, num_bundles)
        assert np.array_equal(b.labels, expected)

    @settings(max_examples=100, deadline=None)
    @given(bucket_cases())
    def test_bundles_are_runs_of_the_visiting_order(self, case):
        weights, ids, num_bundles = case
        b = token_bucket_bundles(weights, ids, num_bundles)
        order = sorted(range(len(ids)), key=lambda i: (-weights[i], ids[i]))
        visited = b.labels[order]
        assert visited[0] == 0
        assert np.all(np.diff(visited) >= 0)
        assert b.effective_bundles <= min(len(ids), num_bundles)
        assert np.array_equal(np.unique(b.labels), np.arange(b.effective_bundles))

    @settings(max_examples=200, deadline=None)
    @given(bucket_cases(), st.integers(-30, 30))
    def test_power_of_two_scaling_keeps_labels(self, case, exponent):
        # scaling by 2**k is exact: every prefix sum and target scales
        # exactly, so every comparison comes out the same
        weights, ids, num_bundles = case
        scaled = [w * 2.0 ** exponent for w in weights]
        assert np.array_equal(token_bucket_bundles(scaled, ids, num_bundles).labels,
                              token_bucket_bundles(weights, ids, num_bundles).labels)

    @settings(max_examples=200, deadline=None)
    @given(bucket_cases(kinds=("tied", "dominant")),
           st.sampled_from([1 / 3, 0.1, 37.0, 1e3]))
    def test_scaling_tied_weights_keeps_labels(self, case, k):
        # these weights are multiples of 1/4 below 2**22, so their sums
        # are exact, and a prefix sum either meets a target exactly or
        # misses it by more than 1e-9 of it; scaling by k rounds the sums
        # by far less than the 1e-12 tie slack
        weights, ids, num_bundles = case
        scaled = [w * k for w in weights]
        assert np.array_equal(token_bucket_bundles(scaled, ids, num_bundles).labels,
                              token_bucket_bundles(weights, ids, num_bundles).labels)


@st.composite
def labelled_contexts(draw, makers=(ced_context, offset_ced_context, logit_context,
                                    spread_logit_context)):
    n = draw(st.integers(2, 25))
    make = draw(st.sampled_from(makers))
    ctx = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    num_bundles = draw(st.integers(1, n + 2))
    labels = draw(st.lists(st.integers(0, num_bundles - 1), min_size=n, max_size=n))
    return ctx, labels, num_bundles


def large_bundle_labels(rng, n, num_bundles):
    """Labels of ``n`` flows, shuffled: bundles of 1, 128, 129 and 1000
    members (numpy's pairwise sums work in blocks of 128), one empty
    bundle, and the other flows spread at random over the rest."""
    sizes = [1, 128, 129, 1000]
    labels = np.concatenate([np.full(size, b) for b, size in enumerate(sizes)]
                            + [rng.integers(len(sizes) + 1, num_bundles,
                                            n - sum(sizes))])
    return rng.permutation(labels).tolist()


class TestEvaluateOracle:
    def assert_equals_reference(self, ctx, labels, num_bundles):
        out = evaluate_bundling(ctx, Bundling(labels, num_bundles))
        prices, profit, surplus, capture, s_capture = reference_evaluate(
            ctx, labels, num_bundles)
        assert out.profit == profit
        assert out.consumer_surplus == surplus
        assert out.profit_capture == capture
        assert out.surplus_capture == s_capture
        got = np.array(out.prices)
        empty = np.bincount(labels, minlength=num_bundles) == 0
        assert np.array_equal(np.isnan(got), empty)
        assert np.array_equal(got[~empty], prices[~empty])

    @settings(max_examples=200, deadline=None)
    @given(labelled_contexts())
    def test_equals_per_bundle_loop(self, case):
        self.assert_equals_reference(*case)

    # 300 bundles exceed the uint8 labels that evaluation sorts up to 256
    @pytest.mark.parametrize("num_bundles", [8, 300])
    @pytest.mark.parametrize("make_ctx", [ced_context, offset_ced_context,
                                          logit_context])
    def test_equals_per_bundle_loop_at_5000_flows(self, make_ctx, num_bundles):
        rng = np.random.default_rng(29)
        ctx = make_ctx(rng, 5000)
        labels = large_bundle_labels(rng, 5000, num_bundles)
        counts = np.bincount(labels, minlength=num_bundles)
        assert counts.max() > 128 and counts[4] == 0
        self.assert_equals_reference(ctx, labels, num_bundles)

    @settings(max_examples=150, deadline=None)
    @given(labelled_contexts(makers=(ced_context, offset_ced_context)),
           st.floats(1.05, 6.0))
    def test_ced_equals_per_flow_oracles(self, case, alpha):
        # each flow at its bundle's price by ``ced_bundle_price``, priced
        # and valued flow by flow, in both surplus conventions
        ctx, labels, num_bundles = case
        ctx = ModelContext(ctx.ids, ctx.q, ctx.d, ctx.v, ctx.c, None, DemandModel.CED,
                           alpha, ctx.p0, cs_unit_price_offset=ctx.cs_unit_price_offset)
        labels = np.asarray(labels)
        prices, profit, surplus = ctx.price(Bundling(labels, num_bundles))
        per_flow = np.empty(len(labels))
        for b in np.unique(labels):
            members = np.flatnonzero(labels == b)
            per_flow[members] = ced_bundle_price(ctx.v[members], ctx.c[members], alpha)
            assert prices[b] == pytest.approx(per_flow[members[0]], rel=1e-12, abs=0)
        assert profit == pytest.approx(ced_profit(ctx.v, per_flow, ctx.c, alpha),
                                       rel=1e-12, abs=0)
        assert surplus == pytest.approx(
            ced_consumer_surplus(ctx.v, per_flow, alpha,
                                 unit_price_offset=ctx.cs_unit_price_offset),
            rel=1e-12, abs=0)

    def test_rejects_labels_of_another_flow_set(self):
        ctx = ced_context(np.random.default_rng(26), 5)
        with pytest.raises(DomainError):
            evaluate_bundling(ctx, Bundling([0, 1, 0], 2))


def reference_class_constrained(ctx, num_bundles, weights=None):
    """Per-flow class-constrained loop over ``weights`` (by default the
    context's potential profits): class masses summed flow by flow,
    bundles allocated to classes by largest remainder, and each class
    token-bucketed on its own. Returns labels in flow order."""
    classes_of = ctx.class_labels.tolist()
    if weights is None:
        weights = ctx.potential_profits
    weights = np.asarray(weights, dtype=float)
    mass = {}
    for lab, w in zip(classes_of, weights):
        mass[lab] = mass.get(lab, 0.0) + float(w)
    classes = sorted(mass, key=lambda lab: (-mass[lab], lab))
    ids = ctx.ids.tolist()
    if num_bundles < len(classes):
        return reference_token_bucket(weights, ids, num_bundles)
    total = sum(mass.values())
    alloc = {lab: 1 for lab in classes}
    for _ in range(num_bundles - len(classes)):
        lab = max(classes, key=lambda l: num_bundles * mass[l] / total - alloc[l])
        alloc[lab] += 1
    labels = [None] * len(ids)
    offset = 0
    for lab in classes:
        members = [i for i, other in enumerate(classes_of) if other == lab]
        sub = reference_token_bucket(weights[members], [ids[i] for i in members],
                                     alloc[lab])
        for i, b in zip(members, sub):
            labels[i] = offset + b
        offset += alloc[lab]
    return labels


@st.composite
def classed_contexts(draw):
    n = draw(st.integers(2, 30))
    names = draw(st.sampled_from([("peer", "customer"),
                                  ("metro", "national", "international")]))
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    # the markets of ced_context / logit_context, with class labels
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.lognormal(1.0, 1.2, size=n)
    d = rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    ids = [f"f{i:02d}" for i in range(n)]
    if draw(st.booleans()):
        ctx = ModelContext.from_ced(ids, q, d, rel, 20.0, 1.5, labels)
    else:
        ctx = ModelContext.from_logit(ids, q, d, rel, 20.0, 1.1, 0.2, labels)
    return ctx, draw(st.integers(1, n + 2))


class TestClassConstrainedOracle:
    @settings(max_examples=200, deadline=None)
    @given(classed_contexts())
    def test_labels_equal_per_flow_loop(self, case):
        ctx, num_bundles = case
        b = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, num_bundles)
        assert np.array_equal(b.labels, reference_class_constrained(ctx, num_bundles))


BUCKET_STRATEGIES = {
    Strategy.DEMAND_WEIGHTED: lambda ctx: ctx.q,
    Strategy.COST_WEIGHTED: lambda ctx: 1.0 / ctx.c,
    Strategy.PROFIT_WEIGHTED: lambda ctx: ctx.potential_profits,
}


@st.composite
def bucket_queries(draw):
    """A class-labelled market, possibly with tied demands and costs, of
    up to 60 flows or of 2000 to 2500, and a list of (strategy, bundle
    count) queries in any order."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(2000, 2500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = rng.choice((1.0, 2.0, 5.0), n)
        d = rng.choice(TIED_DISTANCES, n)
    else:
        q = rng.lognormal(1.0, 1.2, size=n)
        d = rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    labels = rng.choice(("peer", "customer", "metro"), n).tolist()
    ids = [f"f{i:02d}" for i in range(n)]
    if draw(st.booleans()):
        ctx = ModelContext.from_ced(ids, q, d, rel, 20.0, 1.5, labels)
    else:
        ctx = ModelContext.from_logit(ids, q, d, rel, 20.0, 1.1, 0.2, labels)
    top = 2 * n + 2 if n <= 60 else 12
    queries = draw(st.lists(
        st.tuples(st.sampled_from([*BUCKET_STRATEGIES, Strategy.CLASS_PROFIT_WEIGHTED]),
                  st.integers(1, top)),
        min_size=1, max_size=6))
    return ctx, queries


class TestTokenBucketContextOracle:
    """The strategies drain their context's cached visiting orders; each
    answer equals the per-flow loop on the context's own weights and ids,
    whatever was asked of the context before."""

    @settings(max_examples=60, deadline=None)
    @given(bucket_queries())
    def test_strategies_equal_per_flow_loops(self, case):
        ctx, queries = case
        ids = ctx.ids.tolist()
        for strategy, num_bundles in queries:
            got = build_bundles(strategy, ctx, num_bundles).labels
            if strategy is Strategy.CLASS_PROFIT_WEIGHTED:
                expected = reference_class_constrained(ctx, num_bundles)
            else:
                weights = BUCKET_STRATEGIES[strategy](ctx)
                expected = reference_token_bucket(weights, ids, num_bundles)
            assert np.array_equal(got, expected), (strategy, num_bundles)


@st.composite
def classed_logit_markets(draw):
    """A class-labelled logit market, alpha and s0 drawn, possibly with
    tied demands and costs, and a bundle count."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = rng.choice((1.0, 2.0, 5.0), n)
        d = rng.choice(TIED_DISTANCES, n)
    else:
        q = rng.lognormal(1.0, 1.2, size=n)
        d = rng.uniform(1.0, 100.0, size=n)
    labels = rng.choice(("peer", "customer", "metro"), n).tolist()
    ctx = ModelContext.from_logit([f"f{i:02d}" for i in range(n)], q, d, d + 0.1 * d.max(),
                                  20.0, draw(st.floats(0.6, 3.0)), draw(st.floats(0.1, 0.8)),
                                  labels)
    return ctx, draw(st.integers(1, n + 2))


class TestProfitWeights:
    @settings(max_examples=100, deadline=None)
    @given(classed_logit_markets())
    def test_logit_profit_weighted_is_demand_weighted(self, case):
        # every flow's optimal price carries one markup, so standalone
        # profit is a constant times demand: at the blended rate's markup
        # 1/(alpha*s0), K*(1-s0)*q/(alpha*s0)
        ctx, num_bundles = case
        demand = build_bundles(Strategy.DEMAND_WEIGHTED, ctx, num_bundles).labels
        profit = build_bundles(Strategy.PROFIT_WEIGHTED, ctx, num_bundles).labels
        assert np.array_equal(profit, demand)
        standalone = ctx.consumer_mass * (1.0 - ctx.s0) * ctx.q / (ctx.alpha * ctx.s0)
        assert np.array_equal(
            token_bucket_bundles(standalone, ctx.ids.tolist(), num_bundles).labels, demand)
        classed = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, num_bundles).labels
        assert np.array_equal(classed, reference_class_constrained(ctx, num_bundles, ctx.q))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.floats(1.05, 6.0),
           st.booleans())
    def test_ced_potential_profits_equal_per_flow_formula(self, seed, n, alpha, tied):
        ctx = ced_context(np.random.default_rng(seed), n, alpha=alpha, tied=tied)
        np.testing.assert_allclose(ctx.potential_profits,
                                   ced_potential_profit(ctx.v, ctx.c, alpha),
                                   rtol=1e-12, atol=0)


# the logit price solver's default tolerance on max|p - c - 1/(alpha*s0)|
SOLVER_TOL = 1e-8


class TestSurplusFollowsProfit:
    """The paper's second finding, that consumer surplus follows profit
    as tiers are added, holds exactly in this model: an identity under
    CED, an ordering under logit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.floats(1.05, 6.0))
    def test_ced_surplus_is_a_fixed_multiple_of_profit(self, seed, n, alpha):
        # priced at p = alpha*X/((alpha-1)*W) a bundle earns profit
        # W*p**(1-alpha)/alpha and leaves surplus W*p**(1-alpha)/(alpha-1),
        # the baselines included, so the two captures coincide; the
        # surplus is computed from the profit, so the identity is exact
        ctx = ced_context(np.random.default_rng(seed), n, alpha=alpha)
        for strategy in (Strategy.OPTIMAL, *HEURISTICS):
            for num_bundles in range(1, 9):
                out = evaluate_bundling(ctx, build_bundles(strategy, ctx, num_bundles))
                assert out.consumer_surplus == alpha / (alpha - 1.0) * out.profit
                assert abs(out.surplus_capture - out.profit_capture) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.booleans())
    def test_logit_surplus_ranks_as_profit(self, seed, n, tied):
        # at its optimal prices a bundling's profit K*(1-s0)/(alpha*s0)
        # and surplus K*(euler_gamma - ln s0)/alpha both fall with the
        # non-buying share s0, so they rank bundlings alike. The prices
        # carry one markup m with |m - 1/(alpha*s0(m))| < SOLVER_TOL; that
        # map's slope is 1/s0 >= 1, so m is within SOLVER_TOL of the
        # exact markup, and surplus, whose slope in m is -K*(1-s0), within
        # K*SOLVER_TOL of its exact value. Profit is stationary at the
        # exact markup, so its error is second order. Two surpluses then
        # rank against their profits up to 2*K*SOLVER_TOL.
        ctx = logit_context(np.random.default_rng(seed), n, tied=tied)
        slack = 2.0 * ctx.consumer_mass * SOLVER_TOL
        outcomes = {(strategy, num_bundles): evaluate_bundling(
                        ctx, build_bundles(strategy, ctx, num_bundles))
                    for strategy in (Strategy.OPTIMAL, *HEURISTICS)
                    for num_bundles in range(1, 7)}
        profit = np.array([out.profit for out in outcomes.values()])
        surplus = np.array([out.consumer_surplus for out in outcomes.values()])
        no_more_profit = profit[:, None] <= profit[None, :]
        assert np.all(~no_more_profit | (surplus[:, None] <= surplus[None, :] + slack))
        for (strategy, num_bundles), out in outcomes.items():
            best = outcomes[Strategy.OPTIMAL, num_bundles].consumer_surplus
            assert out.consumer_surplus <= best + slack, (strategy, num_bundles)


def reference_contiguous_optimal(ctx, num_bundles):
    """O(n^2 B) dynamic program over the cost order (ties by flow id):
    the best partition into at most ``num_bundles`` cost-contiguous
    blocks, every block end searched against every block start. Scores a
    block by its sufficient statistics W = sum w, X = sum c*w, as the
    optimal search does, but under CED by the kappa form
    ``bundle_profit_closed_form``, so that the search's formula is
    checked against an independent one. Returns labels in flow order."""
    n = len(ctx.ids)
    order = sorted(range(n), key=lambda i: (ctx.c[i], ctx.ids[i]))
    v, c = ctx.v[order], ctx.c[order]
    if ctx.model is DemandModel.CED:
        w = v ** ctx.alpha
    else:
        w = np.exp(ctx.alpha * (v - v.max()))
    w_pre = np.concatenate([[0.0], np.cumsum(w)])
    x_pre = np.concatenate([[0.0], np.cumsum(c * w)])

    def score(W, X):
        ok = W > 0
        W = np.where(ok, W, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if ctx.model is DemandModel.CED:
                s = bundle_profit_closed_form(W, X, ctx.alpha)
            else:
                s = W * np.exp(-ctx.alpha * X / W)
        return np.where(ok, s, 0.0)

    levels = min(num_bundles, n)
    dp = np.full((levels + 1, n + 1), -np.inf)
    dp[0, 0] = 0.0
    choice = np.zeros((levels + 1, n + 1), dtype=int)
    for k in range(1, levels + 1):
        dp[k, 0] = 0.0
        for j in range(1, n + 1):
            i = np.arange(j)
            cand = dp[k - 1, i] + score(w_pre[j] - w_pre[i], x_pre[j] - x_pre[i])
            best = int(np.argmax(cand))
            if cand[best] >= dp[k - 1, j]:
                dp[k, j] = cand[best]
                choice[k, j] = best
            else:
                dp[k, j] = dp[k - 1, j]
                choice[k, j] = -1
    j, k = n, levels
    bounds = []
    while j > 0:
        if choice[k, j] == -1:
            k -= 1
            continue
        bounds.append((choice[k, j], j))
        j = choice[k, j]
        k -= 1
    labels = np.empty(n, dtype=int)
    for b, (lo, hi) in enumerate(reversed(bounds)):
        labels[order[lo:hi]] = b
    return labels


def reference_divide_and_conquer(ctx, num_bundles):
    """The divide-and-conquer DP over the cost order (ties by flow id)
    with every layer built for every prefix, the top layer included:
    each recursion node takes the leftmost best start within its window
    (``where`` plus ``minimum.reduceat``), and each score is the profit
    of ``ced_bundle``, the search's own, or W*exp(-alpha*X/W) behind the
    zero-weight guard. The cuts of the best partition into at most
    ``num_bundles`` blocks are read from the layers' starts. Returns
    labels in flow order."""
    n = len(ctx.ids)
    order = np.array(sorted(range(n), key=lambda i: (ctx.c[i], ctx.ids[i])))
    v, c = ctx.v[order], ctx.c[order]
    if ctx.model is DemandModel.CED:
        w = v ** ctx.alpha
    else:
        w = np.exp(ctx.alpha * (v - ctx.v.max()))
    w_pre = np.concatenate(([0.0], np.cumsum(w)))
    x_pre = np.concatenate(([0.0], np.cumsum(c * w)))

    def score(i, j):
        W = w_pre[j] - w_pre[i]
        X = x_pre[j] - x_pre[i]
        ok = W > 0
        W = np.where(ok, W, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if ctx.model is DemandModel.CED:
                _, s = ced_bundle(W, X, ctx.alpha)
            else:
                s = W * np.exp(-ctx.alpha * X / W)
        return np.where(ok, s, 0.0)

    levels = min(num_bundles, n)
    value = np.concatenate(([-np.inf], score(0, np.arange(1, n + 1))))
    starts = [np.zeros(n + 1, dtype=np.intp)]
    for k in range(2, levels + 1):
        layer = np.full(n + 1, -np.inf)
        start = np.zeros(n + 1, dtype=np.intp)
        lo, hi = np.array([k]), np.array([n])
        first, last = np.array([k - 1]), np.array([n - 1])
        while lo.size:
            mid = (lo + hi) // 2
            sizes = np.minimum(last, mid - 1) - first + 1
            node = np.repeat(np.arange(mid.size), sizes)
            offsets = np.cumsum(sizes) - sizes
            i = np.arange(node.size) - offsets[node] + first[node]
            cand = value[i] + score(i, mid[node])
            best = np.maximum.reduceat(cand, offsets)
            hit = np.where(cand == best[node], np.arange(cand.size), cand.size)
            arg = i[np.minimum.reduceat(hit, offsets)]
            layer[mid] = best
            start[mid] = arg
            left, right = lo < mid, mid < hi
            lo, hi, first, last = (
                np.concatenate((lo[left], mid[right] + 1)),
                np.concatenate((mid[left] - 1, hi[right])),
                np.concatenate((first[left], arg[right])),
                np.concatenate((arg[left], last[right])),
            )
        value = layer
        starts.append(start)
    cuts = [n]
    for start in reversed(starts):
        cuts.append(int(start[cuts[-1]]))
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.repeat(np.arange(levels), -np.diff(cuts)[::-1])
    return labels


@st.composite
def optimal_cases(draw, max_flows=300):
    n = draw(st.integers(1, max_flows))
    make = draw(st.sampled_from([ced_context, logit_context]))
    seed = draw(st.integers(0, 2**32 - 1))
    ctx = make(np.random.default_rng(seed), n, tied=draw(st.booleans()))
    return ctx, draw(st.integers(1, 10))


def assert_same_as_divide_and_conquer(ctx, num_bundles):
    """``optimal_bundles`` gives the labels of
    ``reference_divide_and_conquer``. With more blocks than distinct
    costs, blocks split groups of equal cost, and every such split of a
    group scores the same in exact arithmetic: the argmax among those
    ties is rounding residue, so there only the profit must agree."""
    got = optimal_bundles(ctx, num_bundles).labels
    ref = reference_divide_and_conquer(ctx, num_bundles)
    if min(num_bundles, len(ctx.ids)) <= len(np.unique(ctx.c)):
        assert np.array_equal(got, ref), num_bundles
    else:
        assert partition_profit(ctx, got) == pytest.approx(
            partition_profit(ctx, ref), rel=1e-12), num_bundles


@st.composite
def request_orders(draw):
    """A market, tied or untied and with or without tiny-demand flows
    (``demands``), and its tier counts 1..B asked for in ascending,
    descending or shuffled order."""
    n = draw(st.integers(1, 300))
    make = draw(st.sampled_from([ced_context, logit_context]))
    seed = draw(st.integers(0, 2**32 - 1))
    ctx = make(np.random.default_rng(seed), n, tied=draw(st.booleans()),
               tiny=draw(st.integers(0, n // 2)))
    counts = list(range(1, draw(st.integers(1, 10)) + 1))
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        counts.reverse()
    elif order == "shuffled":
        counts = draw(st.permutations(counts))
    return ctx, counts


HEURISTICS = [s for s in Strategy
              if s not in (Strategy.OPTIMAL, Strategy.CLASS_PROFIT_WEIGHTED)]


class TestOptimalOracle:
    @settings(max_examples=150, deadline=None)
    @given(optimal_cases())
    def test_profit_equals_quadratic_dp(self, case):
        ctx, num_bundles = case
        got = partition_profit(ctx, optimal_bundles(ctx, num_bundles).labels)
        ref = partition_profit(ctx, reference_contiguous_optimal(ctx, num_bundles))
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context,
                                          tied_ced_context, tied_logit_context])
    def test_profit_equals_quadratic_dp_at_300_flows(self, make_ctx):
        ctx = make_ctx(np.random.default_rng(28), 300)
        got = partition_profit(ctx, optimal_bundles(ctx, 10).labels)
        ref = partition_profit(ctx, reference_contiguous_optimal(ctx, 10))
        assert got == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(request_orders())
    def test_labels_equal_divide_and_conquer(self, case):
        ctx, counts = case
        for num_bundles in counts:
            assert_same_as_divide_and_conquer(ctx, num_bundles)

    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context,
                                          tied_ced_context, tied_logit_context,
                                          tiny_ced_context, tiny_logit_context])
    def test_labels_equal_divide_and_conquer_at_5000_flows(self, make_ctx):
        ctx = make_ctx(np.random.default_rng(29), 5000)
        for num_bundles in (8, 3, 1, 5, 2, 7, 4, 6):
            assert_same_as_divide_and_conquer(ctx, num_bundles)

    @pytest.mark.parametrize("group", [1, 7, 64])
    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context])
    def test_node_groups_do_not_change_labels(self, monkeypatch, make_ctx, group):
        # a depth pass splits its nodes into groups of about _GROUP
        # candidates; at small groups every depth of 500 flows splits
        monkeypatch.setattr(bundling, "_GROUP", group)
        ctx = make_ctx(np.random.default_rng(31), 500)
        for num_bundles in (6, 1, 3, 2):
            assert_same_as_divide_and_conquer(ctx, num_bundles)

    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context])
    def test_single_flow(self, make_ctx):
        ctx = make_ctx(np.random.default_rng(27), 1)
        for num_bundles in (1, 3):
            b = optimal_bundles(ctx, num_bundles)
            assert b.labels.tolist() == [0]
            assert np.array_equal(b.labels, reference_contiguous_optimal(ctx, num_bundles))

    @settings(max_examples=60, deadline=None)
    @given(optimal_cases(max_flows=60))
    def test_not_below_any_heuristic(self, case):
        ctx, num_bundles = case
        best = partition_profit(ctx, optimal_bundles(ctx, num_bundles).labels)
        for strategy in HEURISTICS:
            got = partition_profit(ctx, build_bundles(strategy, ctx, num_bundles).labels)
            assert got <= best + 1e-12 * abs(best)

    @settings(max_examples=60, deadline=None)
    @given(optimal_cases(max_flows=60))
    def test_profit_nondecreasing_in_bundle_count(self, case):
        ctx, top = case
        profits = [partition_profit(ctx, optimal_bundles(ctx, k).labels)
                   for k in range(1, top + 1)]
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(profits, profits[1:]))

    @settings(max_examples=100, deadline=None)
    @given(optimal_cases())
    def test_labels_contiguous_in_cost_order(self, case):
        ctx, num_bundles = case
        n = len(ctx.ids)
        order = sorted(range(n), key=lambda i: (ctx.c[i], ctx.ids[i]))
        ranked = optimal_bundles(ctx, num_bundles).labels[order]
        # blocks numbered 0, 1, ... from the cheapest, none empty
        assert ranked[0] == 0
        assert np.all(np.diff(ranked) >= 0)
        assert ranked[-1] == min(num_bundles, n) - 1
        assert len(np.unique(ranked)) == min(num_bundles, n)

    @settings(max_examples=60, deadline=None)
    @given(optimal_cases(max_flows=60))
    def test_capture_one_with_a_bundle_per_distinct_cost(self, case):
        ctx, _ = case
        distinct = len(np.unique(ctx.c))
        assume(distinct >= 2)
        out = evaluate_bundling(ctx, optimal_bundles(ctx, distinct))
        assert out.profit_capture == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Stable orders from the default sort, tiers as runs, and the DP's checks
# ---------------------------------------------------------------------------


@st.composite
def tied_keys(draw):
    """1 to 300 keys from a few distinct values, -0.0 and 0.0 among them
    (heavy ties), and shuffled flow ids, distinct or tied."""
    n = draw(st.integers(1, 300))
    values = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 1e-300, 7e9]),
                           min_size=1, max_size=4))
    keys = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    if draw(st.booleans()):
        ids = [f"f{i:03d}" for i in draw(st.permutations(range(n)))]
    else:
        ids = [f"f{i}" for i in draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))]
    return keys, np.array(ids)


class TestStableArgsort:
    @settings(max_examples=300, deadline=None)
    @given(tied_keys())
    def test_equals_the_stable_sorts(self, case):
        keys, ids = case
        assert np.array_equal(bundling._stable_argsort(keys),
                              np.argsort(keys, kind="stable"))
        id_order = np.argsort(ids, kind="stable")
        assert np.array_equal(bundling._stable_argsort(keys, lambda: id_order),
                              np.lexsort((ids, keys)))

    def test_tie_order_read_only_when_keys_tie(self):
        def unread():
            raise AssertionError("the tie order was read")

        keys = np.array([3.0, -1.0, 2.0, 0.0])
        assert bundling._stable_argsort(keys, unread).tolist() == [1, 3, 2, 0]

    @pytest.mark.parametrize("make_ctx", [ced_context, tied_ced_context])
    def test_cost_order_is_the_lexsort_of_ids_and_costs(self, make_ctx):
        ctx = make_ctx(np.random.default_rng(35), 2000)
        assert np.array_equal(ctx.cost_order, np.lexsort((ctx.ids, ctx.c)))


def scattered_labels(ctx, strategy, num_bundles):
    """The labels each strategy wrote before its tiers were built as runs
    of the order it walks: each position's run index, scattered to the
    flow at that position."""
    n = len(ctx.ids)
    if strategy is Strategy.CLASS_PROFIT_WEIGHTED:
        return reference_class_constrained(ctx, num_bundles)
    if strategy is Strategy.COST_DIVISION:
        return build_bundles(strategy, ctx, num_bundles).labels
    labels = np.empty(n, dtype=np.intp)
    if strategy is Strategy.INDEX_DIVISION:
        labels[np.lexsort((ctx.ids, ctx.c))] = np.arange(n) // math.ceil(n / num_bundles)
    elif strategy is Strategy.OPTIMAL:
        blocks = min(num_bundles, n)
        cuts = ctx._optimum.cuts(blocks)
        labels[ctx.cost_order] = np.repeat(np.arange(blocks), np.diff(cuts))
    else:
        visit = {Strategy.DEMAND_WEIGHTED: ctx.orders.demand_visit,
                 Strategy.COST_WEIGHTED: ctx.cost_visit,
                 Strategy.PROFIT_WEIGHTED: ctx.profit_visit}[tiers_of(strategy, ctx.model)]
        bounds = bundling._drain(visit.prefix, visit.total / num_bundles, num_bundles)
        labels[visit.order] = np.repeat(np.arange(num_bundles), np.diff(bounds))
    return labels


@st.composite
def run_markets(draw):
    """A class-labelled market of 1 to 40 flows, CED or logit, with or
    without tied demands and costs."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = rng.choice((1.0, 2.0, 5.0), n)
        d = rng.choice(TIED_DISTANCES, n)
    else:
        q = rng.lognormal(1.0, 1.2, size=n)
        d = rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    labels = rng.choice(("peer", "customer", "metro"), n).tolist()
    ids = [f"f{i:02d}" for i in rng.permutation(n)]
    if draw(st.booleans()):
        return ModelContext.from_ced(ids, q, d, rel, 20.0, 1.5, labels)
    return ModelContext.from_logit(ids, q, d, rel, 20.0, 1.1, 0.2, labels)


def assert_same_grouping(got, expected, members_type=np.intp):
    assert got.num_bundles == expected.num_bundles
    assert got.members.dtype == members_type
    for name in ("members", "sizes", "labels"):
        a, b = getattr(got, name), getattr(expected, name)
        assert np.array_equal(a, b), name
        assert name == "members" or a.dtype == b.dtype, name
        assert not a.flags.writeable, name


class TestRunBuiltBundling:
    """Every strategy's tiers, built as runs of the order it walks, group
    the flows as the labels it scattered before did, empty bundles and
    more bundles than flows included."""

    @settings(max_examples=100, deadline=None)
    @given(run_markets())
    def test_equals_the_scattered_labels(self, ctx):
        for num_bundles in range(1, len(ctx.ids) + 3):
            for strategy in Strategy:
                expected = Bundling(scattered_labels(ctx, strategy, num_bundles), num_bundles)
                assert_same_grouping(build_bundles(strategy, ctx, num_bundles), expected)

    @settings(max_examples=50, deadline=None)
    @given(run_markets())
    def test_kept_demand_tiers_are_compact(self, ctx):
        orders = bundling.FlowOrders(ctx.ids, ctx.q, keep_tiers=True)
        for num_bundles in range(1, len(ctx.ids) + 3):
            labels = scattered_labels(ctx, Strategy.DEMAND_WEIGHTED, num_bundles)
            assert_same_grouping(orders.demand_tiers(num_bundles),
                                 Bundling(labels, num_bundles),
                                 np.min_scalar_type(len(ctx.ids)))

    @pytest.mark.parametrize("bounds", [[1, 3], [0, 2], [0, 2, 1, 3], [0]])
    def test_bounds_must_rise_from_zero_to_the_flow_count(self, bounds):
        with pytest.raises(DomainError, match="run bounds must rise from 0 to 3"):
            Bundling.from_runs(np.array([2, 0, 1]), bounds)


def underflowing_ced_context(rng, n):
    """A CED market at alpha 400 whose ranges are priced at 5 to 7, where
    the price power p**(1-alpha) underflows float64 for many of them,
    while v**alpha and the profits stay in range (the case of
    ``ced_bundle``'s half powers)."""
    alpha = 400.0
    v = rng.uniform(3.0, 5.0, n)
    c = rng.uniform(5.0, 7.0, n) * (alpha - 1.0) / alpha
    return ModelContext([f"f{i:02d}" for i in range(n)], demands(rng, n),
                        rng.uniform(1.0, 100.0, n), v, c, None, DemandModel.CED, alpha, 20.0)


class TestCheckedScores:
    """The depth passes score candidates in place only where no range
    can trip a check of ``_score``; elsewhere they take the checked path
    and still agree with the oracles."""

    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context,
                                          tied_ced_context, tied_logit_context])
    def test_ordinary_markets_score_in_place(self, make_ctx):
        assert make_ctx(np.random.default_rng(36), 300)._optimum.in_place

    @pytest.mark.parametrize("make_ctx", [underflowing_ced_context, spread_logit_context,
                                          tiny_logit_context])
    def test_markets_that_trip_a_check_take_the_checked_path(self, make_ctx):
        ctx = make_ctx(np.random.default_rng(37), 300)
        assert not ctx._optimum.in_place
        for num_bundles in (6, 1, 3):
            assert_same_as_divide_and_conquer(ctx, num_bundles)

    @pytest.mark.parametrize("make_ctx", [spread_logit_context, tiny_logit_context])
    def test_underflowed_logit_weights_equal_quadratic_dp(self, make_ctx):
        ctx = make_ctx(np.random.default_rng(38), 120)
        assert not ctx._optimum.in_place
        for num_bundles in (1, 4, 7):
            got = partition_profit(ctx, optimal_bundles(ctx, num_bundles).labels)
            ref = partition_profit(ctx, reference_contiguous_optimal(ctx, num_bundles))
            assert got == pytest.approx(ref, rel=1e-12)

    def test_out_of_range_ced_powers_equal_contiguous_enumeration(self):
        # the closed form of the quadratic DP overflows at this alpha, so
        # every partition of the cost order into at most B blocks is
        # priced by the per-flow oracles, as for the large alphas above
        n = 12
        ctx = underflowing_ced_context(np.random.default_rng(39), n)
        assert not ctx._optimum.in_place
        order = sorted(range(n), key=lambda i: (ctx.c[i], ctx.ids[i]))

        def oracle_profit(blocks):
            p = np.empty(n)
            for block in blocks:
                p[block] = ced_bundle_price(ctx.v[block], ctx.c[block], ctx.alpha)
            return ced_profit(ctx.v, p, ctx.c, ctx.alpha)

        for num_bundles in range(1, 6):
            best = max(
                oracle_profit([order[lo:hi] for lo, hi in zip((0, *cuts), (*cuts, n))])
                for k in range(num_bundles)
                for cuts in itertools.combinations(range(1, n), k))
            labels = optimal_bundles(ctx, num_bundles).labels
            got = oracle_profit([np.flatnonzero(labels == b) for b in range(num_bundles)])
            assert got == pytest.approx(best, rel=1e-12, abs=0)
