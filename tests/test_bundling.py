"""Bundling strategies, exhaustive-search oracle checks, and capture
metric arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing.bundling import (
    ModelContext,
    Strategy,
    build_bundles,
    evaluate_bundling,
    optimal_bundles,
    profit_capture,
    token_bucket_bundles,
)
from tierpricing.demand_ced import ced_bundle_price, ced_consumer_surplus, ced_profit, fit_ced
from tierpricing.demand_logit import (
    fit_logit,
    logit_bundle_cost,
    logit_bundle_valuation,
    logit_consumer_surplus,
    logit_profit,
    logit_solve_prices,
)
from tierpricing.domain import (
    Bundling,
    DegenerateBaseline,
    DemandModel,
    DomainError,
    MissingClassLabels,
    TooManyFlows,
)


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


def ced_context(rng, n, alpha=1.5, p0=20.0):
    q = rng.lognormal(1.0, 1.2, size=n)
    d = rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    fit = fit_ced([f"f{i:02d}" for i in range(n)], q, d, rel, p0, alpha)
    return ModelContext.from_ced(fit, p0)


def logit_context(rng, n, alpha=1.1, p0=20.0, s0=0.2):
    q = rng.lognormal(1.0, 1.2, size=n)
    d = rng.uniform(1.0, 100.0, size=n)
    rel = d + 0.1 * d.max()
    fit = fit_logit([f"f{i:02d}" for i in range(n)], q, d, rel, p0, alpha, s0)
    return ModelContext.from_logit(fit, p0)


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
        # max cost $10 with two bundles: [0, 5) and [5, 10]
        rng = np.random.default_rng(1)
        ctx = ced_context(rng, 6)
        object.__setattr__(ctx, "c", np.array([1.0, 4.99, 5.0, 7.0, 10.0, 0.5]))
        b = build_bundles(Strategy.COST_DIVISION, ctx, 2)
        assert ctx.ids.tolist() == [f"f{i:02d}" for i in range(6)]
        assert b.labels.tolist() == [0, 0, 1, 1, 1, 0]

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
        fit = fit_ced([f"f{i:02d}" for i in range(n)], q, d, rel, 20.0, 1.5,
                      labels=labels)
        return ModelContext.from_ced(fit, 20.0)

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
        with pytest.raises(MissingClassLabels):
            build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 2)

    def test_fewer_bundles_than_classes_falls_back(self):
        rng = np.random.default_rng(8)
        ctx = self._labeled_context(rng)
        b = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 1)
        assert b.effective_bundles == 1


class TestOptimal:
    @pytest.mark.parametrize("make_ctx", [ced_context, logit_context])
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
                    outcome = evaluate_bundling(
                        ctx, Bundling(labels, max(num_bundles, len(parts)))
                    )
                    best = max(best, outcome.profit)
                got = evaluate_bundling(ctx, optimal_bundles(ctx, num_bundles, "full"))
                assert got.profit == pytest.approx(best, rel=1e-9)

    def test_two_cost_classes_recovered(self):
        # flows forming two (v, c) classes split exactly on the class line
        ids = [f"f{i}" for i in range(6)]
        q = np.array([4.0, 4.0, 4.0, 9.0, 9.0, 9.0])
        d = np.array([1.0, 1.0, 1.0, 50.0, 50.0, 50.0])
        fit = fit_ced(ids, q, d, d, 20.0, 2.0)
        ctx = ModelContext.from_ced(fit, 20.0)
        b = optimal_bundles(ctx, 2, "full")
        groups = {}
        for fid, bundle in zip(ctx.ids, b.labels.tolist()):
            groups.setdefault(bundle, set()).add(fid)
        assert {frozenset(g) for g in groups.values()} == {
            frozenset({"f0", "f1", "f2"}), frozenset({"f3", "f4", "f5"}),
        }

    def test_single_bundle_trivial(self):
        rng = np.random.default_rng(10)
        ctx = ced_context(rng, 5)
        b = optimal_bundles(ctx, 1, "full")
        assert b.effective_bundles == 1

    def test_enough_bundles_reaches_per_flow_max(self):
        rng = np.random.default_rng(11)
        for make_ctx in (ced_context, logit_context):
            ctx = make_ctx(rng, 6)
            out = evaluate_bundling(ctx, optimal_bundles(ctx, 6, "full"))
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
                    best = evaluate_bundling(
                        ctx, optimal_bundles(ctx, num_bundles, "full")
                    ).profit
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
                evaluate_bundling(ctx, optimal_bundles(ctx, k, "full")).profit
                for k in range(1, 9)
            ]
            diffs = np.diff(profits)
            assert np.all(diffs >= -1e-9 * abs(profits[-1]))

    def test_contiguous_not_above_full(self):
        rng = np.random.default_rng(14)
        ctx = ced_context(rng, 8)
        for num_bundles in (2, 3, 4):
            full = evaluate_bundling(ctx, optimal_bundles(ctx, num_bundles, "full"))
            contig = evaluate_bundling(
                ctx, optimal_bundles(ctx, num_bundles, "contiguous")
            )
            assert contig.profit <= full.profit + 1e-9 * abs(full.profit)

    def test_contiguous_handles_larger_sets(self):
        rng = np.random.default_rng(15)
        ctx = ced_context(rng, 200)
        out = evaluate_bundling(ctx, optimal_bundles(ctx, 4, "contiguous"))
        assert 0.0 <= out.profit_capture <= 1.0 + 1e-12

    def test_auto_aggregates_beyond_limit(self):
        rng = np.random.default_rng(16)
        ctx = ced_context(rng, 40)
        b = optimal_bundles(ctx, 3, "auto")
        assert b.effective_bundles <= 3
        out = evaluate_bundling(ctx, b)
        assert out.profit <= ctx.pi_max

    def test_full_mode_size_guard(self):
        rng = np.random.default_rng(17)
        ctx = ced_context(rng, 14)
        with pytest.raises(TooManyFlows):
            optimal_bundles(ctx, 2, "full")

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        ctx = ced_context(rng, 9)
        b1 = optimal_bundles(ctx, 3, "full")
        b2 = optimal_bundles(ctx, 3, "full")
        assert np.array_equal(b1.labels, b2.labels)


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

    def test_logit_bundle_prices_share_markup(self):
        rng = np.random.default_rng(23)
        ctx = logit_context(rng, 15)
        out = evaluate_bundling(ctx, build_bundles(Strategy.INDEX_DIVISION, ctx, 3))
        prices = np.array(out.prices)
        assert np.all(np.isfinite(prices))

    def test_logit_aggregation_is_exact(self):
        # bundled-system profit and surplus must equal the original
        # system evaluated at the same shared within-bundle prices
        from tierpricing.demand_logit import logit_consumer_surplus, logit_profit

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
        with pytest.raises(DegenerateBaseline):
            profit_capture(10.0, 20.0, 20.0 + 1e-13)


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


# ---------------------------------------------------------------------------
# Per-flow reference implementations and properties against them
# ---------------------------------------------------------------------------


def reference_token_bucket(weights, flow_ids, num_bundles):
    """Per-flow token-bucket loop: visit flows by decreasing weight (ties
    by flow id) and give each to the first bundle that is empty or still
    has budget. Returns labels in the order of ``flow_ids``."""
    weights = np.asarray(weights, dtype=float)
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], flow_ids[i]))
    budget = [weights.sum() / num_bundles] * num_bundles
    used = [False] * num_bundles
    labels = [None] * n
    for i in order:
        for j in range(num_bundles):
            if not used[j] or budget[j] > 0:
                labels[i] = j
                used[j] = True
                budget[j] -= weights[i]
                if budget[j] < 0 and j + 1 < num_bundles:
                    budget[j + 1] += budget[j]
                    budget[j] = 0.0
                break
        else:
            labels[i] = num_bundles - 1
    return labels


def reference_evaluate(ctx, labels, num_bundles):
    """Per-bundle pricing loop over member lists built flow by flow;
    returns (prices, profit, surplus, profit capture, surplus capture)."""
    members = [[] for _ in range(num_bundles)]
    for i, b in enumerate(labels):
        members[b].append(i)
    occupied = [b for b, m in enumerate(members) if m]
    prices = np.full(num_bundles, np.nan)
    if ctx.model is DemandModel.CED:
        per_flow = np.empty(len(labels))
        for b in occupied:
            m = np.array(members[b])
            prices[b] = ced_bundle_price(ctx.v[m], ctx.c[m], ctx.alpha)
            per_flow[m] = prices[b]
        profit = ced_profit(ctx.v, per_flow, ctx.c, ctx.alpha)
        surplus = ced_consumer_surplus(ctx.v, per_flow, ctx.alpha)
    else:
        v_b = np.array([logit_bundle_valuation(ctx.v[members[b]], ctx.alpha)
                        for b in occupied])
        c_b = np.array([logit_bundle_cost(ctx.c[members[b]], ctx.v[members[b]],
                                          ctx.alpha) for b in occupied])
        p_b = logit_solve_prices(v_b, c_b, ctx.alpha)
        prices[occupied] = p_b
        profit = logit_profit(v_b, p_b, c_b, ctx.alpha, ctx.consumer_mass)
        surplus = logit_consumer_surplus(v_b, p_b, ctx.alpha, ctx.consumer_mass)
    capture = profit_capture(profit, ctx.pi_orig, ctx.pi_max)
    s_capture = profit_capture(surplus, ctx.cs_orig, ctx.cs_max)
    return prices, profit, surplus, capture, s_capture


TIED_WEIGHTS = (0.25, 0.5, 1.0, 1.5, 3.0, 10.0)


@st.composite
def bucket_cases(draw):
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["tied", "spread", "dominant"]))
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


@st.composite
def labelled_contexts(draw):
    n = draw(st.integers(2, 25))
    make = draw(st.sampled_from([ced_context, logit_context]))
    ctx = make(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    num_bundles = draw(st.integers(1, n + 2))
    labels = draw(st.lists(st.integers(0, num_bundles - 1), min_size=n, max_size=n))
    return ctx, labels, num_bundles


class TestEvaluateOracle:
    @settings(max_examples=150, deadline=None)
    @given(labelled_contexts())
    def test_equals_per_bundle_loop(self, case):
        ctx, labels, num_bundles = case
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

    def test_rejects_labels_of_another_flow_set(self):
        ctx = ced_context(np.random.default_rng(26), 5)
        with pytest.raises(DomainError):
            evaluate_bundling(ctx, Bundling([0, 1, 0], 2))


def reference_class_constrained(ctx, num_bundles):
    """Per-flow class-constrained loop: class masses summed flow by flow,
    bundles allocated to classes by largest remainder, and each class
    token-bucketed on its own. Returns labels in flow order."""
    classes_of = ctx.class_labels.tolist()
    weights = ctx.potential_profits()
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
        ctx = ModelContext.from_ced(fit_ced(ids, q, d, rel, 20.0, 1.5, labels), 20.0)
    else:
        ctx = ModelContext.from_logit(
            fit_logit(ids, q, d, rel, 20.0, 1.1, 0.2, labels), 20.0)
    return ctx, draw(st.integers(1, n + 2))


class TestClassConstrainedOracle:
    @settings(max_examples=200, deadline=None)
    @given(classed_contexts())
    def test_labels_equal_per_flow_loop(self, case):
        ctx, num_bundles = case
        b = build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, num_bundles)
        assert np.array_equal(b.labels, reference_class_constrained(ctx, num_bundles))
