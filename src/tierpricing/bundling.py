"""Tier construction and evaluation.

Six strategies partition flows into price tiers:

* optimal           exhaustive search over set partitions (the oracle)
* demand-weighted   token buckets weighted by observed demand
* cost-weighted     token buckets weighted by 1/cost
* profit-weighted   token buckets weighted by standalone profit
* cost-division     equal-width cost ranges from $0 to the costliest flow
* index-division    equal-count groups of the cost ranking
* class-profit-weighted   profit-weighted, never mixing flow classes

Evaluation prices each bundle optimally under the active demand model
and reports profit and consumer surplus plus the capture metrics
(share of the gap between blended-rate pricing and per-flow pricing
that the bundling recovers).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .demand_ced import (
    CedFit,
    bundle_profit_closed_form,
    ced_bundle_price,
    ced_consumer_surplus,
    ced_optimal_price,
    ced_potential_profit,
    ced_profit,
)
from .demand_logit import (
    LogitFit,
    logit_bundle_cost,
    logit_bundle_valuation,
    logit_consumer_surplus,
    logit_potential_profit,
    logit_profit,
    logit_solve_prices,
)
from .domain import (
    Bundling,
    DegenerateBaseline,
    DemandModel,
    DomainError,
    FittedFlow,
    MissingClassLabels,
    TierOutcome,
    TooManyFlows,
)

log = logging.getLogger(__name__)

# Exhaustive search over all set partitions is limited to this many
# units; beyond it flows are aggregated into quantile buckets first.
FULL_PARTITION_LIMIT = 12


class Strategy(str, Enum):
    OPTIMAL = "optimal"
    DEMAND_WEIGHTED = "demand-weighted"
    COST_WEIGHTED = "cost-weighted"
    PROFIT_WEIGHTED = "profit-weighted"
    COST_DIVISION = "cost-division"
    INDEX_DIVISION = "index-division"
    CLASS_PROFIT_WEIGHTED = "class-profit-weighted"


@dataclass(frozen=True)
class ModelContext:
    """A fitted market plus the cached pricing baselines every capture
    metric is measured against: profit and surplus at the blended rate
    (original) and at per-flow pricing (maximum)."""

    model: DemandModel
    flows: tuple[FittedFlow, ...]
    alpha: float
    p0: float
    s0: float | None = None
    consumer_mass: float | None = None
    gamma: float | None = None
    cs_unit_price_offset: bool = False
    ids: tuple[str, ...] = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    c: np.ndarray = field(init=False, repr=False)
    pi_orig: float = field(init=False)
    pi_max: float = field(init=False)
    cs_orig: float = field(init=False)
    cs_max: float = field(init=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "ids", tuple(f.flow_id for f in self.flows))
        set_(self, "q", np.array([f.q for f in self.flows]))
        set_(self, "v", np.array([f.v for f in self.flows]))
        set_(self, "c", np.array([f.c for f in self.flows]))
        uniform = np.full(len(self.flows), self.p0)
        if self.model is DemandModel.CED:
            per_flow = ced_optimal_price(self.c, self.alpha)
            offset = self.cs_unit_price_offset
            set_(self, "pi_orig", ced_profit(self.v, uniform, self.c, self.alpha))
            set_(self, "pi_max", ced_profit(self.v, per_flow, self.c, self.alpha))
            set_(self, "cs_orig", ced_consumer_surplus(
                self.v, uniform, self.alpha, unit_price_offset=offset))
            set_(self, "cs_max", ced_consumer_surplus(
                self.v, per_flow, self.alpha, unit_price_offset=offset))
        else:
            if self.s0 is None or self.consumer_mass is None:
                raise DomainError("logit context requires s0 and consumer_mass")
            per_flow = logit_solve_prices(self.v, self.c, self.alpha)
            k = self.consumer_mass
            set_(self, "pi_orig", logit_profit(self.v, uniform, self.c, self.alpha, k))
            set_(self, "pi_max", logit_profit(self.v, per_flow, self.c, self.alpha, k))
            set_(self, "cs_orig", logit_consumer_surplus(self.v, uniform, self.alpha, k))
            set_(self, "cs_max", logit_consumer_surplus(self.v, per_flow, self.alpha, k))

    @classmethod
    def from_ced(cls, fit: CedFit, p0: float,
                 cs_unit_price_offset: bool = False) -> "ModelContext":
        return cls(DemandModel.CED, fit.flows, fit.alpha, p0, gamma=fit.gamma,
                   cs_unit_price_offset=cs_unit_price_offset)

    @classmethod
    def from_logit(cls, fit: LogitFit, p0: float) -> "ModelContext":
        return cls(DemandModel.LOGIT, fit.flows, fit.alpha, p0,
                   s0=fit.s0, consumer_mass=fit.consumer_mass, gamma=fit.gamma)

    def potential_profits(self) -> np.ndarray:
        """Standalone profit of each flow; the profit-weighted bundler's
        weights."""
        if self.model is DemandModel.CED:
            return np.asarray(ced_potential_profit(self.v, self.c, self.alpha))
        return np.asarray(
            logit_potential_profit(self.q, self.alpha, self.s0, self.consumer_mass)
        )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def token_bucket_bundles(weights, flow_ids: Sequence[str], num_bundles: int) -> Bundling:
    """Group flows into bundles by draining equal token budgets.

    The total budget is the weight sum, split evenly across bundles.
    Flows are visited in decreasing weight order (ties by ascending
    flow id) and assigned to the first bundle that is empty or still
    has budget; the flow's weight is drained from that bundle and any
    overdraft carries into the next bundle's budget. Heavy flows end up
    in bundles of their own, light flows share.

    Bundles fill one after another in the visiting order, so each is a
    run of that order: it takes its first flow unconditionally and
    closes at the first running budget <= 0; the last bundle takes the
    rest. The labels follow the order of ``flow_ids``.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise DomainError("token-bucket weights must be finite")
    if np.any(weights <= 0):
        raise DomainError("token-bucket weights must be positive")
    if num_bundles < 1:
        raise DomainError("num_bundles must be >= 1")
    n = len(weights)
    if len(flow_ids) != n:
        raise DomainError(f"{len(flow_ids)} flow ids for {n} weights")
    order = np.lexsort((np.asarray(flow_ids), -weights))
    visit = weights[order]
    share = weights.sum() / num_bundles
    labels = np.empty(n, dtype=np.intp)
    start, carry = 0, 0.0
    for j in range(num_bundles - 1):
        if start == n:
            break
        # running budget after each remaining flow, by the same
        # sequential subtractions as a per-flow loop; the first flow
        # always enters and the bundle ends with the flow that brings
        # the budget to <= 0
        running = np.subtract.accumulate(
            np.concatenate(([share + carry], visit[start:]))
        )[1:]
        closed = np.flatnonzero(running <= 0)
        end = start + int(closed[0]) + 1 if closed.size else n
        labels[order[start:end]] = j
        remainder = running[end - start - 1]
        carry = remainder if remainder < 0 else 0.0
        start = end
    labels[order[start:]] = num_bundles - 1
    return Bundling(labels, num_bundles)


def _cost_division(ctx: ModelContext, num_bundles: int) -> Bundling:
    c_max = float(ctx.c.max())
    idx = np.minimum((ctx.c * num_bundles / c_max).astype(np.intp), num_bundles - 1)
    return Bundling(idx, num_bundles)


def _index_division(ctx: ModelContext, num_bundles: int) -> Bundling:
    n = len(ctx.ids)
    order = np.lexsort((np.asarray(ctx.ids), ctx.c))
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.arange(n) // math.ceil(n / num_bundles)
    return Bundling(labels, num_bundles)


def _class_constrained(ctx: ModelContext, num_bundles: int) -> Bundling:
    labels = [f.class_label for f in ctx.flows]
    if any(lab is None for lab in labels):
        raise MissingClassLabels("class-constrained bundling requires class labels")
    weights = ctx.potential_profits()
    mass: dict[str, float] = {}
    for lab, w in zip(labels, weights):
        mass[lab] = mass.get(lab, 0.0) + float(w)
    classes = sorted(mass, key=lambda lab: (-mass[lab], lab))
    if num_bundles < len(classes):
        # No class-pure partition exists with fewer bundles than classes.
        log.warning(
            "class-constrained bundling needs >= %d bundles, got %d; "
            "falling back to profit-weighted", len(classes), num_bundles,
        )
        return token_bucket_bundles(weights, ctx.ids, num_bundles)
    total = sum(mass.values())
    alloc = {lab: 1 for lab in classes}
    for _ in range(num_bundles - len(classes)):
        lab = max(classes, key=lambda l: num_bundles * mass[l] / total - alloc[l])
        alloc[lab] += 1
    ids = np.asarray(ctx.ids)
    class_of = np.asarray(labels)
    out = np.empty(len(ids), dtype=np.intp)
    offset = 0
    for lab in classes:
        members = np.flatnonzero(class_of == lab)
        sub = token_bucket_bundles(weights[members], ids[members], alloc[lab])
        out[members] = offset + sub.labels
        offset += alloc[lab]
    return Bundling(out, num_bundles)


def build_bundles(strategy: Strategy, ctx: ModelContext, num_bundles: int) -> Bundling:
    """Construct a tier partition with the given strategy."""
    if not ctx.flows:
        raise DomainError("cannot bundle an empty flow set")
    if strategy is Strategy.OPTIMAL:
        return optimal_bundles(ctx, num_bundles)
    if strategy is Strategy.DEMAND_WEIGHTED:
        return token_bucket_bundles(ctx.q, ctx.ids, num_bundles)
    if strategy is Strategy.COST_WEIGHTED:
        return token_bucket_bundles(1.0 / ctx.c, ctx.ids, num_bundles)
    if strategy is Strategy.PROFIT_WEIGHTED:
        return token_bucket_bundles(ctx.potential_profits(), ctx.ids, num_bundles)
    if strategy is Strategy.COST_DIVISION:
        return _cost_division(ctx, num_bundles)
    if strategy is Strategy.INDEX_DIVISION:
        return _index_division(ctx, num_bundles)
    if strategy is Strategy.CLASS_PROFIT_WEIGHTED:
        return _class_constrained(ctx, num_bundles)
    raise DomainError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Exhaustive optimal search
# ---------------------------------------------------------------------------
#
# Both demand models admit a per-bundle sufficient statistic (w, x):
#   CED:   w = v**alpha, x = c * v**alpha, bundle profit from (W, X)
#   logit: w = exp(alpha*(v - vmax)), x = c * w; the jointly-solved
#          partition profit is strictly increasing in the total score
#          sum_b W_b * exp(-alpha * X_b / W_b), so maximizing the score
#          maximizes profit.
# Partition search therefore reduces to maximizing an additive subset
# score, done exactly with a subset-sum dynamic program.


def _unit_scores(ctx: ModelContext, w: np.ndarray, x: np.ndarray):
    if ctx.model is DemandModel.CED:
        base = lambda W, X: bundle_profit_closed_form(W, X, ctx.alpha)
    else:
        base = lambda W, X: W * np.exp(-ctx.alpha * X / W)

    def guarded(W, X):
        # a zero-weight range (underflowed exponentials) contributes nothing
        W = np.asarray(W, dtype=float)
        X = np.asarray(X, dtype=float)
        ok = W > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            res = base(np.where(ok, W, 1.0), X)
        return np.where(ok, res, 0.0)

    return guarded


def _unit_stats(ctx: ModelContext, members: Sequence[np.ndarray]):
    if ctx.model is DemandModel.CED:
        w_flow = ctx.v ** ctx.alpha
    else:
        w_flow = np.exp(ctx.alpha * (ctx.v - ctx.v.max()))
    x_flow = ctx.c * w_flow
    w = np.array([w_flow[m].sum() for m in members])
    x = np.array([x_flow[m].sum() for m in members])
    return w, x


_pairs_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _submask_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All (mask, submask) pairs where the submask contains the mask's
    lowest set bit; the canonical block-enumeration order of the DP."""
    if n in _pairs_cache:
        return _pairs_cache[n]
    masks, subs = [], []
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        t = rest
        while True:
            masks.append(mask)
            subs.append(low | t)
            if t == 0:
                break
            t = (t - 1) & rest
    pair = (np.array(masks, dtype=np.int64), np.array(subs, dtype=np.int64))
    _pairs_cache[n] = pair
    return pair


def _partition_dp(w, x, score_fn, max_blocks: int):
    """Exact maximum of the additive subset score over partitions into
    at most ``max_blocks`` blocks; returns the blocks as bitmasks."""
    n = len(w)
    size = 1 << n
    w_mask = np.zeros(size)
    x_mask = np.zeros(size)
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        w_mask[mask] = w_mask[mask ^ low] + w[i]
        x_mask[mask] = x_mask[mask ^ low] + x[i]
    score = np.full(size, -np.inf)
    score[1:] = score_fn(w_mask[1:], x_mask[1:])
    masks, subs = _submask_pairs(n)
    rest = masks ^ subs
    levels = min(max_blocks, n)
    dp = np.full((levels + 1, size), -np.inf)
    dp[0, 0] = 0.0
    for k in range(1, levels + 1):
        cur = dp[k - 1].copy()
        np.maximum.at(cur, masks, score[subs] + dp[k - 1][rest])
        dp[k] = cur
    blocks = []
    mask = size - 1
    k = levels
    while mask:
        while k > 1 and dp[k - 1][mask] == dp[k][mask]:
            k -= 1
        low = mask & -mask
        rem = mask ^ low
        t = rem
        while True:
            s = low | t
            if score[s] + dp[k - 1][mask ^ s] == dp[k][mask]:
                blocks.append(s)
                mask ^= s
                k -= 1
                break
            if t == 0:
                raise AssertionError("partition DP backtrack failed")
            t = (t - 1) & rem
    return blocks


def _quantile_units(ctx: ModelContext, limit: int) -> list[np.ndarray]:
    """Aggregate flows into ``limit`` quantile buckets ordered by cost
    then potential profit; the tractability device for exhaustive
    search on large flow sets."""
    pot = ctx.potential_profits()
    order = np.lexsort((np.asarray(ctx.ids), pot, ctx.c))
    return np.array_split(order, limit)


def optimal_bundles(ctx: ModelContext, num_bundles: int, mode: str = "auto") -> Bundling:
    """Most profitable partition into at most ``num_bundles`` bundles.

    Modes:
      * ``full``       exhaustive over all set partitions; requires at
                       most FULL_PARTITION_LIMIT flows.
      * ``auto``       ``full`` when small enough, else flows are first
                       aggregated into FULL_PARTITION_LIMIT quantile
                       buckets by (cost, potential profit) and the
                       search runs over buckets.
      * ``contiguous`` optimal among partitions contiguous in the cost
                       ordering (O(n^2 * B) dynamic program).
    """
    n = len(ctx.flows)
    if n == 0:
        raise DomainError("cannot bundle an empty flow set")
    if mode == "contiguous":
        return _contiguous_optimal(ctx, num_bundles)
    if mode == "full":
        if n > FULL_PARTITION_LIMIT:
            raise TooManyFlows(
                f"full partition search limited to {FULL_PARTITION_LIMIT} flows, got {n}"
            )
        units = [np.array([i]) for i in range(n)]
    elif mode == "auto":
        if n <= FULL_PARTITION_LIMIT:
            units = [np.array([i]) for i in range(n)]
        else:
            units = _quantile_units(ctx, FULL_PARTITION_LIMIT)
            log.info(
                "optimal search: %d flows aggregated into %d quantile buckets",
                n, len(units),
            )
    else:
        raise DomainError(f"unknown optimal mode {mode!r}")
    w, x = _unit_stats(ctx, units)
    blocks = _partition_dp(w, x, _unit_scores(ctx, w, x), num_bundles)
    blocks.sort(key=lambda b: (b & -b).bit_length())
    labels = np.empty(n, dtype=np.intp)
    for j, block in enumerate(blocks):
        u = 0
        while block:
            if block & 1:
                labels[units[u]] = j
            block >>= 1
            u += 1
    return Bundling(labels, num_bundles)


def _contiguous_optimal(ctx: ModelContext, num_bundles: int) -> Bundling:
    n = len(ctx.flows)
    order = np.lexsort((np.asarray(ctx.ids), ctx.c))
    w, x = _unit_stats(ctx, [order[rank:rank + 1] for rank in range(n)])
    score_fn = _unit_scores(ctx, w, x)
    w_pre = np.concatenate([[0.0], np.cumsum(w)])
    x_pre = np.concatenate([[0.0], np.cumsum(x)])
    levels = min(num_bundles, n)
    neg = -np.inf
    dp = np.full((levels + 1, n + 1), neg)
    dp[0, 0] = 0.0
    choice = np.zeros((levels + 1, n + 1), dtype=int)
    for k in range(1, levels + 1):
        dp[k, 0] = 0.0
        for j in range(1, n + 1):
            i = np.arange(j)
            cand = dp[k - 1, i] + score_fn(w_pre[j] - w_pre[i], x_pre[j] - x_pre[i])
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
    labels = np.empty(n, dtype=np.intp)
    for b, (lo, hi) in enumerate(reversed(bounds)):
        labels[order[lo:hi]] = b
    return Bundling(labels, num_bundles)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def profit_capture(pi_new: float, pi_orig: float, pi_max: float) -> float:
    """Fraction of the blended-to-per-flow profit gap a bundling
    recovers: (pi_new - pi_orig) / (pi_max - pi_orig). May leave [0, 1]
    for pathological bundlings; reported as-is."""
    if abs(pi_max - pi_orig) < 1e-12 * abs(pi_max):
        raise DegenerateBaseline(
            f"per-flow and blended profit coincide ({pi_max!r}); capture undefined"
        )
    return (pi_new - pi_orig) / (pi_max - pi_orig)


def evaluate_bundling(ctx: ModelContext, bundling: Bundling) -> TierOutcome:
    """Price each bundle optimally and measure profit, surplus and the
    capture metrics against the context's cached baselines.

    Empty bundles are skipped for pricing and reported with NaN price;
    a degenerate surplus baseline yields NaN surplus capture rather
    than failing the profit-side result.
    """
    labels = bundling.labels
    if len(labels) != len(ctx.ids):
        raise DomainError(
            f"bundling has {len(labels)} labels for {len(ctx.ids)} flows"
        )
    # each bundle's members in ascending flow order, so that per-bundle
    # sums add in the same order as the flow list
    counts = np.bincount(labels, minlength=bundling.num_bundles)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])
    occupied = np.flatnonzero(counts)
    prices = np.full(bundling.num_bundles, np.nan)
    if ctx.model is DemandModel.CED:
        for b in occupied:
            m = members[b]
            prices[b] = ced_bundle_price(ctx.v[m], ctx.c[m], ctx.alpha)
        per_flow = prices[labels]
        profit = ced_profit(ctx.v, per_flow, ctx.c, ctx.alpha)
        surplus = ced_consumer_surplus(
            ctx.v, per_flow, ctx.alpha,
            unit_price_offset=ctx.cs_unit_price_offset,
        )
    else:
        v_b = np.array([
            logit_bundle_valuation(ctx.v[members[b]], ctx.alpha) for b in occupied
        ])
        c_b = np.array([
            logit_bundle_cost(ctx.c[members[b]], ctx.v[members[b]], ctx.alpha)
            for b in occupied
        ])
        p_b = logit_solve_prices(v_b, c_b, ctx.alpha)
        prices[occupied] = p_b
        profit = logit_profit(v_b, p_b, c_b, ctx.alpha, ctx.consumer_mass)
        surplus = logit_consumer_surplus(v_b, p_b, ctx.alpha, ctx.consumer_mass)
    capture = profit_capture(profit, ctx.pi_orig, ctx.pi_max)
    try:
        s_capture = profit_capture(surplus, ctx.cs_orig, ctx.cs_max)
    except DegenerateBaseline:
        log.warning("surplus baseline degenerate; surplus capture undefined")
        s_capture = float("nan")
    return TierOutcome(
        bundling=bundling,
        prices=tuple(float(p) for p in prices),
        profit=profit,
        consumer_surplus=surplus,
        profit_capture=capture,
        surplus_capture=s_capture,
    )
