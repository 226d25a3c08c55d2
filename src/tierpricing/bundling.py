"""Tier construction and evaluation.

Six default strategies plus class-profit-weighted partition flows into
price tiers:

* optimal           exact search over cost-contiguous partitions (the oracle)
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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .cost_models import realize_costs
from .demand_ced import (
    bundle_profit_closed_form,
    ced_fit_gamma,
    ced_fit_valuations,
    ced_optimal_price,
    ced_potential_profit,
    ced_profit,
)
from .demand_logit import (
    logit_bundle_aggregate,
    logit_consumer_surplus,
    logit_fit_gamma,
    logit_fit_valuations,
    logit_potential_profit,
    logit_profit,
    logit_solve_prices,
)
from .domain import (
    Bundling,
    DegenerateBaseline,
    DemandModel,
    DomainError,
    FittedTable,
    MissingClassLabels,
    TierOutcome,
)

log = logging.getLogger(__name__)


class Strategy(str, Enum):
    OPTIMAL = "optimal"
    DEMAND_WEIGHTED = "demand-weighted"
    COST_WEIGHTED = "cost-weighted"
    PROFIT_WEIGHTED = "profit-weighted"
    COST_DIVISION = "cost-division"
    INDEX_DIVISION = "index-division"
    CLASS_PROFIT_WEIGHTED = "class-profit-weighted"


@dataclass(frozen=True, eq=False)
class ModelContext(FittedTable):
    """A fitted market plus the cached pricing baselines every capture
    metric is measured against: profit and surplus at the blended rate
    (original) and at per-flow pricing (maximum).

    ``from_ced`` and ``from_logit`` fit a market and build its context.
    The per-flow arrays (``ids``, ``q``, ``d``, ``v``, ``c``,
    ``class_labels``) are those of ``FittedTable``; every strategy and
    ``Bundling`` follows their flow order. Whatever does not depend on
    the tier count is computed on first use and kept, so every B and
    every strategy of a run shares it:

    * ``cost_order``, the order of index-division and of the optimal
      search, and the search's DP;
    * ``id_order`` and, per token-bucket weight vector (demand q, 1/c,
      potential profit), its visiting order and weight sum
      (``visiting_order``); class-profit-weighted restricts the profit
      order to each class (``class_visits``);
    * ``potential_profits``;
    * the per-flow terms w and x = c*w of the bundle sums (``terms``).

    Under CED the blended baseline is the one-bundle labelling, priced
    like every tiering, and the maximum the per-flow optimal prices;
    under logit they are the uniform p0 and the per-flow optimal prices,
    which share one markup (``logit_solve_prices``)."""

    model: DemandModel
    alpha: float
    p0: float
    s0: float | None = None
    consumer_mass: float | None = None
    gamma: float | None = None
    cs_unit_price_offset: bool = False
    pi_orig: float = field(init=False)
    pi_max: float = field(init=False)
    cs_orig: float = field(init=False)
    cs_max: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.model is DemandModel.CED:
            _, pi_orig, cs_orig = self.price(np.zeros(len(self.ids), dtype=np.intp), 1)
            per_flow = ced_optimal_price(self.c, self.alpha)
            pi_max, cs_max = self._ced_value(per_flow, per_flow ** (1.0 - self.alpha))
        else:
            if self.s0 is None or self.consumer_mass is None:
                raise DomainError("logit context requires s0 and consumer_mass")
            uniform = np.full(len(self.ids), self.p0)
            per_flow = logit_solve_prices(self.v, self.c, self.alpha)
            k = self.consumer_mass
            pi_orig = logit_profit(self.v, uniform, self.c, self.alpha, k)
            pi_max = logit_profit(self.v, per_flow, self.c, self.alpha, k)
            cs_orig = logit_consumer_surplus(self.v, uniform, self.alpha, k)
            cs_max = logit_consumer_surplus(self.v, per_flow, self.alpha, k)
        for name, value in (("pi_orig", pi_orig), ("pi_max", pi_max),
                            ("cs_orig", cs_orig), ("cs_max", cs_max)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_ced(cls, flow_ids, q, d, rel_costs, p0: float, alpha: float,
                 labels=None, cs_unit_price_offset: bool = False) -> "ModelContext":
        """Fit the valuations and cost scaling of one constant-elasticity
        market. ``rel_costs`` are the pre-gamma relative costs f(d) of
        the cost model, aligned with ``q`` and ``d``; ``labels`` are the
        flows' bundling classes (None when the cost model has none)."""
        if not alpha > 1.0:
            raise DomainError(f"CED requires alpha > 1, got {alpha}")
        v = ced_fit_valuations(q, p0, alpha)
        gamma = ced_fit_gamma(v, rel_costs, p0, alpha)
        c = realize_costs(rel_costs, gamma)
        return cls(flow_ids, q, d, v, c, labels, DemandModel.CED, alpha, p0,
                   gamma=gamma, cs_unit_price_offset=cs_unit_price_offset)

    @classmethod
    def from_logit(cls, flow_ids, q, d, rel_costs, p0: float, alpha: float,
                   s0: float, labels=None) -> "ModelContext":
        """Fit the valuations, cost scaling and consumer mass
        K = sum(q)/(1-s0) of one logit market whose non-buying share at
        p0 is s0 (arguments as ``from_ced``)."""
        if not alpha > 0.0:
            raise DomainError(f"logit requires alpha > 0, got {alpha}")
        v = logit_fit_valuations(q, p0, alpha, s0)
        gamma = logit_fit_gamma(v, rel_costs, p0, alpha)
        c = realize_costs(rel_costs, gamma)
        return cls(flow_ids, q, d, v, c, labels, DemandModel.LOGIT, alpha, p0,
                   s0=s0, consumer_mass=float(np.sum(q) / (1.0 - s0)), gamma=gamma)

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-flow w and x = c*w, whose bundle sums W and X price a
        bundle: w = v**alpha under CED (price alpha*X / ((alpha-1)*W))
        and exp(alpha*(v - max v)) under logit (the optimal search)."""
        if self.model is DemandModel.CED:
            w = self.v ** self.alpha
        else:
            w = np.exp(self.alpha * (self.v - self.v.max()))
        return w, self.c * w

    def price(self, labels: np.ndarray, num_bundles: int
              ) -> tuple[np.ndarray, float, float]:
        """Optimal price of each of ``num_bundles`` bundles of the flows
        labelled ``labels`` (NaN if empty), and their profit and surplus.

        Members are grouped by one stable argsort of the labels (as
        ``uint8`` up to 256 bundles, which numpy radix-sorts to the same
        permutation) and each bundle is summed over its contiguous slice,
        so every sum adds in the order of ``ced_bundle_price``,
        ``ced_profit``, ``ced_consumer_surplus`` and the logit aggregates,
        and the results are bit-identical to theirs."""
        keys = labels.astype(np.uint8) if num_bundles <= 256 else labels
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(labels, minlength=num_bundles)
        ends = np.cumsum(counts)
        occupied = np.flatnonzero(counts)
        slices = [slice(ends[b] - counts[b], ends[b]) for b in occupied]
        prices = np.full(num_bundles, np.nan)
        alpha = self.alpha
        if self.model is DemandModel.CED:
            w, x = (term[order] for term in self.terms)
            for b, part in zip(occupied, slices):
                prices[b] = alpha * np.sum(x[part]) / ((alpha - 1.0) * np.sum(w[part]))
            profit, surplus = self._ced_value(prices[labels],
                                              (prices ** (1.0 - alpha))[labels])
            return prices, profit, surplus
        v, c = self.v[order], self.c[order]
        aggregates = [logit_bundle_aggregate(v[part], c[part], alpha) for part in slices]
        v_b, c_b = (np.array(column) for column in zip(*aggregates))
        p_b = logit_solve_prices(v_b, c_b, alpha)
        prices[occupied] = p_b
        profit = logit_profit(v_b, p_b, c_b, alpha, self.consumer_mass)
        surplus = logit_consumer_surplus(v_b, p_b, alpha, self.consumer_mass)
        return prices, profit, surplus

    def _ced_value(self, p: np.ndarray, p_power: np.ndarray) -> tuple[float, float]:
        """CED profit and surplus at per-flow prices ``p``, given
        ``p_power`` = p**(1-alpha), with v**alpha taken from ``terms``."""
        alpha = self.alpha
        profit = ced_profit(self.v, p, self.c, alpha)
        gross = self.terms[0] * p_power
        if self.cs_unit_price_offset:
            return profit, float(np.sum(alpha * gross / (alpha - 1.0) - p))
        return profit, float(np.sum(gross) / (alpha - 1.0))

    @cached_property
    def cost_order(self) -> np.ndarray:
        """Flow indices by ascending cost, ties by flow id; the order
        of index-division and of the optimal search."""
        return np.lexsort((self.ids, self.c))

    @cached_property
    def _optimum(self) -> "_ContiguousOptimum":
        return _ContiguousOptimum(self)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Flow indices by ascending flow id (ties by index); the
        tie-break of every token-bucket visiting order."""
        return np.argsort(self.ids, kind="stable")

    @cached_property
    def potential_profits(self) -> np.ndarray:
        """Standalone profit of each flow (read-only); the
        profit-weighted bundler's weights."""
        if self.model is DemandModel.CED:
            weights = ced_potential_profit(self.v, self.c, self.alpha)
        else:
            weights = logit_potential_profit(
                self.q, self.alpha, self.s0, self.consumer_mass)
        weights = np.asarray(weights)
        weights.flags.writeable = False
        return weights

    @cached_property
    def _visits(self) -> dict:
        return {}

    def visiting_order(self, strategy: Strategy) -> "_Visit":
        """The token-bucket visiting order of the demand-, cost- or
        profit-weighted strategy (class-profit-weighted shares the
        profit order), computed once per weight vector."""
        if strategy is Strategy.CLASS_PROFIT_WEIGHTED:
            strategy = Strategy.PROFIT_WEIGHTED
        if strategy not in self._visits:
            if strategy is Strategy.DEMAND_WEIGHTED:
                weights = self.q
            elif strategy is Strategy.COST_WEIGHTED:
                weights = 1.0 / self.c
            elif strategy is Strategy.PROFIT_WEIGHTED:
                weights = self.potential_profits
            else:
                raise DomainError(f"{strategy.value} is not a token-bucket strategy")
            weights = _bucket_weights(weights)
            order = _visiting_order(weights, self.id_order)
            self._visits[strategy] = _Visit(order, weights[order], weights.sum())
        return self._visits[strategy]

    @cached_property
    def class_visits(self) -> dict:
        """Per flow class, in order of first appearance: the class's
        profit mass (its members' potential profits added one by one in
        flow order) and the profit visiting order restricted to it, with
        the class's own weight sum."""
        class_of = self.class_labels
        if class_of is None or np.equal(class_of, None).any():
            raise MissingClassLabels("class-constrained bundling requires class labels")
        weights = self.potential_profits
        profit = self.visiting_order(Strategy.PROFIT_WEIGHTED)
        out = {}
        for lab in dict.fromkeys(class_of.tolist()):
            inside = class_of == lab
            members = weights[inside]
            keep = inside[profit.order]
            out[lab] = (float(np.add.accumulate(members)[-1]),
                        _Visit(profit.order[keep], profit.weights[keep], members.sum()))
        return out


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class _Visit(NamedTuple):
    """A token-bucket visiting order: flow indices by decreasing weight
    (ties by ascending flow id, then index), the weights in that order,
    and the weight sum in flow order."""

    order: np.ndarray
    weights: np.ndarray
    total: float


def _bucket_weights(weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise DomainError("token-bucket weights must be finite")
    if np.any(weights <= 0):
        raise DomainError("token-bucket weights must be positive")
    return weights


def _visiting_order(weights: np.ndarray, id_order: np.ndarray) -> np.ndarray:
    """Flow indices by decreasing weight, ties by the stable id order
    ``id_order``: the permutation of ``np.lexsort((ids, -weights))``."""
    return id_order[np.argsort(-weights[id_order], kind="stable")]


# the first window of the drain's scan; it doubles until the budget closes
_FIRST_WINDOW = 64


def _drain(visit: np.ndarray, share: float, num_bundles: int) -> np.ndarray:
    """Bundle index of each position of a visiting order whose weights
    are ``visit``, draining a budget of ``share`` per bundle.

    Bundles fill one after another, so each is a run of the visiting
    order: it takes its first flow unconditionally and closes at the
    first running budget <= 0, and any overdraft carries into the next
    bundle's budget; the last bundle takes the rest.
    """
    n = len(visit)
    ranked = np.full(n, num_bundles - 1, dtype=np.intp)
    start, carry = 0, 0.0
    for j in range(num_bundles - 1):
        if start == n:
            break
        # running budget after each flow, by the same sequential
        # subtractions as a per-flow loop; the scan goes on from the
        # last running value over a window that doubles until the
        # budget closes or the flows run out
        budget, end, width = share + carry, start, _FIRST_WINDOW
        while True:
            window = visit[end:end + width]
            running = np.subtract.accumulate(np.concatenate(([budget], window)))[1:]
            closed = np.flatnonzero(running <= 0)
            if closed.size or end + window.size == n:
                break
            budget, end, width = running[-1], end + window.size, 2 * width
        stop = end + int(closed[0]) + 1 if closed.size else n
        ranked[start:stop] = j
        remainder = running[stop - end - 1]
        carry = remainder if remainder < 0 else 0.0
        start = stop
    return ranked


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
    rest. The labels follow the order of ``flow_ids``. The strategies
    drain the same way from their context's cached visiting orders.
    """
    weights = _bucket_weights(weights)
    n = len(weights)
    if len(flow_ids) != n:
        raise DomainError(f"{len(flow_ids)} flow ids for {n} weights")
    order = _visiting_order(weights, np.argsort(np.asarray(flow_ids), kind="stable"))
    return _bucket_bundling(_Visit(order, weights[order], weights.sum()), num_bundles)


def _bucket_bundling(visit: _Visit, num_bundles: int) -> Bundling:
    if num_bundles < 1:
        raise DomainError("num_bundles must be >= 1")
    labels = np.empty(len(visit.order), dtype=np.intp)
    labels[visit.order] = _drain(visit.weights, visit.total / num_bundles, num_bundles)
    return Bundling(labels, num_bundles)


def _cost_division(ctx: ModelContext, num_bundles: int) -> Bundling:
    c_max = float(ctx.c.max())
    idx = np.minimum((ctx.c * num_bundles / c_max).astype(np.intp), num_bundles - 1)
    return Bundling(idx, num_bundles)


def _index_division(ctx: ModelContext, num_bundles: int) -> Bundling:
    n = len(ctx.ids)
    labels = np.empty(n, dtype=np.intp)
    labels[ctx.cost_order] = np.arange(n) // math.ceil(n / num_bundles)
    return Bundling(labels, num_bundles)


def _class_constrained(ctx: ModelContext, num_bundles: int) -> Bundling:
    visits = ctx.class_visits
    mass = {lab: m for lab, (m, _) in visits.items()}
    classes = sorted(mass, key=lambda lab: (-mass[lab], lab))
    if num_bundles < len(classes):
        # No class-pure partition exists with fewer bundles than classes.
        log.warning(
            "class-constrained bundling needs >= %d bundles, got %d; "
            "falling back to profit-weighted", len(classes), num_bundles,
        )
        return _bucket_bundling(ctx.visiting_order(Strategy.PROFIT_WEIGHTED), num_bundles)
    total = sum(mass.values())
    alloc = {lab: 1 for lab in classes}
    for _ in range(num_bundles - len(classes)):
        lab = max(classes, key=lambda l: num_bundles * mass[l] / total - alloc[l])
        alloc[lab] += 1
    out = np.empty(len(ctx.ids), dtype=np.intp)
    offset = 0
    for lab in classes:
        _, visit = visits[lab]
        out[visit.order] = offset + _drain(visit.weights, visit.total / alloc[lab],
                                           alloc[lab])
        offset += alloc[lab]
    return Bundling(out, num_bundles)


def build_bundles(strategy: Strategy, ctx: ModelContext, num_bundles: int) -> Bundling:
    """Construct a tier partition with the given strategy."""
    if len(ctx.ids) == 0:
        raise DomainError("cannot bundle an empty flow set")
    if strategy is Strategy.OPTIMAL:
        return optimal_bundles(ctx, num_bundles)
    if strategy in (Strategy.DEMAND_WEIGHTED, Strategy.COST_WEIGHTED,
                    Strategy.PROFIT_WEIGHTED):
        return _bucket_bundling(ctx.visiting_order(strategy), num_bundles)
    if strategy is Strategy.COST_DIVISION:
        return _cost_division(ctx, num_bundles)
    if strategy is Strategy.INDEX_DIVISION:
        return _index_division(ctx, num_bundles)
    if strategy is Strategy.CLASS_PROFIT_WEIGHTED:
        return _class_constrained(ctx, num_bundles)
    raise DomainError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Exact optimal search
# ---------------------------------------------------------------------------
#
# Both demand models admit a per-bundle sufficient statistic (W, X), the
# sums of per-flow w and x = c * w:
#   CED:   w = v**alpha; the bundle profit is kappa * W**alpha * X**(1-alpha)
#   logit: w = exp(alpha*(v - vmax)); the jointly-solved partition profit
#          is strictly increasing in the total score
#          sum_b W_b * exp(-alpha * X_b / W_b), so maximizing the score
#          maximizes profit.
# Each score is W_b * g(X_b / W_b) with g convex and X_b / W_b the
# w-weighted mean cost of the bundle. Some optimal partition is then
# contiguous in unit cost (Chakravarty, Orlin and Rothblum, Operations
# Research 30(5), 1982). As sum_i w_i * g(c_i) is fixed, maximizing the
# score minimizes the w-weighted Bregman divergence of g between each
# cost and its bundle's mean: one-dimensional Bregman clustering, whose
# range costs satisfy the quadrangle inequality (Gronlund et al., "Fast
# exact k-means, k-medians and Bregman divergence clustering in 1D",
# 2017). So the best start of a prefix's last block is non-decreasing in
# the prefix end, and a divide-and-conquer DP over the cost order solves
# each block count exactly in O(n log n) score evaluations.


class _ContiguousOptimum:
    """Exact best partitions of one context into k cost-contiguous
    blocks, k = 1, 2, ...; each layer of the DP is computed once and kept,
    so every block count of a run shares one DP."""

    def __init__(self, ctx: ModelContext):
        self.order = ctx.cost_order
        w, x = (term[self.order] for term in ctx.terms)
        self.model, self.alpha = ctx.model, ctx.alpha
        self.w_pre = np.concatenate(([0.0], np.cumsum(w)))
        self.x_pre = np.concatenate(([0.0], np.cumsum(x)))
        n = len(w)
        # value[j]: best score of the cost-ordered prefix [0, j) in as many
        # blocks as there are layers; starts[k-1][j]: where the last block
        # of that prefix's best k-block partition starts
        self.value = np.concatenate(([-np.inf], self._score(0, np.arange(1, n + 1))))
        self.starts = [np.zeros(n + 1, dtype=np.intp)]

    def _score(self, i, j):
        """Score of the cost-ordered flow range [i, j)."""
        W = self.w_pre[j] - self.w_pre[i]
        X = self.x_pre[j] - self.x_pre[i]
        # a zero-weight range (underflowed exponentials) contributes nothing
        ok = W > 0
        W = np.where(ok, W, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.model is DemandModel.CED:
                score = bundle_profit_closed_form(W, X, self.alpha)
            else:
                score = W * np.exp(-self.alpha * X / W)
        return np.where(ok, score, 0.0)

    def _add_layer(self) -> None:
        k = len(self.starts) + 1
        n = len(self.value) - 1
        value = np.full(n + 1, -np.inf)
        start = np.zeros(n + 1, dtype=np.intp)
        # nodes of one recursion depth: prefix ends lo..hi, whose best
        # starts lie in first..last; one numpy pass per depth
        lo, hi = np.array([k]), np.array([n])
        first, last = np.array([k - 1]), np.array([n - 1])
        while lo.size:
            mid = (lo + hi) // 2
            sizes = np.minimum(last, mid - 1) - first + 1
            node = np.repeat(np.arange(mid.size), sizes)
            offsets = np.cumsum(sizes) - sizes
            i = np.arange(node.size) - offsets[node] + first[node]
            cand = self.value[i] + self._score(i, mid[node])
            best = np.maximum.reduceat(cand, offsets)
            hit = np.where(cand == best[node], np.arange(cand.size), cand.size)
            arg = i[np.minimum.reduceat(hit, offsets)]  # leftmost best start
            value[mid] = best
            start[mid] = arg
            left, right = lo < mid, mid < hi
            lo, hi, first, last = (
                np.concatenate((lo[left], mid[right] + 1)),
                np.concatenate((mid[left] - 1, hi[right])),
                np.concatenate((first[left], arg[right])),
                np.concatenate((arg[left], last[right])),
            )
        self.value = value
        self.starts.append(start)

    def labels(self, num_blocks: int) -> np.ndarray:
        """Flow labels of the best partition into ``num_blocks`` (at most
        the flow count) blocks, numbered in cost order."""
        while len(self.starts) < num_blocks:
            self._add_layer()
        cuts = [len(self.order)]
        for start in reversed(self.starts[:num_blocks]):
            cuts.append(int(start[cuts[-1]]))
        labels = np.empty(len(self.order), dtype=np.intp)
        labels[self.order] = np.repeat(np.arange(num_blocks), -np.diff(cuts)[::-1])
        return labels


def optimal_bundles(ctx: ModelContext, num_bundles: int) -> Bundling:
    """Most profitable partition into at most ``num_bundles`` bundles,
    exact at any flow count.

    Splitting a bundle never lowers profit, so the search looks for the
    best partition into exactly min(num_bundles, n) cost-contiguous
    bundles (cost ties broken by flow id); bundles are numbered in cost
    order.
    """
    n = len(ctx.ids)
    if n == 0:
        raise DomainError("cannot bundle an empty flow set")
    if num_bundles < 1:
        raise DomainError("num_bundles must be >= 1")
    return Bundling(ctx._optimum.labels(min(num_bundles, n)), num_bundles)


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


def evaluate_bundling(ctx: ModelContext, bundling: Bundling, *,
                      degenerate_ok: bool = False) -> TierOutcome:
    """Price each bundle optimally (``ModelContext.price``; NaN for an
    empty one) and measure the captures against the context's baselines.

    A degenerate surplus baseline yields NaN surplus capture rather than
    failing the profit-side result. A degenerate profit baseline raises
    DegenerateBaseline or, with ``degenerate_ok``, yields NaN for both.
    """
    labels = bundling.labels
    if len(labels) != len(ctx.ids):
        raise DomainError(f"bundling has {len(labels)} labels for {len(ctx.ids)} flows")
    prices, profit, surplus = ctx.price(labels, bundling.num_bundles)
    try:
        capture = profit_capture(profit, ctx.pi_orig, ctx.pi_max)
    except DegenerateBaseline:
        if not degenerate_ok:
            raise
        capture = s_capture = float("nan")
    else:
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
