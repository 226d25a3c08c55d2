"""Tier construction and evaluation.

Six default strategies plus class-profit-weighted partition flows into
price tiers:

* optimal           exact search over cost-contiguous partitions (the oracle)
* demand-weighted   token buckets weighted by observed demand
* cost-weighted     token buckets weighted by 1/cost
* profit-weighted   token buckets weighted by standalone profit (under
                    logit a constant times demand: demand-weighted)
* cost-division     equal-width cost ranges from $0 to the costliest flow
* index-division    equal-count groups of the cost ranking
* class-profit-weighted   profit-weighted, never mixing flow classes

A token bucket visits flows by decreasing weight (ties by flow id); of
B bundles, bundle j takes at least one flow and closes at the first
prefix sum of the visited weights that reaches (j+1)/B of the total,
within a relative tie slack of 1e-12 (``_TIE``); the last takes the rest.

Evaluation prices each bundle optimally under the active demand model
and reports profit and consumer surplus plus the capture metrics
(share of the gap between blended-rate pricing and per-flow pricing
that the bundling recovers). Under CED one formula, ``ced_bundle``,
values every bundle from its sums (W, X) in evaluation, both baselines,
the profit weights and the optimal search; the surplus is
alpha/(alpha-1) times the profit (default convention).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cost_models import realize_costs
from .demand_ced import ced_bundle, ced_fit_gamma, ced_fit_valuations
from .demand_logit import (
    logit_bundle_aggregate,
    logit_consumer_surplus,
    logit_fit_gamma,
    logit_fit_valuations,
    logit_profit,
    logit_solve_prices,
)
from .domain import (
    Bundling,
    DegenerateBaseline,
    DemandModel,
    DomainError,
    MissingClassLabels,
    OverflowGuard,
    TierOutcome,
    _first,
    _frozen_array,
    _labels_column,
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
class ModelContext:
    """A fitted market, one array element per flow, plus the cached
    pricing baselines every capture metric is measured against: profit
    and surplus at the blended rate (original) and at per-flow pricing
    (maximum).

    ``from_ced`` and ``from_logit`` fit a market and build its context.
    ``ids`` are the flow ids, ``q`` the observed demand, ``d`` the
    distance, ``v`` the valuation coefficient and ``c`` the realized
    unit cost (float64, q and c positive). ``class_labels`` is None
    when no flow has a bundling class, else an object array holding a
    class name or None per flow. Every array is read-only (a writable
    input is copied, a read-only one of the right type shared), and
    every strategy and ``Bundling`` follows their flow order. Instances
    compare by identity. Whatever does not depend on the tier count is
    computed on first use and kept, so every B and every strategy of a
    run shares it:

    * ``cost_order``, the order of index-division and of the optimal
      search, and the search's DP;
    * ``id_order`` and, per token-bucket weight vector (demand q, 1/c,
      potential profit), its visiting order, the prefix sums of the
      weights in that order and their sum (``visiting_order``);
      class-profit-weighted restricts the profit order to each class
      (``class_visits``);
    * ``potential_profits``;
    * the per-flow terms w and x = c*w of the bundle sums (``terms``).

    Under CED the blended baseline is the one-bundle labelling and the
    maximum the all-singleton one, each priced by the arithmetic of
    ``price``, so one tier captures exactly 0 and one tier per flow
    exactly 1; under logit they are the uniform p0 and the per-flow
    optimal prices, which share one markup (``logit_solve_prices``)."""

    ids: np.ndarray
    q: np.ndarray
    d: np.ndarray
    v: np.ndarray
    c: np.ndarray
    class_labels: Optional[np.ndarray]
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
        set_ = object.__setattr__
        ids = _frozen_array(self.ids, np.str_)
        set_(self, "ids", ids)
        for name in ("q", "d", "v", "c"):
            values = _frozen_array(getattr(self, name), np.float64)
            if len(values) != len(ids):
                raise DomainError(f"{len(values)} fitted {name} values for {len(ids)} flows")
            set_(self, name, values)
        set_(self, "class_labels",
             _labels_column(ids, self.class_labels, None, "class"))
        for name, values in (("demand", self.q), ("cost", self.c)):
            bad = _first(~(values > 0))
            if bad is not None:
                raise DomainError(f"flow {ids[bad]}: fitted {name} must be > 0")
        if self.model is DemandModel.CED:
            _, pi_orig, cs_orig = self.price(np.zeros(len(self.ids), dtype=np.intp), 1)
            # each flow a one-flow bundle, priced as ``price`` prices it, so
            # that one tier per flow captures exactly 1
            _, pi_max, cs_max = self._ced_value(*self.terms, 1)
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
            set_(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

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
        v = logit_fit_valuations(q, p0, alpha, s0, flow_ids)
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
        so every sum adds in the order of a per-bundle loop over member
        lists built flow by flow, and the results are bit-identical to
        that loop's."""
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
            W, X = (np.array([np.sum(term[part]) for part in slices]) for term in (w, x))
            prices[occupied], profit, surplus = self._ced_value(W, X, counts[occupied])
            return prices, profit, surplus
        v, c = self.v[order], self.c[order]
        aggregates = [logit_bundle_aggregate(v[part], c[part], alpha) for part in slices]
        v_b, c_b = (np.array(column) for column in zip(*aggregates))
        p_b = logit_solve_prices(v_b, c_b, alpha)
        prices[occupied] = p_b
        profit = logit_profit(v_b, p_b, c_b, alpha, self.consumer_mass)
        surplus = logit_consumer_surplus(v_b, p_b, alpha, self.consumer_mass)
        return prices, profit, surplus

    def _ced_value(self, W, X, counts) -> tuple[np.ndarray, float, float]:
        """CED prices of bundles with sums ``W``, ``X`` and ``counts``
        members, their total profit and the surplus, alpha/(alpha-1) times
        the profit; with ``cs_unit_price_offset``, which subtracts each
        member's unit price p instead of its payment p*q,
        sum(alpha**2/(alpha-1) * profit_b - counts_b * p_b)."""
        alpha = self.alpha
        prices, profits = ced_bundle(W, X, alpha)
        profit = float(np.sum(profits))
        if self.cs_unit_price_offset:
            surplus = np.sum(alpha * alpha / (alpha - 1.0) * profits - counts * prices)
            return prices, profit, float(surplus)
        return prices, profit, alpha / (alpha - 1.0) * profit

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
        """The profit-weighted bundler's weights (read-only). Under CED
        they are each flow's standalone profit, a one-flow bundle's
        (``ced_bundle``). Under logit every optimal price carries one
        markup, so standalone profit is a constant times demand, and the
        weights are q itself."""
        if self.model is DemandModel.LOGIT:
            return self.q
        _, weights = ced_bundle(*self.terms, self.alpha)
        weights.flags.writeable = False
        return weights

    @cached_property
    def _visits(self) -> dict:
        return {}

    def visiting_order(self, strategy: Strategy) -> "_Visit":
        """The token-bucket visiting order of the demand-, cost- or
        profit-weighted strategy (class-profit-weighted shares the
        profit order), computed once per weight vector: under logit the
        profit order is the demand order."""
        if strategy is Strategy.CLASS_PROFIT_WEIGHTED:
            strategy = Strategy.PROFIT_WEIGHTED
        if strategy is Strategy.PROFIT_WEIGHTED and self.model is DemandModel.LOGIT:
            strategy = Strategy.DEMAND_WEIGHTED
        if strategy not in self._visits:
            if strategy is Strategy.DEMAND_WEIGHTED:
                weights = self.q
            elif strategy is Strategy.COST_WEIGHTED:
                weights = 1.0 / self.c
            elif strategy is Strategy.PROFIT_WEIGHTED:
                weights = self.potential_profits
            else:
                raise DomainError(f"{strategy.value} is not a token-bucket strategy")
            self._visits[strategy] = _visit(weights, self.id_order)
        return self._visits[strategy]

    @cached_property
    def class_visits(self) -> dict:
        """Per flow class, in order of first appearance: the class's
        profit mass (its members' potential profits added one by one in
        flow order) and the profit visiting order restricted to it, with
        the prefix sums and sum of the class's own weights."""
        class_of = self.class_labels
        if class_of is None or np.equal(class_of, None).any():
            raise MissingClassLabels("class-constrained bundling requires class labels")
        weights = self.potential_profits
        order = self.visiting_order(Strategy.PROFIT_WEIGHTED).order
        visited = weights[order]
        out = {}
        for lab in dict.fromkeys(class_of.tolist()):
            inside = class_of == lab
            members = weights[inside]
            keep = inside[order]
            out[lab] = (float(np.add.accumulate(members)[-1]),
                        _Visit(order[keep], np.cumsum(visited[keep]), members.sum()))
        return out


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class _Visit(NamedTuple):
    """A token-bucket visiting order: flow indices by decreasing weight
    (ties by ascending flow id, then index), the prefix sums of the
    weights in that order, and the weight sum in flow order."""

    order: np.ndarray
    prefix: np.ndarray
    total: float


def _visit(weights, id_order: np.ndarray) -> _Visit:
    """The visiting order of ``weights``, ties by the stable id order
    ``id_order`` (the permutation of ``np.lexsort((ids, -weights))``)."""
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise DomainError("token-bucket weights must be finite")
    if np.any(weights <= 0):
        raise DomainError("token-bucket weights must be positive")
    order = id_order[np.argsort(-weights[id_order], kind="stable")]
    return _Visit(order, np.cumsum(weights[order]), weights.sum())


# relative slack within which a prefix sum reaches a bundle's target, so
# that a target met exactly in exact arithmetic (equal weights filling
# a budget) is met whatever the rounding and the scale of the weights
_TIE = 1e-12


def _drain(prefix: np.ndarray, share: float, num_bundles: int) -> np.ndarray:
    """Bundle index of each position of a visiting order whose weights
    have prefix sums ``prefix``, with a budget of ``share`` per bundle:
    bundle j takes at least one flow and closes at the first prefix sum
    that reaches (j+1)*share within relative slack _TIE."""
    n = len(prefix)
    firsts = np.searchsorted(prefix, np.arange(1, num_bundles) * share * (1.0 - _TIE))
    stops = [0]
    for first in firsts.tolist():
        stops.append(min(max(stops[-1], first) + 1, n))
    return np.repeat(np.arange(num_bundles), np.diff([*stops, n]))


def token_bucket_bundles(weights, flow_ids: Sequence[str], num_bundles: int) -> Bundling:
    """Group flows into bundles by draining equal token budgets, by the
    rule of the module docstring: each bundle is a run of the visiting
    order, so heavy flows end up in bundles of their own and light flows
    share. The labels follow the order of ``flow_ids``; the strategies
    drain the same way from their context's cached prefix sums."""
    if len(flow_ids) != len(weights):
        raise DomainError(f"{len(flow_ids)} flow ids for {len(weights)} weights")
    return _bucket_bundling(
        _visit(weights, np.argsort(np.asarray(flow_ids), kind="stable")), num_bundles)


def _bucket_bundling(visit: _Visit, num_bundles: int) -> Bundling:
    if num_bundles < 1:
        raise DomainError("num_bundles must be >= 1")
    labels = np.empty(len(visit.order), dtype=np.intp)
    labels[visit.order] = _drain(visit.prefix, visit.total / num_bundles, num_bundles)
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
        out[visit.order] = offset + _drain(visit.prefix, visit.total / alloc[lab],
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
#   CED:   w = v**alpha; the bundle profit is W * p**(1-alpha) / alpha at
#          its price p = alpha * X / ((alpha-1) * W) (``ced_bundle``)
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
# each block count for every prefix in O(n log n) score evaluations. The
# best partition of all n flows into B blocks needs only the prefixes'
# (B-1)-block layer: its last block's start is one O(n) scan.


# candidates per group of recursion nodes in a depth pass; a group's
# arrays (half a megabyte each) stay in cache and are reused by the
# allocator, so the pass's temporaries do not grow with the flow count
_GROUP = 1 << 16


class _ContiguousOptimum:
    """Exact best partitions of one context into B cost-contiguous
    blocks, B = 1, 2, ....

    Layer k of the DP holds, for every prefix of the cost order, the
    best score in k blocks and where its last block starts. ``labels(B)``
    builds the layers up to B-1 (layer 1 in closed form, each further one
    by divide and conquer) and finds the start of the last of the B
    blocks by one scan over layer B-1; the layers' starts give the other
    cuts. Layers and scans are computed once and kept, so every block
    count of a run shares one DP, and the answer for B does not depend
    on the order in which block counts are asked for.

    A non-finite best score (a CED price power p**(1-alpha) past
    float64) raises OverflowGuard."""

    def __init__(self, ctx: ModelContext):
        self.order = ctx.cost_order
        w, x = (term[self.order] for term in ctx.terms)
        self.model, self.alpha = ctx.model, ctx.alpha
        self.w_pre = np.concatenate(([0.0], np.cumsum(w)))
        self.x_pre = np.concatenate(([0.0], np.cumsum(x)))
        n = len(w)
        del w, x
        # value[j]: best score of the cost-ordered prefix [0, j) in as many
        # blocks as there are layers; starts[k-1][j]: where the last block
        # of that prefix's best k-block partition starts; last_starts[B-1]:
        # where the last block of the best B-block partition of all flows
        # starts
        self.value = np.concatenate(
            ([-np.inf], self._score(self.w_pre[1:] - self.w_pre[0],
                                    self.x_pre[1:] - self.x_pre[0])))
        self.starts = [np.zeros(n + 1, dtype=np.min_scalar_type(n))]
        self.last_starts = [0]

    def _score(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Scores of flow ranges with weight sums ``W`` and ``X``."""
        # a zero-weight range (underflowed exponentials) contributes nothing
        guard = not W.min() > 0
        if guard:
            ok = W > 0
            W = np.where(ok, W, 1.0)
        with np.errstate(all="ignore"):  # a non-finite best raises in _check
            if self.model is DemandModel.CED:
                _, score = ced_bundle(W, X, self.alpha)
            else:
                score = W * np.exp(-self.alpha * X / W)
        return np.where(ok, score, 0.0) if guard else score

    def _check(self, best) -> None:
        if not np.all(np.isfinite(best)):
            raise OverflowGuard(
                f"optimal search: bundle scores overflow float64 at alpha={self.alpha!r}")

    def _add_layer(self) -> None:
        k = len(self.starts) + 1
        n = len(self.value) - 1
        value = np.full(n + 1, -np.inf)
        start = np.zeros(n + 1, dtype=self.starts[0].dtype)
        # nodes of one recursion depth: prefix ends lo..hi, whose best
        # starts lie in first..last; one numpy pass per depth, taking the
        # nodes in groups of about _GROUP candidates
        lo, hi = np.array([k]), np.array([n])
        first, last = np.array([k - 1]), np.array([n - 1])
        while lo.size:
            mid = (lo + hi) // 2
            sizes = np.minimum(last, mid - 1) - first + 1
            best = np.empty(mid.size)
            arg = np.empty(mid.size, dtype=np.intp)
            bounds = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _GROUP)) + 1
            edges = [0, *bounds.tolist(), mid.size]
            for a, b in zip(edges, edges[1:]):
                best[a:b], arg[a:b] = self._best_starts(mid[a:b], first[a:b], sizes[a:b])
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

    def _best_starts(self, ends: np.ndarray, first: np.ndarray, sizes: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Best score of each prefix [0, ends) over last blocks starting
        at first .. first+sizes-1 (the previous layer's value plus the
        block's score), and the leftmost start that reaches it."""
        offsets = np.cumsum(sizes) - sizes
        shift = first - offsets  # candidate start = position + shift
        i = np.repeat(shift, sizes)
        i += np.arange(i.size)
        W = np.repeat(self.w_pre[ends], sizes)
        W -= self.w_pre[i]
        X = np.repeat(self.x_pre[ends], sizes)
        X -= self.x_pre[i]
        cand = self._score(W, X)
        del W, X
        cand += self.value[i]
        del i
        best = np.maximum.reduceat(cand, offsets)
        self._check(best)
        # each node holds a candidate equal to its finite best: the first
        # at or after the node's offset is its leftmost best
        hits = np.flatnonzero(cand == np.repeat(best, sizes))
        return best, hits[np.searchsorted(hits, offsets)] + shift

    def _last_start(self) -> int:
        """Where the last block of the best partition of all n flows into
        k + 1 blocks starts, k the number of layers: the leftmost i in
        k .. n-1 that maximizes value[i] plus the score of [i, n)."""
        k = len(self.starts)
        n = len(self.value) - 1
        cand = self._score(self.w_pre[n] - self.w_pre[k:n], self.x_pre[n] - self.x_pre[k:n])
        cand += self.value[k:n]
        best = int(np.argmax(cand))  # the first maximum, or the first NaN
        self._check(cand[best])
        return k + best

    def labels(self, num_blocks: int) -> np.ndarray:
        """Flow labels of the best partition into ``num_blocks`` (at most
        the flow count) blocks, numbered in cost order."""
        while len(self.last_starts) < num_blocks:
            # the last of B blocks is found over the (B-1)-block layer
            if len(self.starts) < len(self.last_starts):
                self._add_layer()
            self.last_starts.append(self._last_start())
        cuts = [len(self.order), self.last_starts[num_blocks - 1]]
        for start in reversed(self.starts[:num_blocks - 1]):
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
