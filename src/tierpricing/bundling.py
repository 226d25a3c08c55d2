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
Cost-division puts a flow in the highest range j < B whose lower edge
j*c_max/B its cost reaches within the same slack, so a cost on an edge
joins the range above it whatever the rounding of the costs.

Evaluation prices each bundle optimally under the active demand model
and reports profit and consumer surplus plus the capture metrics
(share of the gap between blended-rate pricing and per-flow pricing
that the bundling recovers) from per-bundle sums (W, X). Under CED one
formula, ``ced_bundle``, values every bundle from them in evaluation,
both baselines, the profit weights and the optimal search; the surplus
is alpha/(alpha-1) times the profit (default convention). Under logit
one pass, ``logit_value``, values the priced bundles and both baselines.
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
from .demand_ced import _HUGE, _TINY, ced_bundle, ced_fit_gamma, ced_fit_valuations
from .demand_logit import (
    logit_fit_gamma,
    logit_fit_valuations,
    logit_solve_prices,
    logit_value,
)
from .domain import (
    Bundling,
    DemandModel,
    DomainError,
    OverflowGuard,
    TierOutcome,
    _check_market,
    _first,
    _frozen_array,
    _labels_column,
    _member,
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
    unit cost (float64; q positive, v finite, c finite and positive).
    ``class_labels`` is None when no flow has a bundling class, else an
    object array holding a class name or None per flow; ``model`` is a
    ``DemandModel`` or its value. ``alpha``, ``p0`` and ``s0`` must lie
    in the model's domain (``_check_market``), and under logit
    ``consumer_mass`` must be finite and positive; any other value raises
    DomainError. Every array is read-only (a writable input is copied, a
    read-only one of the right type shared), and every strategy and
    ``Bundling`` follows their flow order. Instances compare by identity.

    What depends on the flow set alone, its ids and demands, is kept in
    ``orders``, a ``FlowOrders`` that the contexts fitted on one flow set
    share (the grid points of a sweep); a context given none builds its
    own. Whatever else does not depend on the tier count is computed once
    per context, on first use, and kept, so every B and every strategy
    of a grid point shares it:

    * ``cost_order``, the order of index-division and of the optimal
      search, and the search's DP;
    * the token-bucket visiting orders of the weights the context
      fits, ``cost_visit`` (1/c) and ``profit_visit`` (the potential
      profits; under logit the flow set's demand order), and the profit
      order restricted to each class (``class_visits``);
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
    orders: Optional["FlowOrders"] = None
    pi_orig: float = field(init=False)
    pi_max: float = field(init=False)
    cs_orig: float = field(init=False)
    cs_max: float = field(init=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "model", _member(DemandModel, "model", self.model))
        _check_market(self.model, self.alpha, self.p0, self.s0)
        # shared orders are keyed to the arrays the context is built from
        # (a copy that freezing makes holds the same values)
        if self.orders is not None and (self.orders.ids is not self.ids
                                        or self.orders.q is not self.q):
            raise DomainError("the shared orders belong to another flow set")
        ids = _frozen_array(self.ids, np.str_)
        set_(self, "ids", ids)
        for name in ("q", "d", "v", "c"):
            values = _frozen_array(getattr(self, name), np.float64)
            if len(values) != len(ids):
                raise DomainError(f"{len(values)} fitted {name} values for {len(ids)} flows")
            set_(self, name, values)
        set_(self, "class_labels",
             _labels_column(ids, self.class_labels, None, "class"))
        for name, rule, ok in (
                ("demand", "> 0", self.q > 0), ("valuation", "finite", np.isfinite(self.v)),
                ("cost", "finite and > 0", np.isfinite(self.c) & (self.c > 0))):
            bad = _first(~ok)
            if bad is not None:
                raise DomainError(f"flow {ids[bad]}: fitted {name} must be {rule}")
        if self.orders is None:
            set_(self, "orders", FlowOrders(ids, self.q))
        if self.model is DemandModel.CED:
            _, pi_orig, cs_orig = self.price(Bundling(np.zeros(len(ids), dtype=np.intp), 1))
            # each flow a one-flow bundle, priced as ``price`` prices it, so
            # that one tier per flow captures exactly 1
            _, pi_max, cs_max = self._ced_value(*self.terms, 1)
        else:
            k = self.consumer_mass
            if k is None or not 0.0 < k < math.inf:
                raise DomainError(f"logit requires consumer_mass > 0, got {k}")
            per_flow = logit_solve_prices(self.v, self.c, self.alpha)
            pi_orig, cs_orig = logit_value(self.v, self.p0, self.c, self.alpha, k)
            pi_max, cs_max = logit_value(self.v, per_flow, self.c, self.alpha, k)
        for name, value in (("pi_orig", pi_orig), ("pi_max", pi_max),
                            ("cs_orig", cs_orig), ("cs_max", cs_max)):
            set_(self, name, value)
        if _coincide(cs_orig, cs_max) and not _coincide(pi_orig, pi_max):
            log.warning("surplus baseline degenerate; surplus capture undefined")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_ced(cls, flow_ids, q, d, rel_costs, p0: float, alpha: float,
                 labels=None, cs_unit_price_offset: bool = False,
                 orders: Optional["FlowOrders"] = None) -> "ModelContext":
        """Fit the valuations and cost scaling of one constant-elasticity
        market. ``rel_costs`` are the pre-gamma relative costs f(d) of
        the cost model, aligned with ``q`` and ``d``; ``labels`` are the
        flows' bundling classes (None when the cost model has none);
        ``orders`` are the shared orders of ``flow_ids`` and ``q``."""
        v = ced_fit_valuations(q, p0, alpha)
        gamma = ced_fit_gamma(v, rel_costs, p0, alpha)
        c = realize_costs(rel_costs, gamma)
        return cls(flow_ids, q, d, v, c, labels, DemandModel.CED, alpha, p0,
                   gamma=gamma, cs_unit_price_offset=cs_unit_price_offset, orders=orders)

    @classmethod
    def from_logit(cls, flow_ids, q, d, rel_costs, p0: float, alpha: float,
                   s0: float, labels=None,
                   orders: Optional["FlowOrders"] = None) -> "ModelContext":
        """Fit the valuations, cost scaling and consumer mass
        K = sum(q)/(1-s0) of one logit market whose non-buying share at
        p0 is s0 (arguments as ``from_ced``)."""
        v = logit_fit_valuations(q, p0, alpha, s0, flow_ids)
        gamma = logit_fit_gamma(v, rel_costs, p0, alpha)
        c = realize_costs(rel_costs, gamma)
        return cls(flow_ids, q, d, v, c, labels, DemandModel.LOGIT, alpha, p0,
                   s0=s0, consumer_mass=float(np.sum(q) / (1.0 - s0)), gamma=gamma,
                   orders=orders)

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

    def price(self, bundling: Bundling) -> tuple[np.ndarray, float, float]:
        """Each bundle's optimal price (NaN if empty), their profit and surplus.

        Each bundle's sums W and X are taken over its run of the
        bundling's ``members``, which lists a bundle's flows in flow
        order, so they add in the order of a per-bundle loop over member
        lists built flow by flow, and the results are bit-identical to
        that loop's. The summed terms are ``terms`` under CED. Under
        logit they are e = exp(alpha*v - shift) and c*e, shift the
        bundle's own maximum of alpha*v (the market's would underflow a
        bundle far below it): the bundle is one flow of valuation
        (shift + ln W)/alpha and cost X/W."""
        members = bundling.members
        occupied = np.flatnonzero(bundling.sizes)
        sizes = bundling.sizes[occupied]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        prices = np.full(bundling.num_bundles, np.nan)
        if self.model is DemandModel.CED:
            terms = (term[members] for term in self.terms)
        else:
            y = self.alpha * self.v[members]
            shift = np.maximum.reduceat(y, starts)
            e = np.exp(y - np.repeat(shift, sizes))
            terms = (e, self.c[members] * e)
        bounds = list(zip(starts.tolist(), ends.tolist()))
        W, X = (np.array([np.add.reduce(term[a:b]) for a, b in bounds]) for term in terms)
        if self.model is DemandModel.CED:
            prices[occupied], profit, surplus = self._ced_value(W, X, sizes)
            return prices, profit, surplus
        v_b, c_b = (shift + np.log(W)) / self.alpha, X / W
        prices[occupied] = p_b = logit_solve_prices(v_b, c_b, self.alpha)
        profit, surplus = logit_value(v_b, p_b, c_b, self.alpha, self.consumer_mass)
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
        """Flow indices by ascending cost, ties by flow id (and index):
        the permutation of ``np.lexsort((ids, c))``, sorted by
        ``_stable_argsort`` with ties by the id order, which it reads
        only where costs tie. The order of index-division and of the
        optimal search, whose tiers are runs of it."""
        return _stable_argsort(self.c, lambda: self.orders.id_order)

    @cached_property
    def _optimum(self) -> "_ContiguousOptimum":
        return _ContiguousOptimum(self)

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
    def cost_visit(self) -> "_Visit":
        """The cost-weighted visiting order, of the weights 1/c."""
        return _visit(1.0 / self.c, self.orders.id_order)

    @cached_property
    def profit_visit(self) -> "_Visit":
        """The profit-weighted visiting order, of ``potential_profits``;
        under logit those are q, whose order the flow set has
        (``FlowOrders.demand_visit``)."""
        if self.model is DemandModel.LOGIT:
            return self.orders.demand_visit
        return _visit(self.potential_profits, self.orders.id_order)

    @cached_property
    def class_visits(self) -> dict:
        """Per flow class, in order of first appearance: the class's
        profit mass (its members' potential profits added one by one in
        flow order) and the profit visiting order restricted to it, with
        the prefix sums and sum of the class's own weights."""
        class_of = self.class_labels
        if class_of is None or np.equal(class_of, None).any():
            raise DomainError("class-constrained bundling requires class labels")
        weights = self.potential_profits
        order = self.profit_visit.order
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


def _stable_argsort(keys: np.ndarray, tie_order=None) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of keys without NaN, from
    numpy's default sort, several times faster, which leaves the groups
    of equal keys in no set order: those groups are put back in index
    order or, given ``tie_order`` (a function, called only when keys tie,
    that returns a permutation of the indices), in the order of their
    positions in it. With the stable id order that gives the permutation
    of ``np.lexsort((ids, keys))``."""
    order = np.argsort(keys)
    ranked = keys[order]
    tied = ranked[1:] == ranked[:-1]
    if not tied.any():
        return order
    n = len(order)
    inside = np.zeros(n, dtype=bool)
    inside[1:] = tied
    inside[:-1] |= tied
    at = np.flatnonzero(inside)
    group = np.cumsum(np.concatenate(([True], ~tied)))[at]
    index = order[at]
    if tie_order is None:
        then = index
    else:
        rank = np.empty(n, dtype=np.intp)
        rank[tie_order()] = np.arange(n)
        then = rank[index]
    # one key per tied position, unique: the group, then the tie-break
    order[at] = index[np.argsort(group * n + then)]
    return order


def _visit(weights, id_order: np.ndarray) -> _Visit:
    """The visiting order of ``weights``, ties by the stable id order
    ``id_order`` (the permutation of ``np.lexsort((ids, -weights))``)."""
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise DomainError("token-bucket weights must be finite")
    if np.any(weights <= 0):
        raise DomainError("token-bucket weights must be positive")
    order = id_order[_stable_argsort(-weights[id_order])]
    return _Visit(order, np.cumsum(weights[order]), weights.sum())


def tiers_of(strategy: Strategy, model: DemandModel) -> Strategy:
    """The ``Strategy`` whose tiers ``strategy`` builds under ``model``,
    each a member or its value (``build_bundles`` dispatches on it): under
    logit profit is a constant times demand (``potential_profits``), so
    profit-weighted builds the demand-weighted tiers; every other
    strategy builds its own. Strategies of one ``tiers_of`` share one
    bundling, and a grid point builds and evaluates it once."""
    model = _member(DemandModel, "model", model)
    strategy = _member(Strategy, "strategy", strategy)
    if strategy is Strategy.PROFIT_WEIGHTED and model is DemandModel.LOGIT:
        return Strategy.DEMAND_WEIGHTED
    return strategy


class FlowOrders:
    """What the token buckets read of a flow set alone, its ``ids`` and
    demands ``q``, computed on first use and kept, so that every context
    fitted on that flow set shares it (``ModelContext.orders``): the id
    order and the demand visiting order. With ``keep_tiers`` (a sweep
    whose grid points all read them) the demand-weighted tiers of each
    tier count are kept too; otherwise each call builds its tiers and
    none are kept. Visits whose weights a context fits (1/c, the CED
    potential profits) stay with the context: their bits can differ
    between fits."""

    def __init__(self, ids: np.ndarray, q: np.ndarray, keep_tiers: bool = False):
        self.ids, self.q = ids, q
        self._tiers = {} if keep_tiers else None

    @cached_property
    def id_order(self) -> np.ndarray:
        """Flow indices by ascending flow id (ties by index); the
        tie-break of every token-bucket visiting order."""
        return np.argsort(self.ids, kind="stable")

    @cached_property
    def demand_visit(self) -> _Visit:
        """The visiting order of the demand weights q."""
        return _visit(self.q, self.id_order)

    def demand_tiers(self, num_bundles: int) -> Bundling:
        """The demand-weighted token-bucket bundling into ``num_bundles``."""
        if self._tiers is None:
            return _bucket_bundling(self.demand_visit, num_bundles)
        if num_bundles not in self._tiers:
            self._tiers[num_bundles] = _bucket_bundling(
                self.demand_visit, num_bundles, compact=True)
        return self._tiers[num_bundles]


# relative slack within which a prefix sum reaches a bundle's target, so
# that a target met exactly in exact arithmetic (equal weights filling
# a budget) is met whatever the rounding and the scale of the weights
_TIE = 1e-12


def _drain(prefix: np.ndarray, share: float, num_bundles: int) -> list[int]:
    """Run bounds of the bundles of a visiting order whose weights have
    prefix sums ``prefix``, with a budget of ``share`` per bundle: bundle
    j, the positions bounds[j] .. bounds[j+1]-1, takes at least one flow
    and closes at the first prefix sum that reaches (j+1)*share within
    relative slack _TIE."""
    n = len(prefix)
    firsts = np.searchsorted(prefix, np.arange(1, num_bundles) * share * (1.0 - _TIE))
    bounds = [0]
    for first in firsts.tolist():
        bounds.append(min(max(bounds[-1], first) + 1, n))
    bounds.append(n)
    return bounds


def token_bucket_bundles(weights, flow_ids: Sequence[str], num_bundles: int) -> Bundling:
    """Group flows into bundles by draining equal token budgets, by the
    rule of the module docstring: each bundle is a run of the visiting
    order, so heavy flows end up in bundles of their own and light flows
    share. The labels follow the order of ``flow_ids``; the strategies
    drain the same way from their context's cached prefix sums."""
    if len(flow_ids) != len(weights):
        raise DomainError(f"{len(flow_ids)} flow ids for {len(weights)} weights")
    if num_bundles < 1:
        raise DomainError(f"num_bundles must be >= 1, got {num_bundles}")
    return _bucket_bundling(
        _visit(weights, np.argsort(np.asarray(flow_ids), kind="stable")), num_bundles)


def _bucket_bundling(visit: _Visit, num_bundles: int, compact: bool = False) -> Bundling:
    bounds = _drain(visit.prefix, visit.total / num_bundles, num_bundles)
    return Bundling.from_runs(visit.order, bounds, compact)


def _cost_division(ctx: ModelContext, num_bundles: int) -> Bundling:
    c_max = float(ctx.c.max())
    ranks = ctx.c * num_bundles / c_max * (1.0 + _TIE)
    idx = np.minimum(ranks.astype(np.intp), num_bundles - 1)
    return Bundling(idx, num_bundles)


def _index_division(ctx: ModelContext, num_bundles: int) -> Bundling:
    n = len(ctx.ids)
    size = math.ceil(n / num_bundles)
    return Bundling.from_runs(ctx.cost_order,
                              np.minimum(np.arange(num_bundles + 1) * size, n))


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
        return build_bundles(Strategy.PROFIT_WEIGHTED, ctx, num_bundles)
    total = sum(mass.values())
    alloc = {lab: 1 for lab in classes}
    for _ in range(num_bundles - len(classes)):
        lab = max(classes, key=lambda l: num_bundles * mass[l] / total - alloc[l])
        alloc[lab] += 1
    # each class's bundles are runs of its visit, the classes' visits
    # concatenated in class order
    runs, bounds = [], [0]
    for lab in classes:
        _, visit = visits[lab]
        start = bounds[-1]
        runs.append(visit.order)
        bounds += [start + stop for stop in
                   _drain(visit.prefix, visit.total / alloc[lab], alloc[lab])[1:]]
    return Bundling.from_runs(np.concatenate(runs), bounds)


def build_bundles(strategy: Strategy, ctx: ModelContext, num_bundles: int) -> Bundling:
    """Construct a tier partition into ``num_bundles`` >= 1 bundles with
    the given strategy or its value: the tiers of ``tiers_of``."""
    if len(ctx.ids) == 0:
        raise DomainError("cannot bundle an empty flow set")
    if num_bundles < 1:
        raise DomainError(f"num_bundles must be >= 1, got {num_bundles}")
    strategy = tiers_of(strategy, ctx.model)
    if strategy is Strategy.OPTIMAL:
        return optimal_bundles(ctx, num_bundles)
    if strategy is Strategy.DEMAND_WEIGHTED:
        return ctx.orders.demand_tiers(num_bundles)
    if strategy is Strategy.COST_WEIGHTED:
        return _bucket_bundling(ctx.cost_visit, num_bundles)
    if strategy is Strategy.PROFIT_WEIGHTED:
        return _bucket_bundling(ctx.profit_visit, num_bundles)
    if strategy is Strategy.COST_DIVISION:
        return _cost_division(ctx, num_bundles)
    if strategy is Strategy.INDEX_DIVISION:
        return _index_division(ctx, num_bundles)
    return _class_constrained(ctx, num_bundles)


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
    best score in k blocks and where its last block starts. ``cuts(B)``
    builds the layers up to B-1 (layer 1 in closed form, each further one
    by divide and conquer) and finds the start of the last of the B
    blocks by one scan over layer B-1; the layers' starts give the other
    cuts. Layers and scans are computed once and kept, so every block
    count of a run shares one DP, and the answer for B does not depend
    on the order in which block counts are asked for. Whether any range
    can trip a check of ``_score`` is settled once (``in_place``); where
    none can, the depth passes score their candidates in place.

    A non-finite best score (a CED price power p**(1-alpha) past
    float64) raises OverflowGuard."""

    def __init__(self, ctx: ModelContext):
        w, x = (term[ctx.cost_order] for term in ctx.terms)
        self.model, self.alpha = ctx.model, ctx.alpha
        self.w_pre = np.concatenate(([0.0], np.cumsum(w)))
        self.x_pre = np.concatenate(([0.0], np.cumsum(x)))
        n = len(w)
        del w, x
        self.in_place = self._no_check_can_fire()
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

    def _no_check_can_fire(self) -> bool:
        """Whether no range of flows can trip a check of ``_score``, so
        that ``_best_starts`` may score in place (``_score_in_place``).

        Rounding is monotone, so the W of every range lies between the
        smallest step of ``w_pre`` and its total, and its X likewise.
        Steps all positive give every range W > 0: the zero-weight guard
        cannot fire. Under CED, the price alpha*X / ((alpha-1)*W) of
        every range then lies between the prices of those extreme sums;
        when their price powers p**(1-alpha) are normal and finite, with
        a margin of 4 for the few ulp of ``pow``, so is every range's,
        and ``ced_bundle``'s out-of-range repair cannot fire."""
        w_low = np.diff(self.w_pre).min()
        if not w_low > 0:
            return False
        if self.model is not DemandModel.CED:
            return True
        alpha = self.alpha
        x_low = np.diff(self.x_pre).min()
        with np.errstate(all="ignore"):
            p_low = alpha * x_low / ((alpha - 1.0) * self.w_pre[-1])
            p_high = alpha * self.x_pre[-1] / ((alpha - 1.0) * w_low)
            powers = np.power((p_low, p_high), 1.0 - alpha)
        return bool(powers[0] <= _HUGE / 4 and powers[1] >= 4 * _TINY)

    def _score_in_place(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``_score`` of ranges that trip none of its checks (``in_place``),
        computed in the buffers of ``W`` and ``X`` by the operations of
        ``ced_bundle``, or of the logit score, in their order, so the
        scores are the same bits; returns the buffer that holds them."""
        alpha = self.alpha
        with np.errstate(all="ignore"):
            if self.model is DemandModel.CED:
                X *= alpha              # price = alpha * X
                X /= (alpha - 1.0) * W  # price /= (alpha - 1) * W
                X **= 1.0 - alpha       # power = price ** (1 - alpha)
                W *= X                  # profit = W * power
                W /= alpha
                return W
            X *= -alpha
            X /= W
            np.exp(X, out=X)
            X *= W
            return X

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
        cand = self._score_in_place(W, X) if self.in_place else self._score(W, X)
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

    def cuts(self, num_blocks: int) -> list[int]:
        """Bounds of the best partition into ``num_blocks`` (at most the
        flow count) blocks: block b is the run cuts[b] .. cuts[b+1]-1 of
        the cost order."""
        while len(self.last_starts) < num_blocks:
            # the last of B blocks is found over the (B-1)-block layer
            if len(self.starts) < len(self.last_starts):
                self._add_layer()
            self.last_starts.append(self._last_start())
        cuts = [len(self.value) - 1, self.last_starts[num_blocks - 1]]
        for start in reversed(self.starts[:num_blocks - 1]):
            cuts.append(int(start[cuts[-1]]))
        return cuts[::-1]


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
    cuts = ctx._optimum.cuts(min(num_bundles, n))
    return Bundling.from_runs(ctx.cost_order, cuts + [n] * (num_bundles + 1 - len(cuts)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _coincide(orig: float, top: float) -> bool:
    """Whether two capture baselines coincide, within 1e-12 relative."""
    return abs(top - orig) < 1e-12 * abs(top)


def profit_capture(pi_new: float, pi_orig: float, pi_max: float) -> float:
    """Fraction of the blended-to-per-flow profit gap a bundling
    recovers: (pi_new - pi_orig) / (pi_max - pi_orig). May leave [0, 1]
    for pathological bundlings; reported as-is. NaN where pi_orig and
    pi_max coincide."""
    if _coincide(pi_orig, pi_max):
        return math.nan
    return (pi_new - pi_orig) / (pi_max - pi_orig)


def evaluate_bundling(ctx: ModelContext, bundling: Bundling) -> TierOutcome:
    """Price each bundle optimally (``ModelContext.price``; NaN for an
    empty one) and measure the captures against the context's baselines
    (``profit_capture``); the surplus capture is NaN with the profit one."""
    if bundling.members.size != len(ctx.ids):
        raise DomainError(f"bundling of {bundling.members.size} flows for a market "
                          f"of {len(ctx.ids)}")
    prices, profit, surplus = ctx.price(bundling)
    capture = profit_capture(profit, ctx.pi_orig, ctx.pi_max)
    s_capture = (math.nan if math.isnan(capture)
                 else profit_capture(surplus, ctx.cs_orig, ctx.cs_max))
    return TierOutcome(
        effective_bundles=bundling.effective_bundles,
        prices=tuple(float(p) for p in prices),
        profit=profit,
        consumer_surplus=surplus,
        profit_capture=capture,
        surplus_capture=s_capture,
    )
