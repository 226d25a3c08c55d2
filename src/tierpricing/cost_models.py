"""Distance- and label-based cost models.

Each model maps a flow to a dimensionless relative cost f(d); realized
unit costs are c = gamma * f(d), where gamma is fitted so the blended
rate is the rational uniform price. Relative costs include the base
term beta/gamma where the model has one, so a single gamma scaling
yields the final cost.

Four models:

* linear:    f(d) = d + theta * d_max           (base = theta * d_max)
* concave:   f(d) = max(eps, a*log_b(d/d_max) + c) + theta * c, with the
             fitted shape (a, b, c) = (0.5, 6, 1)
* regional:  metro -> 1, national -> 2**theta, international -> 3**theta
* dest-type: f(d) = d * m, customer m=1, peer m=2, unlabeled
             m = theta*1 + (1-theta)*2 (theta = customer traffic share)

Every function takes a ``FlowTable`` and works on whole columns; the
results are bit-identical to evaluating each flow on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    REGIONS,
    CostKind,
    CostModelSpec,
    DomainError,
    FlowTable,
    NonPositiveCost,
    OverflowGuard,
)

# Fitted concave shape a*log_b(d/d_max) + c; c is also the pre-base
# cost at d = d_max, which anchors the concave base term.
CONCAVE_A = 0.5
CONCAVE_B = 6.0
CONCAVE_C = 1.0
# Clamp for the concave pre-base cost at tiny normalized distances.
CONCAVE_EPS = 0.05
# Relative floor protecting 1/c weights from blowup at d = 0.
COST_FLOOR_REL = 1e-6

METRO_MAX_MILES = 10.0
NATIONAL_MAX_MILES = 100.0


def _region_codes(flows: FlowTable) -> np.ndarray:
    """Index into REGIONS of each flow's region (see classify_regions)."""
    d = flows.distance
    codes = (d >= METRO_MAX_MILES).astype(np.intp) + (d >= NATIONAL_MAX_MILES)
    if flows.region is not None:
        for code, name in enumerate(REGIONS):
            codes[flows.region == name] = code
    return codes


def classify_regions(flows: FlowTable) -> np.ndarray:
    """Region name of each flow, as an object array: the explicit label
    if present, else by distance (< 10 miles metro, < 100 national,
    international beyond)."""
    return np.array(REGIONS, dtype=object)[_region_codes(flows)]


def _concave_pre_base(d: np.ndarray, d_max: float) -> np.ndarray:
    if d_max <= 0:
        return np.full(len(d), CONCAVE_C)
    norm = d / d_max
    pre = np.full(len(d), CONCAVE_EPS)
    pos = norm > 0
    # math.log, not np.log: the two differ in the last bit on some
    # inputs, and math.log(x, b) is exactly math.log(x) / math.log(b)
    logs = np.array([math.log(x) for x in norm[pos].tolist()], dtype=float)
    raw = CONCAVE_A * (logs / math.log(CONCAVE_B)) + CONCAVE_C
    pre[pos] = np.maximum(CONCAVE_EPS, raw)
    return pre


def _dest_type_multipliers(flows: FlowTable, theta: float) -> np.ndarray:
    """Destination-type cost multiplier: customer 1, peer 2, or the
    expected mixture theta*1 + (1-theta)*2 when the label is absent."""
    mult = np.full(len(flows), theta * 1.0 + (1.0 - theta) * 2.0)
    if flows.dest_type is not None:
        mult[flows.dest_type == "customer"] = 1.0
        mult[flows.dest_type == "peer"] = 2.0
    return mult


def _power(base: float, exponent: float) -> float:
    """``base ** exponent`` as Python computes it, or inf where Python
    raises OverflowError."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def relative_costs(spec: CostModelSpec, flows: FlowTable) -> np.ndarray:
    """Pre-gamma relative cost of each flow, including the base term,
    floored at 1e-6 of the maximum.

    The maximum distance over the flow set anchors the concave
    normalization and the linear/concave base cost. Raises
    OverflowGuard, naming the kind and theta, when a relative cost
    leaves float64, and NonPositiveCost when the configuration yields
    no positive cost at all (e.g. all distances zero with theta = 0).
    """
    if len(flows) == 0:
        return np.empty(0)
    d = flows.distance
    d_max = float(d.max())
    with np.errstate(over="ignore"):
        if spec.kind is CostKind.LINEAR:
            rel = d + spec.theta * d_max
        elif spec.kind is CostKind.CONCAVE:
            rel = _concave_pre_base(d, d_max) + spec.theta * CONCAVE_C
        elif spec.kind is CostKind.REGIONAL:
            steps = np.array([1.0, _power(2.0, spec.theta), _power(3.0, spec.theta)])
            rel = steps[_region_codes(flows)]
        else:
            rel = d * _dest_type_multipliers(flows, spec.theta)
    top = rel.max()
    if not np.isfinite(top):
        raise OverflowGuard(
            f"{spec.kind.value} relative costs overflow float64 at theta={spec.theta}")
    if not top > 0:
        raise NonPositiveCost(f"{spec.kind.value} cost model produced no positive cost")
    return np.maximum(rel, COST_FLOOR_REL * top)


def realize_costs(rel, gamma: float) -> np.ndarray:
    """Unit costs c_i = gamma * rel_i, floored at 1e-6 of the maximum."""
    c = gamma * np.asarray(rel, dtype=float)
    if c.size == 0:
        return c
    top = c.max()
    if not top > 0:
        raise NonPositiveCost("realized costs are not positive")
    return np.maximum(c, COST_FLOOR_REL * top)


def base_cost(spec: CostModelSpec, flows: FlowTable, gamma: float) -> float:
    """The distance-independent base cost beta = theta * gamma *
    (maximum pre-base relative cost) under the fitted gamma; zero for
    the label-based models, which have no base term."""
    if spec.kind is CostKind.LINEAR:
        base_ref = float(flows.distance.max())
    elif spec.kind is CostKind.CONCAVE:
        base_ref = CONCAVE_C
    else:
        base_ref = 0.0
    return spec.theta * gamma * base_ref


def class_labels(spec: CostModelSpec, flows: FlowTable) -> np.ndarray | None:
    """Bundling class of each flow under this cost model.

    Regional pricing classes by region, destination-type pricing by the
    explicit label (None per unlabeled flow, or None overall when no
    flow is labeled); distance-only models have no classes (None).
    """
    if spec.kind is CostKind.REGIONAL:
        return classify_regions(flows)
    if spec.kind is CostKind.DEST_TYPE:
        return flows.dest_type
    return None


def split_by_dest_type(flows: FlowTable, theta: float) -> FlowTable:
    """Split unlabeled flows into customer/peer subflows.

    theta is the customer share of each flow's traffic; the complement
    goes to peers. Each unlabeled flow becomes ``<id>/cust`` then
    ``<id>/peer`` (a part with zero share is left out) in its place;
    labeled flows pass through unchanged. Used when the
    class-constrained bundler needs pure destination-type classes.
    """
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"customer share theta must be in [0,1], got {theta}")
    parts = []
    if theta > 0.0:
        parts.append(("/cust", theta, "customer"))
    if theta < 1.0:
        parts.append(("/peer", 1.0 - theta, "peer"))
    suffixes, shares, labels = zip(*parts)
    suffixes, shares = np.array(suffixes), np.array(shares)
    n = len(flows)
    labeled = (np.zeros(n, dtype=bool) if flows.dest_type is None
               else ~np.equal(flows.dest_type, None))
    counts = np.where(labeled, 1, len(parts))
    src = np.repeat(np.arange(n), counts)
    # position of each output row among its source flow's parts
    slot = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
    split = ~labeled[src]
    demand = flows.demand[src]
    dest_type = np.array(labels, dtype=object)[slot]
    if flows.dest_type is not None:
        dest_type[~split] = flows.dest_type[src[~split]]
    return FlowTable(
        ids=np.where(split, np.char.add(flows.ids[src], suffixes[slot]), flows.ids[src]),
        demand=np.where(split, shares[slot] * demand, demand),
        distance=flows.distance[src],
        region=None if flows.region is None else flows.region[src],
        dest_type=dest_type,
    )
