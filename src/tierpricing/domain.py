"""Core value types and exceptions shared across the pricing engine.

All types are immutable after construction and safe to share between
concurrent workers. Units are fixed throughout the package: demand in
Mbit/s, distance in miles, money in $/Mbps/month.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------


class PricingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAlpha(PricingError):
    """Price-sensitivity parameter outside the demand model's domain."""


class InvalidShare(PricingError):
    """Non-buying market share outside (0, 1)."""


class InvalidPrice(PricingError):
    """Blended rate or evaluation price outside its domain."""


class DomainError(PricingError):
    """Numeric argument outside a formula's domain."""


class EmptyBundle(PricingError):
    """A bundle aggregate was requested for an empty flow set."""


class NonPositiveCost(PricingError):
    """Relative-cost configuration produced no positive costs."""


class NonPositiveGamma(PricingError):
    """Cost-scaling fit produced gamma <= 0 (parameters inconsistent
    with rational uniform pricing)."""


class NoConvergence(PricingError):
    """An iterative procedure exhausted its budget.

    Carries the last residual so callers can decide whether the result
    is still usable.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class OverflowGuard(PricingError):
    """Exponent magnitude exceeds the safe range for float64 even with
    max-shift stabilization."""


class MissingClassLabels(PricingError):
    """Class-constrained bundling requested on unlabeled flows."""


class TooManyFlows(PricingError):
    """Exhaustive partition search requested beyond its size limit."""


class DegenerateBaseline(PricingError):
    """Capture metric undefined: maximum and original profit coincide."""


class ParseError(PricingError):
    """Malformed row in an input CSV."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class MissingColumn(PricingError):
    """Required CSV column absent from the header."""


class ConfigError(PricingError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------


class DemandModel(str, Enum):
    CED = "ced"
    LOGIT = "logit"


class CostKind(str, Enum):
    LINEAR = "linear"
    CONCAVE = "concave"
    REGIONAL = "regional"
    DEST_TYPE = "dest-type"


REGIONS = ("metro", "national", "international")
DEST_TYPES = ("customer", "peer")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowRecord:
    """One ingested traffic flow.

    ``demand_mbps`` is the billed volume of the flow (95th-percentile
    style), ``distance_miles`` the distance its traffic covers. Region
    and destination-type labels are optional; when absent they are
    inferred from distance or treated as a mixture by the cost models.
    """

    flow_id: str
    demand_mbps: float
    distance_miles: float
    region: Optional[str] = None
    dest_type: Optional[str] = None

    def __post_init__(self):
        if self.demand_mbps < 0:
            raise DomainError(f"flow {self.flow_id}: negative demand {self.demand_mbps}")
        if self.distance_miles < 0:
            raise DomainError(f"flow {self.flow_id}: negative distance {self.distance_miles}")
        if self.region is not None and self.region not in REGIONS:
            raise DomainError(f"flow {self.flow_id}: unknown region {self.region!r}")
        if self.dest_type is not None and self.dest_type not in DEST_TYPES:
            raise DomainError(f"flow {self.flow_id}: unknown dest_type {self.dest_type!r}")


@dataclass(frozen=True)
class MarketParams:
    """Demand-model selection plus its calibration parameters.

    ``alpha`` is the price sensitivity, ``p0`` the blended rate the
    market currently pays, ``s0`` the non-buying market share (logit
    only) and ``consumer_mass`` the total consumer count K (logit only,
    derived at fit time so demand = K * share reproduces observations).
    """

    model: DemandModel
    alpha: float
    p0: float
    s0: Optional[float] = None
    consumer_mass: Optional[float] = None


def validate_params(params: MarketParams) -> None:
    """Raise unless all MarketParams invariants hold.

    CED requires alpha > 1, logit alpha > 0; p0 must be positive and a
    logit s0 must lie strictly inside (0, 1).
    """
    if params.model is DemandModel.CED:
        if not params.alpha > 1.0:
            raise InvalidAlpha(f"CED requires alpha > 1, got {params.alpha}")
    else:
        if not params.alpha > 0.0:
            raise InvalidAlpha(f"logit requires alpha > 0, got {params.alpha}")
    if not params.p0 > 0.0:
        raise InvalidPrice(f"p0 must be positive, got {params.p0}")
    if params.model is DemandModel.LOGIT:
        if params.s0 is None or not 0.0 < params.s0 < 1.0:
            raise InvalidShare(f"logit requires s0 in (0,1), got {params.s0}")
        if params.consumer_mass is not None and not params.consumer_mass > 0.0:
            raise InvalidShare(f"consumer_mass must be positive, got {params.consumer_mass}")


@dataclass(frozen=True)
class CostModelSpec:
    """Cost-model selection plus tuning and fitted scaling.

    ``theta`` is the model-specific tuning knob; ``gamma`` converts
    relative costs to $/Mbps/month and is None until fitted. ``beta``
    is the derived distance-independent base cost (linear/concave
    only; zero elsewhere). The concave constants default to the fitted
    shape (0.5, 6, 1) used throughout.
    """

    kind: CostKind
    theta: float = 0.0
    gamma: Optional[float] = None
    beta: float = 0.0
    concave_a: float = 0.5
    concave_b: float = 6.0
    concave_c: float = 1.0

    def __post_init__(self):
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.kind is CostKind.DEST_TYPE and self.theta > 1.0:
            raise DomainError(
                f"destination-type theta is a traffic fraction in [0,1], got {self.theta}"
            )
        if self.gamma is not None and not self.gamma > 0:
            raise NonPositiveGamma(f"gamma must be positive, got {self.gamma}")
        if self.beta < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class FittedFlow:
    """A flow after model fitting: observed demand q, distance d,
    valuation coefficient v and realized unit cost c."""

    flow_id: str
    q: float
    d: float
    v: float
    c: float
    class_label: Optional[str] = None

    def __post_init__(self):
        if not self.q > 0:
            raise DomainError(f"flow {self.flow_id}: fitted demand must be > 0")
        if not self.c > 0:
            raise DomainError(f"flow {self.flow_id}: fitted cost must be > 0")


@dataclass(frozen=True, eq=False)
class Bundling:
    """A partition of flows into price tiers.

    ``labels[i]`` is the bundle index, in [0, num_bundles), of the i-th
    flow in the order the bundling was built from: ``ModelContext.ids``
    for the strategies, or the ids passed to ``token_bucket_bundles``.
    ``labels`` is stored as a read-only ``intp`` array. Empty bundles
    are permitted, so the effective tier count can be smaller than
    ``num_bundles``. Instances compare by identity; compare labels with
    ``np.array_equal``.
    """

    labels: np.ndarray
    num_bundles: int

    def __post_init__(self):
        if self.num_bundles < 1:
            raise DomainError(f"num_bundles must be >= 1, got {self.num_bundles}")
        labels = np.array(self.labels, dtype=np.intp)
        if labels.ndim != 1:
            raise DomainError(f"labels must be one-dimensional, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_bundles):
            bad = int(np.flatnonzero((labels < 0) | (labels >= self.num_bundles))[0])
            raise DomainError(
                f"flow {bad}: bundle index {labels[bad]} outside [0, {self.num_bundles})"
            )
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def effective_bundles(self) -> int:
        """Number of bundles that actually contain flows."""
        counts = np.bincount(self.labels, minlength=self.num_bundles)
        return int(np.count_nonzero(counts))


@dataclass(frozen=True)
class TierOutcome:
    """Evaluation of one bundling: prices, profit, surplus and the two
    capture metrics (normalized against the blended-rate original and
    the per-flow maximum)."""

    bundling: Bundling
    prices: tuple[float, ...]
    profit: float
    consumer_surplus: float
    profit_capture: float
    surplus_capture: float

    @property
    def effective_bundles(self) -> int:
        return self.bundling.effective_bundles
