"""Core value types and exceptions shared across the pricing engine.

Flows are held column-wise: a ``FlowTable`` keeps one array per field
(ids, demand, distance and the optional labels). The fitted market,
``bundling.ModelContext``, and ``Bundling`` keep arrays aligned with the
same flow order; the context checks its columns with the helpers here.
There is no per-flow object. All types are immutable after
construction (their arrays are read-only; writable inputs are copied)
and safe to share between concurrent workers. Units are fixed throughout the package:
demand in Mbit/s, distance in miles, money in $/Mbps/month.
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
    """A quantity leaves float64: an exponent past the safe range even
    with max-shift stabilization, a demand total, v**alpha, or a score
    of the optimal search."""


class MissingClassLabels(PricingError):
    """Class-constrained bundling requested on unlabeled flows."""


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


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only one-dimensional array of ``dtype``.

    An array that is already read-only and of that type is shared, so
    a context fitted from flows holds one copy of each column;
    anything else is copied.
    """
    if (isinstance(values, np.ndarray) and not values.flags.writeable
            and values.dtype.type is np.dtype(dtype).type):
        out = values
    else:
        out = np.array(values, dtype=dtype)
        out.flags.writeable = False
    if out.ndim != 1:
        raise DomainError(f"expected a one-dimensional array, got shape {out.shape}")
    return out


def _first(bad: np.ndarray) -> int | None:
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def _labels_column(ids: np.ndarray, values, allowed: tuple[str, ...] | None,
                   name: str) -> np.ndarray | None:
    """Read-only object array of labels (from ``allowed``, unless that
    is None) or None; a column without any label is stored as None."""
    if values is None:
        return None
    column = _frozen_array(values, object)
    if len(column) != len(ids):
        raise DomainError(f"{len(column)} {name} labels for {len(ids)} flows")
    absent = np.equal(column, None)
    if absent.all():
        return None
    if allowed is None:
        return column
    known = absent.copy()
    for label in allowed:
        known |= column == label
    bad = _first(~known)
    if bad is not None:
        raise DomainError(f"flow {ids[bad]}: unknown {name} {column[bad]!r}")
    return column


@dataclass(frozen=True, eq=False)
class FlowTable:
    """The ingested traffic flows, one array element per flow.

    ``ids`` is a unicode array of flow ids; ``demand`` is the billed
    volume of each flow in Mbit/s (95th-percentile style) and
    ``distance`` the miles its traffic covers, both float64. ``region``
    and ``dest_type`` are None when no flow carries that label, else
    object arrays holding a label or None per flow; unlabeled flows
    are classed by distance or treated as a mixture by the cost
    models. Every array is read-only (a writable input is copied), so
    a table can be shared freely. Instances compare by identity.
    """

    ids: np.ndarray
    demand: np.ndarray
    distance: np.ndarray
    region: Optional[np.ndarray] = None
    dest_type: Optional[np.ndarray] = None

    def __post_init__(self):
        set_ = object.__setattr__
        ids = _frozen_array(self.ids, np.str_)
        demand = _frozen_array(self.demand, np.float64)
        distance = _frozen_array(self.distance, np.float64)
        if not len(ids) == len(demand) == len(distance):
            raise DomainError(
                f"{len(ids)} flow ids, {len(demand)} demands and "
                f"{len(distance)} distances"
            )
        for name, values in (("demand", demand), ("distance", distance)):
            bad = _first(~np.isfinite(values))
            if bad is not None:
                raise DomainError(f"flow {ids[bad]}: non-finite {name} {values[bad]}")
            bad = _first(values < 0)
            if bad is not None:
                raise DomainError(f"flow {ids[bad]}: negative {name} {values[bad]}")
        set_(self, "ids", ids)
        set_(self, "demand", demand)
        set_(self, "distance", distance)
        set_(self, "region", _labels_column(ids, self.region, REGIONS, "region"))
        set_(self, "dest_type",
             _labels_column(ids, self.dest_type, DEST_TYPES, "dest_type"))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class CostModelSpec:
    """Cost-model selection plus its tuning knob ``theta``; the fitted
    scaling gamma lives on the fitted ``ModelContext``."""

    kind: CostKind
    theta: float = 0.0

    def __post_init__(self):
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.kind is CostKind.DEST_TYPE and self.theta > 1.0:
            raise DomainError(
                f"destination-type theta is a traffic fraction in [0,1], got {self.theta}"
            )


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
