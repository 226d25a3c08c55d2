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
from functools import cached_property
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------


class PricingError(Exception):
    """Base class for all errors raised by this package; the CLI exits 2
    on one, or 3 on a ``NumericalFailure``."""


class DomainError(PricingError):
    """A setting, argument or input the package refuses (CLI exit code
    2)."""


class NumericalFailure(PricingError):
    """A computation failed on settings that passed validation (CLI exit
    code 3)."""


class NonPositiveCost(NumericalFailure):
    """Relative-cost configuration produced no positive costs."""


class NonPositiveGamma(NumericalFailure):
    """Cost-scaling fit produced gamma <= 0 (parameters inconsistent
    with rational uniform pricing)."""


class NoConvergence(NumericalFailure):
    """An iterative procedure exhausted its budget.

    Carries the last residual so callers can decide whether the result
    is still usable.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class OverflowGuard(NumericalFailure):
    """A quantity leaves float64: an exponent past the safe range even
    with max-shift stabilization, a demand total, a relative cost,
    v**alpha or a gamma fit's sum over relative costs, or a score of the
    optimal search."""


class DegenerateBaseline(NumericalFailure):
    """Capture metric undefined: maximum and original profit coincide."""


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


def _member(enum, name: str, value):
    """``value`` as a member of ``enum``, which it is or is the value of;
    an unknown value raises DomainError naming the holder's field
    ``name``. Every holder of an enum converts by it, so that code
    downstream may compare members by identity."""
    try:
        return enum(value)
    except ValueError:
        raise DomainError(f"{name}: unknown value {value!r}") from None


def _check_market(model: DemandModel, alpha: float, p0: float, s0: float | None = None):
    """Raise DomainError unless ``model`` (a member) is defined at
    ``alpha``, ``p0`` and, under logit, ``s0``: alpha and p0 finite,
    alpha > 1 under CED and > 0 under logit, p0 > 0 and, under logit,
    0 < s0 < 1 (CED reads no s0). The one statement of the markets'
    domain: the config, both fits and ``ModelContext`` call it."""
    for name, value in (("alpha", alpha), ("p0", p0)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    label, floor = ("CED", 1) if model is DemandModel.CED else ("logit", 0)
    if not alpha > floor:
        raise DomainError(f"{label} requires alpha > {floor}, got {alpha}")
    if not p0 > 0.0:
        raise DomainError(f"p0 must be positive, got {p0}")
    if model is DemandModel.LOGIT and (s0 is None or not 0.0 < s0 < 1.0):
        raise DomainError(f"logit requires s0 in (0,1), got {s0}")


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


def _setstate_read_only(self, state: dict) -> None:
    """Unpickling (``__setstate__``): pickle restores arrays writable,
    so the fields' arrays are made read-only again, in place, which keeps
    the arrays that a pickle shares between objects (a flow table and
    its ``FlowOrders``) shared."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    self.__dict__.update(state)


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
    models. Every array is read-only (a writable input is copied), also
    in an unpickled copy, so a table can be shared freely, with a worker
    process too. Instances compare by identity.
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

    __setstate__ = _setstate_read_only

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class CostModelSpec:
    """Cost-model selection plus its tuning knob ``theta``, a finite
    number >= 0 (at most 1 under dest-type); the fitted scaling gamma
    lives on the fitted ``ModelContext``. ``kind`` may be given by its
    value ("regional"), and is kept as the ``CostKind``."""

    kind: CostKind
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", _member(CostKind, "kind", self.kind))
        if not np.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.kind is CostKind.DEST_TYPE and self.theta > 1.0:
            raise DomainError(
                f"destination-type theta is a traffic fraction in [0,1], got {self.theta}"
            )


@dataclass(frozen=True, eq=False, init=False)
class Bundling:
    """A partition of flows into price tiers, held as its grouping.

    ``Bundling(labels, num_bundles)`` takes ``labels[i]``, the bundle
    index in [0, num_bundles) of the i-th flow in the order the bundling
    was built from: ``ModelContext.ids`` for the strategies, or the ids
    passed to ``token_bucket_bundles``. It groups them once, by one
    stable argsort (of ``uint8`` keys up to 256 bundles, which numpy
    radix-sorts to the same permutation) and one count. A strategy that
    cuts an order it walks into runs (the token buckets, index-division,
    class-profit-weighted and optimal) builds its tiers by
    ``Bundling.from_runs(order, bounds)`` instead, which sorts each run
    into flow order and so gives the same grouping without labels. Only
    the grouping is kept:

    * ``members``, the flow indices by bundle and, within a bundle, in
      flow order (the stable argsort of the labels): ``intp`` or, from
      runs with ``compact``, the smallest unsigned type that holds the
      flow count, which halves the memory of a bundling that is kept for
      reuse at the cost of a cast at every gather from it;
    * ``sizes``, the member count of each of the ``num_bundles``
      bundles (``intp``). Empty bundles are permitted, so the effective
      tier count can be smaller than ``num_bundles``.

    ``labels`` derives the labels from the grouping on first use and
    keeps them, as a read-only ``intp`` array. Every array is read-only,
    also in an unpickled copy. Instances compare by identity; compare
    labels with ``np.array_equal``.
    """

    members: np.ndarray
    sizes: np.ndarray
    num_bundles: int

    def __init__(self, labels, num_bundles: int):
        if num_bundles < 1:
            raise DomainError(f"num_bundles must be >= 1, got {num_bundles}")
        labels = np.asarray(labels, dtype=np.intp)
        if labels.ndim != 1:
            raise DomainError(f"labels must be one-dimensional, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_bundles):
            bad = int(np.flatnonzero((labels < 0) | (labels >= num_bundles))[0])
            raise DomainError(
                f"flow {bad}: bundle index {labels[bad]} outside [0, {num_bundles})"
            )
        keys = labels.astype(np.uint8) if num_bundles <= 256 else labels
        self._hold(np.argsort(keys, kind="stable"),
                   np.bincount(labels, minlength=num_bundles))

    @classmethod
    def from_runs(cls, order, bounds, compact: bool = False) -> "Bundling":
        """The bundling whose bundle j is the run order[bounds[j]:bounds[j+1]]
        of ``order``, a permutation of the flow indices; ``bounds`` rise
        from 0 to the flow count, one more than the bundles. The runs are
        sorted into flow order in place, on one copy of the order in the
        smallest unsigned type that holds the flow count (which numpy
        sorts about twice as fast as ``intp``), so ``members``, widened to
        ``intp`` unless ``compact``, equals that of the labels the runs
        give."""
        bounds = np.asarray(bounds, dtype=np.intp)
        n = len(order)
        if (bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n
                or np.any(np.diff(bounds) < 0)):
            raise DomainError(f"run bounds must rise from 0 to {n}, got {bounds.tolist()}")
        members = np.array(order, dtype=np.min_scalar_type(n))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if b - a > 1:
                members[a:b].sort()
        if not compact:
            members = members.astype(np.intp)
        self = object.__new__(cls)
        self._hold(members, np.diff(bounds))
        return self

    def _hold(self, members: np.ndarray, sizes: np.ndarray) -> None:
        members.flags.writeable = sizes.flags.writeable = False
        set_ = object.__setattr__
        set_(self, "members", members)
        set_(self, "sizes", sizes)
        set_(self, "num_bundles", sizes.size)

    __setstate__ = _setstate_read_only

    @cached_property
    def labels(self) -> np.ndarray:
        """The bundle index of each flow, in flow order."""
        labels = np.empty(self.members.size, dtype=np.intp)
        labels[self.members] = np.repeat(np.arange(self.num_bundles), self.sizes)
        labels.flags.writeable = False
        return labels

    @property
    def effective_bundles(self) -> int:
        """Number of bundles that actually contain flows."""
        return int(np.count_nonzero(self.sizes))


@dataclass(frozen=True)
class TierOutcome:
    """Evaluation of one bundling: the number of non-empty bundles,
    prices, profit, surplus and the two capture metrics (normalized
    against the blended-rate original and the per-flow maximum)."""

    effective_bundles: int
    prices: tuple[float, ...]
    profit: float
    consumer_surplus: float
    profit_capture: float
    surplus_capture: float
