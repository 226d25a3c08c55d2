"""Flow CSV ingestion and moment-matched synthetic flow generation.

Both sources produce a ``FlowTable``: one array per column, in the
order the flows were first seen (CSV) or generated (synthetic). The
CSV reader is the only per-row code; it builds the arrays once, after
the last row.

The input format is a UTF-8 CSV with header
``flow_id,demand_mbps,distance_miles,region,dest_type`` ('.' decimal
separator; the last two columns may be blank). A missing or
non-numeric field, a non-finite or a negative value is a ParseError
naming the line. Rows sharing a flow_id are aggregated (demands
summed, distance demand-weighted); zero-demand rows are dropped with a
counted warning.

The synthetic generator stands in for proprietary traffic datasets: it
draws demands and distances from independent lognormals and calibrates
them so the sample matches the requested aggregate volume, coefficients
of variation and demand-weighted mean distance. Bundled presets carry
summary statistics of three reference networks (a European transit
ISP, a large CDN, and a US research network).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .domain import (
    DomainError,
    FlowTable,
    MissingColumn,
    NoConvergence,
    ParseError,
)

if TYPE_CHECKING:
    from .bundling import ModelContext

log = logging.getLogger(__name__)

FLOW_COLUMNS = ("flow_id", "demand_mbps", "distance_miles", "region", "dest_type")
FITTED_COLUMNS = ("flow_id", "q", "d", "v", "c", "class_label")
PARAMS_COLUMNS = ("model", "alpha", "p0", "s0", "consumer_mass")


@dataclass(frozen=True)
class DatasetMoments:
    """Summary statistics a synthetic flow set must reproduce."""

    n_flows: int
    weighted_avg_distance_miles: float
    cv_distance: float
    aggregate_gbps: float
    cv_demand: float
    seed: int = 0

    def __post_init__(self):
        if self.n_flows < 1:
            raise DomainError("n_flows must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        for name in ("weighted_avg_distance_miles", "aggregate_gbps"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        for name in ("cv_distance", "cv_demand"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


# Summary statistics of the three reference networks (distance w-avg in
# miles, distance CV, aggregate traffic in Gbps, demand CV).
SYNTH_PRESETS: dict[str, DatasetMoments] = {
    "eu-isp": DatasetMoments(10_000, 54.0, 0.70, 37.0, 1.71),
    "cdn": DatasetMoments(10_000, 1988.0, 0.59, 96.0, 2.28),
    "internet2": DatasetMoments(10_000, 660.0, 0.54, 4.0, 4.53),
}


def preset_moments(name: str, n_flows: int | None = None, seed: int | None = None) -> DatasetMoments:
    """Preset moments by name, optionally resized/reseeded."""
    try:
        m = SYNTH_PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}; choose from {sorted(SYNTH_PRESETS)}")
    if n_flows is not None:
        m = replace(m, n_flows=n_flows)
    if seed is not None:
        m = replace(m, seed=seed)
    return m


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


def _parse_float(text: str | None, column: str, line: int) -> float:
    if text is None:
        raise ParseError(f"line {line}: missing {column} value", line=line)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"line {line}: bad {column} value {text!r}", line=line)
    if not math.isfinite(value):
        raise ParseError(f"line {line}: non-finite {column} value {text!r}", line=line)
    return value


def read_flows_csv(path) -> FlowTable:
    """Parse a flow CSV, aggregating duplicate flow ids.

    Duplicate ids have their demands summed and distances averaged with
    demand weights (so re-reading never double-counts a flow recorded
    by several routers); the first non-blank label of each kind wins.
    Zero-demand rows are dropped and counted in a single warning.
    Flows keep the order of their first row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("flow_id", "demand_mbps", "distance_miles"):
            if col not in header:
                raise MissingColumn(f"missing column {col!r} in {path}")
        acc: dict[str, dict] = {}
        dropped = 0
        for line, row in enumerate(reader, start=2):
            fid = (row.get("flow_id") or "").strip()
            if not fid:
                raise ParseError(f"line {line}: empty flow_id", line=line)
            demand = _parse_float(row["demand_mbps"], "demand_mbps", line)
            distance = _parse_float(row["distance_miles"], "distance_miles", line)
            if demand < 0 or distance < 0:
                raise ParseError(f"line {line}: negative value", line=line)
            if demand == 0:
                dropped += 1
                continue
            region = (row.get("region") or "").strip() or None
            dest_type = (row.get("dest_type") or "").strip() or None
            slot = acc.get(fid)
            if slot is None:
                acc[fid] = {
                    "demand": demand,
                    "distance": distance,
                    "region": region,
                    "dest_type": dest_type,
                }
            else:
                total = slot["demand"] + demand
                slot["distance"] = (
                    slot["demand"] * slot["distance"] + demand * distance
                ) / total
                slot["demand"] = total
                slot["region"] = slot["region"] or region
                slot["dest_type"] = slot["dest_type"] or dest_type
    if dropped:
        log.warning("%s: dropped %d zero-demand rows", path, dropped)
    slots = acc.values()
    return FlowTable(
        ids=list(acc),
        demand=[s["demand"] for s in slots],
        distance=[s["distance"] for s in slots],
        region=[s["region"] for s in slots],
        dest_type=[s["dest_type"] for s in slots],
    )


def _labels(column: np.ndarray | None, n: int) -> list:
    return [None] * n if column is None else column.tolist()


def write_flows_csv(path, flows: FlowTable) -> None:
    """Write flows in the input CSV format; floats use repr so a
    read-back reproduces them bit-identically."""
    n = len(flows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_COLUMNS)
        # tolist() gives Python floats, whose repr is the plain number
        writer.writerows(
            (fid, repr(q), repr(d), region or "", dest_type or "")
            for fid, q, d, region, dest_type in zip(
                flows.ids.tolist(), flows.demand.tolist(), flows.distance.tolist(),
                _labels(flows.region, n), _labels(flows.dest_type, n),
            )
        )


def write_fitted_csv(path, ctx: ModelContext) -> None:
    """Write the fitted flows of a ``ModelContext``; floats use repr so
    a read-back reproduces them bit-identically."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FITTED_COLUMNS)
        writer.writerows(
            (fid, repr(q), repr(d), repr(v), repr(c), label or "")
            for fid, q, d, v, c, label in zip(
                ctx.ids.tolist(), ctx.q.tolist(), ctx.d.tolist(),
                ctx.v.tolist(), ctx.c.tolist(), _labels(ctx.class_labels, len(ctx)),
            )
        )


def write_params_csv(path, ctx: ModelContext) -> None:
    """Write the market parameters of a fitted ``ModelContext``; s0 and
    the consumer mass are blank under CED."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PARAMS_COLUMNS)
        writer.writerow([
            ctx.model.value, repr(ctx.alpha), repr(ctx.p0),
            "" if ctx.s0 is None else repr(ctx.s0),
            "" if ctx.consumer_mass is None else repr(ctx.consumer_mass),
        ])


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def _calibrated_lognormal(z: np.ndarray, cv: float) -> np.ndarray:
    """Positive sample exp(sigma*z) with its *sample* coefficient of
    variation driven to ``cv``.

    The textbook sigma = sqrt(ln(1+cv^2)) only matches the population
    CV; for heavy tails (cv >~ 2) the sample CV of a finite draw spreads
    far beyond any useful tolerance, so sigma is tuned by bisection on
    the fixed draw instead. Deterministic given ``z``.
    """
    if cv == 0.0:
        return np.ones_like(z)

    def sample_cv(sigma: float) -> float:
        x = np.exp(sigma * z)
        return float(x.std() / x.mean())

    lo, hi = 0.0, float(np.sqrt(np.log1p(cv * cv)))
    while sample_cv(hi) < cv:
        hi *= 2.0
        if hi > 1e3:
            raise NoConvergence("sample CV calibration cannot reach target")
    sigma = hi
    for _ in range(100):
        sigma = 0.5 * (lo + hi)
        got = sample_cv(sigma)
        if abs(got - cv) <= 1e-6 * cv:
            break
        if got < cv:
            lo = sigma
        else:
            hi = sigma
    else:
        raise NoConvergence("sample CV calibration did not converge", residual=abs(got - cv))
    return np.exp(sigma * z)


def synth_generate(moments: DatasetMoments) -> FlowTable:
    """Generate flows whose sample moments match ``moments``.

    Demands and distances are independent lognormals (the reference
    statistics say nothing about their joint structure, so none is
    assumed; note that bundling strategies keying on demand-cost
    alignment behave very differently on such data than on real
    traffic). Demands are scaled to the aggregate volume exactly;
    distances are rescaled until the demand-weighted mean lands within
    tolerance. Bit-identical output for identical (moments, seed).
    """
    rng = np.random.default_rng(moments.seed)
    n = moments.n_flows
    z_q = rng.standard_normal(n)
    z_d = rng.standard_normal(n)

    q = _calibrated_lognormal(z_q, moments.cv_demand)
    q *= moments.aggregate_gbps * 1000.0 / q.sum()

    d = _calibrated_lognormal(z_d, moments.cv_distance)
    target = moments.weighted_avg_distance_miles
    for _ in range(100):
        got = float(np.sum(q * d) / q.sum())
        if abs(got - target) <= 1e-2 * target:
            break
        d *= target / got
    else:
        raise NoConvergence(
            "weighted-mean distance scaling did not converge",
            residual=abs(got - target) / target,
        )
    return FlowTable(_synth_ids(n), q, d)


def _synth_ids(n: int) -> np.ndarray:
    """Ids ``synth-<i>`` for i in 0..n-1, the index zero-padded to the
    width of n-1: one code point per column of a ``uint32`` matrix,
    viewed as a unicode array."""
    prefix = "synth-"
    width = len(str(n - 1))
    codes = np.empty((n, len(prefix) + width), dtype=np.uint32)
    codes[:, :len(prefix)] = [ord(ch) for ch in prefix]
    index = np.arange(n, dtype=np.uint32)
    for col in range(codes.shape[1] - 1, len(prefix) - 1, -1):
        index, digit = np.divmod(index, 10)
        codes[:, col] = ord("0") + digit
    return codes.view(np.dtype(("U", codes.shape[1]))).reshape(n)
