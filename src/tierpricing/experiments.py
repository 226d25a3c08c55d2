"""Experiment pipelines: fit -> bundle -> price -> evaluate.

Three table-producing runs mirror the headline questions:

* capture curves     profit/surplus capture per strategy as the tier
                     count grows
* theta sweep        the same curves across cost-model tuning values,
                     profits normalized to the best observed in the
                     whole sweep
* sensitivity sweep  worst-case (best-case for the non-buying share)
                     profit capture per tier count over parameter grids

All runs write a long-format CSV with the fixed header
``sweep_param,sweep_value,strategy,num_bundles,effective_bundles,
profit,profit_capture,consumer_surplus,surplus_capture`` plus a JSON
metadata sidecar (``<out>.meta.json``) carrying the configuration echo,
normalization constants and per-bundle prices. Identical configuration
and seed reproduce output files byte-for-byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from .bundling import ModelContext, Strategy, build_bundles, evaluate_bundling
from .bundling import optimal_bundles  # noqa: F401  bench/traced_cli.py patches this name
from .cost_models import class_labels, relative_costs, split_by_dest_type, with_fit
from .demand_ced import fit_ced
from .demand_logit import fit_logit
from .domain import (
    ConfigError,
    CostKind,
    CostModelSpec,
    DemandModel,
    FlowTable,
    MarketParams,
    validate_params,
)
from .ingestion import preset_moments, read_flows_csv, synth_generate

log = logging.getLogger(__name__)

OUTPUT_COLUMNS = (
    "sweep_param", "sweep_value", "strategy", "num_bundles",
    "effective_bundles", "profit", "profit_capture",
    "consumer_surplus", "surplus_capture",
)

DEFAULT_STRATEGIES = (
    Strategy.OPTIMAL,
    Strategy.DEMAND_WEIGHTED,
    Strategy.COST_WEIGHTED,
    Strategy.PROFIT_WEIGHTED,
    Strategy.COST_DIVISION,
    Strategy.INDEX_DIVISION,
)

# The non-buying share sweep cannot start at zero (outside the model
# domain); grid values below this are clamped.
S0_SWEEP_FLOOR = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; defaults follow the
    reference evaluation settings (alpha 1.1, p0 $20, theta 0.2,
    s0 0.2)."""

    demand_model: DemandModel = DemandModel.CED
    cost_kind: CostKind = CostKind.LINEAR
    theta: float = 0.2
    alpha: float = 1.1
    p0: float = 20.0
    s0: float = 0.2
    input_csv: str | None = None
    preset: str | None = "eu-isp"
    n_flows: int = 10_000
    seed: int = 0
    bundles: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    strategies: tuple[Strategy, ...] = DEFAULT_STRATEGIES
    theta_grid: tuple[float, ...] = (0.0, 0.2, 0.5, 1.0)
    alpha_grid: tuple[float, ...] = (1.1, 2.0, 5.0, 10.0)
    p0_grid: tuple[float, ...] = (5.0, 10.0, 20.0, 30.0)
    s0_grid: tuple[float, ...] = (0.05, 0.2, 0.5, 0.9)
    out: str = "results.csv"
    workers: int = 1
    split_dest_type: bool = False
    cs_unit_price_offset: bool = False


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError on any inconsistent setting."""
    try:
        validate_params(market_params(config))
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    if config.input_csv is None and config.preset is None:
        raise ConfigError("either an input CSV or a synthetic preset is required")
    if config.theta < 0:
        raise ConfigError(f"theta must be >= 0, got {config.theta}")
    if not config.bundles or any(b < 1 for b in config.bundles):
        raise ConfigError(f"bundle counts must be >= 1, got {config.bundles}")
    if config.n_flows < 1:
        raise ConfigError(f"n_flows must be >= 1, got {config.n_flows}")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.demand_model is DemandModel.CED:
        bad = [a for a in config.alpha_grid if a <= 1.0]
        if bad:
            raise ConfigError(f"CED alpha grid must stay above 1, got {bad}")


def market_params(config: ExperimentConfig) -> MarketParams:
    s0 = config.s0 if config.demand_model is DemandModel.LOGIT else None
    return MarketParams(config.demand_model, config.alpha, config.p0, s0=s0)


def load_flows(config: ExperimentConfig) -> FlowTable:
    """Load or synthesize the flow set (never mutates inputs)."""
    if config.input_csv is not None:
        flows = read_flows_csv(config.input_csv)
    else:
        flows = synth_generate(
            preset_moments(config.preset, n_flows=config.n_flows, seed=config.seed)
        )
    if len(flows) == 0:
        raise ConfigError("flow set is empty after ingestion")
    if config.split_dest_type and config.cost_kind is CostKind.DEST_TYPE:
        flows = split_by_dest_type(flows, config.theta)
    return flows


def fit_context(
    flows: FlowTable,
    config: ExperimentConfig,
    *,
    alpha: float | None = None,
    p0: float | None = None,
    s0: float | None = None,
    theta: float | None = None,
) -> ModelContext:
    """Fit the configured demand model on the flows; keyword overrides
    support sweeps over single parameters."""
    alpha = config.alpha if alpha is None else alpha
    p0 = config.p0 if p0 is None else p0
    s0 = config.s0 if s0 is None else s0
    theta = config.theta if theta is None else theta
    spec = CostModelSpec(kind=config.cost_kind, theta=theta)
    rel = relative_costs(spec, flows)
    labels = class_labels(spec, flows)
    ids, q, d = flows.ids, flows.demand, flows.distance
    if config.demand_model is DemandModel.CED:
        fit = fit_ced(ids, q, d, rel, p0, alpha, labels)
        return ModelContext.from_ced(
            fit, p0, cs_unit_price_offset=config.cs_unit_price_offset
        )
    fit = fit_logit(ids, q, d, rel, p0, alpha, s0, labels)
    return ModelContext.from_logit(fit, p0)


def _row(sweep_param: str, sweep_value: float, strategy: Strategy,
         num_bundles: int, outcome) -> dict:
    return {
        "sweep_param": sweep_param,
        "sweep_value": float(sweep_value),
        "strategy": strategy.value,
        "num_bundles": num_bundles,
        "effective_bundles": outcome.effective_bundles,
        "profit": outcome.profit,
        "profit_capture": outcome.profit_capture,
        "consumer_surplus": outcome.consumer_surplus,
        "surplus_capture": outcome.surplus_capture,
        "prices": outcome.prices,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_capture_curve(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Capture-vs-tier-count table for every configured strategy."""
    validate_config(config)
    flows = load_flows(config)
    ctx = fit_context(flows, config)
    rows = []
    for strategy in config.strategies:
        for num_bundles in config.bundles:
            bundling = build_bundles(strategy, ctx, num_bundles)
            outcome = evaluate_bundling(ctx, bundling)
            rows.append(_row("bundles", num_bundles, strategy, num_bundles, outcome))
    rows.sort(key=_sort_key)
    meta = _meta(config, ctx=ctx, rows=rows)
    meta["cost_model"] = _cost_meta(config, flows, ctx, config.theta)
    return rows, meta


def _theta_point(config: ExperimentConfig, flows: FlowTable,
                 theta: float) -> tuple[list[dict], dict]:
    ctx = fit_context(flows, config, theta=theta)
    rows = []
    for strategy in config.strategies:
        for num_bundles in config.bundles:
            bundling = build_bundles(strategy, ctx, num_bundles)
            outcome = evaluate_bundling(ctx, bundling)
            rows.append(_row("theta", theta, strategy, num_bundles, outcome))
    point_meta = {"theta": theta, "pi_orig": ctx.pi_orig, "pi_max": ctx.pi_max,
                  "cost_model": _cost_meta(config, flows, ctx, theta)}
    return rows, point_meta


def run_theta_sweep(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Capture table across cost tuning values.

    The ``profit`` column is normalized by the highest profit observed
    anywhere in the sweep (the raw scale is in the metadata), so curves
    for different theta are directly comparable.
    """
    validate_config(config)
    if not config.theta_grid:
        raise ConfigError("theta grid must be nonempty")
    flows = load_flows(config)
    results = _map_jobs(_theta_point,
                        [(config, flows, t) for t in config.theta_grid],
                        config.workers)
    rows = [r for point_rows, _ in results for r in point_rows]
    norm = max(r["profit"] for r in rows)
    for r in rows:
        r["profit"] = r["profit"] / norm
    rows.sort(key=_sort_key)
    meta = _meta(config)
    meta["profit_norm_constant"] = norm
    meta["theta_points"] = [m for _, m in results]
    return rows, meta


def _sensitivity_point(config: ExperimentConfig, flows: FlowTable,
                       param: str, value: float) -> list[dict]:
    ctx = fit_context(flows, config, **{param: value})
    rows = []
    for num_bundles in config.bundles:
        bundling = build_bundles(Strategy.PROFIT_WEIGHTED, ctx, num_bundles)
        outcome = evaluate_bundling(ctx, bundling)
        rows.append(_row(param, value, Strategy.PROFIT_WEIGHTED, num_bundles, outcome))
    return rows


def run_sensitivity_sweep(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Worst-case capture per tier count under parameter variation.

    Sweeps the price sensitivity and the blended rate (reporting the
    minimum capture over each grid) and, under logit, the non-buying
    share (reporting the maximum). Each emitted row is the full
    evaluation of the grid point attaining the extremum, tagged
    ``alpha-min`` / ``p0-min`` / ``s0-max``; bundling is always
    profit-weighted.
    """
    validate_config(config)
    sweeps: list[tuple[str, str, tuple[float, ...], bool]] = []
    if config.alpha_grid:
        sweeps.append(("alpha-min", "alpha", config.alpha_grid, False))
    if config.p0_grid:
        sweeps.append(("p0-min", "p0", config.p0_grid, False))
    if config.s0_grid:
        if config.demand_model is DemandModel.LOGIT:
            grid = tuple(max(v, S0_SWEEP_FLOOR) for v in config.s0_grid)
            if grid != tuple(config.s0_grid):
                log.warning("s0 grid values below %.2f clamped", S0_SWEEP_FLOOR)
            sweeps.append(("s0-max", "s0", grid, True))
        elif config.s0_grid != ExperimentConfig.s0_grid:
            raise ConfigError("s0 sweep applies to the logit model only")
    if not sweeps:
        raise ConfigError("no sweep grids specified")
    flows = load_flows(config)
    rows = []
    for tag, param, grid, take_max in sweeps:
        jobs = [(config, flows, param, value) for value in grid]
        per_value = _map_jobs(_sensitivity_point, jobs, config.workers)
        for num_bundles in config.bundles:
            candidates = [
                r for point in per_value for r in point
                if r["num_bundles"] == num_bundles
            ]
            pick = (max if take_max else min)(
                candidates, key=lambda r: r["profit_capture"]
            )
            pick = dict(pick)
            pick["sweep_param"] = tag
            rows.append(pick)
    rows.sort(key=_sort_key)
    meta = _meta(config)
    return rows, meta


def _cost_meta(config: ExperimentConfig, flows: FlowTable, ctx: ModelContext,
               theta: float) -> dict:
    spec = with_fit(CostModelSpec(kind=config.cost_kind, theta=theta),
                    flows, ctx.gamma)
    return {"kind": spec.kind.value, "theta": spec.theta,
            "gamma": spec.gamma, "beta": spec.beta}


def _sort_key(row: dict):
    return (row["sweep_param"], row["sweep_value"], row["strategy"],
            row["num_bundles"])


def _map_jobs(fn, jobs: list[tuple], workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _meta(config: ExperimentConfig, ctx: ModelContext | None = None,
          rows: list[dict] | None = None) -> dict:
    """Configuration echo and notes, plus the baselines and prices of
    a capture run."""
    cfg = dataclasses.asdict(config)
    for key, value in cfg.items():
        if isinstance(value, Strategy):
            cfg[key] = value.value
        elif isinstance(value, tuple):
            cfg[key] = [v.value if hasattr(v, "value") else v for v in value]
        elif hasattr(value, "value"):
            cfg[key] = value.value
    meta: dict = {"config": cfg, "notes": []}
    if config.input_csv is None:
        meta["notes"].append(
            "synthetic flows: demands and distances sampled independently"
        )
    if ctx is not None:
        meta["baselines"] = {
            "pi_orig": ctx.pi_orig, "pi_max": ctx.pi_max,
            "cs_orig": ctx.cs_orig, "cs_max": ctx.cs_max,
        }
    if rows is not None:
        meta["prices"] = {
            f"{r['strategy']}/B={r['num_bundles']}": [
                None if math.isnan(p) else p for p in r["prices"]
            ]
            for r in rows
        }
    return meta


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(path: str, rows: Iterable[dict], meta: dict) -> None:
    """Write the results CSV and its metadata sidecar atomically."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUTPUT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in OUTPUT_COLUMNS])
    os.replace(tmp, path)
    meta_path = f"{path}.meta.json"
    tmp = f"{meta_path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, meta_path)
