"""Experiment pipelines: fit -> bundle -> price -> evaluate.

Three table-producing runs mirror the headline questions:

* capture curves     profit/surplus capture per strategy as the tier
                     count grows
* theta sweep        the same curves across cost-model tuning values,
                     profits normalized to the best observed in the
                     whole sweep
* sensitivity sweep  worst-case (best-case for the non-buying share)
                     profit capture per tier count over parameter grids

All three walk one engine: ``_sweep`` loads the flows once and maps
each distinct grid point, the configuration with one field replaced,
through ``_grid_point``, which fits one context and, at every tier
count, builds and evaluates each distinct tier set once: strategies
that build the same tiers (``tiers_of``; under logit, demand- and
profit-weighted) share one bundling and one evaluation. Once per flow
set (and once per worker process) the engine computes what depends on
the flows alone (``FlowOrders``: the id order, the demand visiting
order and, for a sweep of several points, the demand-weighted tiers of
each tier count), and every grid point shares it; a split flow set
(``split_dest_type``, one per theta) has its own. Once per grid point
it fits the valuations and costs and what follows from them: the
baselines, the cost order and the optimal search, and the cost- and
(under CED) profit-weighted visiting orders. A capture curve
is a one-point sweep; the theta sweep normalizes the profits of its
points and the sensitivity sweep picks the extreme point per tier
count.

All runs write a long-format CSV with the fixed header
``sweep_param,sweep_value,strategy,num_bundles,effective_bundles,
profit,profit_capture,consumer_surplus,surplus_capture`` plus a JSON
metadata sidecar (``<out>.meta.json``) carrying the configuration echo,
normalization constants and per-bundle prices. Identical configuration
and seed reproduce output files byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable

from .bundling import (
    FlowOrders,
    ModelContext,
    Strategy,
    build_bundles,
    evaluate_bundling,
    tiers_of,
)
from .bundling import optimal_bundles  # noqa: F401  bench/traced_cli.py patches this name
from .cost_models import base_cost, class_labels, relative_costs, split_by_dest_type
from .domain import (
    CostKind,
    CostModelSpec,
    DegenerateBaseline,
    DemandModel,
    DomainError,
    FlowTable,
    _check_market,
    _member,
)
from .ingestion import (
    atomic_output,
    preset_moments,
    read_flows_csv,
    synth_generate,
    write_csv,
)

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; defaults follow the
    reference evaluation settings (alpha 1.1, p0 $20, theta 0.2,
    s0 0.2).

    A config checks itself when made (by ``dataclasses.replace`` too)
    and raises DomainError on any inconsistent setting; the error of a
    check it shares passes on as that check raised it. It first converts
    ``demand_model``, ``cost_kind`` and each of ``strategies`` (a
    sequence, kept as a tuple) to their enums, so each may be given by
    its value ("ced"), and refuses an unknown value by field name and an
    empty strategy list. Then it refuses a market outside its demand
    model's domain (``_check_market``), a theta the cost model refuses
    (``CostModelSpec``), a switch of another model, or a repeated value.
    """

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

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "demand_model", _member(DemandModel, "demand_model", self.demand_model))
        set_(self, "cost_kind", _member(CostKind, "cost_kind", self.cost_kind))
        set_(self, "strategies", tuple(_member(Strategy, "strategies", s)
                                       for s in self.strategies))
        if not self.strategies:
            raise DomainError("strategies must not be empty")
        _check_market(self.demand_model, self.alpha, self.p0, self.s0)
        CostModelSpec(kind=self.cost_kind, theta=self.theta)
        if self.input_csv is None and self.preset is None:
            raise DomainError("either an input CSV or a synthetic preset is required")
        if self.split_dest_type and self.cost_kind is not CostKind.DEST_TYPE:
            raise DomainError("split_dest_type applies to the dest-type cost model "
                              f"only, got {self.cost_kind.value}")
        if self.cs_unit_price_offset and self.demand_model is not DemandModel.CED:
            raise DomainError("cs_unit_price_offset applies to the CED demand model "
                              f"only, got {self.demand_model.value}")
        if not self.bundles or any(b < 1 for b in self.bundles):
            raise DomainError(f"bundle counts must be >= 1, got {self.bundles}")
        if self.n_flows < 1:
            raise DomainError(f"n_flows must be >= 1, got {self.n_flows}")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        # a repeated value would give repeated rows under one sidecar key
        for name, values in (("bundle counts", self.bundles),
                             ("strategies", self.strategies),
                             ("theta grid", self.theta_grid),
                             ("alpha grid", self.alpha_grid),
                             ("p0 grid", self.p0_grid),
                             ("s0 grid", self.s0_grid)):
            if len(set(values)) != len(values):
                shown = ", ".join(str(getattr(v, "value", v)) for v in values)
                raise DomainError(f"{name} must not repeat, got {shown}")


def load_flows(config: ExperimentConfig) -> FlowTable:
    """Load or synthesize the flow set (never mutates inputs)."""
    if config.input_csv is not None:
        flows = read_flows_csv(config.input_csv)
    else:
        flows = synth_generate(
            preset_moments(config.preset, n_flows=config.n_flows, seed=config.seed)
        )
    if len(flows) == 0:
        raise DomainError("flow set is empty after ingestion")
    return flows


def fit_context(flows: FlowTable, config: ExperimentConfig,
                orders: FlowOrders | None = None) -> ModelContext:
    """Fit the configured demand model on the flows, first split into
    customer/peer subflows at the configured theta when asked to (a
    config asks only under the dest-type cost model).
    ``orders`` are the shared orders of the flow set the context is
    fitted on, or None to compute them for this context alone."""
    if config.split_dest_type:
        flows = split_by_dest_type(flows, config.theta)
    spec = CostModelSpec(kind=config.cost_kind, theta=config.theta)
    rel = relative_costs(spec, flows)
    labels = class_labels(spec, flows)
    ids, q, d = flows.ids, flows.demand, flows.distance
    if config.demand_model is DemandModel.CED:
        return ModelContext.from_ced(
            ids, q, d, rel, config.p0, config.alpha, labels,
            cs_unit_price_offset=config.cs_unit_price_offset, orders=orders)
    return ModelContext.from_logit(ids, q, d, rel, config.p0, config.alpha, config.s0,
                                   labels, orders=orders)


def _row(strategy: Strategy, num_bundles: int, outcome) -> dict:
    return {
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
# Engine
# ---------------------------------------------------------------------------


def _grid_point(config: ExperimentConfig, flows: FlowTable,
                orders: FlowOrders | None = None) -> tuple[list[dict], dict]:
    """Fit one context at ``config`` (sharing ``orders``, as
    ``fit_context``) and evaluate each of its (strategy, B): strategies
    that build the same tiers (``tiers_of``) share, at each B, one
    bundling, built by the first of them, and one evaluation.

    Returns the rows, not yet tagged with a sweep parameter, and the
    point's baselines and fitted cost model. A market whose per-flow
    and blended profits coincide gives rows with NaN captures.
    """
    ctx = fit_context(flows, config, orders)
    groups: dict[Strategy, list[Strategy]] = {}
    for strategy in config.strategies:
        groups.setdefault(tiers_of(strategy, ctx.model), []).append(strategy)
    rows = {}
    for group in groups.values():
        for num_bundles in config.bundles:
            outcome = evaluate_bundling(ctx, build_bundles(group[0], ctx, num_bundles))
            for strategy in group:
                rows[strategy, num_bundles] = _row(strategy, num_bundles, outcome)
    point = {
        "baselines": {"pi_orig": ctx.pi_orig, "pi_max": ctx.pi_max,
                      "cs_orig": ctx.cs_orig, "cs_max": ctx.cs_max},
        "cost_model": _cost_meta(config, flows, ctx),
    }
    return [rows[key] for key in itertools.product(config.strategies, config.bundles)], point


def _sweep(config: ExperimentConfig,
           points: list[tuple[str, object]]) -> list[tuple[list[dict], dict]]:
    """Load the flows once and evaluate every grid point, in order.

    A point (param, value) is ``config`` with that field replaced, and
    so checked, before the flows are loaded. Each distinct point is
    evaluated once (the base market recurs in every grid that holds its
    own value), and all of them form one job list, so
    ``config.workers`` processes share them. Every point is fitted on
    the loaded flows and shares their orders (``FlowOrders``), computed
    at the first point that reads them; each worker process receives
    one chunk of points with one copy of the flows and the orders, so
    it computes them once. Under ``split_dest_type`` each point fits
    its own split flow set, with orders of its own. A point's rows are
    then tagged with ``param`` and ``value``, or with each row's own
    tier count when ``param`` is "bundles".
    """
    configs = [dataclasses.replace(config, **{param: value}) for param, value in points]
    distinct = list(dict.fromkeys(configs))
    flows = load_flows(config)
    orders = None if config.split_dest_type else FlowOrders(
        flows.ids, flows.demand, keep_tiers=len(distinct) > 1)
    results = dict(zip(distinct, _map_jobs(
        _grid_point, [(point, flows, orders) for point in distinct], config.workers)))
    tagged = []
    for (param, value), point in zip(points, configs):
        rows, meta = results[point]
        tagged.append(([{"sweep_param": param,
                         "sweep_value": float(r["num_bundles"] if param == "bundles"
                                              else value),
                         **r} for r in rows], meta))
    return tagged


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_capture_curve(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Capture-vs-tier-count table for every configured strategy."""
    results = _sweep(config, [("bundles", config.bundles)])
    _require_captures(results)
    [(rows, point)] = results
    rows.sort(key=_sort_key)
    meta = _meta(config, rows)
    meta.update(point)
    return rows, meta


def run_theta_sweep(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Capture table across cost tuning values.

    The ``profit`` column is normalized by the highest profit observed
    anywhere in the sweep (the raw scale is in the metadata), so curves
    for different theta are directly comparable. A theta at which
    per-flow pricing earns no more than the blended rate (regional
    costs at theta 0 are all equal) has NaN captures and a note in the
    metadata; if no theta has a capture, DegenerateBaseline is raised.
    """
    if not config.theta_grid:
        raise DomainError("theta grid must be nonempty")
    results = _sweep(config, [("theta", t) for t in config.theta_grid])
    undefined = [theta for theta, (point_rows, _) in zip(config.theta_grid, results)
                 if any(math.isnan(r["profit_capture"]) for r in point_rows)]
    if len(undefined) == len(results):
        _require_captures(results)
    rows = [r for point_rows, _ in results for r in point_rows]
    norm = max(r["profit"] for r in rows)
    for r in rows:
        r["profit"] = r["profit"] / norm
    rows.sort(key=_sort_key)
    meta = _meta(config)
    meta["notes"] += [
        f"theta={theta!r}: per-flow and blended profit coincide; "
        "profit_capture and surplus_capture undefined (NaN)"
        for theta in undefined
    ]
    meta["profit_norm_constant"] = norm
    meta["theta_points"] = [
        {"theta": theta, "pi_orig": point["baselines"]["pi_orig"],
         "pi_max": point["baselines"]["pi_max"], "cost_model": point["cost_model"]}
        for theta, (_, point) in zip(config.theta_grid, results)
    ]
    return rows, meta


def run_sensitivity_sweep(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Worst-case capture per tier count under parameter variation.

    Sweeps the price sensitivity and the blended rate (reporting the
    minimum capture over each grid) and, under logit, the non-buying
    share (reporting the maximum). Each emitted row is the full
    evaluation of the grid point attaining the extremum, tagged
    ``alpha-min`` / ``p0-min`` / ``s0-max``; bundling is always
    profit-weighted, and the configuration echo says so. Any grid point
    without a capture raises DegenerateBaseline.
    """
    config = dataclasses.replace(config, strategies=(Strategy.PROFIT_WEIGHTED,))
    logit = config.demand_model is DemandModel.LOGIT
    if not logit and config.s0_grid and config.s0_grid != ExperimentConfig.s0_grid:
        raise DomainError("s0 sweep applies to the logit model only")
    # (tag, swept field, its grid, the extreme each row reports)
    sweeps = [sweep for sweep in (("alpha-min", "alpha", config.alpha_grid, min),
                                  ("p0-min", "p0", config.p0_grid, min),
                                  ("s0-max", "s0", config.s0_grid if logit else (), max))
              if sweep[2]]
    if not sweeps:
        raise DomainError("no sweep grids specified")
    points = [(param, value) for _, param, grid, _ in sweeps for value in grid]
    results = _sweep(config, points)
    _require_captures(results)
    evaluated = [r for point_rows, _ in results for r in point_rows]
    rows = []
    for tag, param, _, extreme in sweeps:
        for num_bundles in config.bundles:
            candidates = [r for r in evaluated if r["sweep_param"] == param
                          and r["num_bundles"] == num_bundles]
            pick = extreme(candidates, key=lambda r: r["profit_capture"])
            rows.append({**pick, "sweep_param": tag})
    rows.sort(key=_sort_key)
    return rows, _meta(config)


def _require_captures(results: list[tuple[list[dict], dict]]) -> None:
    """Raise DegenerateBaseline at the first point without a capture."""
    for rows, point in results:
        if any(math.isnan(r["profit_capture"]) for r in rows):
            raise DegenerateBaseline("per-flow and blended profit coincide "
                                     f"({point['baselines']['pi_max']!r}); capture undefined")


def _cost_meta(config: ExperimentConfig, flows: FlowTable,
               ctx: ModelContext) -> dict:
    spec = CostModelSpec(kind=config.cost_kind, theta=config.theta)
    return {"kind": spec.kind.value, "theta": spec.theta,
            "gamma": ctx.gamma, "beta": base_cost(spec, flows, ctx.gamma)}


def _sort_key(row: dict):
    return (row["sweep_param"], row["sweep_value"], row["strategy"],
            row["num_bundles"])


def _map_jobs(fn, jobs: list[tuple], workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    # imported here: it pulls in multiprocessing, which serial runs skip
    from concurrent.futures import ProcessPoolExecutor

    # one chunk of jobs per worker: the jobs share their large arguments
    # (the flows and their orders), which a chunk pickles once; a pool
    # forks all its workers at the first submit, so it has none idle
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, *zip(*jobs), chunksize=-(-len(jobs) // workers)))


def _meta(config: ExperimentConfig, rows: list[dict] | None = None) -> dict:
    """Configuration echo and notes, plus the prices of a capture run."""
    cfg = dataclasses.asdict(config)
    for key, value in cfg.items():
        if isinstance(value, tuple):
            cfg[key] = [v.value if hasattr(v, "value") else v for v in value]
        elif hasattr(value, "value"):
            cfg[key] = value.value
    meta: dict = {"config": cfg, "notes": []}
    if config.input_csv is None:
        meta["notes"].append(
            "synthetic flows: demands and distances sampled independently"
        )
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


def write_results(path: str, rows: Iterable[dict], meta: dict) -> None:
    """Write the results CSV and then its metadata sidecar, each
    atomically."""
    write_csv(path, OUTPUT_COLUMNS, ([row[col] for col in OUTPUT_COLUMNS] for row in rows))
    with atomic_output(f"{path}.meta.json") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
