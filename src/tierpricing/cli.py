"""Command-line driver.

Subcommands:

* ``synth``        write a moment-matched synthetic flow CSV
* ``fit``          fit a demand model and write the fitted flows
* ``capture``      capture curves over tier counts for each strategy
* ``theta-sweep``  capture curves across cost-model tuning values
* ``sensitivity``  worst-case capture over parameter grids

Options may also come from an INI config file (section
``[tierpricing]``, keys named like the long options with dashes or
underscores); explicit flags win. Exit codes: 0 success, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys

from .bundling import Strategy
from .domain import (
    ConfigError,
    CostKind,
    DegenerateBaseline,
    DemandModel,
    MarketParams,
    NoConvergence,
    NonPositiveCost,
    NonPositiveGamma,
    OverflowGuard,
    PricingError,
)
from .experiments import (
    DEFAULT_STRATEGIES,
    ExperimentConfig,
    fit_context,
    load_flows,
    market_params,
    run_capture_curve,
    run_sensitivity_sweep,
    run_theta_sweep,
    write_results,
)
from .ingestion import (
    SYNTH_PRESETS,
    preset_moments,
    synth_generate,
    write_fitted_csv,
    write_flows_csv,
    write_params_csv,
)

log = logging.getLogger(__name__)

NUMERICAL_ERRORS = (NoConvergence, NonPositiveGamma, OverflowGuard,
                    DegenerateBaseline, NonPositiveCost)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_bundles(text: str) -> tuple[int, ...]:
    """Bundle counts as a comma list ('1,2,4') or a range ('1..8')."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse bundle counts {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("bundle list is empty")
    return values


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number list {text!r}")


def _parse_strategies(text: str) -> tuple[Strategy, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(Strategy(part))
        except ValueError:
            choices = ", ".join(s.value for s in Strategy)
            raise argparse.ArgumentTypeError(
                f"unknown strategy {part!r}; choose from {choices}"
            )
    if not out:
        raise argparse.ArgumentTypeError("strategy list is empty")
    return tuple(out)


def _add_common(parser: argparse.ArgumentParser, *, sweep: str | None = None) -> None:
    parser.add_argument("--config", help="INI config file ([tierpricing] section)")
    src = parser.add_argument_group("input")
    src.add_argument("--input", dest="input_csv", help="flow CSV to load")
    src.add_argument("--synth-preset", dest="preset",
                     choices=sorted(SYNTH_PRESETS), default="eu-isp",
                     help="synthetic dataset preset (ignored with --input)")
    src.add_argument("--n-flows", type=int, default=10_000)
    src.add_argument("--seed", type=int, default=0)
    model = parser.add_argument_group("model")
    model.add_argument("--demand-model", type=DemandModel, default=DemandModel.CED,
                       choices=[m.value for m in DemandModel])
    model.add_argument("--cost-model", dest="cost_kind", type=CostKind,
                       default=CostKind.LINEAR, choices=[k.value for k in CostKind])
    model.add_argument("--alpha", type=float, default=1.1)
    model.add_argument("--p0", type=float, default=20.0)
    model.add_argument("--theta", type=float, default=0.2)
    model.add_argument("--s0", type=float, default=0.2)
    model.add_argument("--split-dest-type", action="store_true",
                       help="split unlabeled flows into customer/peer subflows "
                            "(dest-type cost model only)")
    model.add_argument("--cs-unit-price-offset", action="store_true",
                       help="alternative surplus convention subtracting the unit "
                            "price instead of the total payment")
    run = parser.add_argument_group("run")
    run.add_argument("--bundles", type=_parse_bundles, default=(1, 2, 3, 4, 5, 6, 7, 8),
                     help="tier counts: comma list or range like 1..8")
    run.add_argument("--strategy", dest="strategies", type=_parse_strategies,
                     default=None,
                     help="comma list of bundling strategies")
    run.add_argument("--optimal-mode", choices=("auto", "full", "contiguous"),
                     default="auto")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--out", required=True, help="output CSV path")
    if sweep in (None, "theta"):
        run.add_argument("--theta-grid", type=_parse_floats,
                         default=(0.0, 0.2, 0.5, 1.0))
    if sweep in (None, "sensitivity"):
        run.add_argument("--alpha-grid", type=_parse_floats,
                         default=(1.1, 2.0, 5.0, 10.0))
        run.add_argument("--p0-grid", type=_parse_floats,
                         default=(5.0, 10.0, 20.0, 30.0))
        run.add_argument("--s0-grid", type=_parse_floats,
                         default=(0.05, 0.2, 0.5, 0.9))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierpricing",
        description="Counterfactual tiered-pricing engine for transit traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic flow CSV")
    p_synth.add_argument("--config", help="INI config file")
    p_synth.add_argument("--synth-preset", dest="preset",
                         choices=sorted(SYNTH_PRESETS), default="eu-isp")
    p_synth.add_argument("--n-flows", type=int, default=10_000)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit a demand model and write fitted flows")
    _add_common(p_fit, sweep="none")

    p_capture = sub.add_parser("capture", help="capture curves over tier counts")
    _add_common(p_capture, sweep="none")

    p_theta = sub.add_parser("theta-sweep", help="capture across cost tuning values")
    _add_common(p_theta, sweep="theta")

    p_sens = sub.add_parser("sensitivity", help="worst-case capture over grids")
    _add_common(p_sens, sweep="sensitivity")
    # config-file defaults must target the active subparser: subcommands
    # parse into a fresh namespace that overrides parent-level defaults
    parser.sub_map = {"synth": p_synth, "fit": p_fit, "capture": p_capture,
                      "theta-sweep": p_theta, "sensitivity": p_sens}
    return parser


def _apply_config_file(argv: list[str], args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Re-parse with defaults taken from the INI file; flags win."""
    path = getattr(args, "config", None)
    if not path:
        return args
    ini = configparser.ConfigParser()
    if not ini.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if not ini.has_section("tierpricing"):
        raise ConfigError(f"{path} has no [tierpricing] section")
    converters = {
        "bundles": _parse_bundles,
        "strategies": _parse_strategies,
        "strategy": _parse_strategies,
        "theta_grid": _parse_floats,
        "alpha_grid": _parse_floats,
        "p0_grid": _parse_floats,
        "s0_grid": _parse_floats,
        "demand_model": DemandModel,
        "cost_model": CostKind,
        "cost_kind": CostKind,
        "n_flows": int,
        "seed": int,
        "workers": int,
        "alpha": float,
        "p0": float,
        "theta": float,
        "s0": float,
        "split_dest_type": lambda v: v.lower() in ("1", "true", "yes"),
        "cs_unit_price_offset": lambda v: v.lower() in ("1", "true", "yes"),
    }
    alias = {"strategy": "strategies", "cost_model": "cost_kind", "input": "input_csv",
             "synth_preset": "preset"}
    defaults = {}
    for key, raw in ini.items("tierpricing"):
        key = key.replace("-", "_")
        dest = alias.get(key, key)
        convert = converters.get(key, str)
        try:
            defaults[dest] = convert(raw)
        except Exception as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    parser.sub_map[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    strategies = args.strategies
    if strategies is None:
        strategies = (Strategy.PROFIT_WEIGHTED,) if args.command == "theta-sweep" \
            else DEFAULT_STRATEGIES
    kwargs = dict(
        demand_model=args.demand_model,
        cost_kind=args.cost_kind,
        theta=args.theta,
        alpha=args.alpha,
        p0=args.p0,
        s0=args.s0,
        input_csv=args.input_csv,
        preset=args.preset,
        n_flows=args.n_flows,
        seed=args.seed,
        bundles=tuple(args.bundles),
        strategies=tuple(strategies),
        out=args.out,
        workers=args.workers,
        optimal_mode=args.optimal_mode,
        split_dest_type=args.split_dest_type,
        cs_unit_price_offset=args.cs_unit_price_offset,
    )
    for grid in ("theta_grid", "alpha_grid", "p0_grid", "s0_grid"):
        if hasattr(args, grid):
            kwargs[grid] = tuple(getattr(args, grid))
    return ExperimentConfig(**kwargs)


def _cmd_synth(args: argparse.Namespace) -> None:
    moments = preset_moments(args.preset, n_flows=args.n_flows, seed=args.seed)
    flows = synth_generate(moments)
    write_flows_csv(args.out, flows)
    log.info("wrote %d flows to %s", len(flows), args.out)


def _cmd_fit(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    flows = load_flows(config)
    ctx = fit_context(flows, config)
    write_fitted_csv(config.out, ctx)
    params = market_params(config)
    if params.model is DemandModel.LOGIT:
        params = MarketParams(params.model, params.alpha, params.p0,
                              s0=params.s0, consumer_mass=ctx.consumer_mass)
    write_params_csv(f"{config.out}.params.csv", params)
    log.info("wrote %d fitted flows to %s", len(ctx), config.out)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(argv, args, parser)
        if args.command == "synth":
            _cmd_synth(args)
            return 0
        if args.command == "fit":
            _cmd_fit(args)
            return 0
        config = _config_from_args(args)
        runner = {
            "capture": run_capture_curve,
            "theta-sweep": run_theta_sweep,
            "sensitivity": run_sensitivity_sweep,
        }[args.command]
        rows, meta = runner(config)
        write_results(config.out, rows, meta)
        log.info("wrote %d rows to %s", len(rows), config.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
