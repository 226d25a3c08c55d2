"""Command-line driver.

Subcommands:

* ``synth``        write a moment-matched synthetic flow CSV
* ``fit``          fit a demand model and write the fitted flows
* ``capture``      capture curves over tier counts for each strategy
* ``theta-sweep``  capture curves across cost-model tuning values
* ``sensitivity``  worst-case capture over parameter grids

The ``optimal`` strategy is exact at any flow count: a dynamic program
over the flows in cost order, which some optimal partition follows
(Chakravarty, Orlin and Rothblum, Operations Research 30(5), 1982; see
``tierpricing.bundling``).

Options may also come from an INI config file (section
``[tierpricing]``); explicit flags win. A key is a long option or its
dest, with dashes or underscores, and its value is converted by that
option's own type; switches follow configparser's boolean rule
(1/yes/true/on, 0/no/false/off). A key of another subcommand's option
is left out, so one file can serve every subcommand; a key that names
no option of any subcommand, or a value that does not convert, is a
configuration error.
Exit codes: 0 success, 2 configuration error (any ``PricingError`` or
``OSError``), 3 numerical failure (a ``NumericalFailure``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import logging
import sys

from .bundling import Strategy
from .domain import ConfigError, CostKind, DemandModel, NumericalFailure, PricingError
from .experiments import (
    ExperimentConfig,
    fit_context,
    load_flows,
    run_capture_curve,
    run_sensitivity_sweep,
    run_theta_sweep,
    validate_config,
    write_results,
)
from .ingestion import SYNTH_PRESETS, write_fitted_csv, write_flows_csv, write_params_csv

log = logging.getLogger(__name__)

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


COMMANDS = {
    "synth": "generate a synthetic flow CSV",
    "fit": "fit a demand model and write fitted flows",
    "capture": "capture curves over tier counts",
    "theta-sweep": "capture across cost tuning values",
    "sensitivity": "worst-case capture over grids",
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """Declare the options of one subcommand, each in one place.

    No option has a default here: the parser leaves out what is not
    given (``argparse.SUPPRESS``) and ``ExperimentConfig`` fills in its
    own field defaults.
    """
    parser.add_argument("--config", help="INI config file ([tierpricing] section)")
    parser.add_argument("--out", help="output CSV path (required, here or as out "
                                      "in the config file)")
    src = parser.add_argument_group("input")
    if command != "synth":
        src.add_argument("--input", dest="input_csv",
                         help="flow CSV to load in place of the synthetic preset")
    src.add_argument("--synth-preset", dest="preset", choices=sorted(SYNTH_PRESETS),
                     help="synthetic dataset preset")
    src.add_argument("--n-flows", type=int)
    src.add_argument("--seed", type=int)
    if command == "synth":
        return
    model = parser.add_argument_group("model")
    model.add_argument("--demand-model", type=DemandModel,
                       choices=[m.value for m in DemandModel])
    model.add_argument("--cost-model", dest="cost_kind", type=CostKind,
                       choices=[k.value for k in CostKind])
    model.add_argument("--alpha", type=float)
    model.add_argument("--p0", type=float)
    if command != "theta-sweep":        # a theta sweep reads --theta-grid
        model.add_argument("--theta", type=float)
    model.add_argument("--s0", type=float)
    model.add_argument("--split-dest-type", action="store_true",
                       help="split unlabeled flows into customer/peer subflows "
                            "(dest-type cost model only)")
    if command == "fit":
        return
    model.add_argument("--cs-unit-price-offset", action="store_true",
                       help="alternative surplus convention subtracting the unit "
                            "price instead of the total payment (CED only)")
    run = parser.add_argument_group("run")
    run.add_argument("--bundles", type=_parse_bundles,
                     help="tier counts: comma list or range like 1..8")
    if command != "sensitivity":        # a sensitivity sweep is profit-weighted
        run.add_argument("--strategy", dest="strategies", type=_parse_strategies,
                         help="comma list of bundling strategies; optimal is "
                              "the exact cost-contiguous optimum")
    run.add_argument("--workers", type=int)
    if command == "theta-sweep":
        run.add_argument("--theta-grid", type=_parse_floats)
    if command == "sensitivity":
        run.add_argument("--alpha-grid", type=_parse_floats)
        run.add_argument("--p0-grid", type=_parse_floats)
        run.add_argument("--s0-grid", type=_parse_floats)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierpricing",
        description="Counterfactual tiered-pricing engine for transit traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # config-file defaults must target the active subparser: subcommands
    # parse into a fresh namespace that overrides parent-level defaults
    parser.sub_map = {}
    # no abbreviations: a theta sweep would take --theta for --theta-grid
    for command, help_text in COMMANDS.items():
        parser.sub_map[command] = sub.add_parser(
            command, help=help_text, argument_default=argparse.SUPPRESS,
            allow_abbrev=False)
        _add_options(parser.sub_map[command], command)
    return parser


def _apply_config_file(argv: list[str], args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Re-parse with defaults taken from the INI file; flags win."""
    path = getattr(args, "config", None)
    if not path:
        return args
    import configparser

    ini = configparser.ConfigParser()
    if not ini.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if not ini.has_section("tierpricing"):
        raise ConfigError(f"{path} has no [tierpricing] section")
    # every key resolves through the subcommands' own options: a long
    # option or a dest, with dashes or underscores; a key of another
    # subcommand is accepted and left out, so one file can serve all
    actions = {command: {} for command in parser.sub_map}
    for command, sub in parser.sub_map.items():
        for action in sub._actions:
            if action.dest in ("help", "config"):
                continue
            names = [opt[2:] for opt in action.option_strings if opt.startswith("--")]
            for name in (action.dest, *names):
                actions[command][name.replace("-", "_")] = action
    defaults = {}
    for name, raw in ini.items("tierpricing"):
        key = name.replace("-", "_")
        action = actions[args.command].get(key)
        if action is None:
            if any(key in known for known in actions.values()):
                continue
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            if isinstance(action, argparse._StoreTrueAction):
                value = ini.getboolean("tierpricing", name)
            else:
                value = (action.type or str)(raw)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
        defaults[action.dest] = value
    parser.sub_map[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The given options over the ``ExperimentConfig`` defaults; a theta
    sweep defaults to profit-weighted bundling alone."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {k: v for k, v in vars(args).items() if k in fields}
    if args.command == "theta-sweep":
        kwargs.setdefault("strategies", (Strategy.PROFIT_WEIGHTED,))
    return ExperimentConfig(**kwargs)


def _cmd_synth(config: ExperimentConfig) -> None:
    flows = load_flows(config)      # synth takes no --input: the preset's flows
    write_flows_csv(config.out, flows)
    log.info("wrote %d flows to %s", len(flows), config.out)


def _cmd_fit(config: ExperimentConfig) -> None:
    validate_config(config)
    flows = load_flows(config)
    ctx = fit_context(flows, config)
    write_fitted_csv(config.out, ctx)
    write_params_csv(f"{config.out}.params.csv", ctx)
    log.info("wrote %d fitted flows to %s", len(ctx), config.out)


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand of ``argv`` and return the exit code.

    With ``argv`` None, ``main`` is the process's entry point (the
    ``tierpricing`` script, ``python -m tierpricing.cli``) and reads
    ``sys.argv``. It then first freezes the heap its imports built
    (``gc.freeze``): collections during the run and the full ones at
    interpreter shutdown no longer visit numpy's and the package's
    objects, and a ``--workers`` pool forked after it shares them
    without copying their collector headers. Called with ``argv``, as
    tests and library callers do, it leaves the collector as it was: in
    a long-lived process a freeze per call would keep whatever cycles
    were uncollected then, tracebacks holding arrays among them, for
    good.
    """
    if argv is None:
        gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(argv, args, parser)
        if "out" not in args:
            # --out is optional to argparse so that the config file can set it
            parser.sub_map[args.command].error("the following arguments are required: --out")
        config = _config_from_args(args)
        if args.command == "synth":
            _cmd_synth(config)
            return 0
        if args.command == "fit":
            _cmd_fit(config)
            return 0
        runner = {
            "capture": run_capture_curve,
            "theta-sweep": run_theta_sweep,
            "sensitivity": run_sensitivity_sweep,
        }[args.command]
        rows, meta = runner(config)
        write_results(config.out, rows, meta)
        log.info("wrote %d rows to %s", len(rows), config.out)
        return 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
