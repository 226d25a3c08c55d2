"""End-to-end experiment runs and the command-line interface."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tierpricing
from tierpricing.bundling import Strategy
from tierpricing.domain import ConfigError, CostKind, DemandModel
from tierpricing.experiments import (
    ExperimentConfig,
    OUTPUT_COLUMNS,
    fit_context,
    load_flows,
    run_capture_curve,
    run_sensitivity_sweep,
    run_theta_sweep,
    write_results,
)


def small_config(**kw):
    base = dict(n_flows=60, seed=3, bundles=(1, 2, 3),
                strategies=(Strategy.PROFIT_WEIGHTED, Strategy.COST_DIVISION),
                out="unused.csv")
    base.update(kw)
    return ExperimentConfig(**base)


class TestCaptureCurve:
    def test_single_bundle_capture_zero(self):
        rows, _ = run_capture_curve(small_config())
        for row in rows:
            if row["num_bundles"] == 1:
                assert row["profit_capture"] == pytest.approx(0.0, abs=1e-4)

    def test_optimal_endpoint_full_capture(self):
        cfg = small_config(n_flows=10, bundles=(10,), strategies=(Strategy.OPTIMAL,))
        rows, _ = run_capture_curve(cfg)
        assert rows[0]["profit_capture"] == pytest.approx(1.0, abs=1e-9)

    def test_row_shape(self):
        rows, meta = run_capture_curve(small_config())
        assert len(rows) == 6
        for row in rows:
            for col in OUTPUT_COLUMNS:
                assert col in row
        assert any("independently" in note for note in meta["notes"])

    def test_logit_model_runs(self):
        cfg = small_config(demand_model=DemandModel.LOGIT, n_flows=40)
        rows, _ = run_capture_curve(cfg)
        assert all(np.isfinite(row["profit_capture"]) for row in rows)

    def test_surplus_convention_switch(self):
        base = small_config(strategies=(Strategy.COST_DIVISION,), bundles=(3,))
        alt = small_config(strategies=(Strategy.COST_DIVISION,), bundles=(3,),
                           cs_unit_price_offset=True)
        rows_a, _ = run_capture_curve(base)
        rows_b, _ = run_capture_curve(alt)
        assert rows_a[0]["consumer_surplus"] != rows_b[0]["consumer_surplus"]
        assert np.isfinite(rows_b[0]["surplus_capture"])

    def test_csv_input_path(self, tmp_path):
        from tierpricing.ingestion import preset_moments, synth_generate, write_flows_csv

        flows_path = tmp_path / "flows.csv"
        write_flows_csv(flows_path, synth_generate(preset_moments("eu-isp", 50, seed=1)))
        cfg = small_config(input_csv=str(flows_path))
        rows, meta = run_capture_curve(cfg)
        assert len(rows) == 6
        assert "notes" in meta


class TestThetaSweep:
    def test_normalization_and_monotone_pi_max(self):
        cfg = small_config(strategies=(Strategy.PROFIT_WEIGHTED,),
                           theta_grid=(0.0, 0.2, 0.5))
        rows, meta = run_theta_sweep(cfg)
        profits = [row["profit"] for row in rows]
        assert max(profits) == pytest.approx(1.0, rel=1e-12)
        points = sorted(meta["theta_points"], key=lambda m: m["theta"])
        pi_max = [m["pi_max"] for m in points]
        assert all(a >= b - 1e-9 * abs(a) for a, b in zip(pi_max, pi_max[1:]))

    def test_parallel_run_writes_serial_bytes(self, tmp_path):
        cfg = small_config(theta_grid=(0.0, 0.5))
        written = []
        for workers in (1, 2):
            rows, meta = run_theta_sweep(dataclasses.replace(cfg, workers=workers))
            meta["config"].pop("workers")
            out = tmp_path / f"{workers}.csv"
            write_results(str(out), rows, meta)
            written.append((out.read_bytes(),
                            (tmp_path / f"{workers}.csv.meta.json").read_bytes()))
        assert written[0] == written[1]

    def test_split_dest_type_follows_the_swept_theta(self):
        cfg = small_config(cost_kind=CostKind.DEST_TYPE, split_dest_type=True,
                           n_flows=200, theta=0.2, theta_grid=(0.2, 0.8),
                           strategies=(Strategy.PROFIT_WEIGHTED,
                                       Strategy.CLASS_PROFIT_WEIGHTED))
        rows, meta = run_theta_sweep(cfg)
        norm = meta["profit_norm_constant"]
        for theta in cfg.theta_grid:
            capture, _ = run_capture_curve(dataclasses.replace(cfg, theta=theta))
            swept = {(r["strategy"], r["num_bundles"]): r for r in rows
                     if r["sweep_value"] == theta}
            assert len(swept) == len(capture) == 6
            for want in capture:
                got = swept[want["strategy"], want["num_bundles"]]
                assert got == {**want, "sweep_param": "theta", "sweep_value": theta,
                               "profit": want["profit"] / norm}
        captures = {r["sweep_value"]: r["profit_capture"] for r in rows
                    if r["strategy"] == "profit-weighted" and r["num_bundles"] == 3}
        assert captures[0.2] != captures[0.8]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_theta_sweep(small_config(theta_grid=()))

    def test_regional_theta_zero_uniform_costs_flat(self):
        # symmetric fixture: equal demands, uniform costs leave nothing
        # for tiering to recover, so the capture baseline is degenerate
        # and per-bundle pricing reproduces the blended profit exactly
        from tierpricing.bundling import build_bundles, evaluate_bundling
        from demand_oracles import ced_bundle_price
        from tierpricing.domain import DegenerateBaseline, FlowTable

        flows = FlowTable([f"f{i}" for i in range(8)], np.full(8, 10.0),
                          [float(5 + 10 * i) for i in range(8)])
        cfg = small_config(cost_kind=CostKind.REGIONAL, theta=0.0)
        ctx = fit_context(flows, cfg)
        assert ctx.pi_max == pytest.approx(ctx.pi_orig, rel=1e-12)
        bundling = build_bundles(Strategy.PROFIT_WEIGHTED, ctx, 2)
        with pytest.raises(DegenerateBaseline):
            evaluate_bundling(ctx, bundling)
        for b in range(2):
            members = np.flatnonzero(bundling.labels == b)
            price = ced_bundle_price(ctx.v[members], ctx.c[members], ctx.alpha)
            assert price == pytest.approx(ctx.p0, rel=1e-12)

    @pytest.mark.parametrize("model", list(DemandModel))
    def test_degenerate_point_has_nan_captures_and_a_note(self, model):
        # regional costs at theta 0 are all 1: per-flow pricing earns the
        # blended profit, so that point's captures are undefined
        cfg = small_config(demand_model=model, cost_kind=CostKind.REGIONAL,
                           n_flows=300, theta_grid=(0.0, 0.2, 0.5, 1.0))
        rows, meta = run_theta_sweep(cfg)
        rest, _ = run_theta_sweep(dataclasses.replace(cfg, theta_grid=(0.2, 0.5, 1.0)))
        degenerate = [r for r in rows if r["sweep_value"] == 0.0]
        assert len(degenerate) == 6 and len(rows) == 24
        for r in degenerate:
            assert math.isnan(r["profit_capture"]) and math.isnan(r["surplus_capture"])
        captures = [(r["profit_capture"], r["surplus_capture"]) for r in rows
                    if r["sweep_value"] != 0.0]
        assert captures == [(r["profit_capture"], r["surplus_capture"]) for r in rest]
        assert [n for n in meta["notes"] if "theta" in n] == [
            "theta=0.0: per-flow and blended profit coincide; "
            "profit_capture and surplus_capture undefined (NaN)"]


class TestFitContext:
    @pytest.mark.parametrize("model", list(DemandModel))
    def test_market_validated_once(self, monkeypatch, model):
        from tierpricing.bundling import ModelContext

        tables = []
        check = ModelContext.__post_init__

        def counting(table):
            tables.append(table)
            check(table)

        cfg = small_config(demand_model=model)
        flows = load_flows(cfg)
        monkeypatch.setattr(ModelContext, "__post_init__", counting)
        ctx = fit_context(flows, cfg)
        assert len(tables) == 1 and tables[0] is ctx


class TestGridPoint:
    @pytest.mark.parametrize("model", [DemandModel.CED, DemandModel.LOGIT])
    @pytest.mark.parametrize("param, value", [("alpha", 2.5), ("p0", 35.0),
                                              ("s0", 0.4), ("theta", 0.7)])
    def test_context_fitted_at_the_replaced_field(self, model, param, value):
        from tierpricing.cost_models import realize_costs, relative_costs
        from tierpricing.domain import CostModelSpec
        from tierpricing.experiments import load_flows

        cfg = small_config(demand_model=model)
        flows = load_flows(cfg)
        ctx = fit_context(flows, dataclasses.replace(cfg, **{param: value}))
        if param == "theta":
            rel = relative_costs(CostModelSpec(kind=cfg.cost_kind, theta=value), flows)
            np.testing.assert_array_equal(ctx.c, realize_costs(rel, ctx.gamma))
        elif param == "s0" and model is DemandModel.CED:
            assert ctx.s0 is None
        else:
            assert getattr(ctx, param) == value


class TestSensitivity:
    def test_degenerate_grid_matches_capture_run(self):
        cfg = small_config(strategies=(Strategy.PROFIT_WEIGHTED,),
                           alpha_grid=(1.1,), p0_grid=(), s0_grid=())
        sens_rows, _ = run_sensitivity_sweep(cfg)
        cap_rows, _ = run_capture_curve(small_config(
            strategies=(Strategy.PROFIT_WEIGHTED,)))
        sens = {r["num_bundles"]: r["profit_capture"] for r in sens_rows}
        cap = {r["num_bundles"]: r["profit_capture"] for r in cap_rows}
        for num_bundles, value in sens.items():
            assert value == pytest.approx(cap[num_bundles], rel=1e-12)

    def test_min_not_above_any_grid_point(self):
        from tierpricing.experiments import _grid_point, load_flows

        cfg = small_config(alpha_grid=(1.3, 2.0, 4.0), p0_grid=(), s0_grid=())
        rows, _ = run_sensitivity_sweep(cfg)
        mins = {r["num_bundles"]: r["profit_capture"] for r in rows}
        flows = load_flows(cfg)
        for value in cfg.alpha_grid:
            point = dataclasses.replace(cfg, alpha=value)
            point_rows, _ = _grid_point(point, flows, (Strategy.PROFIT_WEIGHTED,))
            for row in point_rows:
                assert mins[row["num_bundles"]] <= row["profit_capture"] + 1e-12

    def test_each_row_is_the_extreme_point_of_its_own_grid(self):
        from tierpricing.experiments import _grid_point, load_flows

        cfg = small_config(demand_model=DemandModel.LOGIT, n_flows=40,
                           alpha_grid=(0.8, 2.0), p0_grid=(15.0, 30.0),
                           s0_grid=(0.1, 0.3, 0.6))
        rows, _ = run_sensitivity_sweep(cfg)
        flows = load_flows(cfg)
        for tag, param, grid, pick in (("alpha-min", "alpha", cfg.alpha_grid, min),
                                       ("p0-min", "p0", cfg.p0_grid, min),
                                       ("s0-max", "s0", cfg.s0_grid, max)):
            points = [(value, _grid_point(dataclasses.replace(cfg, **{param: value}),
                                          flows, (Strategy.PROFIT_WEIGHTED,))[0])
                      for value in grid]
            for num_bundles in cfg.bundles:
                [row] = [r for r in rows if r["sweep_param"] == tag
                         and r["num_bundles"] == num_bundles]
                candidates = [{**r, "sweep_value": value} for value, point in points
                              for r in point if r["num_bundles"] == num_bundles]
                best = pick(candidates, key=lambda r: r["profit_capture"])
                assert row == {**best, "sweep_param": tag}
                assert row["sweep_value"] in grid

    def test_s0_sweep_reports_max(self):
        cfg = small_config(demand_model=DemandModel.LOGIT, n_flows=40,
                           alpha_grid=(), p0_grid=(), s0_grid=(0.1, 0.3, 0.6))
        rows, _ = run_sensitivity_sweep(cfg)
        assert all(r["sweep_param"] == "s0-max" for r in rows)

    def test_custom_s0_grid_with_ced_rejected(self):
        cfg = small_config(alpha_grid=(), p0_grid=(), s0_grid=(0.1, 0.2))
        with pytest.raises(ConfigError):
            run_sensitivity_sweep(cfg)

    def test_ced_alpha_grid_validated(self):
        with pytest.raises(ConfigError):
            run_sensitivity_sweep(small_config(alpha_grid=(0.9, 2.0)))

    def test_flows_loaded_once_per_sweep(self, monkeypatch):
        from tierpricing import experiments

        calls = []
        load = experiments.load_flows

        def counting(config):
            calls.append(config)
            return load(config)

        monkeypatch.setattr(experiments, "load_flows", counting)
        cfg = small_config(alpha_grid=(1.2, 2.0), p0_grid=(10.0, 20.0), s0_grid=(),
                           theta_grid=(0.0, 0.5))
        run_sensitivity_sweep(cfg)
        assert len(calls) == 1
        run_theta_sweep(cfg)
        assert len(calls) == 2

    @pytest.mark.parametrize("run, overrides, message", [
        (run_sensitivity_sweep, dict(p0_grid=(0.0, 10.0)), "p0 must be positive, got 0.0"),
        (run_sensitivity_sweep, dict(demand_model=DemandModel.LOGIT, s0_grid=(0.2, 1.5)),
         "logit requires s0 in (0,1), got 1.5"),
        (run_sensitivity_sweep, dict(alpha_grid=(1.0,)), "CED requires alpha > 1, got 1.0"),
        (run_sensitivity_sweep, dict(demand_model=DemandModel.LOGIT, alpha_grid=(1.1, 0.0)),
         "logit requires alpha > 0, got 0.0"),
        (run_theta_sweep, dict(theta_grid=(0.5, -0.5)), "theta must be >= 0, got -0.5"),
        (run_theta_sweep, dict(cost_kind=CostKind.DEST_TYPE, theta_grid=(0.5, 1.5)),
         "destination-type theta is a traffic fraction in [0,1], got 1.5"),
    ])
    def test_every_grid_point_checked_before_flows_load(self, monkeypatch, run,
                                                        overrides, message):
        from tierpricing import experiments

        def unexpected(config):
            raise AssertionError("flows loaded before every grid point was checked")

        monkeypatch.setattr(experiments, "load_flows", unexpected)
        with pytest.raises(ConfigError) as info:
            run(small_config(**overrides))
        assert str(info.value) == message

    def test_duplicated_point_fitted_once_and_tagged_per_point(self, monkeypatch):
        # p0 = 20 and s0 = 0.2 are both the base logit market
        from tierpricing import experiments

        fits = []
        fit = experiments.fit_context

        def counting(flows, config):
            fits.append(config)
            return fit(flows, config)

        monkeypatch.setattr(experiments, "fit_context", counting)
        cfg = small_config(demand_model=DemandModel.LOGIT, n_flows=40)
        points = [("alpha", 2.0), ("p0", 20.0), ("s0", 0.2), ("bundles", cfg.bundles)]
        results = experiments._sweep(cfg, points, (Strategy.PROFIT_WEIGHTED,))
        assert fits == [dataclasses.replace(cfg, alpha=2.0), cfg]
        (_, alpha), (p0_rows, p0), (s0_rows, s0), (b_rows, b) = results
        assert p0 == s0 == b != alpha
        assert len(p0_rows) == len(s0_rows) == len(b_rows) == len(cfg.bundles)
        for p0_row, s0_row, b_row in zip(p0_rows, s0_rows, b_rows):
            assert p0_row is not s0_row
            assert (p0_row["sweep_param"], p0_row["sweep_value"]) == ("p0", 20.0)
            assert (s0_row["sweep_param"], s0_row["sweep_value"]) == ("s0", 0.2)
            assert (b_row["sweep_param"], b_row["sweep_value"]) == \
                ("bundles", b_row["num_bundles"])
            tags = {"sweep_param", "sweep_value"}
            rest = {k: v for k, v in p0_row.items() if k not in tags}
            assert rest == {k: v for k, v in s0_row.items() if k not in tags}
            assert rest == {k: v for k, v in b_row.items() if k not in tags}

    def test_parallel_workers_match_serial(self):
        cfg = small_config(strategies=(Strategy.PROFIT_WEIGHTED,),
                           alpha_grid=(1.2, 2.0), p0_grid=(), s0_grid=())
        serial, _ = run_sensitivity_sweep(cfg)
        parallel, _ = run_sensitivity_sweep(
            ExperimentConfig(**{**cfg.__dict__, "workers": 2})
        )
        assert serial == parallel


class TestWriteResults:
    def test_header_and_atomicity(self, tmp_path):
        rows, meta = run_capture_curve(small_config())
        out = tmp_path / "results.csv"
        write_results(str(out), rows, meta)
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == list(OUTPUT_COLUMNS)
            assert len(list(reader)) == len(rows)
        assert not list(tmp_path.glob("*.tmp.*"))
        sidecar = json.loads((tmp_path / "results.csv.meta.json").read_text())
        assert "config" in sidecar and "prices" in sidecar

    def test_reproducible_bytes(self, tmp_path):
        cfg = small_config()
        for name in ("a.csv", "b.csv"):
            rows, meta = run_capture_curve(cfg)
            write_results(str(tmp_path / name), rows, meta)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def run_python(*args):
    # the child imports the same tierpricing as this process, also when
    # pytest put src/ on sys.path without setting PYTHONPATH
    src = os.path.dirname(os.path.dirname(tierpricing.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*args):
    return run_python("-m", "tierpricing.cli", *args)


class TestCli:
    def test_synth_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        for out in (out1, out2):
            res = run_cli("synth", "--synth-preset", "eu-isp", "--n-flows", "200",
                          "--seed", "9", "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_writes_fitted_and_params(self, tmp_path):
        out = tmp_path / "fitted.csv"
        res = run_cli("fit", "--synth-preset", "eu-isp", "--n-flows", "50",
                      "--demand-model", "logit", "--out", str(out))
        assert res.returncode == 0, res.stderr
        config = ExperimentConfig(demand_model=DemandModel.LOGIT, n_flows=50)
        ctx = fit_context(load_flows(config), config)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        # floats are written as repr, so they read back bit-identically
        for name, values in (("flow_id", ctx.ids), ("q", ctx.q), ("d", ctx.d),
                             ("v", ctx.v), ("c", ctx.c)):
            parse = str if name == "flow_id" else float
            assert [parse(row[name]) for row in rows] == values.tolist(), name
        assert [row["class_label"] for row in rows] == [""] * 50
        with open(f"{out}.params.csv", "rb") as fh:
            assert fh.read() == ("model,alpha,p0,s0,consumer_mass\r\n"
                                 f"logit,1.1,20.0,0.2,{ctx.consumer_mass!r}\r\n").encode()

    def test_capture_run_and_input_not_mutated(self, tmp_path):
        flows = tmp_path / "flows.csv"
        res = run_cli("synth", "--n-flows", "60", "--seed", "4", "--out", str(flows))
        assert res.returncode == 0, res.stderr
        before = flows.read_bytes()
        out = tmp_path / "capture.csv"
        res = run_cli("capture", "--input", str(flows), "--bundles", "1,2",
                      "--strategy", "profit-weighted", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert flows.read_bytes() == before
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["num_bundles"] for r in rows} == {"1", "2"}

    def test_bundle_range_syntax(self, tmp_path):
        out = tmp_path / "capture.csv"
        res = run_cli("capture", "--n-flows", "30", "--bundles", "1..3",
                      "--strategy", "cost-division", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["num_bundles"] for r in rows} == {"1", "2", "3"}

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[tierpricing]\n"
            "n-flows = 25\n"
            "bundles = 1,2\n"
            "strategy = cost-division\n"
            "seed = 11\n"
        )
        out = tmp_path / "r.csv"
        res = run_cli("capture", "--config", str(ini), "--out", str(out),
                      "--bundles", "1")
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # flag narrows bundles to 1; config sets strategy and size
        assert {r["num_bundles"] for r in rows} == {"1"}
        assert {r["strategy"] for r in rows} == {"cost-division"}

    def test_config_error_exit_code(self, tmp_path):
        res = run_cli("capture", "--alpha", "0.5", "--n-flows", "20",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "error" in res.stderr.lower()

    @pytest.mark.parametrize("command, args, message", [
        (command, args, message)
        for args, message in [
            (["--alpha", "1.0"], "CED requires alpha > 1, got 1.0"),
            (["--demand-model", "logit", "--alpha", "0"],
             "logit requires alpha > 0, got 0.0"),
            (["--demand-model", "logit", "--p0", "0"], "p0 must be positive, got 0.0"),
            (["--demand-model", "logit", "--s0", "1.5"],
             "logit requires s0 in (0,1), got 1.5"),
            (["--split-dest-type"],
             "split_dest_type applies to the dest-type cost model only, got linear"),
            (["--cost-model", "regional", "--split-dest-type"],
             "split_dest_type applies to the dest-type cost model only, got regional"),
            (["--workers", "0"], "workers must be >= 1"),
            (["--theta", "nan"], "theta must be finite, got nan"),
            (["--p0", "inf"], "p0 must be finite, got inf"),
            (["--alpha", "inf"], "alpha must be finite, got inf"),
        ]
        for command in ["fit", "capture", "theta-sweep", "sensitivity"]
        if not (command == "fit" and args[0] == "--workers")  # fit takes no --workers
    ] + [
        # every grid point is checked like the base market
        ("sensitivity", ["--alpha-grid", "2,inf"], "alpha must be finite, got inf"),
        ("theta-sweep", ["--theta-grid", "0.2,nan"], "theta must be finite, got nan"),
    ])
    def test_bad_setting_fails_alike_in_every_command(self, tmp_path, command, args,
                                                      message):
        out = tmp_path / "x.csv"
        res = run_cli(command, "--n-flows", "30", *args, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["synth", "capture"])
    def test_negative_seed_is_a_config_error(self, tmp_path, command):
        out = tmp_path / "x.csv"
        res = run_cli(command, "--n-flows", "30", "--seed", "-1", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", [["--bundles", "1..2"], ["--strategy", "optimal"],
                                        ["--workers", "3"], ["--cs-unit-price-offset"]])
    def test_fit_takes_no_run_option(self, tmp_path, option):
        out = tmp_path / "x.csv"
        res = run_cli("fit", "--n-flows", "100", *option, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert f"unrecognized arguments: {' '.join(option)}" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, code", [("capture", 3), ("sensitivity", 3),
                                               ("theta-sweep", 0)])
    def test_degenerate_market_fails_except_in_a_theta_sweep(self, tmp_path, command,
                                                             code):
        # regional costs at theta 0 are all equal: capture is undefined
        out = tmp_path / "x.csv"
        res = run_cli(command, "--n-flows", "300", "--cost-model", "regional",
                      "--theta", "0", "--bundles", "1,2", "--out", str(out))
        assert res.returncode == code, res.stderr
        if code == 3:
            assert "per-flow and blended profit coincide" in res.stderr
            assert not out.exists()
            return
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["sweep_value"] == "0.0"]
        assert rows and all(r["profit_capture"] == r["surplus_capture"] == "nan"
                            for r in rows)

    @pytest.mark.parametrize("seed", [286, 1009, 1657])
    def test_market_the_price_fixed_point_leaves_unsolved(self, tmp_path, seed):
        # the markets of test_demand_logit's stall_market: the fixed point
        # runs out of budget on the per-flow prices and the exact markup
        # prices them
        from tierpricing.domain import FlowTable
        from tierpricing.ingestion import write_flows_csv

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        q = rng.lognormal(1.0, 1.5, n)
        d = rng.uniform(1, 100, n)
        flows = tmp_path / "flows.csv"
        write_flows_csv(flows, FlowTable([f"f{i}" for i in range(n)], q, d))
        out = tmp_path / "capture.csv"
        res = run_cli("capture", "--input", str(flows), "--demand-model", "logit",
                      "--cost-model", "linear", "--theta", "0", "--alpha", "1.1",
                      "--p0", "20", "--s0", "0.2", "--bundles", "1..4", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            captures = [float(r["profit_capture"]) for r in csv.DictReader(fh)]
        assert len(captures) == 24
        # in [0, 1] up to the rounding residue of the B=1 rows (about -1e-15)
        assert all(-1e-12 <= c <= 1.0 + 1e-12 for c in captures)

    def test_numerical_failure_exit_code(self, tmp_path):
        # logit with p0 below the uniform markup cannot be rationalized
        res = run_cli("capture", "--demand-model", "logit", "--p0", "2.0",
                      "--s0", "0.05", "--alpha", "1.1", "--n-flows", "20",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3
        assert "numerical" in res.stderr.lower()
        assert not (tmp_path / "x.csv").exists()

    def test_logit_share_underflow_names_the_flow(self, tmp_path):
        # flow a's market share, 1e-300 of 1e30, underflows float64, so
        # its valuation ln(share) is undefined; the run used to warn
        # "divide by zero" and blame a degenerate capture baseline
        flows = tmp_path / "flows.csv"
        flows.write_text("flow_id,demand_mbps,distance_miles\na,1e-300,10\nb,1e30,20\n"
                         "c,5,30\nd,7,40\n", encoding="utf-8")
        res = run_cli("capture", "--input", str(flows), "--demand-model", "logit",
                      "--bundles", "1..3", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3, res.stderr
        assert "numerical failure: flow a: market share of demand 1e-300 in total " \
               "1e+30 underflows float64" in res.stderr
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("alpha", ["14", "16", "20", "100", "200"])
    def test_optimal_runs_at_large_alpha(self, tmp_path, alpha):
        # the bundle profit kappa * W**alpha * X**(1-alpha) overflowed
        # float64 here (exit 3 up to alpha 140, an OverflowError beyond);
        # W * p**(1-alpha) / alpha stays in range, so the optimal search
        # is exact and beats every heuristic at every B
        out = tmp_path / "x.csv"
        res = run_python("-W", "error::RuntimeWarning", "-m", "tierpricing.cli", "capture",
                         "--synth-preset", "eu-isp", "--n-flows", "2000", "--alpha", alpha,
                         "--bundles", "1..4", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 24
        best = {row["num_bundles"]: float(row["profit_capture"]) for row in rows
                if row["strategy"] == "optimal"}
        for row in rows:
            assert float(row["profit_capture"]) <= best[row["num_bundles"]] + 1e-12, row

    @pytest.mark.parametrize("model, cause", [
        ("logit", "the demand total overflows float64"),
        ("ced", "v**alpha overflows float64 at alpha=1.1"),
    ])
    def test_overflowing_demand_is_named_at_fit(self, tmp_path, model, cause):
        # the demands sum past float64: logit used to warn and blame flow
        # a's share, CED to warn and report "fitted gamma = nan"
        flows = tmp_path / "flows.csv"
        flows.write_text("flow_id,demand_mbps,distance_miles\na,1e308,10\nb,1e308,20\n"
                         "c,5,30\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        res = run_cli("capture", "--input", str(flows), "--demand-model", model,
                      "--bundles", "1..3", "--out", str(out))
        assert res.returncode == 3, res.stderr
        assert f"numerical failure: {cause}" in res.stderr
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == [flows]

    def test_valuation_power_overflow_is_named_at_fit(self, tmp_path):
        # 20**240 * q passes float64; the run used to warn and report
        # "fitted gamma = 0.0"
        res = run_cli("capture", "--synth-preset", "eu-isp", "--n-flows", "2000",
                      "--alpha", "240", "--bundles", "1..4",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3, res.stderr
        assert "numerical failure: v**alpha overflows float64 at alpha=240.0" in res.stderr
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row", ["c,5", "c,nan,10", "c,3,inf"])
    def test_malformed_input_row_is_a_config_error(self, tmp_path, row):
        # a short row, or a non-finite value the fit would turn into
        # a nonsensical gamma, is reported against its line
        flows = tmp_path / "flows.csv"
        flows.write_text("flow_id,demand_mbps,distance_miles\na,5,10\nb,2,30\n"
                         f"{row}\n", encoding="utf-8")
        res = run_cli("capture", "--input", str(flows), "--bundles", "1,2",
                      "--strategy", "cost-division", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2, res.stderr
        assert "line 4" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_theta_sweep_cli(self, tmp_path):
        out = tmp_path / "theta.csv"
        res = run_cli("theta-sweep", "--n-flows", "40", "--bundles", "1,2",
                      "--theta-grid", "0,0.5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["sweep_param"] for r in rows} == {"theta"}
        assert max(float(r["profit"]) for r in rows) == pytest.approx(1.0)

    def test_split_dest_type_with_class_strategy(self, tmp_path):
        out = tmp_path / "classes.csv"
        res = run_cli("capture", "--n-flows", "40", "--cost-model", "dest-type",
                      "--theta", "0.4", "--split-dest-type",
                      "--strategy", "class-profit-weighted,profit-weighted",
                      "--bundles", "1,2,3", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_key = {(r["strategy"], r["num_bundles"]): float(r["profit_capture"])
                  for r in rows}
        # two pure classes: the constrained split beats mixing at B=2
        assert by_key[("class-profit-weighted", "2")] >= \
            by_key[("profit-weighted", "2")]

    @pytest.mark.parametrize("rows, n_flows, more_flows_than_tiers",
                             [(5, "10000", False), (20, "5", True)])
    def test_aggregation_note_follows_loaded_flows(self, tmp_path, rows, n_flows,
                                                   more_flows_than_tiers):
        # the optimal search runs on the flows of --input, not --n-flows, and
        # is exact at any flow count: the sidecar carries no optimal note
        flows = tmp_path / "flows.csv"
        res = run_cli("synth", "--n-flows", str(rows), "--seed", "2",
                      "--out", str(flows))
        assert res.returncode == 0, res.stderr
        out = tmp_path / "capture.csv"
        res = run_cli("capture", "--input", str(flows), "--n-flows", n_flows,
                      "--bundles", "1,2,6", "--strategy", "optimal", "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = json.loads((tmp_path / "capture.csv.meta.json").read_text())
        assert not any("optimal" in note for note in meta["notes"])
        assert "optimal_mode" not in meta["config"]
        with open(out, newline="") as fh:
            six = [r for r in csv.DictReader(fh) if r["num_bundles"] == "6"][0]
        assert int(six["effective_bundles"]) == (6 if more_flows_than_tiers else rows)
        # one tier per flow reaches the per-flow maximum exactly
        assert (float(six["profit_capture"]) < 1.0) is more_flows_than_tiers

    @pytest.mark.parametrize("line", ["bundels = 1,2", "optimal_mode = full"])
    def test_unknown_config_key_is_a_config_error(self, tmp_path, line):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[tierpricing]\nn_flows = 20\n{line}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        res = run_cli("capture", "--config", str(ini), "--strategy", "cost-division",
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert repr(line.split(" = ")[0]) in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, line, message", [
        # a key of another subcommand's option is left out
        ("fit", "workers = 0", None),
        ("capture", "theta_grid = 0,0", None),
        ("fit", "bundles = many", None),
        # a key of the running subcommand is applied and checked
        ("capture", "workers = 0", "error: workers must be >= 1"),
        ("theta-sweep", "theta_grid = 0,0", "error: theta grid must not repeat"),
        ("capture", "workers = many", "error: config key workers"),
    ])
    def test_config_file_applies_the_running_command_keys(self, tmp_path, command,
                                                          line, message):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[tierpricing]\nn_flows = 50\n{line}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        run = [] if command == "fit" else ["--bundles", "1,2", "--strategy",
                                           "cost-division"]
        res = run_cli(command, "--config", str(ini), *run, "--out", str(out))
        if message is None:
            assert res.returncode == 0, res.stderr
            assert out.exists()
        else:
            assert res.returncode == 2, res.stderr
            assert res.stderr.startswith(message)
            assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("capture", ["--bundles", "2,1,2"]),
        ("capture", ["--strategy", "cost-division,profit-weighted,cost-division"]),
        ("theta-sweep", ["--theta-grid", "0,0.5,0"]),
        ("sensitivity", ["--alpha-grid", "1.5,1.5", "--p0-grid", "10"]),
        ("sensitivity", ["--alpha-grid", "1.5", "--p0-grid", "10,20,10"]),
        ("sensitivity", ["--demand-model", "logit", "--s0-grid", "0.2,0.4,0.2"]),
    ])
    def test_repeated_run_value_is_a_config_error(self, tmp_path, command, args):
        # a repeat would write repeated rows under one sidecar prices key
        out = tmp_path / "x.csv"
        res = run_cli(command, "--n-flows", "30", "--bundles", "1,2",
                      "--strategy", "cost-division", *args, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "must not repeat" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("key", ["split_dest_type", "cs-unit-price-offset"])
    @pytest.mark.parametrize("raw, value", [("on", True), ("off", False),
                                            ("Yes", True), ("0", False),
                                            ("onn", None)])
    def test_config_file_boolean(self, tmp_path, key, raw, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[tierpricing]\n{key} = {raw}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        res = run_cli("capture", "--config", str(ini), "--n-flows", "30",
                      "--cost-model", "dest-type", "--theta", "0.4",
                      "--bundles", "1,2", "--strategy", "cost-division",
                      "--out", str(out))
        if value is None:
            assert res.returncode == 2, res.stderr
            assert "Not a boolean" in res.stderr
            assert not out.exists()
            return
        assert res.returncode == 0, res.stderr
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert meta["config"][key.replace("-", "_")] is value

    @pytest.mark.parametrize("line, dest, value", [
        ("cost-model = concave", "cost_kind", "concave"),
        ("cost_kind = concave", "cost_kind", "concave"),
        ("synth-preset = cdn", "preset", "cdn"),
        ("strategies = cost-division", "strategies", ["cost-division"]),
        ("theta-grid = 0.1,0.3", "theta_grid", [0.1, 0.3]),
    ])
    def test_config_key_long_option_or_dest(self, tmp_path, line, dest, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[tierpricing]\nn_flows = 30\nbundles = 1,2\n{line}\n",
                       encoding="utf-8")
        out = tmp_path / "x.csv"
        res = run_cli("theta-sweep", "--config", str(ini), "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert meta["config"][dest] == value

    def test_config_value_converted_by_option_type(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[tierpricing]\nn_flows = many\n", encoding="utf-8")
        res = run_cli("capture", "--config", str(ini), "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2, res.stderr
        assert "config key n_flows" in res.stderr

    @pytest.mark.parametrize("command", ["capture", "synth"])
    @pytest.mark.parametrize("in_file, flag", [(True, False), (True, True),
                                               (False, False)])
    def test_out_from_config_file(self, tmp_path, command, in_file, flag):
        from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        ini = tmp_path / "run.ini"
        ini.write_text("[tierpricing]\nn_flows = 20\n"
                       + (f"out = {from_file}\n" if in_file else ""), encoding="utf-8")
        args = [command, "--config", str(ini)]
        if command == "capture":
            args += ["--bundles", "1,2", "--strategy", "cost-division"]
        if flag:
            args += ["--out", str(from_flag)]
        res = run_cli(*args)
        if not (in_file or flag):
            # no out anywhere: argparse's own error and exit code
            assert res.returncode == 2
            assert "the following arguments are required: --out" in res.stderr
            assert list(tmp_path.iterdir()) == [ini]
            return
        assert res.returncode == 0, res.stderr
        written = from_flag if flag else from_file
        assert written.exists()
        assert not (from_file if flag else from_flag).exists()

    def test_sensitivity_cli(self, tmp_path):
        out = tmp_path / "sens.csv"
        res = run_cli("sensitivity", "--n-flows", "40", "--bundles", "2",
                      "--alpha-grid", "1.1,2", "--p0-grid", "10,20",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["sweep_param"] for r in rows} == {"alpha-min", "p0-min"}

    @pytest.mark.parametrize("command", ["synth", "fit", "capture", "theta-sweep",
                                         "sensitivity"])
    def test_bare_parse_is_the_config_default(self, command):
        from tierpricing.cli import _config_from_args, build_parser

        args = build_parser().parse_args([command, "--out", "x.csv"])
        config = _config_from_args(args)
        default = ExperimentConfig(out="x.csv")
        if command == "theta-sweep":
            default = dataclasses.replace(default, strategies=(Strategy.PROFIT_WEIGHTED,))
        for field in dataclasses.fields(ExperimentConfig):
            assert getattr(config, field.name) == getattr(default, field.name), field.name

    def test_every_config_field_is_an_option(self):
        # a field no subcommand option sets could only be set by library callers
        from tierpricing.cli import build_parser

        parser = build_parser()
        dests = {action.dest for sub in parser.sub_map.values() for action in sub._actions}
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert fields - dests == set()

    def test_import_skips_process_pool_and_configparser(self):
        # both are imported only by the runs that use them
        res = run_python("-c", "import sys, tierpricing.cli; print(sorted(m for m in "
                         "('multiprocessing', 'concurrent.futures.process', "
                         "'configparser') if m in sys.modules))")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
