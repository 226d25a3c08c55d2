"""End-to-end experiment runs and the command-line interface."""

import csv
import dataclasses
import json
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

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_theta_sweep(small_config(theta_grid=()))

    def test_regional_theta_zero_uniform_costs_flat(self):
        # symmetric fixture: equal demands, uniform costs leave nothing
        # for tiering to recover, so the capture baseline is degenerate
        # and per-bundle pricing reproduces the blended profit exactly
        from tierpricing.bundling import build_bundles, evaluate_bundling
        from tierpricing.demand_ced import ced_bundle_price
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
        from tierpricing.experiments import _sensitivity_point, load_flows

        cfg = small_config(alpha_grid=(1.3, 2.0, 4.0), p0_grid=(), s0_grid=())
        rows, _ = run_sensitivity_sweep(cfg)
        mins = {r["num_bundles"]: r["profit_capture"] for r in rows}
        flows = load_flows(cfg)
        for value in cfg.alpha_grid:
            for row in _sensitivity_point(cfg, flows, "alpha", value):
                assert mins[row["num_bundles"]] <= row["profit_capture"] + 1e-12

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


def run_cli(*args):
    # the child imports the same tierpricing as this process, also when
    # pytest put src/ on sys.path without setting PYTHONPATH
    src = os.path.dirname(os.path.dirname(tierpricing.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tierpricing.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


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
        from tierpricing.ingestion import read_fitted_csv, read_params_csv

        fitted = read_fitted_csv(out)
        assert len(fitted) == 50
        assert len(fitted.ids) == len(fitted.v) == 50
        params = read_params_csv(f"{out}.params.csv")
        assert params.consumer_mass is not None

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

    def test_numerical_failure_exit_code(self, tmp_path):
        # logit with p0 below the uniform markup cannot be rationalized
        res = run_cli("capture", "--demand-model", "logit", "--p0", "2.0",
                      "--s0", "0.05", "--alpha", "1.1", "--n-flows", "20",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3
        assert "numerical" in res.stderr.lower()
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("rows, n_flows, noted", [(5, "10000", False),
                                                       (20, "5", True)])
    def test_aggregation_note_follows_loaded_flows(self, tmp_path, rows,
                                                   n_flows, noted):
        flows = tmp_path / "flows.csv"
        res = run_cli("synth", "--n-flows", str(rows), "--seed", "2",
                      "--out", str(flows))
        assert res.returncode == 0, res.stderr
        out = tmp_path / "capture.csv"
        res = run_cli("capture", "--input", str(flows), "--n-flows", n_flows,
                      "--bundles", "1,2", "--strategy", "optimal", "--out", str(out))
        assert res.returncode == 0, res.stderr
        notes = json.loads((tmp_path / "capture.csv.meta.json").read_text())["notes"]
        assert any("quantile buckets" in note for note in notes) is noted

    def test_sensitivity_cli(self, tmp_path):
        out = tmp_path / "sens.csv"
        res = run_cli("sensitivity", "--n-flows", "40", "--bundles", "2",
                      "--alpha-grid", "1.1,2", "--p0-grid", "10,20",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["sweep_param"] for r in rows} == {"alpha-min", "p0-min"}
