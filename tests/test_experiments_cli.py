"""End-to-end experiment runs and the command-line interface."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import tierpricing
from tierpricing.bundling import Strategy
from tierpricing.domain import CostKind, DemandModel, DomainError
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
from tierpricing.ingestion import read_flows_csv


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


class TestPinnedCapture:
    # sha256 of the results CSV of this capture, as written before the
    # cost order and the tiers were built from the default sort and runs:
    # its 3 distinct regional costs tie every flow of the cost order
    REGIONAL_CED_SHA256 = "1240c8ffb23bca837bbb143c045220fe5dfb561bac3cdb1a4074f2db0104b832"

    def test_regional_ced_capture_bytes_are_pinned(self, tmp_path):
        from tierpricing.cli import main

        out = tmp_path / "regional.csv"
        assert main(["capture", "--cost-model", "regional", "--theta", "0.5",
                     "--synth-preset", "eu-isp", "--n-flows", "2000", "--seed", "7",
                     "--bundles", "1..8", "--strategy",
                     ",".join(s.value for s in Strategy), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.REGIONAL_CED_SHA256


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
        with pytest.raises(DomainError):
            run_theta_sweep(small_config(theta_grid=()))

    @staticmethod
    def uniform_costs(model):
        """Equal demands under regional costs at theta 0: every cost is
        equal, so nothing is left for tiering to recover."""
        from tierpricing.domain import FlowTable

        flows = FlowTable([f"f{i}" for i in range(8)], np.full(8, 10.0),
                          [float(5 + 10 * i) for i in range(8)])
        cfg = small_config(demand_model=model, cost_kind=CostKind.REGIONAL, theta=0.0)
        return fit_context(flows, cfg)

    def test_regional_theta_zero_uniform_costs_flat(self):
        # the capture baseline is degenerate and per-bundle pricing
        # reproduces the blended profit exactly
        from tierpricing.bundling import build_bundles, evaluate_bundling
        from demand_oracles import ced_bundle_price

        ctx = self.uniform_costs(DemandModel.CED)
        assert ctx.pi_max == pytest.approx(ctx.pi_orig, rel=1e-12)
        bundling = build_bundles(Strategy.PROFIT_WEIGHTED, ctx, 2)
        outcome = evaluate_bundling(ctx, bundling)
        assert math.isnan(outcome.profit_capture) and math.isnan(outcome.surplus_capture)
        for b in range(2):
            members = np.flatnonzero(bundling.labels == b)
            price = ced_bundle_price(ctx.v[members], ctx.c[members], ctx.alpha)
            assert price == pytest.approx(ctx.p0, rel=1e-12)

    @pytest.mark.parametrize("model, prices, profit, surplus", [
        (DemandModel.CED, (20.0, 20.0), 1454.5454545454547, 15999.999999999989),
        # the surplus baselines differ by 8e-10 relative, yet the surplus
        # capture is NaN with the profit capture
        (DemandModel.LOGIT, (19.99999999808391, 19.99999999808391), 363.6363636363643,
         198.7866890019811),
    ])
    def test_degenerate_market_evaluates_to_nan_captures(self, model, prices, profit,
                                                         surplus):
        # evaluation computes the prices, profit and surplus as ever and
        # leaves the undefined captures NaN; whether that fails is the
        # run's to decide
        from tierpricing.bundling import build_bundles, evaluate_bundling

        ctx = self.uniform_costs(model)
        outcome = evaluate_bundling(ctx, build_bundles(Strategy.PROFIT_WEIGHTED, ctx, 2))
        assert (outcome.prices, outcome.profit, outcome.consumer_surplus) == \
            (prices, profit, surplus)
        assert outcome.effective_bundles == 2
        assert math.isnan(outcome.profit_capture) and math.isnan(outcome.surplus_capture)

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


TOKEN_BUCKETS = (Strategy.DEMAND_WEIGHTED, Strategy.COST_WEIGHTED,
                 Strategy.PROFIT_WEIGHTED)


class TestSharedOrders:
    """A sweep computes what depends on its flow set alone once and shares
    it between grid points and worker processes."""

    def written(self, tmp_path, run, cfg) -> tuple[bytes, bytes]:
        rows, meta = run(cfg)
        out = tmp_path / "out.csv"
        write_results(str(out), rows, meta)
        return out.read_bytes(), (tmp_path / "out.csv.meta.json").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run, overrides", [
        (run_sensitivity_sweep, dict(demand_model=DemandModel.LOGIT)),
        (run_sensitivity_sweep, dict(demand_model=DemandModel.CED)),
        (run_theta_sweep, dict(cost_kind=CostKind.DEST_TYPE,
                               strategies=(Strategy.OPTIMAL, *TOKEN_BUCKETS,
                                           Strategy.INDEX_DIVISION))),
        (run_theta_sweep, dict(cost_kind=CostKind.DEST_TYPE, split_dest_type=True,
                               demand_model=DemandModel.LOGIT,
                               strategies=(*TOKEN_BUCKETS,
                                           Strategy.CLASS_PROFIT_WEIGHTED))),
    ])
    def test_same_outputs_as_every_point_fitted_alone(self, tmp_path, monkeypatch,
                                                      run, overrides, workers):
        # the per-point path: every grid point evaluated on its own, freshly
        # loaded flow set, with orders of its own
        from tierpricing import experiments

        cfg = small_config(n_flows=300, bundles=(1, 2, 3, 5, 8), workers=workers,
                           theta_grid=(0.0, 0.3, 1.0), **overrides)
        shared = self.written(tmp_path, run, cfg)

        def alone(fn, jobs, workers):
            return [fn(point, experiments.load_flows(point)) for point, _, _ in jobs]

        monkeypatch.setattr(experiments, "_map_jobs", alone)
        assert shared == self.written(tmp_path, run, cfg)

    @pytest.mark.parametrize("model, visits", [(DemandModel.LOGIT, 1),
                                                (DemandModel.CED, 7)])
    def test_a_sweep_visits_its_demands_once(self, monkeypatch, model, visits):
        # under logit profit-weighted tiers are demand-weighted: one visit
        # and one bundling per tier count serve the ten distinct points;
        # the CED profit weights are fitted, so each of the seven distinct
        # points (no s0 grid) visits its own
        from tierpricing import bundling

        calls = {"visit": 0, "buckets": 0}
        visit, buckets = bundling._visit, bundling._bucket_bundling

        def counting_visit(*args):
            calls["visit"] += 1
            return visit(*args)

        def counting_buckets(*args, **kwargs):
            calls["buckets"] += 1
            return buckets(*args, **kwargs)

        monkeypatch.setattr(bundling, "_visit", counting_visit)
        monkeypatch.setattr(bundling, "_bucket_bundling", counting_buckets)
        cfg = small_config(demand_model=model, n_flows=100)
        run_sensitivity_sweep(cfg)
        assert calls == {"visit": visits, "buckets": visits * len(cfg.bundles)}

    def test_a_capture_builds_each_demand_tier_once(self, monkeypatch):
        # under logit profit-weighted builds the demand-weighted tiers: the
        # default strategies build them and the cost-weighted ones once per
        # tier count, 16 bundlings for 8, and the flow set's orders hold
        # none of them after the run
        from tierpricing import bundling, experiments

        calls, made = [], []
        buckets = bundling._bucket_bundling

        def counting_buckets(*args, **kwargs):
            calls.append(args[1])
            return buckets(*args, **kwargs)

        class Recorded(bundling.FlowOrders):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        cfg = small_config(demand_model=DemandModel.LOGIT, bundles=tuple(range(1, 9)),
                           strategies=ExperimentConfig.strategies, n_flows=300)
        monkeypatch.setattr(bundling, "_bucket_bundling", counting_buckets)
        monkeypatch.setattr(experiments, "FlowOrders", Recorded)
        rows, _ = run_capture_curve(cfg)
        assert sorted(calls) == sorted(2 * list(cfg.bundles))
        assert len(made) == 1 and not made[0]._tiers
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(
                {k: v for k, v in row.items() if k != "strategy"})
        assert by_strategy["profit-weighted"] == by_strategy["demand-weighted"]

    @pytest.mark.parametrize("model, strategies, builders", [
        # under logit demand- and profit-weighted are one tier set, built
        # by whichever of the two is listed first
        (DemandModel.LOGIT, ExperimentConfig.strategies,
         [s for s in ExperimentConfig.strategies if s is not Strategy.PROFIT_WEIGHTED]),
        (DemandModel.LOGIT, (Strategy.PROFIT_WEIGHTED, Strategy.DEMAND_WEIGHTED),
         [Strategy.PROFIT_WEIGHTED]),
        (DemandModel.CED, ExperimentConfig.strategies, list(ExperimentConfig.strategies)),
    ])
    def test_a_tier_set_is_built_and_evaluated_once(self, monkeypatch, model, strategies,
                                                     builders):
        # one build and one evaluation per tier set and tier count (40, not
        # 48, for the default strategies under logit), and every row is
        # the row of a run of its strategy alone (compared by repr: an
        # empty bundle's price is NaN)
        from tierpricing import experiments

        built, evaluated = [], []
        build, evaluate = experiments.build_bundles, experiments.evaluate_bundling

        def counting_build(strategy, *args):
            built.append(strategy)
            return build(strategy, *args)

        def counting_evaluate(*args, **kwargs):
            evaluated.append(args[1])
            return evaluate(*args, **kwargs)

        cfg = small_config(demand_model=model, bundles=tuple(range(1, 9)),
                           strategies=strategies, n_flows=300)
        monkeypatch.setattr(experiments, "build_bundles", counting_build)
        monkeypatch.setattr(experiments, "evaluate_bundling", counting_evaluate)
        rows, _ = run_capture_curve(cfg)
        assert sorted(built) == sorted(8 * builders)
        assert len(evaluated) == 8 * len(builders)
        monkeypatch.undo()
        for strategy in strategies:
            alone, _ = run_capture_curve(dataclasses.replace(cfg, strategies=(strategy,)))
            assert repr([r for r in rows if r["strategy"] == strategy.value]) == repr(alone)

    @pytest.mark.parametrize("protocol", [4, pickle.HIGHEST_PROTOCOL])
    def test_a_worker_fits_on_the_flows_it_receives(self, protocol):
        # pickle restores arrays writable; the flow table makes its columns
        # read-only again in place, so its orders still share them and a
        # context fitted in a worker shares them too instead of copying
        from tierpricing.bundling import FlowOrders

        cfg = small_config()
        flows = load_flows(cfg)
        flows, orders = pickle.loads(
            pickle.dumps((flows, FlowOrders(flows.ids, flows.demand)), protocol))
        for column in (flows.ids, flows.demand, flows.distance):
            assert not column.flags.writeable
        assert orders.ids is flows.ids and orders.q is flows.demand
        ctx = fit_context(flows, cfg, orders)
        assert ctx.ids is flows.ids and ctx.q is flows.demand and ctx.d is flows.distance

    def test_cost_division_sorts_no_ids(self, monkeypatch):
        # the capture-logit shape: no token bucket, so neither the id order
        # (a string sort) nor a visiting order is computed
        from tierpricing import bundling, experiments

        made = []

        class Recorded(bundling.FlowOrders):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def unexpected(*args):
            raise AssertionError("a visiting order was computed")

        monkeypatch.setattr(experiments, "FlowOrders", Recorded)
        monkeypatch.setattr(bundling, "FlowOrders", Recorded)
        monkeypatch.setattr(bundling, "_visit", unexpected)
        run_capture_curve(small_config(demand_model=DemandModel.LOGIT,
                                       strategies=(Strategy.COST_DIVISION,)))
        assert len(made) == 1
        assert not {"id_order", "demand_visit"} & made[0].__dict__.keys()
        assert not made[0]._tiers

    def test_orders_of_another_flow_set_are_refused(self):
        from tierpricing.bundling import FlowOrders

        cfg = small_config(cost_kind=CostKind.DEST_TYPE, split_dest_type=True)
        flows = load_flows(cfg)
        with pytest.raises(DomainError, match="another flow set"):
            fit_context(flows, cfg, FlowOrders(flows.ids, flows.demand))
        other = load_flows(cfg)
        with pytest.raises(DomainError, match="another flow set"):
            fit_context(flows, dataclasses.replace(cfg, split_dest_type=False),
                        FlowOrders(other.ids, other.demand))


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

        cfg = small_config(strategies=(Strategy.PROFIT_WEIGHTED,),
                           alpha_grid=(1.3, 2.0, 4.0), p0_grid=(), s0_grid=())
        rows, _ = run_sensitivity_sweep(cfg)
        mins = {r["num_bundles"]: r["profit_capture"] for r in rows}
        flows = load_flows(cfg)
        for value in cfg.alpha_grid:
            point = dataclasses.replace(cfg, alpha=value)
            point_rows, _ = _grid_point(point, flows)
            for row in point_rows:
                assert mins[row["num_bundles"]] <= row["profit_capture"] + 1e-12

    def test_each_row_is_the_extreme_point_of_its_own_grid(self):
        from tierpricing.experiments import _grid_point, load_flows

        cfg = small_config(demand_model=DemandModel.LOGIT, n_flows=40,
                           strategies=(Strategy.PROFIT_WEIGHTED,),
                           alpha_grid=(0.8, 2.0), p0_grid=(15.0, 30.0),
                           s0_grid=(0.1, 0.3, 0.6))
        rows, _ = run_sensitivity_sweep(cfg)
        flows = load_flows(cfg)
        for tag, param, grid, pick in (("alpha-min", "alpha", cfg.alpha_grid, min),
                                       ("p0-min", "p0", cfg.p0_grid, min),
                                       ("s0-max", "s0", cfg.s0_grid, max)):
            points = [(value, _grid_point(dataclasses.replace(cfg, **{param: value}),
                                          flows)[0])
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
        with pytest.raises(DomainError):
            run_sensitivity_sweep(cfg)

    def test_ced_alpha_grid_validated(self):
        with pytest.raises(DomainError):
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
        (run_sensitivity_sweep, dict(demand_model=DemandModel.LOGIT, s0_grid=(0.0, 0.2)),
         "logit requires s0 in (0,1), got 0.0"),
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
        with pytest.raises(DomainError) as info:
            run(small_config(**overrides))
        assert str(info.value) == message

    def test_s0_grid_is_evaluated_as_given(self):
        # s0 = 0.005 is a feasible market at alpha*p0 = 250; its rows are
        # tagged with it and are a capture run's rows at that s0
        market = dict(demand_model=DemandModel.LOGIT, alpha=0.05, p0=5000.0)
        rows, _ = run_sensitivity_sweep(small_config(
            **market, alpha_grid=(), p0_grid=(), s0_grid=(0.005, 0.2)))
        assert {r["sweep_value"] for r in rows} <= {0.005, 0.2}
        assert any(r["sweep_value"] == 0.005 for r in rows)
        for s0 in (0.005, 0.2):
            captured, _ = run_capture_curve(small_config(
                **market, s0=s0, strategies=(Strategy.PROFIT_WEIGHTED,)))
            by_bundles = {r["num_bundles"]: r for r in captured}
            for row in rows:
                if row["sweep_value"] == s0:
                    assert row == {**by_bundles[row["num_bundles"]],
                                   "sweep_param": "s0-max", "sweep_value": s0}

    @pytest.mark.parametrize("workers, pool, chunk", [(64, 4, 1), (3, 3, 2)])
    def test_pool_is_no_larger_than_the_job_list(self, monkeypatch, workers, pool,
                                                 chunk):
        # a pool forks all its workers at once: 64 asked for 4 grid points
        # start 4; an in-process stand-in records the pool, starting none
        import concurrent.futures

        made = []

        class InProcessPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                made.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = small_config(theta_grid=(0.0, 0.2, 0.5, 1.0),
                           strategies=(Strategy.PROFIT_WEIGHTED,))
        rows, _ = run_theta_sweep(dataclasses.replace(cfg, workers=workers))
        assert made == [pool, chunk]
        assert rows == run_theta_sweep(cfg)[0]

    def test_duplicated_point_fitted_once_and_tagged_per_point(self, monkeypatch):
        # p0 = 20 and s0 = 0.2 are both the base logit market
        from tierpricing import experiments

        fits = []
        fit = experiments.fit_context

        def counting(flows, config, orders=None):
            fits.append(config)
            return fit(flows, config, orders)

        monkeypatch.setattr(experiments, "fit_context", counting)
        cfg = small_config(demand_model=DemandModel.LOGIT, n_flows=40,
                           strategies=(Strategy.PROFIT_WEIGHTED,))
        points = [("alpha", 2.0), ("p0", 20.0), ("s0", 0.2), ("bundles", cfg.bundles)]
        results = experiments._sweep(cfg, points)
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

    def test_echoes_the_one_strategy_it_runs(self):
        rows, meta = run_sensitivity_sweep(small_config(alpha_grid=(1.2, 2.0),
                                                        p0_grid=(), s0_grid=()))
        assert {row["strategy"] for row in rows} == {"profit-weighted"}
        assert meta["config"]["strategies"] == ["profit-weighted"]

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

    def test_numpy_float_written_as_its_repr(self, tmp_path):
        # numpy 2's repr of np.float64(0.1) is "np.float64(0.1)"
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
        values = [0.1, 1e16, 1e22, 5e-324, -0.0, math.inf, math.nan,
                  *values[np.isfinite(values)].tolist()]
        rows = [{"sweep_param": "bundles", "sweep_value": 1.0, "strategy": "optimal",
                 "num_bundles": 1, "effective_bundles": 1, "profit": np.float64(v),
                 "profit_capture": v, "consumer_surplus": np.float64(v),
                 "surplus_capture": v} for v in values]
        out = tmp_path / "results.csv"
        write_results(str(out), rows, {})
        with open(out, newline="") as fh:
            written = list(csv.DictReader(fh))
        assert written[0]["profit"] == "0.1"
        for v, row in zip(values, written, strict=True):
            cells = {row[col] for col in ("profit", "profit_capture",
                                          "consumer_surplus", "surplus_capture")}
            assert cells == {float.__repr__(v)}, v

    @pytest.mark.parametrize("part", ["csv", "sidecar"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, part):
        # a lone surrogate cannot be encoded in UTF-8: the CSV fails in
        # its last row, well after the first rows reached the file; an
        # object JSON cannot hold fails the sidecar
        out = tmp_path / "results.csv"
        target = out if part == "csv" else tmp_path / "results.csv.meta.json"
        target.write_bytes(b"previous\n")
        rows, meta = run_capture_curve(small_config())
        rows = rows * 500
        if part == "csv":
            rows[-1] = {**rows[-1], "strategy": "\ud800"}
        else:
            meta["notes"].append(object())
        with pytest.raises(UnicodeEncodeError if part == "csv" else TypeError):
            write_results(str(out), rows, meta)
        assert target.read_bytes() == b"previous\n"
        assert not list(tmp_path.glob("*.tmp.*"))


def run_python(*args, cwd=None):
    # the child imports the same tierpricing as this process, also when
    # pytest put src/ on sys.path without setting PYTHONPATH
    src = os.path.dirname(os.path.dirname(tierpricing.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd,
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
        # a theta sweep takes no --theta: its grid holds the bad theta
        (command, ["--theta-grid", "nan"]
         if (command, args[0]) == ("theta-sweep", "--theta") else args, message)
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
        ("sensitivity", ["--demand-model", "logit", "--s0-grid", "0,0.2"],
         "logit requires s0 in (0,1), got 0.0"),
    ] + [
        # logit surplus has one convention (fit takes no surplus option)
        (command, ["--demand-model", "logit", "--cs-unit-price-offset"],
         "cs_unit_price_offset applies to the CED demand model only, got logit")
        for command in ["capture", "theta-sweep", "sensitivity"]
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

    @pytest.mark.parametrize("command, option", [
        ("sensitivity", ["--strategy", "optimal,cost-division"]),
        ("theta-sweep", ["--theta", "0.7"]),
    ])
    def test_sweep_takes_no_option_it_does_not_read(self, tmp_path, command, option):
        # a sensitivity sweep is profit-weighted; a theta sweep reads its grid
        out = tmp_path / "x.csv"
        res = run_cli(command, "--n-flows", "100", *option, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert f"unrecognized arguments: {' '.join(option)}" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, line", [
        # a long id with a bad row takes the per-row reader, which stops
        # at the long field; a long column name stops the header
        ("flow_id,demand_mbps,distance_miles\n" + "a" * 200_000 + ",1,1\nb,oops,1\n", 2),
        ("flow_id,demand_mbps,distance_miles," + "x" * 200_000 + "\na,1,1\n", 1),
    ], ids=["long-id-then-bad-row", "long-column-name"])
    def test_field_past_the_csv_limit_is_a_config_error(self, tmp_path, text, line):
        flows = tmp_path / "flows.csv"
        flows.write_text(text, encoding="utf-8")
        res = run_cli("capture", "--input", str(flows), "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2, res.stderr
        assert res.stderr.endswith(
            f"error: line {line}: field larger than field limit (131072)\n")
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == [flows]

    @pytest.mark.parametrize("command, code", [("capture", 3), ("sensitivity", 3),
                                               ("theta-sweep", 0)])
    def test_degenerate_market_fails_except_in_a_theta_sweep(self, tmp_path, command,
                                                             code):
        # regional costs at theta 0 are all equal: capture is undefined;
        # the default theta grid starts at 0
        out = tmp_path / "x.csv"
        theta = [] if command == "theta-sweep" else ["--theta", "0"]
        res = run_cli(command, "--n-flows", "300", "--cost-model", "regional",
                      *theta, "--bundles", "1,2", "--out", str(out))
        assert res.returncode == code, res.stderr
        if code == 3:
            assert "per-flow and blended profit coincide" in res.stderr
            assert not out.exists()
            return
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["sweep_value"] == "0.0"]
        assert rows and all(r["profit_capture"] == r["surplus_capture"] == "nan"
                            for r in rows)

    @pytest.mark.parametrize("command", ["capture", "sensitivity", "theta-sweep"])
    @pytest.mark.parametrize("model", [m.value for m in DemandModel])
    @pytest.mark.parametrize("rows", [["a,5,100"], ["a,5,100", "b,7,100", "c,2,100"]],
                             ids=["one-flow", "equal-distances"])
    def test_market_without_any_capture_fails(self, tmp_path, capsys, command, model,
                                              rows):
        # one flow, or flows whose costs all tie at every theta: no grid
        # point has a capture, so a theta sweep fails like the others
        from tierpricing import cli

        flows = tmp_path / "flows.csv"
        flows.write_text("\n".join(["flow_id,demand_mbps,distance_miles", *rows, ""]))
        code = cli.main([command, "--input", str(flows), "--demand-model", model,
                         "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("numerical failure: per-flow and blended profit coincide")
        assert list(tmp_path.iterdir()) == [flows]

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

    def test_exit_code_follows_the_error_class(self, tmp_path, monkeypatch, capsys):
        # every PricingError of the package, raised by the run itself:
        # the numerical failure and its one subclass exit 3, the others
        # 2, like an OSError
        from tierpricing import cli, domain

        numerical = {domain.NumericalFailure, domain.NoConvergence}
        errors = [cls for cls in vars(domain).values()
                  if isinstance(cls, type) and issubclass(cls, domain.PricingError)]
        assert set(errors) == numerical | {domain.PricingError, domain.DomainError}
        for cls in [*errors, OSError]:
            def fail(config, cls=cls):
                raise cls("boom")

            monkeypatch.setattr(cli, "run_capture_curve", fail)
            code = cli.main(["capture", "--out", str(tmp_path / "x.csv")])
            if cls in numerical:
                assert (code, capsys.readouterr().err) == (3, "numerical failure: boom\n")
            else:
                assert (code, capsys.readouterr().err) == (2, "error: boom\n"), cls
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("preset, fewest", [("eu-isp", 4), ("cdn", 7),
                                                ("internet2", 22)])
    def test_synth_names_the_fewest_flows_of_a_reachable_cv(self, tmp_path, preset,
                                                            fewest):
        # the sample CV of n positive values is below sqrt(n-1), so the
        # preset's demand CV (1.71, 2.28, 4.53) needs n > CV**2 + 1; one
        # flow fewer used to warn of an overflow and exit 3 with "did not
        # converge"
        out = tmp_path / "flows.csv"
        res = run_cli("synth", "--synth-preset", preset, "--n-flows", str(fewest - 1),
                      "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: cv_distance = ")
        assert f"need at least {fewest} flows, got n_flows = {fewest - 1}\n" in res.stderr
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []
        res = run_cli("synth", "--synth-preset", preset, "--n-flows", str(fewest),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        assert len(read_flows_csv(out)) == fewest

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

    @pytest.mark.parametrize("args, cause", [
        (["--cost-model", "regional", "--theta", "700"],
         "regional relative costs overflow float64 at theta=700.0"),
        (["--theta", "1e306"], "linear relative costs overflow float64 at theta=1e+306"),
        (["--theta", "1e300"],
         "relative cost times v**alpha overflows float64 (largest relative cost 2.67e+302)"),
        (["--demand-model", "logit", "--theta", "1e305"],
         "relative cost times exp(alpha*(v - p0)) overflows float64 "
         "(largest relative cost 2.67e+307)"),
        (["--demand-model", "logit", "--s0", "1e-200"],
         "fitted gamma = -inf: p0 = 20.0 cannot be the rational uniform price at "
         "alpha = 1.1 with these shares"),
    ], ids=["regional", "linear", "ced-sum", "logit-sum", "logit-gamma"])
    def test_fit_past_float64_names_its_cause(self, tmp_path, args, cause):
        # these used to end in an OverflowError traceback (regional), a
        # RuntimeWarning (logit), or a message blaming alpha or reporting
        # "fitted gamma = 0"
        res = run_python("-W", "error::RuntimeWarning", "-m", "tierpricing.cli", "capture",
                         "--n-flows", "200", "--bundles", "1..2", *args,
                         "--out", str(tmp_path / "x.csv"))
        assert (res.returncode, res.stderr) == (3, f"numerical failure: {cause}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", ["ced", "logit"])
    def test_subnormal_relative_costs_are_named_at_fit(self, tmp_path, model):
        # the gamma quotient passes float64 when the relative costs are
        # subnormal; gamma = inf used to reach the context, which blamed
        # flow a's cost (exit 2), and CED warned of the division first
        flows = tmp_path / "flows.csv"
        flows.write_text("flow_id,demand_mbps,distance_miles\na,5,1e-310\nb,7,2e-310\n",
                         encoding="utf-8")
        res = run_python("-W", "error::RuntimeWarning", "-m", "tierpricing.cli", "capture",
                         "--input", str(flows), "--demand-model", model, "--bundles", "1..2",
                         "--out", str(tmp_path / "x.csv"))
        assert (res.returncode, res.stderr) == (
            3, "numerical failure: fitted gamma overflows float64 "
               "(largest relative cost 2.4e-310)\n")
        assert list(tmp_path.iterdir()) == [flows]

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

    @pytest.mark.parametrize("rows", ["", "a,0,10\n\nb,0.0,20\n"])
    def test_input_without_flows_is_a_config_error(self, tmp_path, rows):
        # a header-only file and one of zero-demand rows; numpy's reader
        # warns "input contained no data" on the first
        flows = tmp_path / "flows.csv"
        flows.write_text(f"flow_id,demand_mbps,distance_miles\n{rows}", encoding="utf-8")
        res = run_python("-W", "error", "-m", "tierpricing.cli", "capture",
                         "--input", str(flows), "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2, res.stderr
        assert res.stderr.endswith("error: flow set is empty after ingestion\n")
        assert "Warning:" not in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == [flows]

    def test_input_not_utf8_is_a_config_error(self, tmp_path):
        flows = tmp_path / "flows.csv"
        flows.write_bytes(b"flow_id,demand_mbps,distance_miles\na\xff,1,2\n")
        out = tmp_path / "x.csv"
        res = run_cli("capture", "--input", str(flows), "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: line 2: invalid UTF-8 (invalid start byte)\n"
        assert list(tmp_path.iterdir()) == [flows]

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

    @pytest.mark.parametrize("text, message", [
        (b"out = r.csv\n", "File contains no section headers."),
        (b"[tierpricing]\nn_flows = 20\nn_flows = 30\n",
         "While reading from '{ini}' [line  3]: option 'n_flows' in section "
         "'tierpricing' already exists"),
        (b"[tierpricing]\n# r\xe9sum\xe9\nn_flows = 20\n",
         "'utf-8' codec can't decode byte 0xe9 in position 17: invalid continuation byte"),
    ])
    def test_malformed_config_file_is_a_config_error(self, tmp_path, text, message):
        # no section header, a repeated key, and Latin-1 text
        ini = tmp_path / "run.ini"
        ini.write_bytes(text)
        out = tmp_path / "x.csv"
        res = run_cli("capture", "--config", str(ini), "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: cannot parse config file {ini}: "
                                     + message.format(ini=ini))
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == [ini]

    def test_config_value_is_taken_as_written(self, tmp_path):
        # no '%' interpolation: the output path is the one written
        ini = tmp_path / "run.ini"
        ini.write_text("[tierpricing]\nout = r%.csv\nn_flows = 30\nbundles = 1\n",
                       encoding="utf-8")
        res = run_python("-m", "tierpricing.cli", "capture", "--config", str(ini),
                         "--strategy", "cost-division", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "r%.csv", "r%.csv.meta.json", "run.ini"]

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

    @pytest.mark.parametrize("args, line, message", [
        (["--strategy", "nope"], "", "strategies: unknown value 'nope'"),
        (["--strategy", ","], "", "strategies must not be empty"),
        (["--bundles", ","], "", "bundle counts must be >= 1, got ()"),
        ([], "demand_model = x", "demand_model: unknown value 'x'"),
        ([], "cost-model = flat", "cost_kind: unknown value 'flat'"),
        ([], "strategy = optimal, best", "strategies: unknown value 'best'"),
    ])
    def test_the_config_checks_the_names(self, tmp_path, args, line, message):
        # the CLI passes names and lists on as given; the config refuses them
        ini = tmp_path / "run.ini"
        ini.write_text(f"[tierpricing]\nn_flows = 30\n{line}\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        res = run_cli("capture", "--config", str(ini), *args, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_names_from_a_config_file_run_as_flags(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[tierpricing]\ndemand_model = logit\ncost_model = regional\n"
                       "theta = 0.5\nstrategy = class-profit-weighted, optimal,"
                       "profit-weighted\nbundles = 1..4\nn_flows = 300\n",
                       encoding="utf-8")
        flags = ["--demand-model", "logit", "--cost-model", "regional", "--theta", "0.5",
                 "--strategy", "class-profit-weighted,optimal,profit-weighted",
                 "--bundles", "1..4", "--n-flows", "300"]
        for name, args in (("ini", ["--config", str(ini)]), ("flags", flags)):
            (tmp_path / name).mkdir()
            res = run_python("-m", "tierpricing.cli", "capture", *args, "--out", "out.csv",
                             cwd=tmp_path / name)
            assert res.returncode == 0, res.stderr
        for suffix in ("", ".meta.json"):
            assert (tmp_path / "ini" / f"out.csv{suffix}").read_bytes() == \
                (tmp_path / "flags" / f"out.csv{suffix}").read_bytes()

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
        strategy = [] if command == "sensitivity" else ["--strategy", "cost-division"]
        res = run_cli(command, "--n-flows", "30", "--bundles", "1,2",
                      *strategy, *args, "--out", str(out))
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

    def test_only_the_entry_point_freezes_the_heap(self, tmp_path, monkeypatch):
        # main() reading sys.argv freezes the import-time heap; main(argv)
        # leaves the collector as it was; both write the same bytes to the
        # same relative --out
        import gc

        from tierpricing.cli import main

        args = ["capture", "--synth-preset", "eu-isp", "--n-flows", "300",
                "--bundles", "1..4", "--out", "out.csv"]
        entry, called = tmp_path / "entry", tmp_path / "called"
        entry.mkdir()
        called.mkdir()
        res = run_python("-c", "import gc, sys; from tierpricing.cli import main; "
                         "code = main(); print(gc.get_freeze_count()); sys.exit(code)",
                         *args, cwd=entry)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) > 0
        monkeypatch.chdir(called)
        frozen = gc.get_freeze_count()
        assert main(args) == 0
        assert gc.get_freeze_count() == frozen
        for name in ("out.csv", "out.csv.meta.json"):
            assert (entry / name).read_bytes() == (called / name).read_bytes()

    def test_import_skips_process_pool_and_configparser(self):
        # both are imported only by the runs that use them
        res = run_python("-c", "import sys, tierpricing.cli; print(sorted(m for m in "
                         "('multiprocessing', 'concurrent.futures.process', "
                         "'configparser') if m in sys.modules))")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
