"""Domain type validation and invariants."""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing import cli
from tierpricing.bundling import ModelContext, Strategy, build_bundles, optimal_bundles
from tierpricing.cost_models import realize_costs, relative_costs
from tierpricing.demand_ced import ced_fit_gamma, ced_fit_valuations
from tierpricing.demand_logit import logit_fit_gamma, logit_fit_valuations, logit_solve_prices
from tierpricing.domain import (
    Bundling,
    CostKind,
    CostModelSpec,
    DemandModel,
    DomainError,
    FlowTable,
    NumericalFailure,
)
from tierpricing.experiments import ExperimentConfig, fit_context, load_flows, run_theta_sweep
from tierpricing.ingestion import preset_moments, read_flows_csv, synth_generate


def _market(model, **kw):
    return ExperimentConfig(demand_model=model, **kw)


def _rejected(message, make, *args, **kw):
    with pytest.raises(DomainError) as info:
        make(*args, **kw)
    assert str(info.value) == message


class TestValidateParams:
    """The market-parameter checks an ``ExperimentConfig`` makes of itself."""

    def test_ced_reference_settings_ok(self):
        _market(DemandModel.CED, alpha=1.1, p0=20.0)

    def test_ced_alpha_boundary_rejected(self):
        _rejected("CED requires alpha > 1, got 1.0",
                  _market, DemandModel.CED, alpha=1.0, p0=20.0)

    def test_logit_reference_settings_ok(self):
        _market(DemandModel.LOGIT, alpha=1.1, p0=20.0, s0=0.2)

    def test_logit_alpha_positive_required(self):
        _rejected("logit requires alpha > 0, got 0.0",
                  _market, DemandModel.LOGIT, alpha=0.0, p0=20.0, s0=0.2)

    def test_logit_small_alpha_ok(self):
        # logit admits the 0 < alpha <= 1 range CED excludes
        _market(DemandModel.LOGIT, alpha=0.5, p0=20.0, s0=0.2)

    @pytest.mark.parametrize("s0", [0.0, 1.0, -0.1, 1.5, None])
    def test_logit_share_domain(self, s0):
        _rejected(f"logit requires s0 in (0,1), got {s0}",
                  _market, DemandModel.LOGIT, alpha=1.1, p0=20.0, s0=s0)

    @pytest.mark.parametrize("p0", [0.0, -5.0])
    def test_price_positive_required(self, p0):
        _rejected(f"p0 must be positive, got {p0}",
                  _market, DemandModel.CED, alpha=2.0, p0=p0)

    def test_unit_price_offset_is_ced_only(self):
        # logit surplus has one convention; the switch would be ignored
        _market(DemandModel.CED, cs_unit_price_offset=True)
        _rejected("cs_unit_price_offset applies to the CED demand model only, got logit",
                  _market, DemandModel.LOGIT, cs_unit_price_offset=True)

    def test_split_is_dest_type_only(self):
        # split flows fitted under linear costs would double the flow set
        _rejected("split_dest_type applies to the dest-type cost model only, got linear",
                  ExperimentConfig, split_dest_type=True)

    def test_a_replaced_field_is_checked(self):
        logit = _market(DemandModel.LOGIT)
        _rejected("logit requires s0 in (0,1), got 1.5",
                  dataclasses.replace, logit, s0=1.5)


class TestEnumFields:
    """An ``ExperimentConfig`` takes its enum fields by value too, and
    checks and fits them as the enums."""

    def test_demand_model_by_value_fits_its_model(self):
        config = ExperimentConfig(demand_model="ced", n_flows=50)
        assert config.demand_model is DemandModel.CED
        assert fit_context(load_flows(config), config).model is DemandModel.CED

    def test_demand_model_by_value_is_checked(self):
        _rejected("CED requires alpha > 1, got 0.5",
                  ExperimentConfig, demand_model="ced", alpha=0.5)

    def test_cost_kind_by_value_fits_its_costs(self):
        # regional costs at theta 0.5 take one value per region
        by_value, by_enum = (
            ExperimentConfig(cost_kind=kind, theta=0.5, n_flows=200)
            for kind in ("regional", CostKind.REGIONAL))
        assert by_value.cost_kind is CostKind.REGIONAL
        costs = [fit_context(load_flows(config), config).c
                 for config in (by_value, by_enum)]
        assert len(np.unique(costs[0])) == 3
        assert np.array_equal(costs[0], costs[1])

    def test_strategies_by_value(self):
        from tierpricing.experiments import run_capture_curve

        config = ExperimentConfig(strategies=["optimal"], bundles=(1, 2), n_flows=50)
        assert config.strategies == (Strategy.OPTIMAL,)
        rows, _ = run_capture_curve(config)
        assert [row["strategy"] for row in rows] == ["optimal", "optimal"]

    @pytest.mark.parametrize("field, value", [
        ("demand_model", "cde"), ("cost_kind", "flat"), ("strategies", ("optimal", "best")),
    ])
    def test_unknown_value_named(self, field, value):
        shown = value[-1] if field == "strategies" else value
        _rejected(f"{field}: unknown value {shown!r}", ExperimentConfig, **{field: value})

    def test_empty_strategy_list_refused(self):
        # a run of no strategy would write no rows
        _rejected("strategies must not be empty", ExperimentConfig, strategies=())


class TestEnumNames:
    """A cost-model spec and a context take their enum by value too."""

    def test_spec_kind_by_value(self):
        assert CostModelSpec("dest-type", 0.5) == CostModelSpec(CostKind.DEST_TYPE, 0.5)
        assert CostModelSpec("regional").kind is CostKind.REGIONAL

    @pytest.mark.parametrize("kind, theta, message", [
        ("dest-type", 2.0, "destination-type theta is a traffic fraction in [0,1], "
                           "got 2.0"),
        ("flat", 0.2, "kind: unknown value 'flat'"),
    ] + [(kind.value, theta, f"theta must be finite, got {theta}")
         for kind in CostKind for theta in (float("nan"), float("inf"))])
    def test_spec_refuses_by_value(self, kind, theta, message):
        with pytest.raises(DomainError) as info:
            CostModelSpec(kind, theta)
        assert str(info.value) == message

    @pytest.mark.parametrize("model", list(DemandModel))
    def test_context_model_by_value(self, model):
        config = ExperimentConfig(demand_model=model, n_flows=50)
        fitted = fit_context(load_flows(config), config)
        by_value, by_member = (
            ModelContext(fitted.ids, fitted.q, fitted.d, fitted.v, fitted.c, None, m,
                         fitted.alpha, fitted.p0, fitted.s0, fitted.consumer_mass,
                         fitted.gamma)
            for m in (model.value, model))
        assert by_value.model is model
        for name in ("pi_orig", "pi_max", "cs_orig", "cs_max"):
            assert getattr(by_value, name) == getattr(by_member, name), name

    def test_context_refuses_an_unknown_model(self):
        config = ExperimentConfig(n_flows=20)
        fitted = fit_context(load_flows(config), config)
        with pytest.raises(DomainError, match="model: unknown value 'probit'"):
            ModelContext(fitted.ids, fitted.q, fitted.d, fitted.v, fitted.c, None,
                         "probit", fitted.alpha, fitted.p0)


NAN, INF = float("nan"), float("inf")


def _market_context(model, **change):
    """A three-flow context of ``model``, valid unless ``change`` says
    otherwise."""
    fields = dict(v=[25.0, 26.0, 27.0], c=[5.0, 6.0, 7.0], alpha=1.5, p0=20.0)
    if model is DemandModel.LOGIT:
        fields.update(s0=0.2, consumer_mass=10.0)
    fields.update(change)
    v, c = fields.pop("v"), fields.pop("c")
    return ModelContext(["a", "b", "c"], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], v, c, None,
                        model, **fields)


class TestMarketDomain:
    """A context, built directly or fitted, refuses a market outside its
    model's domain with the config's text."""

    @pytest.mark.parametrize("model, change, message", [
        (DemandModel.LOGIT, dict(alpha=-1.0), "logit requires alpha > 0, got -1.0"),
        (DemandModel.LOGIT, dict(p0=-5.0), "p0 must be positive, got -5.0"),
        (DemandModel.LOGIT, dict(s0=5.0), "logit requires s0 in (0,1), got 5.0"),
        (DemandModel.LOGIT, dict(s0=None), "logit requires s0 in (0,1), got None"),
        (DemandModel.LOGIT, dict(consumer_mass=-1.0),
         "logit requires consumer_mass > 0, got -1.0"),
        (DemandModel.LOGIT, dict(consumer_mass=INF),
         "logit requires consumer_mass > 0, got inf"),
        (DemandModel.LOGIT, dict(consumer_mass=None),
         "logit requires consumer_mass > 0, got None"),
        (DemandModel.LOGIT, dict(v=[25.0, INF, 27.0]), "flow b: fitted valuation must be finite"),
        (DemandModel.LOGIT, dict(c=[5.0, 6.0, INF]),
         "flow c: fitted cost must be finite and > 0"),
        (DemandModel.CED, dict(alpha=0.5), "CED requires alpha > 1, got 0.5"),
        (DemandModel.CED, dict(alpha=NAN), "alpha must be finite, got nan"),
        (DemandModel.CED, dict(alpha=1.0), "CED requires alpha > 1, got 1.0"),
        (DemandModel.CED, dict(p0=NAN), "p0 must be finite, got nan"),
        (DemandModel.CED, dict(v=[NAN, 26.0, 27.0]), "flow a: fitted valuation must be finite"),
        (DemandModel.CED, dict(c=[INF, 6.0, 7.0]), "flow a: fitted cost must be finite and > 0"),
    ])
    def test_context_refuses(self, model, change, message):
        with pytest.raises(DomainError) as info:
            _market_context(model, **change)
        assert str(info.value) == message

    @pytest.mark.parametrize("p0", [NAN, INF])
    @pytest.mark.parametrize("model", list(DemandModel))
    def test_fit_refuses_a_non_finite_p0_first(self, model, p0):
        # before any arithmetic: no warning, no numerical failure
        args = (["a", "b"], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], p0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                if model is DemandModel.CED:
                    ModelContext.from_ced(*args)
                else:
                    ModelContext.from_logit(*args, 0.2)
        assert str(info.value) == f"p0 must be finite, got {p0}"


def _table(demand=(1.0, 2.0, 3.0), distance=(10.0, 20.0, 30.0), **kw):
    return FlowTable(["f", "g", "h"][:len(demand)], list(demand), list(distance), **kw)


class TestFlowRecord:
    """Per-flow checks of a FlowTable; errors name the first bad flow."""

    def test_rejects_negative_demand(self):
        with pytest.raises(DomainError, match="flow g: negative demand"):
            _table(demand=(1.0, -1.0, -2.0))

    def test_rejects_negative_distance(self):
        with pytest.raises(DomainError, match="flow h: negative distance"):
            _table(distance=(10.0, 20.0, -10.0))

    def test_rejects_unknown_labels(self):
        with pytest.raises(DomainError, match="flow g: unknown region 'continental'"):
            _table(region=[None, "continental", "metro"])
        with pytest.raises(DomainError, match="flow f: unknown dest_type 'transit'"):
            _table(dest_type=["transit", "peer", None])

    def test_immutable(self):
        flows = _table()
        with pytest.raises(dataclasses.FrozenInstanceError):
            flows.demand = np.ones(3)
        for column in (flows.ids, flows.demand, flows.distance):
            with pytest.raises(ValueError):
                column[0] = column[1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DomainError, match="flow g: non-finite demand"):
            _table(demand=(1.0, bad, 2.0))
        with pytest.raises(DomainError, match="flow f: non-finite distance"):
            _table(distance=(bad, 1.0, bad))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            FlowTable(["f", "g"], [1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            _table(region=["metro"])

    @pytest.mark.parametrize("protocol", [4, pickle.HIGHEST_PROTOCOL])
    def test_unpickled_copy_is_read_only(self, protocol):
        # pickle restores arrays writable; a worker's copy of the table
        # keeps the read-only promise
        flows = pickle.loads(pickle.dumps(_table(region=["metro", None, "national"]),
                                          protocol))
        assert flows.ids.tolist() == ["f", "g", "h"]
        for column in (flows.ids, flows.demand, flows.distance, flows.region):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_columns_are_copies_and_unlabeled_columns_are_none(self):
        demand = np.array([1.0, 2.0, 3.0])
        flows = _table(demand=demand, region=[None, None, None],
                       dest_type=[None, "peer", None])
        demand[0] = 9.0
        assert flows.demand.tolist() == [1.0, 2.0, 3.0]
        assert flows.ids.dtype.kind == "U"
        assert flows.region is None
        assert flows.dest_type.tolist() == [None, "peer", None]
        assert len(flows) == 3


def _context(ids, q, d, v, c, class_labels):
    """A CED market with the given columns."""
    return ModelContext(ids, q, d, v, c, class_labels, DemandModel.CED, 1.5, 20.0)


class TestModelContextColumns:
    """The per-flow columns of a fitted market."""

    def test_read_only_columns_are_shared(self):
        flows = _table()
        fitted = _context(flows.ids, flows.demand, flows.distance,
                          np.ones(3), np.ones(3), None)
        assert fitted.ids is flows.ids
        assert fitted.q is flows.demand
        assert not fitted.v.flags.writeable
        assert len(fitted) == 3

    @pytest.mark.parametrize("model", list(DemandModel))
    def test_fitted_columns_are_the_flow_tables(self, model):
        # synth hands its columns over read-only, so the table and every
        # context fitted on it hold one array of each
        flows = synth_generate(preset_moments("eu-isp", n_flows=500, seed=3))
        fitted = fit_context(flows, _market(model, n_flows=500))
        assert fitted.ids is flows.ids
        assert fitted.q is flows.demand
        assert fitted.d is flows.distance
        assert not (fitted.v.flags.writeable or fitted.c.flags.writeable)

    def test_rejects_nonpositive_demand_and_cost(self):
        ones = np.ones(3)
        with pytest.raises(DomainError, match="flow g: fitted demand"):
            _context(["f", "g", "h"], [1.0, 0.0, 1.0], ones, ones, ones, None)
        with pytest.raises(DomainError, match="flow h: fitted cost"):
            _context(["f", "g", "h"], ones, ones, ones, [1.0, 1.0, float("nan")], None)

    def test_rejects_misaligned_arrays(self):
        ones = np.ones(3)
        with pytest.raises(DomainError, match="^3 fitted q values for 2 flows$"):
            _context(["f", "g"], ones, ones, ones, ones, None)
        with pytest.raises(DomainError, match="^1 class labels for 3 flows$"):
            _context(["f", "g", "h"], ones, ones, ones, ones, ["metro"])


class TestBundling:
    def test_assignment_indices_bounded(self):
        with pytest.raises(DomainError):
            Bundling([2], num_bundles=2)
        with pytest.raises(DomainError):
            Bundling([-1], num_bundles=2)

    def test_effective_bundles_counts_nonempty(self):
        b = Bundling([0, 0, 3], num_bundles=5)
        assert b.effective_bundles == 2

    def test_empty_bundles_permitted(self):
        b = Bundling([1], num_bundles=3)
        assert b.num_bundles == 3
        assert b.effective_bundles == 1

    def test_labels_stored_read_only_copy(self):
        source = np.array([0, 1, 1])
        b = Bundling(source, num_bundles=2)
        assert b.labels.dtype == np.intp
        with pytest.raises(ValueError):
            b.labels[0] = 1
        source[0] = 1
        assert b.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("protocol", [4, pickle.HIGHEST_PROTOCOL])
    @pytest.mark.parametrize("derived", [False, True])
    def test_unpickled_copy_is_read_only(self, protocol, derived):
        b = Bundling([2, 0, 2, 1], num_bundles=4)
        if derived:
            b.labels
        copy = pickle.loads(pickle.dumps(b, protocol))
        assert copy.members.tolist() == [1, 3, 0, 2] and copy.sizes.tolist() == [1, 1, 2, 0]
        assert copy.labels.tolist() == [2, 0, 2, 1]
        for array in (copy.members, copy.sizes, copy.labels):
            assert not array.flags.writeable

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(DomainError):
            Bundling([[0, 1]], num_bundles=2)

    def test_effective_bundles_is_python_int(self):
        assert type(Bundling([0, 2], num_bundles=4).effective_bundles) is int

    # past 256 bundles the labels are sorted as intp, not as uint8 keys
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda num_bundles: st.tuples(
        st.just(num_bundles),
        st.lists(st.integers(0, num_bundles - 1), max_size=400))))
    def test_grouping_is_the_stable_argsort_and_the_counts(self, case):
        num_bundles, labels = case
        b = Bundling(labels, num_bundles)
        keys = np.array(labels, dtype=np.intp)
        assert b.members.dtype == np.intp
        assert np.array_equal(b.members, np.argsort(keys, kind="stable"))
        assert np.array_equal(b.sizes, np.bincount(keys, minlength=num_bundles))
        assert not b.members.flags.writeable and not b.sizes.flags.writeable
        assert np.array_equal(b.labels, keys)
        assert b.effective_bundles == len(set(labels))


def _load_header_only(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text("flow_id,demand_mbps,distance_miles\n", encoding="utf-8")
    load_flows(ExperimentConfig(input_csv=str(path)))


def _read_ini_without_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[other]\nout = r.csv\n", encoding="utf-8")
    argv = ["capture", "--config", str(path)]
    parser = cli.build_parser()
    cli._apply_config_file(argv, parser.parse_args(argv), parser)


def _read_csv(text):
    def read(tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(text, encoding="utf-8")
        read_flows_csv(path)
    return read


def _bundle_unlabeled_classes(tmp_path):
    config = ExperimentConfig(n_flows=20)
    ctx = fit_context(load_flows(config), config)
    build_bundles(Strategy.CLASS_PROFIT_WEIGHTED, ctx, 2)


class TestOneRefusalType:
    """Every refusal of a setting, argument or input is a DomainError
    itself, not a subclass, with the message it has always had."""

    @pytest.mark.parametrize("fail, message", [
        (lambda tmp_path: ExperimentConfig(workers=0), "workers must be >= 1"),
        (lambda tmp_path: ExperimentConfig(alpha=0.5), "CED requires alpha > 1, got 0.5"),
        (_load_header_only, "flow set is empty after ingestion"),
        (lambda tmp_path: run_theta_sweep(ExperimentConfig(theta_grid=())),
         "theta grid must be nonempty"),
        (_read_ini_without_section, "{tmp_path}/run.ini has no [tierpricing] section"),
        (_read_csv("flow_id,demand_mbps,distance_miles\na,5,10\nb,oops,10\n"),
         "line 3: bad demand_mbps value 'oops'"),
        (_read_csv("flow_id,demand_mbps\na,5\n"),
         "missing column 'distance_miles' in {tmp_path}/flows.csv"),
        (_bundle_unlabeled_classes, "class-constrained bundling requires class labels"),
    ], ids=["config", "config-shared-check", "load_flows", "run", "ini", "csv-row",
            "csv-column", "class-labels"])
    def test_refusal_is_a_domain_error(self, tmp_path, fail, message):
        with pytest.raises(DomainError) as info:
            fail(tmp_path)
        assert type(info.value) is DomainError
        assert str(info.value) == message.format(tmp_path=tmp_path)

    @pytest.mark.parametrize("field, value, check", [
        ("alpha", 0.5, "_check_market"),
        ("p0", NAN, "_check_market"),
        ("theta", -1.0, "CostModelSpec.__post_init__"),
        ("cost_kind", "flat", "_member"),
    ])
    def test_config_passes_a_shared_check_on_as_raised(self, field, value, check):
        # raised by the check the config shares, and caught by nothing
        # on its way out of the config
        with pytest.raises(DomainError) as info:
            ExperimentConfig(**{field: value})
        assert info.value.__cause__ is None
        assert info.traceback[-1].frame.code.raw.co_qualname == check


def _ced_gamma(q, f_d, p0, alpha):
    ced_fit_gamma(ced_fit_valuations(q, p0, alpha), np.array(f_d), p0, alpha)


def _logit_gamma(q, f_d, p0, alpha, s0=0.2):
    logit_fit_gamma(logit_fit_valuations(q, p0, alpha, s0), np.array(f_d), p0, alpha)


def _plant_in_the_dp():
    # a non-finite score, planted in a layer the next depth pass reads
    ctx = ModelContext.from_ced([f"f{i}" for i in range(60)], np.arange(1.0, 61.0),
                                np.ones(60), np.arange(1.0, 61.0), 20.0, 1.5)
    optimal_bundles(ctx, 2)
    ctx._optimum.value[30] = np.nan
    optimal_bundles(ctx, 3)


def _sweep_equal_costs():
    # regional costs at theta 0 are all equal: no capture is defined
    run_theta_sweep(ExperimentConfig(n_flows=20, cost_kind="regional", theta_grid=(0.0,)))


def _regional_baseline():
    config = ExperimentConfig(n_flows=20, cost_kind="regional", theta=0.0)
    return fit_context(load_flows(config), config).pi_max


class TestOneFailureType:
    """Every numerical failure but a stalled procedure is a
    NumericalFailure itself, not a subclass, with the message it has
    always had, and raises before any warning."""

    @pytest.mark.parametrize("fail, message", [
        (lambda: relative_costs(CostModelSpec(CostKind.REGIONAL, 700.0),
                                _table(distance=(5.0, 50.0, 500.0))),
         "regional relative costs overflow float64 at theta=700.0"),
        (lambda: relative_costs(CostModelSpec(CostKind.LINEAR, 0.0),
                                _table(distance=(0.0, 0.0, 0.0))),
         "linear cost model produced no positive cost"),
        (lambda: realize_costs([1.0, 2.0], 0.0), "realized costs are not positive"),
        (lambda: _ced_gamma([3.0, 7.0], [1.0, 1.0], 20.0, 240.0),
         "v**alpha overflows float64 at alpha=240.0"),
        (lambda: _ced_gamma([3.0, 7.0], [1e308, 5.0], 20.0, 1.1),
         "relative cost times v**alpha overflows float64 (largest relative cost 1e+308)"),
        (lambda: _ced_gamma([3.0, 7.0], [1e250, 1e250], 1e-100, 1.1),
         "fitted gamma = 0.0"),
        (lambda: _ced_gamma([3.0, 7.0], [1.0, 2.0], 1e-300, 1.1),
         "p0*(alpha-1)*sum(v**alpha) underflows float64 to 0 at p0=1e-300, alpha=1.1"),
        (lambda: _ced_gamma([3.0, 7.0], [1.0, 2.0], 1e-200, 1.1),
         "p0*(alpha-1)*sum(v**alpha) underflows float64 to 0 at p0=1e-200, alpha=1.1"),
        (lambda: _ced_gamma([3.0, 7.0], [1e-300, 1e-300], 1e-100, 1.1),
         "alpha*sum(relative cost times v**alpha) underflows float64 to 0 at p0=1e-100, "
         "alpha=1.1"),
        (lambda: _ced_gamma([5.0, 7.0], [1e-310, 2e-310], 20.0, 1.1),
         "fitted gamma overflows float64 (largest relative cost 2e-310)"),
        (lambda: logit_solve_prices([750.0, 1.0], [1.0, 2.0], 1.0),
         "max exponent alpha*(v-p) = 748 exceeds safe range"),
        (lambda: logit_fit_valuations([1e308, 1e308, 5.0], 20.0, 1.1, 0.2),
         "the demand total overflows float64: no share is defined"),
        (lambda: logit_fit_valuations([5.0, 1e-300, 1e30], 20.0, 1.1, 0.2),
         "flow 1: market share of demand 1e-300 in total 1e+30 underflows float64, so its "
         "valuation ln(share) is undefined"),
        (lambda: _logit_gamma([1.0, 1.0, 1.0], [1e308, 1e308, 5.0], 20.0, 1.1),
         "relative cost times exp(alpha*(v - p0)) overflows float64 (largest relative cost "
         "1e+308)"),
        (lambda: _logit_gamma([5.0, 3.0], [1.0, 2.0], 1.0, 1.0),
         "fitted gamma = -2.91: p0 = 1.0 cannot be the rational uniform price at alpha = 1.0 "
         "with these shares"),
        (lambda: _logit_gamma([5.0, 7.0], [1e-310, 2e-310], 20.0, 1.1),
         "fitted gamma overflows float64 (largest relative cost 2e-310)"),
        (_plant_in_the_dp, "optimal search: bundle scores overflow float64 at alpha=1.5"),
        (_sweep_equal_costs, "per-flow and blended profit coincide ({baseline!r}); "
                             "capture undefined"),
        (lambda: synth_generate(preset_moments("eu-isp", n_flows=4, seed=16)),
         "cv_demand = 1.71 over 4 flows needs a draw whose smallest flows underflow to 0"),
    ], ids=["relative-costs-overflow", "relative-costs-not-positive", "realized-costs",
            "ced-v-alpha", "ced-relative-costs", "ced-gamma", "ced-v-alpha-underflow",
            "ced-top-underflow", "ced-bottom-underflow", "ced-gamma-overflow",
            "logit-exponent", "logit-demand-total", "logit-share", "logit-relative-costs",
            "logit-gamma", "logit-gamma-overflow", "optimal-search", "require-captures",
            "synth-underflow"])
    def test_failure_is_a_numerical_failure(self, fail, message):
        if "{baseline" in message:
            message = message.format(baseline=_regional_baseline())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure) as info:
                fail()
        assert type(info.value) is NumericalFailure
        assert str(info.value) == message

    @pytest.mark.parametrize("model", list(DemandModel))
    def test_an_empty_market_is_refused(self, model):
        # before any baseline is priced (both were 0.0, and logit logged
        # a degenerate surplus baseline)
        fields = dict(s0=0.2, consumer_mass=10.0) if model is DemandModel.LOGIT else {}
        with pytest.raises(DomainError) as info:
            ModelContext([], [], [], [], [], None, model, 1.5, 20.0, **fields)
        assert str(info.value) == "a market needs at least one flow"
