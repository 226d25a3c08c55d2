"""Domain type validation and invariants."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing.bundling import ModelContext, Strategy
from tierpricing.domain import (
    Bundling,
    ConfigError,
    CostKind,
    DemandModel,
    DomainError,
    FlowTable,
)
from tierpricing.experiments import ExperimentConfig, fit_context, load_flows


def _market(model, **kw):
    return ExperimentConfig(demand_model=model, **kw)


def _rejected(message, make, *args, **kw):
    with pytest.raises(ConfigError) as info:
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
