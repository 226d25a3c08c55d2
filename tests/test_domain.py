"""Domain type validation and invariants."""

import dataclasses

import numpy as np
import pytest

from tierpricing.bundling import ModelContext
from tierpricing.domain import (
    Bundling,
    ConfigError,
    DemandModel,
    DomainError,
    FlowTable,
)
from tierpricing.experiments import ExperimentConfig, validate_config


def _market(model, **kw):
    return ExperimentConfig(demand_model=model, **kw)


def _rejected(config, message):
    with pytest.raises(ConfigError) as info:
        validate_config(config)
    assert str(info.value) == message


class TestValidateParams:
    """The market-parameter checks of ``validate_config``."""

    def test_ced_reference_settings_ok(self):
        validate_config(_market(DemandModel.CED, alpha=1.1, p0=20.0))

    def test_ced_alpha_boundary_rejected(self):
        _rejected(_market(DemandModel.CED, alpha=1.0, p0=20.0),
                  "CED requires alpha > 1, got 1.0")

    def test_logit_reference_settings_ok(self):
        validate_config(_market(DemandModel.LOGIT, alpha=1.1, p0=20.0, s0=0.2))

    def test_logit_alpha_positive_required(self):
        _rejected(_market(DemandModel.LOGIT, alpha=0.0, p0=20.0, s0=0.2),
                  "logit requires alpha > 0, got 0.0")

    def test_logit_small_alpha_ok(self):
        # logit admits the 0 < alpha <= 1 range CED excludes
        validate_config(_market(DemandModel.LOGIT, alpha=0.5, p0=20.0, s0=0.2))

    @pytest.mark.parametrize("s0", [0.0, 1.0, -0.1, 1.5, None])
    def test_logit_share_domain(self, s0):
        _rejected(_market(DemandModel.LOGIT, alpha=1.1, p0=20.0, s0=s0),
                  f"logit requires s0 in (0,1), got {s0}")

    @pytest.mark.parametrize("p0", [0.0, -5.0])
    def test_price_positive_required(self, p0):
        _rejected(_market(DemandModel.CED, alpha=2.0, p0=p0),
                  f"p0 must be positive, got {p0}")


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

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(DomainError):
            Bundling([[0, 1]], num_bundles=2)

    def test_effective_bundles_is_python_int(self):
        assert type(Bundling([0, 2], num_bundles=4).effective_bundles) is int
