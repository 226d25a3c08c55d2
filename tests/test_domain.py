"""Domain type validation and invariants."""

import dataclasses

import numpy as np
import pytest

from tierpricing.domain import (
    Bundling,
    DemandModel,
    DomainError,
    FlowRecord,
    InvalidAlpha,
    InvalidPrice,
    InvalidShare,
    MarketParams,
    validate_params,
)


class TestValidateParams:
    def test_ced_reference_settings_ok(self):
        validate_params(MarketParams(DemandModel.CED, alpha=1.1, p0=20.0))

    def test_ced_alpha_boundary_rejected(self):
        with pytest.raises(InvalidAlpha):
            validate_params(MarketParams(DemandModel.CED, alpha=1.0, p0=20.0))

    def test_logit_reference_settings_ok(self):
        validate_params(MarketParams(DemandModel.LOGIT, alpha=1.1, p0=20.0, s0=0.2))

    def test_logit_alpha_positive_required(self):
        with pytest.raises(InvalidAlpha):
            validate_params(MarketParams(DemandModel.LOGIT, alpha=0.0, p0=20.0, s0=0.2))

    def test_logit_small_alpha_ok(self):
        # logit admits the 0 < alpha <= 1 range CED excludes
        validate_params(MarketParams(DemandModel.LOGIT, alpha=0.5, p0=20.0, s0=0.2))

    @pytest.mark.parametrize("s0", [0.0, 1.0, -0.1, 1.5, None])
    def test_logit_share_domain(self, s0):
        with pytest.raises(InvalidShare):
            validate_params(MarketParams(DemandModel.LOGIT, alpha=1.1, p0=20.0, s0=s0))

    @pytest.mark.parametrize("p0", [0.0, -5.0])
    def test_price_positive_required(self, p0):
        with pytest.raises(InvalidPrice):
            validate_params(MarketParams(DemandModel.CED, alpha=2.0, p0=p0))


class TestFlowRecord:
    def test_rejects_negative_demand(self):
        with pytest.raises(DomainError):
            FlowRecord("f", -1.0, 10.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(DomainError):
            FlowRecord("f", 1.0, -10.0)

    def test_rejects_unknown_labels(self):
        with pytest.raises(DomainError):
            FlowRecord("f", 1.0, 10.0, region="continental")
        with pytest.raises(DomainError):
            FlowRecord("f", 1.0, 10.0, dest_type="transit")

    def test_immutable(self):
        flow = FlowRecord("f", 1.0, 10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            flow.demand_mbps = 2.0


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
