"""Cost model behavior: worked values, monotonicity, class handling, and
the vectorised cost layer against a per-flow reference."""

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing.cost_models import (
    CONCAVE_A,
    CONCAVE_B,
    CONCAVE_C,
    CONCAVE_EPS,
    COST_FLOOR_REL,
    METRO_MAX_MILES,
    NATIONAL_MAX_MILES,
    base_cost,
    class_labels,
    classify_regions,
    realize_costs,
    relative_costs,
    split_by_dest_type,
)
from tierpricing.domain import (
    DEST_TYPES,
    REGIONS,
    CostKind,
    CostModelSpec,
    FlowTable,
    NonPositiveCost,
    OverflowGuard,
)


class Flow(NamedTuple):
    """One flow, as the per-flow reference code sees it."""

    flow_id: str
    demand_mbps: float
    distance_miles: float
    region: Optional[str] = None
    dest_type: Optional[str] = None


def table(flows: Sequence[Flow]) -> FlowTable:
    return FlowTable(
        ids=[f.flow_id for f in flows],
        demand=[f.demand_mbps for f in flows],
        distance=[f.distance_miles for f in flows],
        region=[f.region for f in flows],
        dest_type=[f.dest_type for f in flows],
    )


def rows(flows: FlowTable) -> list[Flow]:
    n = len(flows)
    region = [None] * n if flows.region is None else flows.region.tolist()
    dest_type = [None] * n if flows.dest_type is None else flows.dest_type.tolist()
    return [Flow(*row) for row in zip(flows.ids.tolist(), flows.demand.tolist(),
                                      flows.distance.tolist(), region, dest_type)]


def _flows(distances, **kw) -> FlowTable:
    return table([Flow(f"f{i}", 1.0, float(d), **kw) for i, d in enumerate(distances)])


# ---------------------------------------------------------------------------
# Per-flow reference: the scalar cost code the array layer replaced. The
# properties at the end require the arrays to match it bit for bit.
# ---------------------------------------------------------------------------


def reference_classify_region(flow: Flow) -> str:
    if flow.region is not None:
        return flow.region
    if flow.distance_miles < METRO_MAX_MILES:
        return "metro"
    if flow.distance_miles < NATIONAL_MAX_MILES:
        return "national"
    return "international"


def reference_dest_type_multiplier(flow: Flow, theta: float) -> float:
    if flow.dest_type == "customer":
        return 1.0
    if flow.dest_type == "peer":
        return 2.0
    return theta * 1.0 + (1.0 - theta) * 2.0


def _reference_concave_pre_base(d: float, d_max: float) -> float:
    if d_max <= 0:
        return CONCAVE_C
    norm = d / d_max
    if norm <= 0:
        return CONCAVE_EPS
    raw = CONCAVE_A * math.log(norm, CONCAVE_B) + CONCAVE_C
    return max(CONCAVE_EPS, raw)


def reference_relative_cost(spec: CostModelSpec, flow: Flow, d_max: float) -> float:
    d = flow.distance_miles
    if spec.kind is CostKind.LINEAR:
        return d + spec.theta * d_max
    if spec.kind is CostKind.CONCAVE:
        base_ref = max(CONCAVE_EPS, CONCAVE_C)
        return _reference_concave_pre_base(d, d_max) + spec.theta * base_ref
    if spec.kind is CostKind.REGIONAL:
        return {"metro": 1.0, "national": 2.0 ** spec.theta,
                "international": 3.0 ** spec.theta}[reference_classify_region(flow)]
    return d * reference_dest_type_multiplier(flow, spec.theta)


def reference_relative_costs(spec: CostModelSpec, flows: Sequence[Flow]) -> np.ndarray:
    d_max = max(f.distance_miles for f in flows)
    rel = np.array([reference_relative_cost(spec, f, d_max) for f in flows])
    top = rel.max()
    if not top > 0:
        raise NonPositiveCost("no positive cost")
    return np.maximum(rel, COST_FLOOR_REL * top)


def reference_split_by_dest_type(flows: Sequence[Flow], theta: float) -> list[Flow]:
    out = []
    for f in flows:
        if f.dest_type is not None:
            out.append(f)
            continue
        if theta > 0.0:
            out.append(Flow(f.flow_id + "/cust", theta * f.demand_mbps,
                            f.distance_miles, f.region, "customer"))
        if theta < 1.0:
            out.append(Flow(f.flow_id + "/peer", (1.0 - theta) * f.demand_mbps,
                            f.distance_miles, f.region, "peer"))
    return out


# ---------------------------------------------------------------------------
# Worked values
# ---------------------------------------------------------------------------


class TestLinear:
    def test_worked_example(self):
        # distances 1/10/100 with theta=0.1: base 10, costs 11/20/110
        spec = CostModelSpec(CostKind.LINEAR, theta=0.1)
        rel = relative_costs(spec, _flows([1.0, 10.0, 100.0]))
        np.testing.assert_allclose(realize_costs(rel, gamma=1.0), [11.0, 20.0, 110.0])

    def test_zero_theta_drops_base(self):
        spec = CostModelSpec(CostKind.LINEAR, theta=0.0)
        rel = relative_costs(spec, _flows([2.0, 5.0]))
        np.testing.assert_allclose(rel, [2.0, 5.0])

    def test_monotone_in_distance(self):
        spec = CostModelSpec(CostKind.LINEAR, theta=0.3)
        rel = relative_costs(spec, _flows(np.linspace(0.1, 800, 50)))
        assert np.all(np.diff(rel) >= 0)


class TestConcave:
    def test_unit_cost_at_max_distance(self):
        spec = CostModelSpec(CostKind.CONCAVE, theta=0.0)
        rel = relative_costs(spec, _flows([500.0]))
        assert rel[0] == pytest.approx(1.0)

    def test_clamped_at_tiny_distance(self):
        spec = CostModelSpec(CostKind.CONCAVE, theta=0.0)
        rel = relative_costs(spec, _flows([1e-12, 500.0]))
        assert rel[0] == CONCAVE_EPS

    def test_monotone_in_distance(self):
        spec = CostModelSpec(CostKind.CONCAVE, theta=0.2)
        rel = relative_costs(spec, _flows(np.linspace(0.5, 600, 40)))
        assert np.all(np.diff(rel) >= 0)

    def test_cv_below_linear_without_base(self):
        # log compression shrinks relative spread; with a base term the
        # comparison flips because the linear base theta*d_max dwarfs the
        # concave base theta*1, so only the theta=0 shapes are comparable
        rng = np.random.default_rng(11)
        cv = lambda x: x.std() / x.mean()
        for sigma in (0.4, 0.8, 1.3):
            flows = _flows(rng.lognormal(3.0, sigma, size=300))
            lin = relative_costs(CostModelSpec(CostKind.LINEAR, theta=0.0), flows)
            con = relative_costs(CostModelSpec(CostKind.CONCAVE, theta=0.0), flows)
            assert cv(con) < cv(lin)


class TestRegional:
    def test_zero_theta_uniform(self):
        spec = CostModelSpec(CostKind.REGIONAL, theta=0.0)
        rel = relative_costs(spec, _flows([5.0, 50.0, 5000.0]))
        np.testing.assert_allclose(rel, 1.0)

    def test_linear_theta_multipliers(self):
        # theta=1 gives 1/2/3, scaled by gamma=2 to 2/4/6
        spec = CostModelSpec(CostKind.REGIONAL, theta=1.0)
        rel = relative_costs(spec, _flows([5.0, 50.0, 5000.0]))
        np.testing.assert_allclose(realize_costs(rel, gamma=2.0), [2.0, 4.0, 6.0])

    def test_classification_thresholds(self):
        regions = classify_regions(_flows([5.0, 50.0, 500.0]))
        assert regions.tolist() == ["metro", "national", "international"]

    def test_explicit_label_wins(self):
        flows = table([Flow("f", 1.0, 5.0, region="international")])
        assert classify_regions(flows).tolist() == ["international"]


class TestDestType:
    def test_peer_twice_customer(self):
        spec = CostModelSpec(CostKind.DEST_TYPE, theta=0.5)
        rel = relative_costs(spec, table([
            Flow("a", 1.0, 40.0, dest_type="customer"),
            Flow("b", 1.0, 40.0, dest_type="peer"),
        ]))
        assert rel[1] == 2 * rel[0]

    def test_unlabeled_mixture(self):
        for theta, mixture in ((0.3, 1.7), (1.0, 1.0)):
            spec = CostModelSpec(CostKind.DEST_TYPE, theta=theta)
            assert relative_costs(spec, _flows([1.0]))[0] == pytest.approx(mixture)

    def test_distance_still_scales_cost(self):
        spec = CostModelSpec(CostKind.DEST_TYPE, theta=0.5)
        rel = relative_costs(spec, table([
            Flow("a", 1.0, 10.0, dest_type="peer"),
            Flow("b", 1.0, 100.0, dest_type="peer"),
        ]))
        assert rel[1] == 10 * rel[0]

    def test_split_preserves_demand(self):
        flows = table([Flow("f", 100.0, 10.0), Flow("g", 50.0, 20.0, dest_type="peer")])
        split = split_by_dest_type(flows, theta=0.3)
        assert split.demand.sum() == pytest.approx(150.0)
        assert set(split.dest_type.tolist()) == {"customer", "peer"}
        # labeled flows pass through untouched
        assert Flow("g", 50.0, 20.0, dest_type="peer") in rows(split)


class TestRealizeAndFloor:
    def test_identity_scaling(self):
        np.testing.assert_allclose(realize_costs([11.0, 20.0, 110.0], 1.0),
                                   [11.0, 20.0, 110.0])

    def test_direct_multiplication(self):
        np.testing.assert_allclose(realize_costs([1.0, 2.0], 3.0), [3.0, 6.0])

    def test_floor_rescues_zero_distance(self):
        spec = CostModelSpec(CostKind.LINEAR, theta=0.0)
        rel = relative_costs(spec, _flows([0.0, 100.0]))
        assert rel[0] == pytest.approx(1e-6 * 100.0)
        assert np.all(rel > 0)

    def test_all_zero_costs_rejected(self):
        spec = CostModelSpec(CostKind.LINEAR, theta=0.0)
        with pytest.raises(NonPositiveCost):
            relative_costs(spec, _flows([0.0, 0.0]))


class TestOverflow:
    """A relative cost past float64 is refused by kind and theta, without
    a warning."""

    @pytest.mark.parametrize("kind, theta, distances", [
        (CostKind.LINEAR, 1e306, [1.0, 1000.0]),      # theta * d_max
        (CostKind.LINEAR, 1.0, [1e308, 1.7e308]),     # d + theta * d_max
        (CostKind.REGIONAL, 700.0, [5.0, 50.0, 500.0]),   # 3**theta
        (CostKind.REGIONAL, 1100.0, [5.0, 50.0]),     # 2**theta
        (CostKind.DEST_TYPE, 0.5, [1e308, 5.0]),      # d * 2 (unlabeled mixture 1.5)
    ])
    def test_non_finite_cost_is_refused(self, kind, theta, distances):
        spec = CostModelSpec(kind, theta=theta)
        with pytest.raises(OverflowGuard) as info:
            relative_costs(spec, _flows(distances, dest_type="peer"))
        assert str(info.value) == \
            f"{kind.value} relative costs overflow float64 at theta={theta}"

    def test_concave_cost_stays_finite_at_the_largest_theta(self):
        spec = CostModelSpec(CostKind.CONCAVE, theta=float(np.finfo(float).max))
        assert np.all(np.isfinite(relative_costs(spec, _flows([1.0, 50.0]))))

    def test_regional_power_unused_by_any_flow_may_overflow(self):
        spec = CostModelSpec(CostKind.REGIONAL, theta=700.0)
        assert relative_costs(spec, _flows([1.0, 50.0])).tolist() == \
            [COST_FLOOR_REL * 2.0 ** 700.0, 2.0 ** 700.0]


class TestBaseCost:
    """The base cost beta under a fitted gamma."""

    def test_linear_beta_from_max_distance(self):
        spec = CostModelSpec(CostKind.LINEAR, theta=0.1)
        beta = base_cost(spec, _flows([1.0, 10.0, 100.0]), gamma=1.0)
        assert beta == pytest.approx(10.0)
        assert type(beta) is float

    def test_concave_model_beta_anchored_at_unit_shape(self):
        spec = CostModelSpec(CostKind.CONCAVE, theta=0.4)
        beta = base_cost(spec, _flows([1.0, 50.0]), gamma=2.5)
        assert beta == pytest.approx(0.4 * 2.5 * 1.0)

    def test_label_models_have_no_base(self):
        for kind in (CostKind.REGIONAL, CostKind.DEST_TYPE):
            spec = CostModelSpec(kind, theta=0.5)
            assert base_cost(spec, _flows([1.0, 50.0]), gamma=3.0) == 0.0


class TestClassLabels:
    def test_regional_labels(self):
        spec = CostModelSpec(CostKind.REGIONAL, theta=1.0)
        labels = class_labels(spec, _flows([5.0, 50.0, 500.0]))
        assert labels.tolist() == ["metro", "national", "international"]

    def test_dest_type_labels_may_be_missing(self):
        spec = CostModelSpec(CostKind.DEST_TYPE, theta=0.5)
        flows = table([Flow("a", 1.0, 1.0, dest_type="peer"), Flow("b", 1.0, 1.0)])
        assert class_labels(spec, flows).tolist() == ["peer", None]

    def test_distance_models_unlabeled(self):
        # None: no flow has a class
        spec = CostModelSpec(CostKind.LINEAR, theta=0.5)
        assert class_labels(spec, _flows([1.0, 2.0])) is None


@pytest.mark.parametrize("kind", list(CostKind))
def test_kind_by_name_acts_as_its_member(kind):
    # the functions compare kinds by identity: a name kept as given fell
    # through to the destination-type formula and lost its classes
    flows = table([Flow("a", 1.0, 5.0, dest_type="peer"),
                   Flow("b", 2.0, 50.0, region="international"),
                   Flow("c", 3.0, 500.0, dest_type="customer")])
    by_name, by_member = CostModelSpec(kind.value, 0.5), CostModelSpec(kind, 0.5)
    assert by_name.kind is kind
    assert np.array_equal(relative_costs(by_name, flows), relative_costs(by_member, flows))
    assert base_cost(by_name, flows, 2.0) == base_cost(by_member, flows, 2.0)
    name_labels, member_labels = (class_labels(spec, flows) for spec in (by_name, by_member))
    assert (name_labels is None) == (member_labels is None)
    if member_labels is not None:
        assert name_labels.tolist() == member_labels.tolist()


# ---------------------------------------------------------------------------
# The array layer against the per-flow reference
# ---------------------------------------------------------------------------


# distances on and around the region thresholds, zero, tiny and spread
distances = st.one_of(
    st.sampled_from([0.0, 1e-300, 5e-324, 9.999999, 10.0, 99.99, 100.0, 1.0]),
    st.floats(0.0, 5000.0, allow_nan=False),
)


@st.composite
def flow_lists(draw):
    n = draw(st.integers(1, 25))
    all_zero = draw(st.booleans()) and draw(st.booleans())
    flows = []
    for i in range(n):
        flows.append(Flow(
            f"f{i:02d}",
            draw(st.floats(1e-3, 1e6)),
            0.0 if all_zero else draw(distances),
            draw(st.sampled_from((None,) + REGIONS)),
            draw(st.sampled_from((None,) + DEST_TYPES)),
        ))
    if draw(st.booleans()):
        flows = [f._replace(region=None) for f in flows]
    if draw(st.booleans()):
        flows = [f._replace(dest_type=None) for f in flows]
    return flows


unit_thetas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(list(CostKind)))
    theta = draw(unit_thetas if kind is CostKind.DEST_TYPE else st.floats(0.0, 3.0))
    return CostModelSpec(kind, theta=theta)


def _outcome(fn):
    try:
        return fn()
    except NonPositiveCost:
        return NonPositiveCost


class TestArraysMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(flows=flow_lists(), spec=specs())
    def test_relative_costs(self, flows, spec):
        got = _outcome(lambda: relative_costs(spec, table(flows)))
        want = _outcome(lambda: reference_relative_costs(spec, flows))
        if want is NonPositiveCost:
            assert got is NonPositiveCost
        else:
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(flows=flow_lists(), spec=specs())
    def test_class_labels(self, flows, spec):
        got = class_labels(spec, table(flows))
        if spec.kind is CostKind.REGIONAL:
            want = [reference_classify_region(f) for f in flows]
        elif spec.kind is CostKind.DEST_TYPE:
            want = [f.dest_type for f in flows]
        else:
            want = [None] * len(flows)
        assert ([None] * len(flows) if got is None else got.tolist()) == want

    @settings(max_examples=200, deadline=None)
    @given(flows=flow_lists(), theta=unit_thetas)
    def test_split_by_dest_type(self, flows, theta):
        assert rows(split_by_dest_type(table(flows), theta)) == \
            reference_split_by_dest_type(flows, theta)

    def test_concave_edge_cases(self):
        # norm <= 0 (a zero distance), the CONCAVE_EPS clamp, and
        # d_max = 0, where every flow takes CONCAVE_C
        spec = CostModelSpec(CostKind.CONCAVE, theta=0.5)
        for ds in ([0.0, 1e-9, 3.0, 400.0], [0.0, 0.0]):
            flows = [Flow(f"f{i}", 1.0, d) for i, d in enumerate(ds)]
            assert np.array_equal(relative_costs(spec, table(flows)),
                                  reference_relative_costs(spec, flows))
        rel = relative_costs(spec, _flows([0.0, 1e-9, 400.0]))
        assert rel[0] == rel[1] == CONCAVE_EPS + 0.5
        assert np.array_equal(relative_costs(spec, _flows([0.0, 0.0])), [1.5, 1.5])

    def test_concave_matches_reference_on_many_distances(self):
        # numpy's log and the C library's differ in the last bit on a
        # small share of inputs; distances above the clamp keep such a
        # difference visible in the cost, and a large sample has some
        rng = np.random.default_rng(4)
        flows = [Flow(f"f{i}", 1.0, d) for i, d in
                 enumerate(rng.uniform(20.0, 400.0, size=20_000).tolist())]
        for theta in (0.0, 0.2):
            spec = CostModelSpec(CostKind.CONCAVE, theta=theta)
            assert np.array_equal(relative_costs(spec, table(flows)),
                                  reference_relative_costs(spec, flows))
