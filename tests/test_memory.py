"""Memory budgets of the per-flow columns, traced with ``tracemalloc``,
which sees numpy's data buffers.

Each per-flow float column is held once from ingest to the sweep: synth
hands its ids, demands and distances to the ``FlowTable`` read-only, and
the fits hand their valuations and costs to the ``ModelContext``
read-only, so none is copied, and the fit lets go of the relative costs
before it prices the baselines. Beyond the columns it keeps, each stage
of a logit run holds at most two column-sized scratch arrays, taking
its logit exponentials, shares and margins in place. A float64 column
is 8 bytes per flow; each bound below lies between the measured peak
and the peak with one more column alive (see CHANGES.md for the
measured values).
"""

import tracemalloc

import pytest

from tierpricing.bundling import build_bundles, evaluate_bundling
from tierpricing.experiments import ExperimentConfig, fit_context
from tierpricing.ingestion import preset_moments, synth_generate

N_FLOWS = 50_000


def _traced_peak(make):
    """The traced peak of ``make()``'s allocations over what was
    allocated before it, in bytes per flow."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        make()
        return (tracemalloc.get_traced_memory()[1] - before) / N_FLOWS
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def flows():
    return synth_generate(preset_moments("eu-isp", n_flows=N_FLOWS, seed=0))


@pytest.fixture(scope="module")
def logit_context(flows):
    return fit_context(flows, ExperimentConfig(demand_model="logit", n_flows=N_FLOWS))


def test_synth_holds_each_column_once():
    # 103 bytes per flow, at the copy of the ids out of their uint32
    # matrix (44 each); 111 with one more column alive there, 120 with
    # the ids copied after the draws, alongside q and d
    per_flow = _traced_peak(
        lambda: synth_generate(preset_moments("eu-isp", n_flows=N_FLOWS, seed=0)))
    assert per_flow < 107


@pytest.mark.parametrize("model, bound", [("ced", 61), ("logit", 37)])
def test_fit_holds_each_column_once(flows, model, bound):
    # CED 57 and logit 33 bytes per flow; 65 and 41 with one more column
    # alive: the relative costs through the baselines, a copy of v or c,
    # or under logit a third scratch array in a baseline's pass
    config = ExperimentConfig(demand_model=model, n_flows=N_FLOWS)
    per_flow = _traced_peak(lambda: fit_context(flows, config))
    assert per_flow < bound


@pytest.mark.parametrize("num_bundles", [1, 8])
def test_cost_division_build_holds_one_label_column(logit_context, num_bundles):
    # 17 bytes per flow: the labels, their uint8 keys and the members;
    # 25 with the float ranks alive while the labels are grouped
    per_flow = _traced_peak(
        lambda: build_bundles("cost-division", logit_context, num_bundles))
    assert per_flow < 21


@pytest.mark.parametrize("num_bundles", [1, 8])
def test_logit_evaluate_holds_two_scratch_columns(logit_context, num_bundles):
    # 16 bytes per flow, the gathered exponentials and costs-times-
    # exponentials; 24 with one more column alive (the shifts repeated
    # per flow, or the costs-times-exponentials taken out of place)
    bundling = build_bundles("cost-division", logit_context, num_bundles)
    per_flow = _traced_peak(lambda: evaluate_bundling(logit_context, bundling))
    assert per_flow < 20
