"""Memory budgets of the per-flow columns, traced with ``tracemalloc``,
which sees numpy's data buffers.

Each per-flow float column is held once from ingest to the sweep: synth
hands its demands and distances to the ``FlowTable`` read-only, and the
fits hand their valuations and costs to the ``ModelContext`` read-only,
so neither is copied, and the fit lets go of the relative costs before
it prices the baselines. A float64 column is 8 bytes per flow; each
bound below lies between the measured peak and the peak with any one
of those columns held twice (see CHANGES.md for the measured values).
"""

import tracemalloc

import pytest

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


def test_synth_holds_each_column_once():
    # 121 bytes per flow, the ids' uint32 matrix and its unicode copy
    # taking 44 each; 137 with the normal draws still alive or with the
    # table's copies of q and d, 153 with both
    per_flow = _traced_peak(
        lambda: synth_generate(preset_moments("eu-isp", n_flows=N_FLOWS, seed=0)))
    assert per_flow < 128


@pytest.mark.parametrize("model, bound", [("ced", 61), ("logit", 53)])
def test_fit_holds_each_column_once(flows, model, bound):
    # CED 57 and logit 49 bytes per flow; 65 and 57 with the relative
    # costs alive through the baselines, 73 and 65 with the context's
    # copies of v and c, 81 and 73 with both
    config = ExperimentConfig(demand_model=model, n_flows=N_FLOWS)
    per_flow = _traced_peak(lambda: fit_context(flows, config))
    assert per_flow < bound
