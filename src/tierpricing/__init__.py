"""Counterfactual tiered-pricing engine for transit traffic.

Fits demand and cost models to observed (or synthesized) traffic flows,
builds price tiers with several bundling strategies, solves for
profit-maximizing tier prices, and reports how much of the attainable
profit and consumer surplus each tiering captures.
"""

from .bundling import (
    ModelContext,
    Strategy,
    build_bundles,
    evaluate_bundling,
    optimal_bundles,
    profit_capture,
    token_bucket_bundles,
)
from .cost_models import (
    base_cost,
    class_labels,
    classify_regions,
    realize_costs,
    relative_costs,
    split_by_dest_type,
)
from .demand_ced import (
    ced_fit_gamma,
    ced_fit_valuations,
    ced_potential_profit,
    ced_profit,
)
from .demand_logit import (
    logit_bundle_aggregate,
    logit_consumer_surplus,
    logit_fit_gamma,
    logit_fit_valuations,
    logit_markup,
    logit_potential_profit,
    logit_profit,
    logit_shares,
    logit_solve_prices,
)
from .domain import (
    Bundling,
    CostKind,
    CostModelSpec,
    DemandModel,
    FlowTable,
    PricingError,
    TierOutcome,
)
from .experiments import (
    ExperimentConfig,
    fit_context,
    load_flows,
    run_capture_curve,
    run_sensitivity_sweep,
    run_theta_sweep,
    write_results,
)
from .ingestion import (
    DatasetMoments,
    SYNTH_PRESETS,
    preset_moments,
    read_flows_csv,
    synth_generate,
    write_flows_csv,
)

__version__ = "0.1.0"
