"""Per-flow demand formulas, kept as test oracles.

The package prices a tiering from per-flow terms and bundle sums
(``ModelContext.price``). These are the textbook per-flow forms it
replaced: ``test_demand_ced.py`` and ``test_demand_logit.py`` check
them against independent numeric oracles (quadrature, a 1-D maximizer),
and the other tests use them as references.
"""

import numpy as np

from tierpricing.demand_logit import logit_shares
from tierpricing.domain import DomainError, EmptyBundle


def ced_demand(v, p, alpha: float):
    """Demand (v/p)**alpha; elementwise on arrays."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise DomainError("price must be positive")
    return (v / p) ** alpha


def ced_optimal_price(c, alpha: float):
    """Profit-maximizing price for a flow of unit cost c: alpha*c/(alpha-1)."""
    return alpha * np.asarray(c, dtype=float) / (alpha - 1.0)


def ced_bundle_price(v, c, alpha: float) -> float:
    """Profit-maximizing shared price for a bundle of flows.

    Setting the derivative of the bundle's profit to zero gives
    alpha * sum(c_i v_i**alpha) / ((alpha-1) * sum(v_i**alpha)); for a
    single flow this reduces to ced_optimal_price.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    if v.size == 0:
        raise EmptyBundle("cannot price an empty bundle")
    w = v ** alpha
    return float(alpha * np.sum(c * w) / ((alpha - 1.0) * np.sum(w)))


def ced_potential_profit(v, c, alpha: float):
    """Profit a flow earns priced alone at its optimum:
    (v**alpha/alpha) * (alpha*c/(alpha-1))**(1-alpha)."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    return v ** alpha / alpha * (alpha * c / (alpha - 1.0)) ** (1.0 - alpha)


def ced_consumer_surplus(v, p, alpha: float, *, unit_price_offset: bool = False) -> float:
    """Consumer surplus at prices p.

    Utility is the integral of the inverse demand curve up to the
    purchased quantity; subtracting the total payment p*q leaves
    sum_i v_i**alpha * p_i**(1-alpha) / (alpha - 1).

    ``unit_price_offset=True`` selects the alternative convention that
    subtracts the unit price p_i instead of the payment p_i*q_i, i.e.
    sum_i (alpha * v_i**alpha * p_i**(1-alpha) / (alpha-1) - p_i).
    """
    if not alpha > 1.0:
        raise DomainError(f"surplus diverges for alpha <= 1, got {alpha}")
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise DomainError("price must be positive")
    gross = v ** alpha * p ** (1.0 - alpha)
    if unit_price_offset:
        return float(np.sum(alpha * gross / (alpha - 1.0) - p))
    return float(np.sum(gross) / (alpha - 1.0))


def logit_demand(v, p, alpha: float, consumer_mass: float) -> np.ndarray:
    """Logit demand per flow: consumer mass times market share."""
    s, _ = logit_shares(v, p, alpha)
    return consumer_mass * s
