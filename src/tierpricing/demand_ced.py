"""Constant-elasticity demand: Q(p) = (v/p)**alpha with alpha > 1.

Flow demands are separable, so profit decomposes per flow and every
pricing problem has a closed form: the per-flow optimum alpha*c/(alpha-1),
the shared-price optimum for a bundle, and the profit a flow would earn
priced alone ("potential profit", the weight used by profit-weighted
bundling).

Fitting works backward from an observed market: valuations are chosen
so demand at the blended rate p0 reproduces observations, and the cost
scaling gamma is chosen so p0 is the profit-maximizing uniform price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost_models import realize_costs
from .domain import DomainError, EmptyBundle, FittedTable, NonPositiveGamma


def ced_demand(v, p, alpha: float):
    """Demand (v/p)**alpha; elementwise on arrays."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise DomainError("price must be positive")
    return (v / p) ** alpha


def ced_profit(v, p, c, alpha: float) -> float:
    """Total profit sum_i (v_i/p_i)**alpha * (p_i - c_i)."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(p <= 0):
        raise DomainError("price must be positive")
    return float(np.sum((v / p) ** alpha * (p - c)))


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


def ced_consumer_surplus(v, p, alpha: float, *, unit_price_offset: bool = False) -> float:
    """Consumer surplus at prices p.

    Utility is the integral of the inverse demand curve up to the
    purchased quantity; subtracting the total payment p*q leaves
    sum_i v_i**alpha * p_i**(1-alpha) / (alpha - 1).

    ``unit_price_offset=True`` selects the alternative convention that
    subtracts the unit price p_i instead of the payment p_i*q_i, i.e.
    sum_i (alpha * v_i**alpha * p_i**(1-alpha) / (alpha-1) - p_i).
    Capture metrics are insensitive to the choice on realistic inputs;
    the default is the dimensionally consistent one.
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


def ced_fit_valuations(q, p0: float, alpha: float) -> np.ndarray:
    """Valuations v_i = p0 * q_i**(1/alpha) that reproduce demand q at
    the uniform price p0."""
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("observed demand must be positive")
    if p0 <= 0:
        raise DomainError("p0 must be positive")
    return p0 * q ** (1.0 / alpha)


def ced_fit_gamma(v, f_d, p0: float, alpha: float) -> float:
    """Cost scaling gamma making p0 the optimal uniform price.

    gamma = p0*(alpha-1)*sum(v**alpha) / (alpha*sum(f_d * v**alpha)),
    so that with costs gamma*f_d the single-bundle optimum lands
    exactly on p0.
    """
    v = np.asarray(v, dtype=float)
    f_d = np.asarray(f_d, dtype=float)
    if v.size == 0 or v.size != f_d.size:
        raise DomainError("valuations and relative costs must align and be nonempty")
    w = v ** alpha
    gamma = p0 * (alpha - 1.0) * np.sum(w) / (alpha * np.sum(f_d * w))
    if not gamma > 0:
        raise NonPositiveGamma(f"fitted gamma = {gamma}")
    return float(gamma)


def ced_potential_profit(v, c, alpha: float):
    """Profit a flow earns priced alone at its optimum:
    (v**alpha/alpha) * (alpha*c/(alpha-1))**(1-alpha)."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    return v ** alpha / alpha * (alpha * c / (alpha - 1.0)) ** (1.0 - alpha)


def bundle_profit_closed_form(w_sum, x_sum, alpha: float):
    """Optimal profit of a bundle from its sufficient statistics.

    With w = sum of v**alpha and x = sum of c*v**alpha over the bundle,
    profit at the optimal shared price is
    (alpha-1)**(alpha-1)/alpha**alpha * w**alpha * x**(1-alpha).
    Vectorizes over arrays of bundle statistics.
    """
    kappa = (alpha - 1.0) ** (alpha - 1.0) / alpha ** alpha
    return kappa * np.asarray(w_sum, dtype=float) ** alpha \
        * np.asarray(x_sum, dtype=float) ** (1.0 - alpha)


@dataclass(frozen=True, eq=False)
class CedFit(FittedTable):
    """A fitted constant-elasticity market: the per-flow arrays
    (ids, q, d, v, c, class labels), the global alpha, and the cost
    scaling gamma."""

    alpha: float
    gamma: float


def fit_ced(
    flow_ids: Sequence[str],
    q,
    d,
    rel_costs,
    p0: float,
    alpha: float,
    labels: Sequence[str | None] | None = None,
) -> CedFit:
    """Fit valuations and the cost scaling for one market snapshot.

    ``rel_costs`` are the pre-gamma relative costs f(d) of the chosen
    cost model, aligned with ``q`` and ``d``; ``labels`` are the
    flows' bundling classes (None when the cost model has none).
    """
    if not alpha > 1.0:
        raise DomainError(f"CED requires alpha > 1, got {alpha}")
    v = ced_fit_valuations(q, p0, alpha)
    gamma = ced_fit_gamma(v, rel_costs, p0, alpha)
    c = realize_costs(rel_costs, gamma)
    return CedFit(flow_ids, q, d, v, c, labels, alpha=alpha, gamma=gamma)
