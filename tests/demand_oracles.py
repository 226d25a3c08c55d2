"""Per-flow demand formulas, kept as test oracles.

The package prices a tiering from per-flow terms and bundle sums
(``ModelContext.price``, ``demand_ced.ced_bundle``,
``demand_logit.logit_value``). These are the textbook per-flow forms it
replaced, the kappa form of a CED bundle's optimal profit and the
per-bundle logit aggregate: ``test_demand_ced.py`` and
``test_demand_logit.py`` check them against independent numeric oracles
(quadrature, a 1-D maximizer, Gumbel Monte Carlo), and the other tests
use them as references.
"""

import numpy as np

from tierpricing.demand_logit import EULER_GAMMA, _guard_exponent
from tierpricing.domain import DomainError


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
        raise DomainError("cannot price an empty bundle")
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


def _exponents(v, p, alpha: float) -> np.ndarray:
    x = alpha * (np.asarray(v, dtype=float) - np.asarray(p, dtype=float))
    if x.size:
        _guard_exponent(np.max(x))
    return x


def logit_shares(v, p, alpha: float) -> tuple[np.ndarray, float]:
    """Market shares (s_1..s_n, s0) at prices p.

    s_i = exp(alpha*(v_i-p_i)) / (sum_j exp(alpha*(v_j-p_j)) + 1) and
    s0 is the non-buying share 1/denominator; they sum to one.
    """
    x = _exponents(v, p, alpha)
    if x.size == 0:
        return np.empty(0), 1.0
    shift = max(float(np.max(x)), 0.0)
    e = np.exp(x - shift)
    outside = np.exp(-shift)
    den = np.sum(e) + outside
    return e / den, float(outside / den)


def logit_profit(v, p, c, alpha: float, consumer_mass: float) -> float:
    """Total profit K * sum_i s_i * (p_i - c_i)."""
    s, _ = logit_shares(v, p, alpha)
    return float(consumer_mass * np.sum(s * (np.asarray(p, float) - np.asarray(c, float))))


def logit_consumer_surplus(v, p, alpha: float, consumer_mass: float) -> float:
    """Expected consumer surplus
    K * (euler_gamma + ln(sum_i exp(alpha*(v_i-p_i)) + 1)) / alpha."""
    x = _exponents(v, p, alpha)
    if x.size == 0:
        return consumer_mass * EULER_GAMMA / alpha
    shift = max(float(np.max(x)), 0.0)
    lse = shift + np.log(np.sum(np.exp(x - shift)) + np.exp(-shift))
    return float(consumer_mass * (EULER_GAMMA + lse) / alpha)


def logit_bundle_aggregate(v, c, alpha: float) -> tuple[float, float]:
    """Valuation and unit cost of a bundle sold at one price: the
    log-sum-exp ln(sum_i exp(alpha*v_i))/alpha and the valuation-weighted
    mean cost sum(c_i*exp(alpha*v_i)) / sum(exp(alpha*v_i)), from one
    exponential shifted by the bundle's own maximum of alpha*v."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    if v.size == 0:
        raise DomainError("cannot aggregate an empty bundle")
    x = alpha * v
    shift = float(np.max(x))
    e = np.exp(x - shift)
    total = np.sum(e)
    return float((shift + np.log(total)) / alpha), float(np.sum(c * e) / total)


def logit_demand(v, p, alpha: float, consumer_mass: float) -> np.ndarray:
    """Logit demand per flow: consumer mass times market share."""
    s, _ = logit_shares(v, p, alpha)
    return consumer_mass * s
