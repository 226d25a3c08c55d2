"""Constant-elasticity demand: Q(p) = (v/p)**alpha with alpha > 1.

Flow demands are separable, so profit decomposes per flow and every
pricing problem has a closed form. A bundle's optimal shared price is
alpha*X/((alpha-1)*W), with W = sum(v**alpha) and X = sum(c*v**alpha)
over its flows, and the surplus at prices p is
sum(v**alpha * p**(1-alpha))/(alpha-1); ``ModelContext.price`` evaluates
both for a tiering. This module holds the total profit at given prices
and a bundle's optimal profit from (W, X); for a one-flow bundle that is
the profit the flow would earn priced alone ("potential profit", the
weight of profit-weighted bundling).

Fitting works backward from an observed market: valuations are chosen
so demand at the blended rate p0 reproduces observations, and the cost
scaling gamma is chosen so p0 is the profit-maximizing uniform price.
"""

from __future__ import annotations

import numpy as np

from .domain import DomainError, NonPositiveGamma


def ced_profit(v, p, c, alpha: float) -> float:
    """Total profit sum_i (v_i/p_i)**alpha * (p_i - c_i)."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(p <= 0):
        raise DomainError("price must be positive")
    return float(np.sum((v / p) ** alpha * (p - c)))


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
