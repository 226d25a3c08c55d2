"""Constant-elasticity demand: Q(p) = (v/p)**alpha with alpha > 1.

Flow demands are separable, so every pricing problem has a closed form
in a bundle's sums W = sum(v**alpha) and X = sum(c*v**alpha) over its
flows (``ced_bundle``): the optimal shared price is
p = alpha*X/((alpha-1)*W), the profit there is W*p**(1-alpha)/alpha, and
the surplus, the utility integral of inverse demand less the payment,
is W*p**(1-alpha)/(alpha-1) = alpha/(alpha-1) times the profit. A
one-flow bundle's profit is the profit the flow would earn priced alone
("potential profit", the weight of profit-weighted bundling).

Fitting works backward from an observed market: valuations are chosen
so demand at the blended rate p0 reproduces observations, and the cost
scaling gamma is chosen so p0 is the profit-maximizing uniform price.
"""

from __future__ import annotations

import numpy as np

from .domain import DemandModel, DomainError, NonPositiveGamma, OverflowGuard, _check_market

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def ced_bundle(W, X, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal price p = alpha*X/((alpha-1)*W) and profit
    W*p**(1-alpha)/alpha of bundles with arrays of sums ``W`` and ``X``.
    Where p**(1-alpha) leaves the normal float64 range (large alpha), W
    is multiplied by p**((1-alpha)/2) twice: the partial product, the
    geometric mean of W and the profit, is in range wherever both are.
    The operations run in place on four arrays, and the out-of-range
    mask is built only when a power (or a NaN) is outside the range."""
    price = alpha * X
    price /= (alpha - 1.0) * W
    with np.errstate(over="ignore"):
        power = price ** (1.0 - alpha)
    profit = W * power
    profit /= alpha
    if power.size and not (power.min() >= _TINY and power.max() <= _HUGE):
        outside = ~((power >= _TINY) & (power <= _HUGE))
        half = price[outside] ** ((1.0 - alpha) / 2.0)
        profit[outside] = W[outside] * half * half / alpha
    return price, profit


def ced_fit_valuations(q, p0: float, alpha: float) -> np.ndarray:
    """Valuations v_i = p0 * q_i**(1/alpha) that reproduce demand q at
    the uniform price p0; outside the CED domain (``_check_market``),
    DomainError."""
    _check_market(DemandModel.CED, alpha, p0)
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("observed demand must be positive")
    return p0 * q ** (1.0 / alpha)


def ced_fit_gamma(v, f_d, p0: float, alpha: float) -> float:
    """Cost scaling gamma making p0 the optimal uniform price.

    gamma = p0*(alpha-1)*sum(v**alpha) / (alpha*sum(f_d * v**alpha)),
    so that with costs gamma*f_d the single-bundle optimum lands
    exactly on p0; either product past float64 raises OverflowGuard,
    naming v**alpha or the relative costs.
    """
    v = np.asarray(v, dtype=float)
    f_d = np.asarray(f_d, dtype=float)
    if v.size == 0 or v.size != f_d.size:
        raise DomainError("valuations and relative costs must align and be nonempty")
    with np.errstate(over="ignore"):
        w = v ** alpha
        top, bottom = p0 * (alpha - 1.0) * np.sum(w), alpha * np.sum(f_d * w)
    if not np.isfinite(top):
        raise OverflowGuard(f"v**alpha overflows float64 at alpha={alpha!r}")
    if not np.isfinite(bottom):
        raise OverflowGuard("relative cost times v**alpha overflows float64 "
                            f"(largest relative cost {f_d.max():.3g})")
    gamma = top / bottom
    if not gamma > 0:
        raise NonPositiveGamma(f"fitted gamma = {gamma}")
    return float(gamma)
