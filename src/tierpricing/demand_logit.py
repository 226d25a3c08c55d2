"""Discrete-choice logit demand.

Each consumer picks the flow maximizing alpha*(v_i - p_i) plus Gumbel
noise, or an outside option of buying nothing; flows therefore compete
for market share and demands are not separable. Shares use the softmax
form with a +1 outside term, demand is share times the consumer mass K,
and every profit-maximizing price carries the same markup 1/(alpha*s0)
over cost, which depends on prices through the non-buying share s0 and
is solved iteratively.

Bundles aggregate exactly: a bundle behaves like a single flow with
valuation log-sum-exp(alpha*v)/alpha and valuation-weighted mean cost,
leaving total profit and surplus identical at shared within-bundle
prices.

All exponentials are max-shift stabilized; inputs whose exponents would
overflow even then raise OverflowGuard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cost_models import realize_costs
from .domain import (
    DomainError,
    EmptyBundle,
    FittedTable,
    NoConvergence,
    NonPositiveGamma,
    OverflowGuard,
)

EULER_GAMMA = float(np.euler_gamma)

# Beyond this the stabilized outside-option weight exp(-max_exponent)
# underflows to exactly zero and markups diverge.
MAX_SAFE_EXPONENT = 700.0


def _exponents(v, p, alpha: float) -> np.ndarray:
    x = alpha * (np.asarray(v, dtype=float) - np.asarray(p, dtype=float))
    if x.size and np.max(x) > MAX_SAFE_EXPONENT:
        raise OverflowGuard(
            f"max exponent alpha*(v-p) = {np.max(x):.3g} exceeds safe range"
        )
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


def logit_demand(v, p, alpha: float, consumer_mass: float) -> np.ndarray:
    """Demand per flow: consumer mass times market share."""
    s, _ = logit_shares(v, p, alpha)
    return consumer_mass * s


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


def _markup_residual(p, v, c, alpha):
    """Residual of the optimality condition p = c + 1/(alpha*s0(p))."""
    _, s0 = logit_shares(v, p, alpha)
    target = c + 1.0 / (alpha * s0)
    return target, float(np.max(np.abs(p - target)))


def logit_solve_prices(
    v,
    c,
    alpha: float,
    consumer_mass: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    p_init=None,
) -> np.ndarray:
    """Solve the profit-maximizing prices p_i = c_i + 1/(alpha*s0(p)).

    Damped fixed-point iteration p <- (1-lam)*p + lam*(c + 1/(alpha*s0)),
    starting at lam = 0.5 and halving lam whenever the residual stops
    contracting (the undamped map oscillates when the terminal s0 is
    small). Falls back to gradient ascent with a backtracking line
    search if the fixed point stalls. Raises NoConvergence with the
    last residual attached when the budget runs out.

    Prices do not depend on consumer_mass; it is accepted so call sites
    can pass the fitted market context uniformly.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    if v.size == 0:
        return np.empty(0)
    if tol <= 0:
        raise DomainError("tol must be positive")
    p = np.array(p_init, dtype=float) if p_init is not None else c + 1.0 / alpha
    lam = 0.5
    best_p, best_res = p, np.inf
    fp_budget = max(1, max_iter // 2)
    residual = np.inf
    for it in range(fp_budget):
        target, residual = _markup_residual(p, v, c, alpha)
        if residual < tol:
            return p
        if residual < best_res:
            best_p, best_res = p, residual
        elif lam > 1e-4:
            lam *= 0.5
            p = best_p
            target, residual = _markup_residual(p, v, c, alpha)
        p = (1.0 - lam) * p + lam * target
    p = _gradient_ascent(best_p, v, c, alpha, tol, max_iter - fp_budget)
    _, residual = _markup_residual(p, v, c, alpha)
    if residual >= tol:
        raise NoConvergence(
            f"price solver stalled after {max_iter} iterations "
            f"(residual {residual:.3g})",
            residual=residual,
        )
    return p


def _profit_gradient(p, v, c, alpha, consumer_mass=1.0):
    s, _ = logit_shares(v, p, alpha)
    margin = p - c
    return consumer_mass * s * (1.0 - alpha * margin + alpha * np.sum(s * margin))


def _gradient_ascent(p, v, c, alpha, tol, budget):
    """Backtracking gradient ascent on profit; fallback for instances
    where the damped fixed point fails to contract."""
    p = p.copy()
    value = logit_profit(v, p, c, alpha, 1.0)
    step = 1.0
    for _ in range(max(budget, 1)):
        grad = _profit_gradient(p, v, c, alpha)
        gnorm = float(np.max(np.abs(grad)))
        _, residual = _markup_residual(p, v, c, alpha)
        if residual < tol:
            break
        while step > 1e-12:
            trial = p + step * grad
            trial_value = logit_profit(v, trial, c, alpha, 1.0)
            if trial_value > value + 1e-4 * step * gnorm ** 2:
                p, value = trial, trial_value
                step *= 2.0
                break
            step *= 0.5
        else:
            break
    return p


def logit_fit_valuations(q, p0: float, alpha: float, s0: float) -> np.ndarray:
    """Valuations reproducing observed demand at the uniform price p0.

    Shares are s_i = q_i*(1-s0)/sum(q); inverting the share ratio
    s_i/s0 gives v_i = (ln s_i - ln s0)/alpha + p0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("observed demand must be positive")
    if not 0.0 < s0 < 1.0:
        raise DomainError(f"s0 must be in (0,1), got {s0}")
    s = q * (1.0 - s0) / np.sum(q)
    return (np.log(s) - np.log(s0)) / alpha + p0


def logit_fit_gamma(v, f_d, p0: float, alpha: float) -> float:
    """Cost scaling gamma making p0 satisfy the uniform-price optimality
    condition.

    With E_i = exp(alpha*(v_i - p0)) and D = sum(E):
    gamma = D*(alpha*p0 - 1 - D) / (alpha * sum(f_d * E)). A nonpositive
    numerator means no positive cost scale can rationalize p0 as the
    uniform optimum (markup 1/(alpha*s0) already exceeds p0) and raises
    NonPositiveGamma.
    """
    v = np.asarray(v, dtype=float)
    f_d = np.asarray(f_d, dtype=float)
    if v.size == 0 or v.size != f_d.size:
        raise DomainError("valuations and relative costs must align and be nonempty")
    x = alpha * (v - p0)
    if np.max(x) > MAX_SAFE_EXPONENT:
        raise OverflowGuard("valuation exponents exceed safe range")
    shift = float(np.max(x))
    e = np.exp(x - shift)
    d_sum = np.exp(shift) * np.sum(e)  # sum of E_i
    gamma = d_sum * (alpha * p0 - 1.0 - d_sum) / (alpha * np.exp(shift) * np.sum(f_d * e))
    if not gamma > 0:
        raise NonPositiveGamma(
            f"fitted gamma = {gamma:.3g}: p0 = {p0} cannot be the rational "
            f"uniform price at alpha = {alpha} with these shares"
        )
    return float(gamma)


def logit_bundle_valuation(v, alpha: float) -> float:
    """Valuation of a bundle sold at one price:
    ln(sum_i exp(alpha*v_i))/alpha (log-sum-exp aggregate)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise EmptyBundle("cannot aggregate an empty bundle")
    shift = float(np.max(alpha * v))
    return float((shift + np.log(np.sum(np.exp(alpha * v - shift)))) / alpha)


def logit_bundle_cost(c, v, alpha: float) -> float:
    """Valuation-weighted mean unit cost of a bundle:
    sum(c_i*exp(alpha*v_i)) / sum(exp(alpha*v_i))."""
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise EmptyBundle("cannot aggregate an empty bundle")
    shift = float(np.max(alpha * v))
    e = np.exp(alpha * v - shift)
    return float(np.sum(c * e) / np.sum(e))


def logit_potential_profit(q, alpha: float, s0: float, consumer_mass: float):
    """Bundling weight of a flow under logit demand.

    At the optimum every flow carries the markup 1/(alpha*s0), so a
    flow's standalone profit is proportional to its observed demand;
    only the ratios matter to the token-bucket bundler, and the common
    factor K*(1-s0)/(alpha*s0*sum(q)) is dropped up to sum(q).
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("demand must be positive")
    return consumer_mass * (1.0 - s0) * q / (alpha * s0)


@dataclass(frozen=True, eq=False)
class LogitFit(FittedTable):
    """A fitted logit market: the per-flow arrays (ids, q, d, v, c,
    class labels), alpha, gamma, the non-buying share s0 at the blended
    rate, and the consumer mass K = sum(q)/(1-s0)."""

    alpha: float
    gamma: float
    s0: float
    consumer_mass: float


def fit_logit(
    flow_ids: Sequence[str],
    q,
    d,
    rel_costs,
    p0: float,
    alpha: float,
    s0: float,
    labels: Sequence[str | None] | None = None,
) -> LogitFit:
    """Fit valuations, cost scaling and consumer mass for one market."""
    if not alpha > 0.0:
        raise DomainError(f"logit requires alpha > 0, got {alpha}")
    q = np.asarray(q, dtype=float)
    v = logit_fit_valuations(q, p0, alpha, s0)
    gamma = logit_fit_gamma(v, rel_costs, p0, alpha)
    c = realize_costs(rel_costs, gamma)
    consumer_mass = float(np.sum(q) / (1.0 - s0))
    return LogitFit(flow_ids, q, d, v, c, labels, alpha=alpha, gamma=gamma, s0=s0,
                    consumer_mass=consumer_mass)
