"""Discrete-choice logit demand.

Each consumer picks the flow maximizing alpha*(v_i - p_i) plus Gumbel
noise, or an outside option of buying nothing; flows therefore compete
for market share and demands are not separable. Shares use the softmax
form with a +1 outside term, demand is share times the consumer mass K,
and every profit-maximizing price carries the same markup 1/(alpha*s0)
over cost, which depends on prices through the non-buying share s0.
A damped fixed point on that one scalar markup solves for the prices,
checked once in price space; where it stalls, the exact equal markup,
a Lambert-W root, prices the market.

Every flow carries the same optimal markup, so a flow's standalone
profit is a constant times its demand: profit-weighted bundling is
demand-weighted bundling (``ModelContext.visiting_order``).

Bundles aggregate exactly: a bundle behaves like a single flow with
valuation log-sum-exp(alpha*v)/alpha and valuation-weighted mean cost,
leaving total profit and surplus identical at shared within-bundle
prices.

All exponentials are max-shift stabilized; inputs whose exponents would
overflow even then raise OverflowGuard.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    DomainError,
    EmptyBundle,
    NoConvergence,
    NonPositiveGamma,
    OverflowGuard,
    _first,
)

EULER_GAMMA = float(np.euler_gamma)

# Beyond this the stabilized outside-option weight exp(-max_exponent)
# underflows to exactly zero and markups diverge.
MAX_SAFE_EXPONENT = 700.0


def _guard_exponent(x_max) -> None:
    if x_max > MAX_SAFE_EXPONENT:
        raise OverflowGuard(
            f"max exponent alpha*(v-p) = {x_max:.3g} exceeds safe range"
        )


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


def _markup_residual(p, v, c, alpha):
    """The residual max|p - c - 1/(alpha*s0(p))| of the optimality
    condition."""
    _, s0 = logit_shares(v, p, alpha)
    return float(np.max(np.abs(p - (c + 1.0 / (alpha * s0)))))


def _shifted_sum(v, c, alpha):
    """max(y) and sum(exp(y - max(y))) for y = alpha*(v - c): the
    max-shifted S = sum(exp(alpha*(v - c))) of the equal markup."""
    y = alpha * (np.asarray(v, dtype=float) - np.asarray(c, dtype=float))
    y_max = float(np.max(y))
    return y_max, float(np.sum(np.exp(y - y_max)))


def logit_markup(v, c, alpha: float) -> float:
    """The markup m that every profit-maximizing price carries, exactly.

    With one markup on every flow, s0 = 1/(1 + S*exp(-alpha*m)) for
    S = sum_i exp(alpha*(v_i - c_i)), so alpha*m = 1 + W(S/e), W the
    Lambert W function (Li and Huh, MSOM 13(4), 2011). Newton's method
    solves exp(u) + u = ln S - 1 for u = ln W(S/e); the left side is
    convex and increasing and the start lies right of the root, so the
    iterates fall onto it. ln S is a max-shifted log-sum-exp: no overflow.
    """
    shift, total = _shifted_sum(v, c, alpha)
    target = shift + math.log(total) - 1.0
    u = target if target < 1.0 else math.log(target)
    for _ in range(100):
        step = (math.exp(u) + u - target) / (math.exp(u) + 1.0)
        if not step > 0.0 or u - step == u:
            break
        u -= step
    return (1.0 + math.exp(u)) / alpha


def logit_solve_prices(
    v,
    c,
    alpha: float,
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> np.ndarray:
    """Solve the profit-maximizing prices p_i = c_i + 1/(alpha*s0(p)).

    Every price carries one markup m, so the damped fixed point iterates
    that scalar, m <- (1-lam)*m + lam/(alpha*s0(c + m)), from m = 1/alpha,
    starting at lam = 0.5 and halving lam whenever |m - 1/(alpha*s0)|
    stops contracting (the undamped map oscillates when the terminal s0
    is small), for at most ``max_iter`` steps. s0(c + m) needs only the
    max-shifted sum of exp(alpha*(v - c)), taken once, so a step is O(1).
    The prices c + m are returned once their price-space residual
    (``_markup_residual``) is below ``tol``; failing that, c +
    ``logit_markup``, the exact equal markup; NoConvergence, with the
    residual attached, is raised only if these still miss ``tol``.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    if v.size == 0:
        return np.empty(0)
    if tol <= 0:
        raise DomainError("tol must be positive")
    y_max, total = _shifted_sum(v, c, alpha)
    m, lam = 1.0 / alpha, 0.5
    best_m, best_target, best_res = m, m, math.inf
    for _ in range(max_iter):
        x_max = y_max - alpha * m
        _guard_exponent(x_max)
        shift = max(x_max, 0.0)
        outside = math.exp(-shift)
        target = 1.0 / (alpha * (outside / (math.exp(x_max - shift) * total + outside)))
        residual = abs(m - target)
        if residual < tol:
            p = c + m
            if _markup_residual(p, v, c, alpha) < tol:
                return p
            break
        if residual < best_res:
            best_m, best_target, best_res = m, target, residual
        elif lam > 1e-4:
            lam *= 0.5
            m, target = best_m, best_target
        m = (1.0 - lam) * m + lam * target
    p = c + logit_markup(v, c, alpha)
    residual = _markup_residual(p, v, c, alpha)
    if not residual < tol:
        raise NoConvergence(
            f"exact prices miss tol {tol:.3g} (residual {residual:.3g})",
            residual=residual,
        )
    return p


def logit_fit_valuations(q, p0: float, alpha: float, s0: float,
                         ids=None) -> np.ndarray:
    """Valuations reproducing observed demand at the uniform price p0.

    Shares are s_i = q_i*(1-s0)/sum(q); inverting the share ratio
    s_i/s0 gives v_i = (ln s_i - ln s0)/alpha + p0. A demand total past
    float64 raises OverflowGuard, and so does a share that underflows to
    zero, which has no log, naming the flow (by its id in ``ids``, else
    by its position).
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("observed demand must be positive")
    if p0 <= 0:
        raise DomainError("p0 must be positive")
    if not 0.0 < s0 < 1.0:
        raise DomainError(f"s0 must be in (0,1), got {s0}")
    with np.errstate(over="ignore"):
        total = np.sum(q)
    if not np.isfinite(total):
        raise OverflowGuard("the demand total overflows float64: no share is defined")
    s = q * (1.0 - s0) / total
    bad = _first(s == 0.0)
    if bad is not None:
        raise OverflowGuard(
            f"flow {bad if ids is None else ids[bad]}: market share of demand "
            f"{q[bad]:.3g} in total {total:.3g} underflows float64, so its "
            "valuation ln(share) is undefined")
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


def logit_bundle_aggregate(v, c, alpha: float) -> tuple[float, float]:
    """Valuation and unit cost of a bundle sold at one price: the
    log-sum-exp ln(sum_i exp(alpha*v_i))/alpha and the valuation-weighted
    mean cost sum(c_i*exp(alpha*v_i)) / sum(exp(alpha*v_i)), from one
    max-shifted exponential."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    if v.size == 0:
        raise EmptyBundle("cannot aggregate an empty bundle")
    x = alpha * v
    shift = float(np.max(x))
    e = np.exp(x - shift)
    total = np.sum(e)
    return float((shift + np.log(total)) / alpha), float(np.sum(c * e) / total)
