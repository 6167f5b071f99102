"""Closed-form and numerically solved information-theoretic quantities:
binary entropy, the per-test mutual-information asymptotic, default
combinatorial counts, achievability/converse test-count coefficients, the
optimal Bernoulli parameter, and limiting rates.

All coefficients multiply k*log2(n/k); the second-order 2*log2(k) term is
reported separately when (n, k) are supplied, never folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .milp import NumericalError

LN2 = math.log(2.0)


@dataclass(frozen=True)
class BoundQuery:
    """Inputs for a bound evaluation; nu defaults to its optimal value."""

    alpha_star: float
    beta: float
    nu: Optional[float] = None
    n: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.alpha_star < 1.0):
            raise ValueError("alpha_star must lie in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive")
        if (self.n is None) != (self.k is None):
            raise ValueError("supply n and k together")
        if self.n is not None and not (1 <= self.k < self.n):
            raise ValueError("need 1 <= k < n")


@dataclass(frozen=True)
class BoundResult:
    """Achievability/converse coefficients, limiting rates, and optional
    absolute test counts."""

    coefficient: float
    converse: float
    rate_s: float
    rate_nk: float
    nu_used: float
    tests: Optional[float] = None
    extra_log_term: Optional[float] = None  # the separate 2*log2(k) bits


def binary_entropy(lam: float) -> float:
    """H2 in bits; endpoints defined as 0 by continuity."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    if lam in (0.0, 1.0):
        return 0.0
    return -(lam * math.log2(lam) + (1.0 - lam) * math.log2(1.0 - lam))


def mi_asymptotic(alpha: float, nu: float) -> float:
    """Large-k per-test conditional mutual information
    exp(-(1-alpha)*nu) * H2(exp(-alpha*nu)), in bits."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if nu <= 0:
        raise ValueError("nu must be positive")
    return math.exp(-(1.0 - alpha) * nu) * binary_entropy(math.exp(-alpha * nu))


def log2_n_tau_default(n: int, k: int, tau: int) -> float:
    """log2( C(k, tau) * C(n-k, tau) ), the unstructured count of incorrect
    sets at distance tau, via log-gamma (no overflow)."""
    if not (0 <= tau <= k <= n - k):
        raise ValueError("need 0 <= tau <= k <= n - k")

    def log2_comb(a, b):
        return (math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)) / LN2

    return log2_comb(k, tau) + log2_comb(n - k, tau)


def _nu_residual(nu: float, m: float) -> float:
    x = math.exp(-nu * m)
    return binary_entropy(x) + m * math.log2(1.0 - x)


def optimal_nu(m: float, tol: float = 1e-10) -> float:
    """The test-minimizing Bernoulli exponent for fragility level m = max(alpha*, beta):
    the root of H2(exp(-nu m)) = -m * log2(1 - exp(-nu m)), found by bisection
    over [1e-6, 50].  The bracket's sign change is verified at runtime."""
    if not (0.0 < m <= 1.0):
        raise ValueError("m must lie in (0, 1]")
    lo, hi = 1e-6, 50.0
    f_lo, f_hi = _nu_residual(lo, m), _nu_residual(hi, m)
    if not (f_lo < 0.0 < f_hi):
        raise NumericalError(f"optimal_nu bracket failure for m={m}: "
                             f"f({lo})={f_lo}, f({hi})={f_hi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _nu_residual(mid, m)
        if abs(f_mid) < tol:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError(f"optimal_nu bisection failed to reach |f| < {tol}")


def achievability_coefficient(alpha_star: float, beta: float,
                              nu: Optional[float] = None) -> Tuple[float, float]:
    """Coefficient of k*log2(n/k) tests sufficient for approximate recovery:
    beta * exp(nu (1 - m)) / H2(exp(-nu m)) with m = max(alpha*, beta).

    Returns (coefficient, nu_used); nu defaults to optimal_nu(m).
    """
    if not (0.0 < alpha_star < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("alpha_star and beta must lie in (0, 1)")
    m = max(alpha_star, beta)
    if nu is None:
        nu = optimal_nu(m)
    elif nu <= 0:
        raise ValueError("nu must be positive")
    coef = beta * math.exp(nu * (1.0 - m)) / binary_entropy(math.exp(-nu * m))
    return coef, nu


def inner_max_objective(alpha: float, beta: float, nu: float) -> float:
    """min(alpha, beta) / (exp(-(1-alpha) nu) H2(exp(-alpha nu))), the
    per-alpha objective whose maximum over [alpha*, 1] yields the coefficient.
    Used by the grid-search validator of the analytic maximizer."""
    return min(alpha, beta) / mi_asymptotic(alpha, nu)


def converse_coefficient(alpha_star: float, beta: float) -> float:
    """Coefficient of k*log2(n/k) tests necessary: max(0, beta - alpha*)."""
    if not (0.0 < alpha_star < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("alpha_star and beta must lie in (0, 1)")
    return max(0.0, beta - alpha_star)


def rate_limit_at(m: float) -> Tuple[float, float]:
    """(rate, nu*) at fragility level m: H2(exp(-nu* m)) / exp(nu* (1 - m))
    evaluated at the optimal nu*."""
    nu = optimal_nu(m)
    rate = binary_entropy(math.exp(-nu * m)) / math.exp(nu * (1.0 - m))
    return rate, nu


def rate_limits(alpha_star: float, beta: float) -> Tuple[float, float]:
    """(rate_S, rate_nk): limits of log2|S|/t and log2 C(n,k)/t at the
    optimal nu; the latter is a 1/beta factor higher."""
    if not (0.0 < alpha_star < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("alpha_star and beta must lie in (0, 1)")
    rate_s, _ = rate_limit_at(max(alpha_star, beta))
    return rate_s, rate_s / beta


def evaluate(query: BoundQuery) -> BoundResult:
    """Assemble every bound quantity for one query."""
    coef, nu_used = achievability_coefficient(query.alpha_star, query.beta, query.nu)
    conv = converse_coefficient(query.alpha_star, query.beta)
    rate_s, rate_nk = rate_limits(query.alpha_star, query.beta)
    tests = None
    extra = None
    if query.n is not None:
        klognk = query.k * math.log2(query.n / query.k)
        tests = coef * klognk
        extra = 2.0 * math.log2(query.k)
    return BoundResult(coefficient=coef, converse=conv, rate_s=rate_s,
                       rate_nk=rate_nk, nu_used=nu_used, tests=tests,
                       extra_log_term=extra)


@dataclass(frozen=True)
class RateCurveRow:
    """One rate-curve point; its fields, in this order, are the report columns."""

    alpha_star: float
    beta: float
    m: float
    nu_star: float
    rate_s: float
    rate_nk: float


def emit_rate_curves(pairs: Sequence[Tuple[float, float]]) -> List[RateCurveRow]:
    """One row per (alpha*, beta) point; feed an m-grid as pairs (m, m)."""
    rows = []
    for alpha_star, beta in pairs:
        alpha_star, beta = float(alpha_star), float(beta)
        m = max(alpha_star, beta)
        rate_s, nu_star = rate_limit_at(m)
        rows.append(RateCurveRow(alpha_star, beta, m, nu_star, rate_s, rate_s / beta))
    return rows
