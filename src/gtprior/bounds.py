"""Information-theoretic quantities: binary entropy, default combinatorial
counts, the optimal Bernoulli exponent nu*, achievability/converse
test-count coefficients and limiting rates.

One rule gives every coefficient and rate: the per-test mutual information
I(alpha, nu) = exp(-(1-alpha) nu) H2(exp(-alpha nu)) of :func:`mi_asymptotic`.
With m = max(alpha*, beta), alpha* and beta in (0, 1), the coefficient is
beta / I(m, nu) and the rate I(m, nu*).  A nu that is not finite and > 0 is
a ValueError; one at which I underflows, so beta / I is not finite, is a
NumericalError.  Coefficients multiply k*log2(n/k), never folding in 2*log2(k).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .milp import NumericalError

LN2 = math.log(2.0)


def _check_point(alpha_star: float, beta: float) -> None:
    if not (0.0 < alpha_star < 1.0):
        raise ValueError("alpha_star must lie in (0, 1)")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")


def _check_nu(nu: float) -> None:
    if not (0.0 < nu < math.inf):
        raise ValueError(f"nu must be finite and > 0, got {nu}")


@dataclass(frozen=True)
class BoundQuery:
    """Inputs for a bound evaluation; nu defaults to its optimal value."""

    alpha_star: float
    beta: float
    nu: Optional[float] = None
    n: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        _check_point(self.alpha_star, self.beta)
        if self.nu is not None:
            _check_nu(self.nu)
        if (self.n is None) != (self.k is None):
            raise ValueError("supply n and k together")
        if self.n is not None and not (1 <= self.k < self.n):
            raise ValueError("need 1 <= k < n")


@dataclass(frozen=True)
class BoundResult:
    """Achievability/converse coefficients, limiting rates, and optional
    absolute test counts; its fields, in this order, are the point-form JSON."""

    alpha_star: float
    beta: float
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


def _h2_exp(z: float) -> float:
    """H2(exp(-z)) in bits for z >= 0, with log2(exp(-z)) taken as -z/ln 2
    and 1 - exp(-z) as -expm1(-z), so that a small z keeps its digits."""
    x, y = math.exp(-z), -math.expm1(-z)
    return x * z / LN2 - y * math.log2(y) if y > 0.0 else 0.0


def mi_asymptotic(alpha: float, nu: float) -> float:
    """I(alpha, nu) = exp(-(1-alpha)*nu) * H2(exp(-alpha*nu)), the large-k
    per-test conditional mutual information in bits."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    _check_nu(nu)
    return math.exp(-(1.0 - alpha) * nu) * _h2_exp(alpha * nu)


def log2_n_tau_default(n: int, k: int, tau: int) -> float:
    """log2( C(k, tau) * C(n-k, tau) ), the unstructured count of incorrect
    sets at distance tau, via log-gamma (no overflow)."""
    if not (0 <= tau <= k <= n - k):
        raise ValueError("need 0 <= tau <= k <= n - k")

    def log2_comb(a, b):
        return (math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)) / LN2

    return log2_comb(k, tau) + log2_comb(n - k, tau)


def _nu_residual(nu: float, m: float) -> float:
    z = nu * m
    return _h2_exp(z) + m * math.log2(-math.expm1(-z))


def optimal_nu(m: float) -> float:
    """The test-minimizing Bernoulli exponent for fragility level m = max(alpha*, beta):
    the root of H2(exp(-nu m)) = -m * log2(1 - exp(-nu m)), bisected over
    [1e-6, 50] until the bracket is a few ulps wide, after a runtime check of
    the bracket's sign change.  The residual scales like m log(1/m), so no
    fixed residual threshold serves every m."""
    if not (0.0 < m <= 1.0):
        raise ValueError("m must lie in (0, 1]")
    lo, hi = 1e-6, 50.0
    f_lo, f_hi = _nu_residual(lo, m), _nu_residual(hi, m)
    if not (f_lo < 0.0 < f_hi):
        raise NumericalError(f"optimal_nu bracket failure for m={m}: "
                             f"f({lo})={f_lo}, f({hi})={f_hi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * sys.float_info.epsilon * hi:
            return mid
        if _nu_residual(mid, m) < 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError("optimal_nu bisection failed to narrow its bracket")


def achievability_coefficient(alpha_star: float, beta: float,
                              nu: Optional[float] = None) -> Tuple[float, float]:
    """(coefficient, nu_used): beta / I(m, nu) with m = max(alpha*, beta), the
    coefficient of k*log2(n/k) tests sufficient for approximate recovery; nu
    defaults to optimal_nu(m)."""
    _check_point(alpha_star, beta)
    m = max(alpha_star, beta)
    nu = optimal_nu(m) if nu is None else nu
    mi = mi_asymptotic(m, nu)
    coef = beta / mi if mi > 0.0 else math.inf
    if coef == math.inf:
        raise NumericalError(f"I(m={m}, nu={nu}) = {mi} is too small for a finite beta / I")
    return coef, nu


def inner_max_objective(alpha: float, beta: float, nu: float) -> float:
    """min(alpha, beta) / I(alpha, nu), the per-alpha objective whose maximum
    over [alpha*, 1] yields the coefficient.  Used by the grid-search
    validator of the analytic maximizer."""
    return min(alpha, beta) / mi_asymptotic(alpha, nu)


def converse_coefficient(alpha_star: float, beta: float) -> float:
    """Coefficient of k*log2(n/k) tests necessary: max(0, beta - alpha*)."""
    _check_point(alpha_star, beta)
    return max(0.0, beta - alpha_star)


def rate_limit_at(m: float) -> Tuple[float, float]:
    """(I(m, nu*), nu*): the limit of log2|S|/t at fragility level m and the
    optimal nu* it is reached at."""
    nu = optimal_nu(m)
    return mi_asymptotic(m, nu), nu


def evaluate(query: BoundQuery) -> BoundResult:
    """Every bound quantity for one query, from one bisection for nu*.  The
    rates are taken at nu*, the coefficient at the query's nu (nu* when
    unset); log2 C(n,k)/t is a 1/beta factor above log2|S|/t."""
    alpha_star, beta = query.alpha_star, query.beta
    rate_s, nu_star = rate_limit_at(max(alpha_star, beta))
    coef, nu_used = achievability_coefficient(
        alpha_star, beta, nu_star if query.nu is None else query.nu)
    tests = extra = None
    if query.n is not None:
        tests = coef * (query.k * math.log2(query.n / query.k))
        extra = 2.0 * math.log2(query.k)
    return BoundResult(alpha_star, beta, coef, converse_coefficient(alpha_star, beta),
                       rate_s, rate_s / beta, nu_used, tests, extra)


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
