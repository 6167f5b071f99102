import math

import numpy as np
import pytest

from gtprior import bounds
from gtprior.bounds import (BoundQuery, RateCurveRow, achievability_coefficient,
                            binary_entropy, converse_coefficient,
                            emit_rate_curves, evaluate, inner_max_objective,
                            log2_n_tau_default, mi_asymptotic, optimal_nu,
                            rate_limit_at, _nu_residual)
from gtprior.core import records_csv
from gtprior.milp import NumericalError

LN2 = math.log(2.0)


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestMiAsymptotic:
    def test_alpha_one_nu_ln2(self):
        assert mi_asymptotic(1.0, LN2) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_general(self):
        for nu in (0.3, 0.7, 1.5):
            assert mi_asymptotic(1.0, nu) == pytest.approx(
                binary_entropy(math.exp(-nu)))

    def test_alpha_half_nu_ln2(self):
        # 2^{-1/2} H2(2^{-1/2}); high-precision value cross-checked with mpmath.
        assert mi_asymptotic(0.5, LN2) == pytest.approx(0.6169007023186117,
                                                        abs=1e-12)
        assert mi_asymptotic(0.5, LN2) == pytest.approx(0.617, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            mi_asymptotic(0.0, 1.0)
        for nu in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="nu must be finite and > 0"):
                mi_asymptotic(0.5, nu)


class TestLog2NTauDefault:
    def test_tau_zero(self):
        assert log2_n_tau_default(10, 3, 0) == pytest.approx(0.0, abs=1e-12)

    def test_small_binomials(self):
        assert log2_n_tau_default(5, 2, 1) == pytest.approx(math.log2(6))
        assert log2_n_tau_default(6, 2, 2) == pytest.approx(math.log2(6))

    def test_matches_exact_binomials(self):
        # lgamma carries ~1e-9 absolute error at n = 1e6 (cancellation of
        # ~1e7-sized terms); exact for desk-sized arguments.
        for n, k, tau in [(20, 5, 3), (50, 10, 7), (100, 40, 12), (10**6, 10**3, 10)]:
            want = math.log2(math.comb(k, tau) * math.comb(n - k, tau))
            assert log2_n_tau_default(n, k, tau) == pytest.approx(want, rel=1e-9,
                                                                  abs=1e-6)

    def test_asymptotic_trend(self):
        # log2 C(n-k, tau) = (tau log2(n/tau))(1 + o(1)): the ratio shrinks
        # toward 1 as n grows with tau = k fixed (slow o(1), not a 5% bound
        # at desk parameters; see the decisions ledger).
        ratios = []
        for n in (10**6, 10**9, 10**12):
            v = log2_n_tau_default(n, 10**3, 10**3)
            ratios.append(v / (10**3 * math.log2(n / 10**3)))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] < 1.06

    def test_domain(self):
        with pytest.raises(ValueError):
            log2_n_tau_default(10, 3, 4)  # tau > k
        with pytest.raises(ValueError):
            log2_n_tau_default(10, 7, 2)  # k > n - k


class TestOptimalNu:
    def test_m_one_is_ln2(self):
        assert optimal_nu(1.0) == pytest.approx(LN2, abs=1e-6)

    def test_m_one_is_ln2_to_the_last_bits(self):
        assert optimal_nu(1.0) == pytest.approx(LN2, rel=1e-12, abs=0)

    @staticmethod
    def bisected(m, steps=200):
        lo, hi = 1e-6, 50.0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if _nu_residual(mid, m) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("m", [1e-9, 1e-4, 0.3, 1.0])
    def test_small_m_is_bisected_to_the_bracket_not_to_a_residual(self, m):
        # The residual scales like m log(1/m): a fixed |f| stop left ν* 0.2%
        # short at m = 1e-9 (0.952149 against 0.954066).
        assert optimal_nu(m) == pytest.approx(self.bisected(m), rel=1e-14, abs=0)

    @pytest.mark.parametrize("m", [1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
    def test_tiny_m_brackets_and_bisects(self, m):
        # exp(-1e-6 m) rounds to 1 below m of about 1.1e-10, so 1 - exp was 0
        # and its log2 a math domain error.
        assert _nu_residual(1e-6, m) < 0.0 < _nu_residual(50.0, m)
        nu = optimal_nu(m)
        assert math.isfinite(nu) and 0.9 < nu < 1.0
        assert _nu_residual(nu * (1 - 1e-12), m) < 0.0 < _nu_residual(nu * (1 + 1e-12), m)

    @pytest.mark.parametrize("m, want", [(1e-12, 0.9651161103043251),
                                         (1e-9, 0.9540658364468281),
                                         (1e-4, 0.9030734988082324)])
    def test_small_m_matches_a_50_digit_root(self, m, want):
        # Roots of the residual taken with mpmath at 50 digits; 1 - exp(-z)
        # lost 4e-13 relative at m = 1e-4 and 5e-8 at m = 1e-9.
        assert optimal_nu(m) == pytest.approx(want, rel=1e-15, abs=0)

    def test_residuals_small(self):
        for m in (0.1, 0.3, 0.5, 0.8, 1.0):
            nu = optimal_nu(m)
            assert abs(_nu_residual(nu, m)) < 1e-10

    def test_m_half_golden(self):
        # Frozen from the bisection oracle; cross-checked with mpmath findroot.
        nu = optimal_nu(0.5)
        assert nu == pytest.approx(0.7033575301, abs=1e-8)
        assert nu > LN2

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_nu(0.0)
        with pytest.raises(ValueError):
            optimal_nu(1.5)


class TestAchievability:
    def test_beta_near_one_approaches_unstructured_bound(self):
        coef, _ = achievability_coefficient(0.3, 0.999, nu=LN2)
        assert abs(coef - 1.0) < 0.01

    def test_linear_in_beta_at_fixed_m(self):
        # With alpha* dominating, m is fixed and beta only scales the value.
        c1, _ = achievability_coefficient(0.9, 0.4, nu=LN2)
        c2, _ = achievability_coefficient(0.9, 0.2, nu=LN2)
        assert c1 / c2 == pytest.approx(2.0, abs=1e-12)

    def test_worked_point(self):
        coef, nu = achievability_coefficient(0.1, 0.5, nu=LN2)
        assert coef == pytest.approx(0.8105032108421304, abs=1e-12)
        assert coef == pytest.approx(0.8105, abs=1e-3)
        assert nu == LN2

    def test_optimal_nu_is_no_worse_than_ln2(self):
        for a, b in [(0.1, 0.5), (0.6, 0.3), (0.2, 0.9), (0.45, 0.45)]:
            c_star, _ = achievability_coefficient(a, b)
            c_ln2, _ = achievability_coefficient(a, b, nu=LN2)
            assert c_star <= c_ln2 + 1e-12

    def test_inner_max_attained_at_m(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            a = float(rng.uniform(0.05, 0.95))
            b = float(rng.uniform(0.05, 0.95))
            nu = float(rng.uniform(0.2, 2.0))
            m = max(a, b)
            grid = np.linspace(a, 1.0, 201)
            vals = [inner_max_objective(al, b, nu) for al in grid]
            assert max(vals) <= inner_max_objective(m, b, nu) * (1 + 1e-9)

    def test_at_least_converse(self):
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            for b in (0.1, 0.3, 0.5, 0.7, 0.9):
                coef, _ = achievability_coefficient(a, b)
                assert coef >= converse_coefficient(a, b) - 1e-12

    def test_is_beta_over_mi_at_m(self):
        for a, b, nu in [(0.1, 0.5, LN2), (0.7, 0.3, 1.3), (0.45, 0.45, 0.2)]:
            coef, _ = achievability_coefficient(a, b, nu=nu)
            assert coef == b / mi_asymptotic(max(a, b), nu)

    @pytest.mark.parametrize("nu", [800.0, 1e6, 1e-315])
    def test_underflow_of_mi_is_numerical_error(self, nu):
        with pytest.raises(NumericalError, match="too small for a finite beta / I"):
            achievability_coefficient(0.1, 0.5, nu=nu)

    def test_tiny_nu_keeps_its_digits(self):
        # exp(-z) rounds to 1 here, so 1 - exp(-z) made I exactly 0; as z ->
        # 0, H2(exp(-z)) -> z (1 + ln(1/z)) / ln 2.
        z = 0.5e-300
        coef, _ = achievability_coefficient(0.1, 0.5, nu=1e-300)
        assert coef == pytest.approx(0.5 * LN2 / (z * (1.0 - math.log(z))), rel=1e-14)


class TestConverse:
    def test_formula(self):
        assert converse_coefficient(0.2, 0.5) == pytest.approx(0.3)

    def test_vacuous_when_alpha_dominates(self):
        assert converse_coefficient(0.5, 0.5) == 0.0
        assert converse_coefficient(0.7, 0.5) == 0.0

    def test_alpha_to_zero_approaches_beta(self):
        assert converse_coefficient(1e-9, 0.8) == pytest.approx(0.8, abs=1e-8)


class TestRateLimits:
    def test_m_one_rate_is_one(self):
        rate, nu = rate_limit_at(1.0)
        assert rate == pytest.approx(1.0, abs=1e-6)
        assert nu == pytest.approx(LN2, abs=1e-6)

    def test_rate_is_mi_at_nu_star(self):
        for m in (0.2, 0.45, 0.7, 1.0):
            rate, nu = rate_limit_at(m)
            assert (rate, nu) == (mi_asymptotic(m, optimal_nu(m)), optimal_nu(m))

    def test_min_parameter_does_not_matter(self):
        r1 = evaluate(BoundQuery(alpha_star=0.7, beta=0.2)).rate_s
        r2 = evaluate(BoundQuery(alpha_star=0.7, beta=0.6)).rate_s
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_rate_nk_grows_as_beta_shrinks(self):
        rnk1 = evaluate(BoundQuery(alpha_star=0.6, beta=0.4)).rate_nk
        rnk2 = evaluate(BoundQuery(alpha_star=0.6, beta=0.2)).rate_nk
        assert rnk2 > rnk1

    def test_reciprocal_identity(self):
        for a, b in [(0.1, 0.5), (0.7, 0.3), (0.4, 0.9), (0.25, 0.25)]:
            res = evaluate(BoundQuery(alpha_star=a, beta=b))
            assert abs(1.0 / res.rate_s - res.coefficient / b) < 1e-9
            assert res.rate_nk == res.rate_s / b

    def test_m_half_golden(self):
        rate, _ = rate_limit_at(0.5)
        assert rate == pytest.approx(0.6169486434131745, abs=1e-9)


class TestRateCurves:
    def test_single_point_row(self):
        rows = emit_rate_curves([(1.0 - 1e-12, 1.0 - 1e-12)])
        row = rows[0]
        assert row.nu_star == pytest.approx(LN2, abs=1e-5)
        assert row.rate_s == pytest.approx(1.0, abs=1e-5)
        assert row.rate_nk == pytest.approx(1.0 / row.beta, abs=1e-5)

    def test_monotone_nu_and_rate_nk_floor(self):
        ms = np.linspace(0.1, 1.0, 10)
        rows = emit_rate_curves([(m, m) for m in ms])
        nus = [r.nu_star for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(nus, nus[1:]))  # non-increasing
        assert all(r.rate_nk >= 1.0 - 1e-9 for r in rows)

    def test_csv_shape(self):
        rows = emit_rate_curves([(0.5, 0.5), (0.8, 0.8)])
        text = records_csv(RateCurveRow, rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("alpha_star,beta,m,")
        assert len(lines) == 3


class TestEvaluate:
    def test_absolute_test_count(self):
        res = evaluate(BoundQuery(alpha_star=0.1, beta=0.5, nu=LN2,
                                  n=1000, k=10))
        klognk = 10 * math.log2(100)
        assert res.tests == pytest.approx(res.coefficient * klognk)
        assert res.extra_log_term == pytest.approx(2 * math.log2(10))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(alpha_star=0.0, beta=0.5)
        with pytest.raises(ValueError):
            BoundQuery(alpha_star=0.5, beta=1.0)
        with pytest.raises(ValueError):
            BoundQuery(alpha_star=0.5, beta=0.5, n=10)  # k missing
        for nu in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="nu must be finite and > 0"):
                BoundQuery(alpha_star=0.5, beta=0.5, nu=nu)

    @pytest.mark.parametrize("nu", [None, LN2])
    def test_one_bisection_per_query(self, monkeypatch, nu):
        calls = []
        real = bounds.optimal_nu
        monkeypatch.setattr(bounds, "optimal_nu", lambda m: calls.append(m) or real(m))
        res = evaluate(BoundQuery(alpha_star=0.1, beta=0.5, nu=nu))
        assert calls == [0.5]
        assert res.nu_used == (real(0.5) if nu is None else nu)

    def test_default_nu_is_the_rates_nu(self):
        res = evaluate(BoundQuery(alpha_star=0.3, beta=0.9))
        assert res.rate_s == mi_asymptotic(0.9, res.nu_used)
        assert res.coefficient == 0.9 / res.rate_s
        assert (res.alpha_star, res.beta) == (0.3, 0.9)
