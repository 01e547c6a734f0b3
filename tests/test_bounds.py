import decimal
import math
import sys
from decimal import Decimal

import numpy as np
import pytest

from gkm.bounds import (
    REASON_P_EQ_2,
    REASON_P_GT_2,
    REASON_P_LT_2,
    REASON_VIOLATED,
    case_M,
    compute_bounds,
    bound_residual,
    max_cprime,
    min_iterations,
    product_threshold,
    recommended_sigma_f,
    sample_certified_region,
)
from gkm.exceptions import InfeasibleSigmaError


class TestComputeBounds:
    def test_p2_worked_example(self):
        r = compute_bounds(C=1.0, C_prime=0.1, p=2.0, R=1.0, A=1.0)
        assert r.a == pytest.approx(0.8)
        assert r.b == 1.0
        assert r.M == pytest.approx(5.0)
        assert r.G == pytest.approx(10.0)
        assert r.condition_holds and r.reason == REASON_P_EQ_2

    def test_p2_violation_reported_not_raised(self):
        r = compute_bounds(C=1.0, C_prime=0.3, p=2.0, R=1.0, A=1.0)
        assert r.a == pytest.approx(2.4)
        assert not r.condition_holds
        assert r.M is None and r.G is None
        assert r.reason == REASON_VIOLATED

    def test_p1_case(self):
        r = compute_bounds(C=0.5, C_prime=0.3, p=1.0, R=1.0, A=1.0)
        assert r.a == pytest.approx(0.6)
        assert r.b == pytest.approx(0.5)
        assert r.M == pytest.approx(1.1)
        assert r.condition_holds and r.reason == REASON_P_LT_2

    def test_p_gt_2_case(self):
        # a = 24 C'; pick C' so a b^{p-2} is safely under the threshold 1/4
        r = compute_bounds(C=1.0, C_prime=0.01, p=3.0, R=1.0, A=1.0)
        assert r.a == pytest.approx(0.24)
        assert r.M == pytest.approx(1.0 / (2.0 * 0.24))
        assert r.condition_holds and r.reason == REASON_P_GT_2

    def test_p_gt_2_violation(self):
        r = compute_bounds(C=1.0, C_prime=0.1, p=3.0, R=1.0, A=1.0)
        assert not r.condition_holds

    def test_near_two_exponent_does_not_overflow(self):
        r = compute_bounds(C=5.0, C_prime=1.0, p=2.0 - 1e-12, R=1.0, A=1.0)
        assert r.condition_holds
        assert r.M == math.inf and r.G == math.inf

    def test_matches_case_M_on_certified_draws(self):
        """compute_bounds gives, bit for bit, the M that criterion 01
        certifies through case_M, in all three cases, for (C, C', R) drawn to
        hit certified (a, b)."""
        rng = np.random.default_rng(5)
        ps = [*rng.uniform(1.0, 2.0, 30), *[2.0] * 30, *rng.uniform(2.0 + 1e-9, 4.0, 30)]
        for p in ps:
            a, b = sample_certified_region(float(p), rng, 150)
            for ai, bi, R in zip(a, b, rng.uniform(0.3, 2.0, a.size)):
                r = compute_bounds(bi / R, ai / ((2.0 * R) ** p * p), p, R, R)
                assert r.condition_holds
                assert r.M == float(case_M(r.a, r.b, p))
                if math.isfinite(r.M):
                    assert bound_residual(r.M, r.a, r.b, p) <= 1e-9

    def test_case_M_broadcasts_p_and_marks_violations_nan(self):
        M = case_M([0.5, 2.0, 0.24, 0.5], 1.0, [1.0, 2.0, 3.0, 3.0])
        assert M[0] == pytest.approx(1.5)
        assert math.isnan(M[1]) and math.isnan(M[3])  # a >= 1; a b > 1/4
        assert M[2] == compute_bounds(1.0, 0.01, 3.0, 1.0, 1.0).M

    def test_underflowed_a_at_p_gt_2_saturates(self):
        """C' (2R)^p p underflows to a = 0, and the exact M ~ 2.1e328 is past
        the float range: certified with M = G = inf."""
        r = compute_bounds(1.0, 1e-300, 3.0, 1e-10, 1e-10)
        assert r.a == 0.0 and r.condition_holds
        assert r.M == math.inf and r.G == math.inf

    def test_overflowed_a_reports_violation(self):
        r = compute_bounds(1.0, 1.0, 3.0, 1e200, 1.0)
        assert r.a == math.inf and not r.condition_holds

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compute_bounds(0.0, 0.1, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_bounds(1.0, 0.1, 0.5, 1.0, 1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("slot", range(5))
    def test_compute_bounds(self, bad, slot):
        args = [1.0, 0.1, 2.0, 1.0, 1.0]  # C, C', p, R, A
        args[slot] = bad
        with pytest.raises(ValueError):
            compute_bounds(*args)

    @pytest.mark.parametrize("slot", range(3))
    def test_max_cprime(self, bad, slot):
        args = [3.0, 1.0, 1.0]  # p, C, R
        args[slot] = bad
        with pytest.raises(ValueError):
            max_cprime(*args)

    @pytest.mark.parametrize("slot", range(3))
    def test_recommended_sigma_f(self, bad, slot):
        args = [3.0, 1.0, 1.0]  # p, C, C'
        args[slot] = bad
        with pytest.raises(ValueError):
            recommended_sigma_f(*args)

    @pytest.mark.parametrize("slot", range(3))
    def test_min_iterations(self, bad, slot):
        args = [0.1, 0.05, 10.0]  # epsilon, delta, G
        args[slot] = bad
        with pytest.raises(ValueError):
            min_iterations(*args)


class TestBoundResidual:
    def test_zero_at_p2_boundary_value(self):
        assert bound_residual(5.0, 0.8, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_p1_value(self):
        assert bound_residual(1.1, 0.6, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_p_three_halves_case(self):
        # M = max(1, (a+b)^2) = 4 at a = b = 1; f(4) = 2 - 4 + 1 = -1
        assert bound_residual(4.0, 1.0, 1.0, 1.5) == pytest.approx(-1.0)

    def test_nonpositive_on_random_draws_all_cases(self):
        rng = np.random.default_rng(0)
        for p in (1.0, 1.5, 1.99, 2.0, 2.5, 3.0, 4.0):
            a, b = sample_certified_region(p, rng, 1000)
            M = case_M(a, b, p)
            f = a * M ** (p - 1.0) - M + b
            assert np.max(f) <= 1e-9, p


class TestMinIterations:
    def test_worked_example(self):
        assert min_iterations(0.1, 0.05, 10.0) == 40_000

    def test_boundary_delta_one(self):
        assert min_iterations(2.0, 1.0, 1.0) == 1

    def test_quadruples_with_G(self):
        base = min_iterations(0.5, 0.1, 3.0)
        assert min_iterations(0.5, 0.1, 6.0) == 4 * base

    @pytest.mark.parametrize("G", [1e200, math.inf])
    def test_non_finite_T0_names_G(self, G):
        with pytest.raises(ValueError, match="G"):
            min_iterations(0.1, 0.05, G)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_iterations(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            min_iterations(1.0, 1.5, 1.0)


class TestMaxCprime:
    def test_p2_unit_radius_exact(self):
        assert max_cprime(2.0, 1.0, 1.0) == 0.125

    def test_p3_value(self):
        assert max_cprime(3.0, 1.0, 1.0) == pytest.approx(1.0 / 96.0, rel=1e-12)

    def test_p_below_two_unbounded(self):
        assert max_cprime(1.5, 1.0, 1.0) == math.inf

    def test_boundary_respected_through_compute_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = float(rng.uniform(2.0 + 1e-6, 4.0))
            C = float(rng.uniform(0.2, 5.0))
            R = float(rng.uniform(0.3, 2.0))
            cap = max_cprime(p, C, R)
            inside = compute_bounds(C, cap * (1 - 1e-9), p, R, R)
            outside = compute_bounds(C, cap * (1 + 1e-9), p, R, R)
            assert inside.condition_holds
            assert not outside.condition_holds

    def test_p2_strictness(self):
        cap = max_cprime(2.0, 1.0, 1.0)
        assert compute_bounds(1.0, cap * (1 - 1e-12), 2.0, 1.0, 1.0).condition_holds
        assert not compute_bounds(1.0, cap, 2.0, 1.0, 1.0).condition_holds  # strict <


class TestRecommendedSigmaF:
    def test_p2_worked_example(self):
        assert recommended_sigma_f(2.0, 1.0, 0.125, rho=0.01) == pytest.approx(0.99)

    def test_p3_default_margin(self):
        got = recommended_sigma_f(3.0, 1.0, 1.0)
        assert got == pytest.approx((1.0 / 96.0) ** 0.25 * (1 - 1e-3), rel=1e-12)

    def test_infeasible_when_margin_swallows_value(self):
        with pytest.raises(InfeasibleSigmaError):
            recommended_sigma_f(2.0, 1.0, 5000.0, rho=0.01)

    def test_round_trip_certifies(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            C = float(rng.uniform(0.2, 5.0))
            cp = float(rng.uniform(1e-3, 10.0))
            sf = recommended_sigma_f(2.0, C, cp)
            assert compute_bounds(C, cp, 2.0, sf, sf).condition_holds
        for _ in range(100):
            p = float(rng.uniform(2.0 + 1e-3, 4.0))
            C = float(rng.uniform(0.2, 5.0))
            cp = float(rng.uniform(1e-3, 10.0))
            sf = recommended_sigma_f(p, C, cp)
            assert compute_bounds(C, cp, p, sf, sf).condition_holds

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            recommended_sigma_f(1.5, 1.0, 1.0)


class TestLargeP:
    """Large p, where the direct powers of the bounds leave the float range."""

    @pytest.mark.parametrize("p", [150.0, 200.0, 1000.0, 1e6])
    def test_threshold_in_log_space(self, p):
        # (p-2)^(p-2) / (p-1)^(p-1) tends to 1/(e (p-1))
        want = math.exp((p - 2.0) * math.log(p - 2.0) - (p - 1.0) * math.log(p - 1.0))
        assert product_threshold(p) == pytest.approx(want, rel=1e-9)
        assert product_threshold(p) == pytest.approx(1.0 / (math.e * (p - 1.0)), rel=1.0 / p)

    def test_report_certifies_at_p_200(self):
        # a b^(p-2) = 3.2e-138 lies far below the threshold 0.00185
        r = compute_bounds(C=1.0, C_prime=1e-200, p=200.0, R=1.0, A=1.0)
        assert r.condition_holds and r.reason == REASON_P_GT_2
        assert r.M == pytest.approx(4.8172, rel=1e-4)
        assert bound_residual(r.M, r.a, r.b, r.p) <= 0.0

    @pytest.mark.parametrize("p", [150.0, 200.0, 500.0, 1000.0])
    def test_recommended_sigma_f_certifies(self, p):
        sf = recommended_sigma_f(p, 1.0, 1.0)
        assert 0.6 < sf < 0.8
        assert compute_bounds(1.0, 1.0, p, sf, sf).condition_holds

    def test_max_cprime_past_the_float_range_of_two_to_the_p(self):
        cap = max_cprime(1100.0)
        assert math.isfinite(cap) and cap >= 0.0

    @pytest.mark.parametrize("args", [(50.0, 1e-20), (500.0, 1.0, 1e-3), (1100.0, 1e-5)])
    def test_max_cprime_beyond_the_float_range_saturates(self, args):
        # C^(2-p) or R^(2-2p) alone leaves the float range; the true cap is above it
        assert max_cprime(*args) == math.inf

    @pytest.mark.parametrize("p", [1050.0, 1100.0, 1500.0, 2000.0])
    def test_recommended_sigma_f_certifies_where_the_cap_underflows(self, p):
        sf = recommended_sigma_f(p, 1.0, 1.0)
        assert compute_bounds(1.0, 1.0, p, sf, sf).condition_holds

    def test_residual_of_a_certified_report_past_the_float_range_of_M_squared(self):
        r = compute_bounds(1.0, 1e-300, 3.0, 1.0, 1.0)  # M = 1/(2a) ~ 2.1e298
        assert r.condition_holds
        assert bound_residual(r.M, r.a, r.b, r.p) <= 0.0


# (C, C', p, R, A) -> (a, M, G, condition_holds), literal values of the
# log-space powers across the three cases, both threshold regimes, a G past
# the float range of M^(p-1) and a saturated G
PINNED_REPORTS = [
    ((1.0, 0.3, 1.0, 1.0, 1.0), (0.6, 1.6, 3.2, True)),
    ((0.5, 0.3, 1.5, 1.0, 1.0), (1.2727922061357855, 3.1427922061357854, 5.899188309203678, True)),
    ((1.0, 0.05, 2.0, 1.0, 1.0), (0.4, 1.6666666666666667, 3.333333333333334, True)),
    ((2.0, 0.001, 2.5, 1.0, 0.7), (0.014142135623730952, 2222.2222222222217, 3705.103703703703, True)),
    ((1.0, 0.01, 3.0, 1.0, 1.0), (0.24, 2.0833333333333335, 4.125, True)),
    ((1.0, 0.1, 3.0, 1.0, 1.0), (2.4000000000000004, None, None, False)),
    ((0.3, 0.0001, 8.0, 0.9, 0.9), (0.08815968460800003, 1.0837738188015462, 1.50859865005891, True)),
    ((1.0, 1e-120, 100.0, 0.6, 0.6), (8.281797452201424e-111, 12.674207655548221, 13.402229955099212, True)),
    ((1.0, 1e-150, 150.0, 1.0, 2.5), (2.1408715390589398e-103, 4.775606499747265, 7.307657550081139, True)),
    ((1.0, 1e-200, 200.0, 1.0, 1.0), (3.21387608851798e-138, 4.8172432262316045, 5.841450478624728, True)),
    ((1.0, 1e-300, 3.0, 1.0, 1.0), (2.4e-299, 2.0833333333333332e+298, 3.1249999999999997e+298, True)),
    ((5.0, 1.0, 1.999999999999, 1.0, 1.0), (7.999999999990454, math.inf, math.inf, True)),
]

# the rows of PINNED_REPORTS whose M or G moved when M and G became one
# power each
RESET_ROWS = [1, 3, 7, 10]


@pytest.mark.parametrize("args, want", PINNED_REPORTS)
def test_compute_bounds_pinned_bits(args, want):
    r = compute_bounds(*args)
    assert (r.a, r.M, r.G, r.condition_holds) == want


def decimal_M_G(a: float, b: float, p: float) -> tuple[Decimal, Decimal]:
    """M and G = M + b + a M^(p-1) of the case table at the floats a, b and
    p, in 60-digit decimal arithmetic: the oracle of compute_bounds'
    powers."""
    ctx = decimal.Context(prec=60)
    a, b, p = Decimal(a), Decimal(b), Decimal(p)
    if p < 2:
        M = max(Decimal(1), ctx.power(a + b, ctx.divide(1, 2 - p)))
    elif p == 2:
        M = ctx.divide(b, 1 - a)
    else:
        M = ctx.power(ctx.multiply(p - 1, a), ctx.divide(-1, p - 2))
    return M, ctx.add(ctx.add(M, b), ctx.multiply(a, ctx.power(M, p - 1)))


def ulps_from(x: float, exact: Decimal) -> float:
    """|x - exact| in units of the last place of the float nearest exact."""
    return float(abs(Decimal(x) - exact) / Decimal(math.ulp(float(exact))))


@pytest.mark.parametrize("row", RESET_ROWS)
def test_pinned_rows_that_moved_are_within_an_ulp_of_decimal(row):
    r = compute_bounds(*PINNED_REPORTS[row][0])
    want_M, want_G = decimal_M_G(r.a, r.b, r.p)
    assert ulps_from(r.M, want_M) <= 1.0 and ulps_from(r.G, want_G) <= 1.0


@pytest.mark.parametrize("p", [3.0, 4.0, 10.0])
def test_M_beyond_the_float_range_of_p_minus_one_times_a(p):
    """With a near the largest float, (p-1)a overflows while M and G are
    floats: M is one power of p - 1 and a, not 0, and G their sum."""
    r = compute_bounds(1e-300, 1.2e308 / (2.0**p * p), p, 1.0, 1e-10)
    assert (p - 1.0) * r.a == math.inf and r.condition_holds
    want_M, want_G = decimal_M_G(r.a, r.b, p)
    assert r.M > 0.0 and ulps_from(r.M, want_M) <= 2.0 and ulps_from(r.G, want_G) <= 2.0
    assert float(case_M(r.a, r.b, p)) == r.M


def test_M_below_p_two_sums_a_and_b_beyond_a_float():
    """A draw whose float a + b, raised to 1/(2 - p) = 376, put M and G 63
    ulp from the oracle: a + b is rounded once, in long double."""
    r = compute_bounds(4.031807706099927e-15, 3.2652392435296885e-26, 1.9973424618043296,
                       232004441.02073663, 361631230033890.2)
    want_M, want_G = decimal_M_G(r.a, r.b, r.p)
    assert ulps_from(r.M, want_M) <= 2.0 and ulps_from(r.G, want_G) <= 2.0
    assert float(case_M(r.a, r.b, r.p)) == r.M


def test_product_threshold_limit_near_two():
    # (p-2)^(p-2) -> 1 as p -> 2+, so the threshold tends to 1/(p-1)^(p-1) = 1
    assert product_threshold(2.0 + 1e-12) == pytest.approx(1.0, rel=1e-9)


def test_recommended_sigma_f_round_trip_where_a_leaves_the_float_range():
    """From p = 2057, a = C' (2 sigma_f)^p p at sigma_f = recommended_sigma_f(p,
    1, 1) overflows: the report shows a = inf, and the condition, M and G
    come from a's factors, within 2 ulp of the decimal oracle at the exact a."""
    ctx = decimal.Context(prec=60)
    for p in range(2040, 2080):
        sf = recommended_sigma_f(float(p), 1.0, 1.0)
        r = compute_bounds(1.0, 1.0, float(p), sf, sf)
        assert r.condition_holds and r.reason == REASON_P_GT_2, p
        assert (r.a == math.inf) == (p >= 2057), p
        exact_a = ctx.multiply(ctx.power(2 * Decimal(sf), p), p)
        want_M, want_G = decimal_M_G(exact_a, r.b, r.p)
        assert ulps_from(r.M, want_M) <= 2.0 and ulps_from(r.G, want_G) <= 2.0, p


@pytest.mark.parametrize("args", [(1.0, 1e-300, 4.0, 1e-10, 1e-10), (1.0, 1e-300, 4.0, 1e-5, 1e-10),
                                  (1.0, 1e300, 4.0, 1.58e-78, 1e-10)])
def test_M_where_a_underflows_to_zero_or_a_subnormal(args):
    """a = C' (2R)^p p underflows to 0 (exact a ~ 6.4e-339) or to a subnormal
    (~ 6.4e-319), or is a normal ~ 4e-10 over a subnormal (2R)^p, while M is
    a float: the condition, M and G come from a's factors, within 2 ulp of
    the decimal oracle at the exact a (the third put M 40 ulp off)."""
    C, C_prime, p, R, A = args
    r = compute_bounds(*args)
    assert min((2.0 * R) ** p, r.a) < sys.float_info.min
    assert r.condition_holds and r.reason == REASON_P_GT_2
    ctx = decimal.Context(prec=60)
    exact_a = ctx.multiply(ctx.multiply(Decimal(C_prime), ctx.power(2 * Decimal(R), int(p))), Decimal(p))
    want_M, want_G = decimal_M_G(exact_a, r.b, r.p)
    assert ulps_from(r.M, want_M) <= 2.0 and ulps_from(r.G, want_G) <= 2.0
