import math

import pytest

from dn2.core import Modulus, _f_prime
from dn2.hyper import (
    F_HALF_ONE,
    F_QUARTER_HALF,
    F_QUARTER_ONE,
    HyperParams,
    agm,
    complete_K,
    f14_34_12_closed,
    gauss_2f1,
)
from dn2.kernel import ConvergenceError, DomainError, integrate

# reference values from mpmath.hyp2f1 / mpmath.ellipk at dps=50
REF_Q1_025 = 1.0546486148314670479
REF_H1_050 = 1.180340599016096226
REF_QH_030 = 1.1453820406104292963
REF_Q1_090 = 1.4682238283021268666
REF_Q1_080 = 1.3210723041379709815
REF_Q1_070 = 1.2370409721959650675
REF_K_050 = 1.8540746773013719184
REF_K_075 = 2.1565156474996432354


class TestGauss2F1:
    def test_at_zero(self):
        for p in (F_QUARTER_ONE, F_HALF_ONE, F_QUARTER_HALF):
            assert gauss_2f1(p, 0.0, 1.0) == 1.0

    def test_direct_series(self):
        assert abs(gauss_2f1(F_QUARTER_ONE, 0.25, 0.75) - REF_Q1_025) <= 1e-14

    def test_half_family_vs_agm(self):
        ref = 2.0 / math.pi * (0.5 * math.pi / agm(1.0, math.sqrt(0.5)))
        assert abs(gauss_2f1(F_HALF_ONE, 0.5, 0.5) - ref) <= 1e-14
        assert abs(gauss_2f1(F_HALF_ONE, 0.5, 0.5) - REF_H1_050) <= 1e-14

    def test_connection_formula(self):
        val = gauss_2f1(F_QUARTER_ONE, 0.9, 0.1)
        assert abs(val - REF_Q1_090) <= 1e-13

    def test_cutover_overlap(self):
        # the series regime (x=0.7) and the connection regime (x=0.8)
        # bracket the cutover; both must hit the reference
        assert abs(gauss_2f1(F_QUARTER_ONE, 0.7, 1.0 - 0.7) - REF_Q1_070) <= 1e-13
        assert abs(gauss_2f1(F_QUARTER_ONE, 0.8, 1.0 - 0.8) - REF_Q1_080) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1(F_QUARTER_ONE, 1.0, 0.0)
        with pytest.raises(DomainError):
            gauss_2f1(F_QUARTER_ONE, -0.1, 1.1)
        with pytest.raises(DomainError):
            gauss_2f1(F_QUARTER_ONE, 0.5, 0.4)  # not a complement pair

    def test_x_rounding_to_one_with_its_complement(self):
        # x = 1 - 1e-20 rounds to 1.0; the complement picks the connection
        # series and carries the digits that x lost
        import mpmath

        for xc in (1e-20, 1e-100):
            with mpmath.workdps(130):
                ref = mpmath.hyp2f1(0.25, 0.75, 1, 1 - mpmath.mpf(xc))
            assert abs(gauss_2f1(F_QUARTER_ONE, 1.0, xc) / ref - 1) <= 1e-15

    def test_bad_params(self):
        with pytest.raises(DomainError):
            HyperParams(0.25, 0.75, 0.0)
        with pytest.raises(DomainError):
            HyperParams(0.25, 0.75, -2.0)

    def test_non_balanced_family_fails_loudly_near_one(self):
        # (1/4, 3/4; 1/2) has c - a - b = -1/2, so there is no logarithmic
        # connection path; close to 1 the series must fail rather than return
        # a degraded value
        with pytest.raises(ConvergenceError):
            gauss_2f1(F_QUARTER_HALF, 0.999, 1.0 - 0.999)

    def test_termwise_integration(self):
        # quadrature of x -> F(a,b;1/2; k2 sin^2 t) over a quarter period
        # equals (pi/2) F(a,b;1; k2)
        for k2 in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            lhs = integrate(
                lambda t: gauss_2f1(F_QUARTER_HALF, k2 * math.sin(t) ** 2,
                                    1.0 - k2 * math.sin(t) ** 2),
                0.0,
                0.5 * math.pi,
            ).value
            rhs = 0.5 * math.pi * gauss_2f1(F_QUARTER_ONE, k2, 1.0 - k2)
            assert abs(lhs - rhs) <= 1e-10, k2


class TestClosedForm:
    def test_at_zero(self):
        assert f14_34_12_closed(1.0) == 1.0

    def test_at_half(self):
        ref = math.cos(math.pi / 8) / math.cos(math.pi / 4)
        assert abs(f14_34_12_closed(0.5) - ref) <= 1e-15

    def test_matches_series(self):
        assert abs(f14_34_12_closed(0.7) - REF_QH_030) <= 1e-14
        for i in range(10):
            u = 0.1 * i
            ref = gauss_2f1(F_QUARTER_HALF, u, 1.0 - u)
            assert abs(f14_34_12_closed(1.0 - u) - ref) <= 1e-13

    def test_u_that_rounds_to_one_uses_its_complement(self):
        # F = sqrt((1 + c)/2)/c with c = sqrt(uc); from u alone, 1 - u would be 0
        import mpmath

        for uc in (1e-10, 1e-17, 1e-300):
            with mpmath.workdps(40):
                c = mpmath.sqrt(mpmath.mpf(uc))
                ref = float(mpmath.sqrt((1 + c) / 2) / c)
            assert abs(f14_34_12_closed(uc) - ref) <= 2e-16 * ref, uc

    def test_negative_u(self):
        # uc > 1 is u < 0, where the closed form is still F(1/4, 3/4; 1/2; u)
        import mpmath

        for uc in (1.0 + 2.0**-52, 1.5, 4.0, 1e6, 1e300):
            with mpmath.workdps(40):
                ref = float(mpmath.hyp2f1(0.25, 0.75, 0.5, 1 - mpmath.mpf(uc)))
            assert abs(f14_34_12_closed(uc) - ref) <= 2e-16 * ref, uc

    def test_domain(self):
        for uc in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                f14_34_12_closed(uc)

    def test_f_prime_where_the_complement_rounds_above_one(self):
        # at this kappa lam rounds to 1, and lam^2 + kappa^2 cos^2 0 to
        # 1 + 2**-52, whose root rounds to 1
        assert _f_prime(Modulus(103965003 * 2**-53))(0.0) == 1.0


class TestCompleteK:
    def test_at_zero(self):
        assert abs(complete_K(0.0, 1.0) - 0.5 * math.pi) <= 1e-15

    def test_vs_quadrature(self):
        r = integrate(
            lambda t: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
            0.0,
            0.5 * math.pi,
        )
        assert abs(complete_K(0.5, 0.5) - r.value) <= 1e-12
        assert abs(complete_K(0.5, 0.5) - REF_K_050) <= 1e-14

    def test_vs_series(self):
        assert abs(complete_K(0.75, 0.25) - 0.5 * math.pi * gauss_2f1(F_HALF_ONE, 0.75, 0.25)) \
            <= 1e-12
        assert abs(complete_K(0.75, 0.25) - REF_K_075) <= 1e-14
        for i in range(1, 20):
            m = 0.05 * i
            assert abs(complete_K(m, 1.0 - m) - 0.5 * math.pi * gauss_2f1(F_HALF_ONE, m, 1.0 - m)) \
                <= 1e-12, m

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_K(1.0, 0.0)
        with pytest.raises(DomainError):
            complete_K(-0.2, 1.2)
        with pytest.raises(DomainError):
            complete_K(0.5, 0.6)  # not a complement pair

    def test_parameter_rounding_to_one(self):
        # K(m) with m = 1 - mc for mc below half an ulp of 1: the AGM runs on
        # sqrt(mc), so the complement alone carries the digits
        import mpmath

        for mc in (1e-17, 1e-30, 1e-300):
            with mpmath.workdps(330):
                ref = mpmath.ellipk(1 - mpmath.mpf(mc))
            assert abs(complete_K(1.0, mc) / ref - 1) <= 1e-15
