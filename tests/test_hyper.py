import dataclasses
import math
import time

import pytest

from dn2.core import Modulus, PeriodMethod, _f_prime, periods
from dn2.hyper import (
    F_HALF_ONE,
    F_QUARTER_HALF,
    F_QUARTER_ONE,
    HyperParams,
    _digamma,
    agm,
    complete_K,
    f14_34_12_closed,
    gauss_2f1,
)
from dn2.identities import identity_bbg_91, identity_bbg_92, transform_signature4
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


# float.hex of values computed by the per-term series formulas that the
# family tables replaced; the tables must reproduce them bit for bit.
# (x, xc) pairs: xc = 1 - x, and x = 1 - xc for the two smallest xc
GOLDEN_X = [(x, 1.0 - x) for x in (0.0, 0.3, 0.75, math.nextafter(0.75, 1.0), 0.9)] + [
    (1.0 - xc, xc) for xc in (1e-16, 1e-300)
]
GOLDEN_2F1 = {
    F_QUARTER_ONE: [
        "0x1.0000000000000p+0", "0x1.1165b29ef1ecfp+0", "0x1.464ced3b8ef8dp+0",
        "0x1.464ced3b8ef8ep+0", "0x1.77dd844dc3fb7p+0", "0x1.274e361d79ea0p+3",
        "0x1.38d494bac3f46p+7",
    ],
    F_HALF_ONE: [
        "0x1.0000000000000p+0", "0x1.17520fc3ceb7fp+0", "0x1.5f7518b378cfep+0",
        "0x1.5f7518b378cf7p+0", "0x1.a429e797b066cp+0", "0x1.93811f460461ap+3",
        "0x1.b986c50adcb35p+7",
    ],
}
GOLDEN_QUARTER_HALF = {
    0.3: "0x1.2537c1e5d8f84p+0",
    0.75: "0x1.bb67ae8584caap+0",
    0.9: "0x1.485e24cca181cp+1",
}
# kappa -> (K, K') by PeriodMethod.HYPER
GOLDEN_HYPER_PERIODS = {
    1e-6: ("0x1.921fb54443246p+0", "0x1.fca37295ef05fp+3"),
    0.6: ("0x1.b472b565457b4p+0", "0x1.552c009726817p+1"),
    1.0 - 1e-9: ("0x1.11aad5278b17ep+3", "0x1.1c5831afa0265p+1"),
}
# (lhs, rhs, residual) at lambda = 0.85, where all three residuals are nonzero
GOLDEN_IDENTITIES = {
    identity_bbg_91: ("0x1.40c89bda91658p+0", "0x1.40c89bda91652p+0", "0x1.8000000000000p-50"),
    identity_bbg_92: ("0x1.0fd51ad476e74p+0", "0x1.0fd51ad476e73p+0", "0x1.0000000000000p-52"),
    transform_signature4: (
        "0x1.2e338a922e794p+1", "0x1.2e338a922e796p+1", "-0x1.0000000000000p-50",
    ),
}


class TestGolden:
    @pytest.mark.parametrize("p", list(GOLDEN_2F1), ids=["quarter_one", "half_one"])
    def test_zero_balanced_families_both_regimes(self, p):
        got = [gauss_2f1(p, x, xc).hex() for x, xc in GOLDEN_X]
        assert got == GOLDEN_2F1[p]

    def test_quarter_half_direct_series(self):
        got = {x: gauss_2f1(F_QUARTER_HALF, x, 1.0 - x).hex() for x in GOLDEN_QUARTER_HALF}
        assert got == GOLDEN_QUARTER_HALF

    def test_hyper_periods(self):
        for kappa, want in GOLDEN_HYPER_PERIODS.items():
            pp = periods(Modulus(kappa), PeriodMethod.HYPER)
            assert (pp.K.hex(), pp.Kprime.hex()) == want, kappa

    def test_identity_residuals(self):
        for check, want in GOLDEN_IDENTITIES.items():
            rep = check(0.85)
            assert (rep.lhs.hex(), rep.rhs.hex(), rep.residual.hex()) == want, check.__name__


class TestCallerFamilies:
    # families built by a caller, checked against mpmath in both regimes with
    # the bounds of TestGauss2F1: 1e-14 on the direct series, 1e-13 on the
    # connection series, 1e-15 relative where x rounds to 1
    @staticmethod
    def ref(p, xc):
        import mpmath

        with mpmath.workdps(40):
            return float(mpmath.hyp2f1(p.a, p.b, p.c, 1 - mpmath.mpf(xc)))

    def test_zero_balanced_thirds(self):
        p = HyperParams(1.0 / 3.0, 2.0 / 3.0, 1.0)
        for x in (0.3, 0.7):
            assert abs(gauss_2f1(p, x, 1.0 - x) - self.ref(p, 1.0 - x)) <= 1e-14, x
        for x in (0.8, 0.9, 0.99):
            assert abs(gauss_2f1(p, x, 1.0 - x) - self.ref(p, 1.0 - x)) <= 1e-13, x
        for xc in (1e-8, 1e-20):
            ref = self.ref(p, xc)
            assert abs(gauss_2f1(p, 1.0 - xc, xc) / ref - 1) <= 1e-15, xc

    def test_non_balanced(self):
        # c - a - b = 3/4: past the cutover it stays on the direct series,
        # and fails loudly where that cannot converge
        p = HyperParams(0.25, 0.5, 1.5)
        for x in (0.3, 0.7, 0.8, 0.9):
            assert abs(gauss_2f1(p, x, 1.0 - x) - self.ref(p, 1.0 - x)) <= 1e-14, x
        with pytest.raises(ConvergenceError):
            gauss_2f1(p, 0.999, 1.0 - 0.999)

    def test_polynomial_families(self):
        # a or b zero or a negative integer: no connection series (its
        # prefactor has lgamma's poles), and the direct series terminates
        # (mpmath: 0.46, 0.04 and 1)
        for (a, b, c), x in (((-2.0, 3.0, 1.0), 0.9), ((3.0, -2.0, 1.0), 0.8), ((0.0, 1.0, 1.0), 0.9)):
            p = HyperParams(a, b, c)
            assert p._connection is None
            assert abs(gauss_2f1(p, x, 1.0 - x) - self.ref(p, 1.0 - x)) <= 1e-15, (p, x)

    def test_negative_gamma_prefactor(self):
        # Gamma(-1/2) < 0, and Gamma(-1/4)^2 > 0 > Gamma(-1/2): the
        # connection series keeps the sign of Gamma(c)/(Gamma(a) Gamma(b))
        for p in (HyperParams(-0.5, 1.5, 1.0), HyperParams(-0.25, -0.25, -0.5)):
            for x in (0.8, 0.9, 0.99):
                assert abs(gauss_2f1(p, x, 1.0 - x) - self.ref(p, 1.0 - x)) <= 1e-13, (p, x)

    def test_large_negative_a_fails_at_once(self):
        # psi(a) takes constant time for negative a, and the series
        # diverges: a typed error in milliseconds, whatever |a|
        p = HyperParams(-999999.5, 1000000.5, 1.0)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            gauss_2f1(p, 0.9, 0.1)
        assert time.perf_counter() - start < 0.05

    def test_direct_series_never_builds_the_connection_table(self):
        # this keeps a family's direct-series calls away from lgamma
        p = HyperParams(0.25, 0.75, 1.0)
        gauss_2f1(p, 0.3, 0.7)
        gauss_2f1(p, 0.75, 0.25)
        assert "_direct" in vars(p)
        assert "_connection" not in vars(p)
        gauss_2f1(p, 1.0, 1e-300)
        assert "_connection" in vars(p)

    def test_tables_grown_by_racing_threads(self):
        # fresh families, each table taken by four threads at once: a thread
        # that read a table before it was whole, or a table built twice
        # (Python 3.12 and later) that differed, would change the values
        import sys
        import threading

        points = [(0.75, 0.25), (0.9, 0.1), (0.97, 1.0 - 0.97)]
        ref = HyperParams(0.25, 0.5, 1.5)
        want = [gauss_2f1(ref, x, xc) for x, xc in points]
        families = [HyperParams(0.25, 0.5, 1.5) for _ in range(40)]
        got = []

        def work():
            for p in families:
                got.append([gauss_2f1(p, x, xc) for x, xc in points])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * (4 * len(families))

    def test_fresh_and_cached_tables_agree(self):
        for x, xc in GOLDEN_X:
            fresh = HyperParams(0.25, 0.75, 1.0)
            assert gauss_2f1(fresh, x, xc) == gauss_2f1(F_QUARTER_ONE, x, xc), x

    def test_tables_leave_identity_alone(self):
        def same(p):
            assert p == F_QUARTER_ONE and hash(p) == hash(F_QUARTER_ONE)
            assert repr(p) == repr(F_QUARTER_ONE) == "HyperParams(a=0.25, b=0.75, c=1.0)"
            assert dataclasses.astuple(p) == (0.25, 0.75, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.a = 0.5

        p = HyperParams(0.25, 0.75, 1.0)
        for name in ("_direct", "_connection"):  # as before any call built them
            vars(F_QUARTER_ONE).pop(name, None)
        same(p)
        same(F_QUARTER_ONE)
        for q in (p, F_QUARTER_ONE):
            gauss_2f1(q, 0.3, 0.7)
            gauss_2f1(q, 0.9, 0.1)
        assert "_direct" in vars(F_QUARTER_ONE) and "_connection" in vars(F_QUARTER_ONE)
        same(p)
        same(F_QUARTER_ONE)
        assert p != HyperParams(0.25, 0.75, 0.5)
        assert {p: 1}[F_QUARTER_ONE] == 1


class TestDigamma:
    def test_negative_non_integers(self):
        import mpmath

        for x in (-0.25, -0.5, -0.75, -1.5, -2.75, -10.3, -123.456,
                  -999999.5, -1e9 + 0.3, -1e12 + 0.5):
            with mpmath.workdps(40):
                ref = float(mpmath.digamma(x))
            assert abs(_digamma(x) - ref) <= 2e-15 * max(1.0, abs(ref)), x


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
