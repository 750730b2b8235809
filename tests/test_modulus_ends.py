"""Property tests against mpmath at both ends of the modulus range.

kappa is drawn log-spaced from [1e-12, 0.5] and, through 1 - kappa, from
[0.5, 1 - 1e-12].  At the small end lam = sqrt(1 - kappa^2) rounds to 1 below
kappa ~ 1e-8, and at the large end 1 - kappa^2 loses the digits of kappa, so
every quantity derived from kappa must come from Modulus in a form that does
not cancel, and every kernel must take a parameter with its exact complement.
"""

import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from dn2 import core
from dn2.core import Modulus, PeriodMethod, Route, dn2, periods
from dn2.hyper import complete_K
from dn2.jacobi import jacobi_complex, jacobi_real
from dn2.kernel import ConvergenceError, DomainError

DPS = 40
# points closer than this share of K' to a pole are not sampled: the value
# there is conditioned by z itself, not by the evaluation
POLE_CLEARANCE = 0.05

_log_end = st.floats(min_value=-12.0, max_value=math.log10(0.5))
KAPPA = st.one_of(
    _log_end.map(lambda e: 10.0**e),
    _log_end.map(lambda e: 1.0 - 10.0**e),
)
UNIT = st.floats(min_value=-1.0, max_value=1.0)
FAR = st.floats(min_value=2.0, max_value=1e3)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def reference(kappa):
    """(lam, m, c, K, K') of kappa at DPS digits."""
    k = mpmath.mpf(kappa)
    lam = mpmath.sqrt((1 - k) * (1 + k))
    m = (1 - lam) / (1 + lam)
    c = mpmath.sqrt((1 + lam) / 2)
    return lam, m, c, mpmath.ellipk(m) / c, mpmath.ellipk(1 - m) / c


def reduced(z, K, Kp):
    """z modulo the periods 2K and 2iK', exactly, as an mpc in the rectangle
    |Re| <= K, |Im| <= K', and its distance from the poles (0, +-K')."""
    w = mpmath.mpc(z.real, z.imag)
    w -= 2 * K * mpmath.nint(w.real / (2 * K)) + 2j * Kp * mpmath.nint(w.imag / (2 * Kp))
    return w, abs(mpmath.mpc(w.real, Kp - abs(w.imag)))


@given(KAPPA)
@PROPERTY
def test_elliptic_and_hyper_periods(kappa):
    with mpmath.workdps(DPS):
        _, _, _, K, Kp = reference(kappa)
        for method in (PeriodMethod.ELLIPTIC, PeriodMethod.HYPER):
            p = periods(Modulus(kappa), method)
            assert abs(p.K / K - 1) <= 1e-14, (method, "K")
            assert abs(p.Kprime / Kp - 1) <= 1e-14, (method, "K'")


# INTEGRAL's rule changes where cot gamma = 0.0708: for K', kappa / lam =
# 0.0708 near kappa = 0.070623, between 0.07062 (sinh map) and 0.07063
# (trapezoid rule); for K, lam / kappa = 0.0708 near kappa = 0.997503,
# between 0.9975 (trapezoid rule) and 0.99751 (sinh map).  The first four
# examples straddle cot gamma = 0.05, the switch of v0.18.0, inside the map
@given(KAPPA)
@example(0.0499)
@example(0.0500)
@example(0.99874)
@example(0.99876)
@example(0.07062)
@example(0.07063)
@example(0.9975)
@example(0.99751)
@PROPERTY
def test_integral_periods(kappa):
    with mpmath.workdps(DPS):
        _, _, _, K, Kp = reference(kappa)
        p = periods(Modulus(kappa), PeriodMethod.INTEGRAL)
        assert abs(p.K / K - 1) <= 2e-15, "K"
        assert abs(p.Kprime / Kp - 1) <= 2e-15, "K'"


def _check_integral_at_an_extreme(kappa):
    p = periods(Modulus(kappa), PeriodMethod.INTEGRAL)
    with mpmath.workdps(DPS):
        # lam rounds to 1 at DPS digits for the smallest kappa: take K and K'
        # from the AGM of the square roots of m = kappa^2 / (1 + lam)^2 and
        # 1 - m = 2 lam / (1 + lam), which do not cancel
        k = mpmath.mpf(kappa)
        lam = mpmath.sqrt((1 - k) * (1 + k))
        c = mpmath.sqrt((1 + lam) / 2)
        K = mpmath.pi / (2 * c * mpmath.agm(1, mpmath.sqrt(2 * lam / (1 + lam))))
        Kp = mpmath.pi / (2 * c * mpmath.agm(1, k / (1 + lam)))
        assert abs(p.K / K - 1) <= 2e-15, "K"
        assert abs(p.Kprime / Kp - 1) <= 2e-15, "K'"


@pytest.mark.parametrize("kappa", [2.0**-510, 1e-150, 1 - 2.0**-53])
def test_integral_periods_at_the_extremes(kappa):
    _check_integral_at_an_extreme(kappa)


def test_integral_periods_at_a_bounded_cost(monkeypatch):
    # the integrand evaluations of K and K' together, summed over every
    # trapezoid and tanh-sinh call, from kappa = 2**-510 to 1 - 2**-53; each
    # trapezoid call stops at its first doubling, after 2 n0 + 1 of them
    calls = []
    trapezoid, integrate = core.trapezoid, core.integrate

    def counted(quad):
        def run(*args):
            result = quad(*args)
            calls.append((args[3] if quad is trapezoid else None, result.evaluations))
            return result
        return run

    monkeypatch.setattr(core, "trapezoid", counted(trapezoid))
    monkeypatch.setattr(core, "integrate", counted(integrate))
    rng = random.Random("integral cost")
    kappas = [2.0**-e for e in range(1, 511)] + [1.0 - 2.0**-e for e in range(1, 54)]
    kappas += [rng.random() for _ in range(2000)]
    costs, restarts = {}, []
    for kappa in kappas:
        calls.clear()
        periods(Modulus(kappa), PeriodMethod.INTEGRAL)
        costs[kappa] = sum(evaluations for _, evaluations in calls)
        restarts += [(kappa, n, ev) for n, ev in calls if n is not None and ev != 2 * n + 1]
    assert [(k, c) for k, c in costs.items() if c > 400] == []
    assert restarts == []


def _check_dn2(kappa, z, bound):
    mod = Modulus(kappa)
    with mpmath.workdps(DPS):
        lam, m, c, K, Kp = reference(kappa)
        w, dist = reduced(z, K, Kp)
        if dist < POLE_CLEARANCE * Kp:
            return
        ref = 1 - (1 - lam) * mpmath.ellipfun("sn", w * c, m=m) ** 2
        scale = bound * max(1, abs(ref))
        for route in (Route.SN, Route.WP):
            assert abs(dn2(z, mod, route) - ref) <= scale, (route, z)


@given(KAPPA, UNIT, UNIT)
@PROPERTY
def test_sn_and_wp_across_the_period_rectangle(kappa, a, b):
    p = periods(Modulus(kappa))
    _check_dn2(kappa, complex(2.0 * a * p.K, 2.0 * b * p.Kprime), 1e-13)


@given(KAPPA, UNIT, FAR, st.booleans())
@PROPERTY
def test_sn_and_wp_far_up_the_imaginary_axis(kappa, a, b, below):
    # the double z itself loses digits to the reduction modulo 2iK', so the
    # bound grows with |Im z| / K'
    p = periods(Modulus(kappa))
    _check_dn2(kappa, complex(2.0 * a * p.K, (-b if below else b) * p.Kprime), 1e-13 * (1 + b))


def _pair(e, upper):
    """A parameter and its complement with the small member exactly 10**e,
    and the parameter itself at DPS digits."""
    small = 10.0**e
    with mpmath.workdps(DPS):
        if upper:
            return 1.0 - small, small, 1 - mpmath.mpf(small)
        return small, 1.0 - small, mpmath.mpf(small)


def _mp_triple(x, m):
    return tuple(mpmath.ellipfun(name, x, m=m) for name in ("sn", "cn", "dn"))


@given(st.floats(min_value=-24.0, max_value=math.log10(0.5)), st.booleans(),
       st.floats(min_value=-8.0, max_value=8.0))
@PROPERTY
def test_jacobi_real_with_the_pair(e, upper, a):
    m, mc, m_mp = _pair(e, upper)
    x = a * complete_K(m, mc)
    with mpmath.workdps(DPS):
        for name, got, ref in zip("scd", jacobi_real(x, m, mc), _mp_triple(x, m_mp)):
            assert abs(got - ref) <= 1e-13, (name, x)


@given(st.floats(min_value=-24.0, max_value=math.log10(0.5)), st.booleans(), UNIT, UNIT)
@PROPERTY
def test_jacobi_complex_with_the_pair(e, upper, a, b):
    m, mc, m_mp = _pair(e, upper)
    K, Kp = complete_K(m, mc), complete_K(mc, m)
    z = complex(2.0 * a * K, 2.0 * b * Kp)
    with mpmath.workdps(DPS):
        w, dist = reduced(z, mpmath.mpf(K), mpmath.mpf(Kp))
        if dist < POLE_CLEARANCE * Kp:
            return
        # the addition formula on mpmath's real values at (m, 1 - m)
        s, c, d = _mp_triple(z.real, m_mp)
        s1, c1, d1 = _mp_triple(z.imag, 1 - m_mp)
        den = c1**2 + m_mp * s**2 * s1**2
        refs = (
            mpmath.mpc(s * d1, c * d * s1 * c1) / den,
            mpmath.mpc(c * c1, -s * d * s1 * d1) / den,
            mpmath.mpc(d * c1 * d1, -m_mp * s * c * s1) / den,
        )
        for name, got, ref in zip("scd", jacobi_complex(z, m, mc), refs):
            assert abs(got - ref) <= 1e-13 * max(1, abs(ref)), (name, z)


def test_large_imaginary_part_where_lam_rounds_to_one():
    # this used to raise an untyped OverflowError: m, formed as 1 - lam,
    # rounded to 0, and the m = 0 branch evaluated sin(z) at Im z ~ 3e4
    kappa = 1e-9
    mod = Modulus(kappa)
    p = periods(mod)
    z = complex(0.3 * p.K, 1000.0 * p.Kprime)
    with mpmath.workdps(DPS):
        lam, m, c, K, Kp = reference(kappa)
        w, _ = reduced(z, K, Kp)
        ref = 1 - (1 - lam) * mpmath.ellipfun("sn", w * c, m=m) ** 2
        for route in (Route.SN, Route.WP):
            assert abs(dn2(z, mod, route) - ref) <= 1e-13 * 1001 * max(1, abs(ref)), route


@pytest.mark.parametrize("kappa", [1e-9, 1e-50, 1e-150, 1e-200, 5e-324, 1 - 2.0**-53])
@pytest.mark.parametrize("method", list(PeriodMethod))
def test_periods_fail_only_with_typed_errors(kappa, method):
    # Modulus rejects kappa below 2**-510 (1e-200, 5e-324) with DomainError.
    # INTEGRAL's K' integrand peaks at s = 0 with a width of about kappa,
    # which the sinh map resolves at a fixed cost: INTEGRAL returns at every
    # other kappa here, within 2e-15 of the AGM reference
    if method is PeriodMethod.INTEGRAL and kappa >= 2.0**-510:
        _check_integral_at_an_extreme(kappa)
        return
    try:
        p = periods(Modulus(kappa), method)
    except (DomainError, ConvergenceError):
        return
    assert p.K > 0.0 and p.Kprime > 0.0
