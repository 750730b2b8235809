import cmath
import math
import random
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dn2 import core
from dn2.core import (
    KAPPA_MIN,
    Modulus,
    PeriodMethod,
    Route,
    _f_prime,
    dn2,
    dn2_deriv,
    f_forward,
    greenhill_check,
    i_gamma,
    invariants_of,
    periods,
    phi,
    s2,
)
from dn2.hyper import F_QUARTER_HALF, complete_K, f14_34_12_closed, gauss_2f1
from dn2.jacobi import PoleError, jacobi_complex
from dn2.kernel import ConvergenceError, DomainError, integrate, reduction_limit

def _mp_f(T, kappa):
    """f(T) at the double T by mpmath at 40 digits: n 2K + f(r) with
    |T| = n pi + r, 0 <= r < pi, f(r) by quadrature of the closed-form
    integrand sqrt((1 + cos psi)/2)/cos psi, split at its peak pi/2, and
    2K = 2 K(m)/c."""
    import mpmath

    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        lam = mpmath.sqrt((1 - k) * (1 + k))

        def integrand(t):
            c = mpmath.sqrt(1 - (k * mpmath.sin(t)) ** 2)
            return mpmath.sqrt((1 + c) / 2) / c

        a = abs(mpmath.mpf(T))
        n = mpmath.floor(a / mpmath.pi)
        r = a - n * mpmath.pi
        two_k = 2 * mpmath.ellipk((1 - lam) / (1 + lam)) / mpmath.sqrt((1 + lam) / 2)
        pts = [0, r] if r <= mpmath.pi / 2 else [0, mpmath.pi / 2, r]
        return mpmath.sign(T) * (n * two_k + mpmath.quad(integrand, pts))


def _mp_phi(u, kappa):
    """phi(u) by mpmath at 40 digits: theta = am(u c | m), the inverse of the
    closed form f(T) = F(theta | m)/c, taken back to T through
    sin^2 T = sin^2 theta (2 - (1 - lam) sin^2 theta)/(1 + lam), on the
    branch T > pi/2 where cn < 0, and shifted by pi per period 2K."""
    import mpmath

    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        lam = mpmath.sqrt((1 - k) * (1 + k))
        m = (1 - lam) / (1 + lam)
        c = mpmath.sqrt((1 + lam) / 2)
        period = 2 * mpmath.ellipk(m) / c
        a = abs(mpmath.mpf(u))
        n = mpmath.floor(a / period)
        w = (a - n * period) * c
        sn, cn = mpmath.ellipfun("sn", w, m=m), mpmath.ellipfun("cn", w, m=m)
        t = mpmath.asin(sn * mpmath.sqrt((2 - (1 - lam) * sn**2) / (1 + lam)))
        return mpmath.sign(u) * ((mpmath.pi - t if cn < 0 else t) + n * mpmath.pi)


def _rel_err(got, ref):
    return float(abs(got - ref) / abs(ref))


# SN closed form evaluated with mpmath at dps=50
REF_DN2_037_05 = 0.98365050427242663257


class TestModulus:
    def test_derived_fields(self):
        mod = Modulus(0.6)
        assert abs(mod.kappa**2 + mod.lam**2 - 1.0) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            Modulus(0.0)
        with pytest.raises(DomainError):
            Modulus(1.0)

    def test_kappa_whose_square_is_subnormal_is_rejected(self):
        # below 2**-510 m and 1 - lam lost their digits: dn2 at Im z = 700
        # returned nan+nanj and at 720 raised an untyped OverflowError
        for z in (complex(0.3, 700.0), complex(0.3, 720.0)):
            with pytest.raises(DomainError):
                dn2(z, Modulus(1e-163))
        with pytest.raises(DomainError):
            Modulus(math.nextafter(2.0**-510, 0.0))
        mod = Modulus(2.0**-510)
        assert mod.m > 0.0 and mod.d > 0.0 and mod.m1 == 1.0

    @pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 0.6, 0.9])
    def test_numpy_scalar_kappa_is_its_float(self, scalar, kappa):
        # a float32 kappa derived m, lam and every period in single
        # precision: dn2(0.37) came back as a float32, and a float16 0.5
        # had K' 4.7e-5 relative off
        k = scalar(kappa)
        mod, ref = Modulus(k), Modulus(float(k))
        assert type(mod.kappa) is float and type(mod.m) is float
        assert mod == ref and hash(mod) == hash(ref) and repr(mod) == repr(ref)
        for route in Route:
            assert dn2(0.37, mod, route).hex() == dn2(0.37, ref, route).hex(), route
        for method in PeriodMethod:
            assert periods(mod, method) == periods(ref, method), method
        with pytest.raises(TypeError):
            Modulus("0.6")

    @pytest.mark.parametrize("kappa", [2.0**-510, 1e-9, 1e-3, 0.3, 2.0**-0.5, 0.6, 1.0 - 1e-12])
    def test_complement_is_the_exact_pair(self, kappa):
        mod = Modulus(kappa)
        com = mod.complement
        assert com.kappa == mod.lam and com.lam == kappa
        # derived from the pair (lam, kappa) as a Modulus is from (kappa, lam)
        assert com.d == mod.lam**2 / (1.0 + kappa) and com.m1 == 2.0 * kappa / (1.0 + kappa)
        assert abs(com.m + com.m1 - 1.0) <= 1e-15
        assert com.complement == mod and hash(com.complement) == hash(mod)
        # eq and hash go by the pair: Modulus(lam) takes lam back from the
        # rounded kappa, and equals the complement only where that is exact
        if mod.lam < 1.0:
            rebuilt = Modulus(mod.lam)
            assert (rebuilt == com) is (rebuilt.lam == kappa)

    @pytest.mark.parametrize("kappa", [1.0, 1.5, math.inf, math.nan, 0.0, -0.5,
                                       math.nextafter(2.0**-510, 0.0)])
    def test_kappa_outside_the_domain_is_refused(self, kappa):
        with pytest.raises(DomainError) as err:
            Modulus(kappa)
        assert str(err.value) == f"modulus must lie in [2**-510, 1), got {kappa}"

    @pytest.mark.parametrize("kappa", [2.0**-510, 1e-100, 1e-12, 1e-9, 6e-9])
    def test_complement_with_kappa_one_passes_the_domain_rule(self, kappa):
        # below kappa = 6.6e-9 lam rounds to 1.0, so the complement's kappa
        # is 1.0, which a caller cannot pass, while its lam is kappa > 0
        mod = Modulus(kappa)
        assert mod.lam == 1.0
        com = mod.complement
        assert (com.kappa, com.lam) == (1.0, kappa)
        assert com.m1 == 2.0 * kappa / (1.0 + kappa) and math.isfinite(dn2(0.3, com))

    @pytest.mark.parametrize("kappa, lam", [(1.0, 0.0), (1.0, -0.0), (1.0, math.nan),
                                            (math.nextafter(1.0, 2.0), 0.5),
                                            (math.nextafter(2.0**-510, 0.0), 1.0)])
    def test_complement_path_runs_the_domain_rule(self, kappa, lam):
        # _derive checks 2**-510 <= kappa <= 1 and lam > 0 on the path that
        # builds a complement from an exact pair as on the constructor's
        com = object.__new__(Modulus)
        vars(com)["kappa"] = kappa
        with pytest.raises(DomainError, match=r"modulus must lie in \[2\*\*-510, 1\)"):
            com._derive(lam)


class TestInvariants:
    def test_square_lattice_modulus(self):
        lat = invariants_of(Modulus(2.0 * math.sqrt(2.0) / 3.0))
        assert abs(lat.g3) <= 1e-16

    def test_root_gaps(self):
        lat = invariants_of(Modulus(0.6))
        assert abs((lat.e1 - lat.e3) - 0.9) <= 1e-15
        assert abs((lat.e2 - lat.e3) - 0.1) <= 1e-15

    def test_self_complementary_parameter(self):
        lat = invariants_of(Modulus(1.0 / math.sqrt(2.0)))
        assert abs(lat.m - (math.sqrt(2.0) - 1.0) ** 2) <= 1e-13

    def test_discriminant(self):
        for kappa in [0.2, 0.5, 0.8]:
            mod = Modulus(kappa)
            lat = invariants_of(mod)
            assert abs(lat.delta - kappa**4 * mod.lam**2) <= 1e-13
            assert abs(lat.m - (1.0 - mod.lam) / (1.0 + mod.lam)) <= 1e-15

    @pytest.mark.parametrize("kappa", [10.0**-k for k in range(1, 13)] + [0.5, 0.9, 1 - 1e-9])
    def test_discriminant_against_mpmath(self, kappa):
        # g2^3 - 27 g3^2 cancels as kappa -> 0 (it was -4.4e-16 at 1e-6);
        # 16 (e1 - e2)^2 (e1 - e3)^2 (e2 - e3)^2 does not
        import mpmath

        lat = invariants_of(Modulus(kappa))
        with mpmath.workdps(80):
            k2 = mpmath.mpf(kappa) ** 2
            delta = (mpmath.mpf(4) / 3 - k2) ** 3 - 27 * (mpmath.mpf(8) / 27 - k2 / 3) ** 2
            assert abs(lat.delta / delta - 1) <= 1e-14


def dn2_rk(x, lam):
    """Oracle: integrate y'' = -3y^2 + 2y + lam^2 (the derivative of the
    governing first-order equation) from y(0)=1, y'(0)=0."""

    def rhs(t, y):
        return [y[1], -3.0 * y[0] ** 2 + 2.0 * y[0] + lam * lam]

    sol = solve_ivp(rhs, (0.0, x), [1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-13)
    return sol.y[0, -1]


class TestDn2:
    def test_at_zero(self):
        assert dn2(0.0, Modulus(0.6)) == 1.0

    def test_boundary_values(self):
        for kappa in [0.2, 0.4, 0.6, 0.8]:
            mod = Modulus(kappa)
            p = periods(mod)
            assert abs(dn2(p.K, mod) - mod.lam) <= 1e-11
            corner = dn2(complex(p.K, p.Kprime), mod)
            assert abs(corner + mod.lam) <= 1e-10

    def test_route_agreement_and_oracle(self):
        mod = Modulus(0.5)
        vals = {r: dn2(0.37, mod, r) for r in Route}
        for a in vals.values():
            for b in vals.values():
                assert abs(a - b) <= 1e-11
        assert abs(vals[Route.SN] - REF_DN2_037_05) <= 1e-13
        assert abs(vals[Route.SN] - dn2_rk(0.37, mod.lam)) <= 1e-9

    def test_ode_residual(self):
        for kappa in [0.3, 0.7]:
            mod = Modulus(kappa)
            lam = mod.lam
            K = periods(mod).K
            for x in np.linspace(0.05, 2.0 * K - 0.05, 50):
                y = dn2(float(x), mod)
                dy = dn2_deriv(float(x), mod)
                resid = dy * dy - 2.0 * (1.0 - y) * (y * y - lam * lam)
                assert abs(resid) <= 1e-8, (kappa, x)

    def test_analytic_vs_finite_difference_derivative(self):
        mod = Modulus(0.7)
        h = 1e-6
        for x in [0.3, 0.9, 1.5]:
            fd = (dn2(x + h, mod) - dn2(x - h, mod)) / (2.0 * h)
            assert abs(fd - dn2_deriv(x, mod)) <= 1e-6

    @pytest.mark.parametrize("z", [0.3, complex(0.3, 0.2)])
    @pytest.mark.parametrize("route", ["sn", "wp", None, 1])
    def test_unknown_route_is_refused(self, z, route):
        # not a Route member: it used to fall through to the WP branch
        with pytest.raises(DomainError, match=f"unknown dn2 route {route!r}"):
            dn2(z, Modulus(0.6), route)

    def test_deriv_takes_a_real_point_of_any_type(self):
        # a numpy.float32 x scaled x c in single precision, and a complex
        # x + 0j raised TypeError
        mod = Modulus(0.6)
        x32 = np.float32(0.3)
        assert dn2_deriv(x32, mod).hex() == dn2_deriv(float(x32), mod).hex()
        for z in (complex(0.3, 0.0), complex(0.3, -0.0), np.complex128(0.3)):
            assert dn2_deriv(z, mod).hex() == dn2_deriv(0.3, mod).hex()
        for z in (complex(0.3, 1e-300), complex(0.3, math.nan)):
            with pytest.raises(DomainError, match="real axis"):
                dn2_deriv(z, mod)

    def test_double_periodicity(self):
        # even with periods 2K and 2iK' by both complex routes; by WP this is
        # also Weierstrass P's evenness and double periodicity
        mod = Modulus(0.45)
        p = periods(mod)
        for zr in np.linspace(0.3, 2.0 * p.K - 0.3, 5):
            for zi in np.linspace(0.3, 2.0 * p.Kprime - 0.3, 5):
                z = complex(float(zr), float(zi))
                if abs(z - complex(0.0, p.Kprime)) < 0.1:
                    continue
                if abs(z - complex(2.0 * p.K, p.Kprime)) < 0.1:
                    continue
                for route in (Route.SN, Route.WP):
                    v = dn2(z, mod, route)
                    assert abs(dn2(-z, mod, route) - v) <= 1e-10
                    assert abs(dn2(z + 2.0 * p.K, mod, route) - v) <= 1e-10
                    assert abs(dn2(z + 2.0j * p.Kprime, mod, route) - v) <= 1e-10

    def test_pole_order(self):
        # |1/dn2| ~ |eps|^2 near the double pole at iK'
        mod = Modulus(0.6)
        Kp = periods(mod).Kprime
        eps = [1e-2, 1e-3]
        mags = [abs(1.0 / dn2(complex(e, Kp), mod)) for e in eps]
        slope = (math.log(mags[0]) - math.log(mags[1])) / (
            math.log(eps[0]) - math.log(eps[1])
        )
        assert abs(slope - 2.0) <= 0.05

    def test_pole_signal(self):
        mod = Modulus(0.6)
        Kp = periods(mod).Kprime
        with pytest.raises(PoleError):
            dn2(complex(0.0, Kp), mod, Route.WP)

    @pytest.mark.parametrize("route", list(Route))
    @pytest.mark.parametrize("x", [math.nan, math.inf, 1e300])
    def test_unreducible_argument_raises(self, route, x):
        with pytest.raises(DomainError):
            dn2(x, Modulus(0.6), route)

    @pytest.mark.parametrize("route", [Route.SN, Route.WP])
    @pytest.mark.parametrize("kappa", [1e-9, 1.5e-8, 2e-8])
    def test_tiny_modulus_against_mpmath(self, kappa, route):
        # at kappa = 1.5e-8 the Jacobian parameter is 2**-54 and its
        # complement 1 - m rounds to 1; at 1e-9 the parameter itself is 0
        import mpmath

        mpmath.mp.dps = 40
        k = mpmath.mpf(kappa)
        lam = mpmath.sqrt(1 - k * k)
        m = (1 - lam) / (1 + lam)
        c = mpmath.sqrt((1 + lam) / 2)
        mod = Modulus(kappa)
        for z in (complex(0.3, 0.2), complex(1.2, 1.0), complex(-2.5, 3.0)):
            sn = mpmath.ellipfun("sn", mpmath.mpc(z) * c, m=m)
            ref = complex(1 - (1 - lam) * sn**2)
            assert abs(dn2(z, mod, route) - ref) <= 1e-14 * abs(ref), z

    @pytest.mark.parametrize("route", [Route.SN, Route.WP])
    def test_tiny_arguments_against_mpmath(self, route):
        # used to give nan: below about 1e-154 the Landen ascent overflowed.
        # Off the real axis dn2(x + iy) = dn2(x) + i y dn2'(x) + O(y^2),
        # exact in double precision for these y
        import mpmath

        mod = Modulus(0.6)
        with mpmath.workdps(30):
            lam = mpmath.mpf(mod.lam)
            c = mpmath.mpf(mod.c)
            u = mpmath.mpf(0.3) * c
            sn, cn, dn = (mpmath.ellipfun(name, u, m=mod.m) for name in ("sn", "cn", "dn"))
            re = float(1 - (1 - lam) * sn**2)
            slope = -2 * (1 - lam) * sn * cn * dn * c
        for y in (1e-155, -1e-160, 1e-200, 1e-300, -1e-320, 5e-324):
            assert dn2(y, mod, route) == 1.0
            got = dn2(complex(0.3, y), mod, route)
            im = float(slope * mpmath.mpf(y))
            assert abs(got.real - re) <= 1e-15 * abs(re), y
            assert abs(got.imag - im) <= 1e-14 * abs(im) + 1e-323, y

    def test_phi_route_rejects_complex(self):
        with pytest.raises(DomainError):
            dn2(complex(0.1, 0.2), Modulus(0.5), Route.PHI)

    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9, 0.99, 0.999])
    def test_phi_route_takes_s2_from_its_own_solve(self, kappa):
        # sqrt(1 - kappa^2 s2^2) bit for bit: the sine of the rounded phi
        # differs from s2 in the last bits at a few percent of the points
        mod = Modulus(kappa)
        rng = random.Random(f"phi route:{kappa}")
        for _ in range(100):
            x = rng.uniform(-6.0, 6.0) * periods(mod).K
            s = mod.kappa * s2(x, mod)
            assert dn2(x, mod, Route.PHI) == math.sqrt(1.0 - s * s), x

    def test_phi_route_takes_a_real_complex(self):
        mod = Modulus(0.6)
        for x in (0.0, 0.37, -2.5, 7.1):
            got = dn2(complex(x, 0.0), mod, Route.PHI)
            assert type(got) is float
            assert got == dn2(x, mod, Route.PHI)


def _outcome(z, mod, route):
    """dn2's value with its type, or its typed error with the message."""
    try:
        v = dn2(z, mod, route)
    except (DomainError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return type(v), v.hex() if type(v) is float else (v.real.hex(), v.imag.hex())


class TestRealAxis:
    """A point on the real axis takes each route's real path, whatever its
    Python type; only a nonzero imaginary part leaves it."""

    KAPPAS = [1e-12, 1e-6, 0.1, 0.3, 0.6, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12]

    @pytest.mark.parametrize("route", list(Route))
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_real_point_is_real_whatever_its_type(self, kappa, route):
        # complex(x, 0.0) went through jacobi_complex on SN and WP, and float
        # x on SN through jacobi_real with its own last step: the two
        # differed in the last bit at about 1 in 12 points
        mod = Modulus(kappa)
        K = periods(mod).K
        rng = random.Random(f"real axis:{kappa}")
        n = 5 if route is Route.PHI else 80
        for x in [rng.uniform(-6.0, 6.0) * K for _ in range(n)] + [0.0, -0.0, 1, -3]:
            expected = _outcome(x, mod, route)
            assert expected[0] is float or issubclass(expected[0], ConvergenceError), x
            for z in (complex(x, 0.0), complex(x, -0.0)):
                assert _outcome(z, mod, route) == expected, (x, z)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_real_wp_is_the_complex_bridge_bit_for_bit(self, kappa):
        # the WP bridge on jacobi_complex's sn, as dn2 computed it at every
        # real point before a real point took jacobi_real
        mod = Modulus(kappa)
        lat = mod.lattice
        K = periods(mod).K
        rng = random.Random(f"real wp:{kappa}")
        for x in [rng.uniform(-6.0, 6.0) * K for _ in range(80)] + [0.0, 2.0 * K]:
            sn = jacobi_complex(complex(x) * mod.c, mod.m, mod.m1).sn
            sn2 = sn * sn
            if abs(sn2) < 1e-26:
                ref = 1.0
            else:
                denom = (1.0 / 3.0 + lat.e3) + (lat.e1 - lat.e3) / sn2
                ref = (1.0 - 0.5 * mod.kappa**2 / denom).real
            got = dn2(x, mod, Route.WP)
            assert type(got) is float and got.hex() == ref.hex(), x

    def test_numpy_scalars_take_the_path_of_their_value(self):
        # numpy.complex64 is not a subclass of complex: its imaginary part
        # decides, not its type (SN and PHI dropped it), and a float32 is
        # converted before it is scaled, not scaled in single precision
        mod = Modulus(0.6)
        z = np.complex64(0.4 + 0.3j)
        x = np.float32(0.4)
        for route in (Route.SN, Route.WP):
            assert dn2(z, mod, route) == dn2(complex(z), mod, route)
            assert dn2(x, mod, route) == dn2(float(x), mod, route)
        with pytest.raises(DomainError):
            dn2(z, mod, Route.PHI)

    def test_addition_split_only_off_the_axis(self, monkeypatch):
        # SN and WP run jacobi's addition split, its complex entry, on the
        # Modulus's ladders only at a point off the real axis
        calls = []
        split = core._addition

        def counted(z, *args):
            calls.append(z)
            return split(z, *args)

        monkeypatch.setattr(core, "_addition", counted)
        mod = Modulus(0.6)
        for route in (Route.SN, Route.WP):
            for z in (0.4, 2, complex(0.4, 0.0), complex(-1.3, -0.0)):
                dn2(z, mod, route)
            assert calls == []
            dn2(complex(0.4, 1e-300), mod, route)
            assert len(calls) == 1
            calls.clear()

    def test_no_jacobi_complex_off_the_axis(self, monkeypatch):
        # SN and WP read only sn: jacobi_complex's cn and dn go unbuilt
        calls = []

        def counted(z, m, mc):
            calls.append(z)
            return jacobi_complex(z, m, mc)

        monkeypatch.setattr(core, "jacobi_complex", counted)
        mod = Modulus(0.6)
        for route in (Route.SN, Route.WP):
            for z in (complex(0.4, 1e-300), complex(-1.3, 0.7), 0.4):
                dn2(z, mod, route)
        assert calls == []


def _raises_pole(z, mod, route):
    try:
        dn2(z, mod, route)
    except PoleError:
        return True
    return False


class TestPoleRule:
    @pytest.mark.parametrize("kappa", [1e-12, 1e-9, 1e-7, 1e-100, 2.0**-510])
    def test_no_pole_away_from_the_poles_at_small_kappa(self, kappa):
        # an absolute threshold on jacobi_complex's denominator, which is
        # m |z - iK'|^2 near a pole, used to raise PoleError at many of these
        # points, all at least 0.05 K' from a pole
        import mpmath

        mod = Modulus(kappa)
        p = periods(mod)
        rng = random.Random(10)
        points = []
        while len(points) < 24:
            z = complex(rng.uniform(0.0, 2.0 * p.K), rng.uniform(0.0, 2.0 * p.Kprime))
            if all(abs(z - pole) >= 0.05 * p.Kprime
                   for pole in (complex(0.0, p.Kprime), complex(2.0 * p.K, p.Kprime))):
                points.append(z)
        # the digits of kappa and of m = kappa^2 / (1 + lam)^2 must survive 1 - lam
        with mpmath.workdps(int(2 * abs(math.log10(kappa))) + 50):
            k = mpmath.mpf(kappa)
            lam = mpmath.sqrt((1 - k) * (1 + k))
            m = (1 - lam) / (1 + lam)
            c = mpmath.sqrt((1 + lam) / 2)
            for z in points:
                sn = mpmath.ellipfun("sn", mpmath.mpc(z.real, z.imag) * c, m=m)
                ref = complex(1 - (1 - lam) * sn**2)
                for route in (Route.SN, Route.WP):
                    assert abs(dn2(z, mod, route) - ref) <= 1e-13 * max(1.0, abs(ref)), (z, route)

    @pytest.mark.parametrize("kappa", [2.0**-510, 1e-12, 0.3, 0.6, 0.9, 1.0 - 1e-12])
    def test_sn_and_wp_raise_at_the_same_points(self, kappa):
        mod = Modulus(kappa)
        p = periods(mod)
        raised = []
        for pole in (complex(0.0, p.Kprime), complex(2.0 * p.K, p.Kprime)):
            for r in (0.0, 1e-9, 5e-7, 9e-7, 1e-6, 1.1e-6, 2e-6, 1e-5, 1e-3, 2.0):
                for j in range(8):
                    t = j * math.pi / 4
                    z = pole + r / mod.c * complex(math.cos(t), math.sin(t))
                    sn_raised = _raises_pole(z, mod, Route.SN)
                    assert _raises_pole(z, mod, Route.WP) == sn_raised, z
                    raised.append(sn_raised)
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize("kappa", [2.0**-510, 3e-154])
    def test_finite_or_pole_near_the_pole_line_at_the_smallest_kappa(self, kappa):
        # here m is about the smallest normal float, so the denominator
        # m |z - iK'|^2 is subnormal on and near the line Im z = K'; a
        # quotient by it used to overflow to inf and nan
        mod = Modulus(kappa)
        p = periods(mod)
        for x in (0.0, 1e-300, 1e-8, 0.3, 0.5 * p.K, p.K, 1.5 * p.K, 2.0 * p.K, -p.K):
            for y in (p.Kprime, -p.Kprime, 3.0 * p.Kprime):
                for dy in (0.0, 1e-300, 1e-12, -1e-6, 1e-3, 0.5, -1.0, 5.0):
                    z = complex(x, y + dy)
                    for route in (Route.SN, Route.WP):
                        try:
                            v = dn2(z, mod, route)
                        except PoleError:
                            continue
                        assert cmath.isfinite(v), (z, route, v)


class TestWp:
    """Weierstrass P of dn2's lattice through the WP route of core.dn2,
    1/3 + P(z) = kappa^2 / (2 (1 - dn2(z))), with g2 = 4/3 - kappa^2 and
    g3 = 8/27 - kappa^2/3."""

    @staticmethod
    def wp(z, mod):
        return 0.5 * mod.kappa**2 / (1.0 - dn2(z, mod, Route.WP)) - 1.0 / 3.0

    def test_midpoint_values(self):
        mod = Modulus(0.5)
        lat, p = mod.lattice, periods(mod)
        assert abs(self.wp(p.K, mod) - lat.e1) <= 1e-11
        assert abs(self.wp(complex(p.K, p.Kprime), mod) - lat.e2) <= 1e-11
        # e3 is the limit at the pole iK' of dn2, taken just outside the
        # pole disc of radius about 1e-6/c
        eps = 2e-6 / mod.c
        assert abs(self.wp(complex(eps, p.Kprime), mod) - lat.e3) <= 1e-11
        assert abs(self.wp(complex(0.0, p.Kprime + eps), mod) - lat.e3) <= 1e-11

    def test_differential_equation(self):
        mod = Modulus(0.5)
        lat = mod.lattice
        z = complex(0.31, 0.17)
        # sixth-order central difference: the pole at 0 is close enough that
        # lower-order stencils cannot reach 1e-9 before roundoff takes over
        h = 1e-3

        def wp(z):
            return self.wp(z, mod)

        p = wp(z)
        dp = (
            45.0 * (wp(z + h) - wp(z - h))
            - 9.0 * (wp(z + 2 * h) - wp(z - 2 * h))
            + (wp(z + 3 * h) - wp(z - 3 * h))
        ) / (60.0 * h)
        resid = dp * dp - (4.0 * p**3 - lat.g2 * p - lat.g3)
        assert abs(resid) <= 1e-9

    def test_even_and_periodic(self):
        mod = Modulus(0.7)
        p = periods(mod)
        for zr in np.linspace(0.2, 2.0 * p.K - 0.2, 4):
            for zi in np.linspace(0.2, 2.0 * p.Kprime - 0.2, 4):
                z = complex(float(zr), float(zi))
                v = self.wp(z, mod)
                assert abs(self.wp(-z, mod) - v) <= 1e-10
                assert abs(self.wp(z + 2.0 * p.K, mod) - v) <= 1e-10
                assert abs(self.wp(z + 2.0j * p.Kprime, mod) - v) <= 1e-10

    def test_pole_at_origin(self):
        # P has its double pole at the lattice points, where dn2 is exactly 1
        mod = Modulus(0.5)
        p = periods(mod)
        for z in (0.0, 2.0 * p.K, complex(0.0, 2.0 * p.Kprime), complex(2.0 * p.K, 2.0 * p.Kprime)):
            assert dn2(z, mod, Route.WP) == 1.0, z
        # and z^2 P(z) -> 1 next to one
        for z in (1e-3, 1e-3j, complex(1e-3, 1e-3)):
            assert abs(z * z * self.wp(z, mod) - 1.0) <= 1e-8, z

    def test_real_monotone_on_perimeter(self):
        # values are real on the half-period rectangle boundary and decrease
        # strictly on the counterclockwise walk away from the origin pole.
        # The corner iK' is dn2's pole, where P is e3 (test_midpoint_values);
        # the walk steps over it
        mod = Modulus(0.4)
        p = periods(mod)
        w, wq = p.K, p.Kprime
        pts = []
        n = 30
        for i in range(1, n):
            pts.append(complex(w * i / n, 0.0))
        for i in range(n + 1):
            pts.append(complex(w, wq * i / n))
        for i in range(1, n):
            pts.append(complex(w * (n - i) / n, wq))
        for i in range(1, n):
            pts.append(complex(0.0, wq * (n - i) / n))
        vals = [self.wp(z, mod) for z in pts]
        for v in vals:
            assert abs(v.imag) <= 1e-10
        reals = [v.real for v in vals]
        assert all(x > y for x, y in zip(reals, reals[1:]))
        assert reals[-n + 1] < mod.lattice.e3 < reals[-n]


class TestAmplitude:
    def test_f_forward_trivial(self):
        assert f_forward(0.0, Modulus(0.5)) == 0.0
        assert math.copysign(1.0, f_forward(-0.0, Modulus(0.5))) == -1.0

    @pytest.mark.parametrize("kappa", [1e-12, 0.6, 1.0 - 1e-12])
    def test_f_at_subnormal_argument_is_the_argument(self, kappa):
        # quadrature found no node inside [0, T]: f(5e-324) was 0, and
        # f(8.0953e-320) 1.2e-4 relative off; below 1e-4 f is its series
        mod = Modulus(kappa)
        for T in (5e-324, 1e-323, 8.0953e-320, 1e-317, 6.5e-311, 2.2e-308):
            assert f_forward(T, mod) == T, T
            assert f_forward(-T, mod) == -T, T
            assert phi(f_forward(T, mod), mod) == T, T
        for T in (1e-200, 1e-10, 3e-5):
            assert f_forward(-T, mod) == -f_forward(T, mod), T
            assert phi(f_forward(T, mod), mod) == T, T
        T = math.nextafter(1e-4, 0.0)
        assert f_forward(-T, mod) == -f_forward(T, mod)

    def test_f_forward_quarter_period(self):
        for kappa in [0.3, 0.6, 0.9]:
            mod = Modulus(kappa)
            assert abs(f_forward(0.5 * math.pi, mod) - periods(mod).K) <= 1e-11

    def test_f_forward_vs_series_integrand(self):
        mod = Modulus(0.5)
        k2 = 0.25
        ref = integrate(
            lambda t: gauss_2f1(F_QUARTER_HALF, k2 * math.sin(t) ** 2,
                                1.0 - k2 * math.sin(t) ** 2),
            0.0,
            0.3,
        ).value
        assert abs(f_forward(0.3, mod) - ref) <= 1e-11

    def test_f_forward_is_odd_bit_for_bit(self):
        rng = random.Random(2024)
        for kappa in [0.3, 0.6, 0.9]:
            mod = Modulus(kappa)
            for _ in range(100):
                T = rng.uniform(-3.0 * math.pi, 3.0 * math.pi)
                assert f_forward(-T, mod) == -f_forward(T, mod), (kappa, T)

    def test_f_shift_rule(self):
        # f(T + pi) = f(T) + 2K
        mod = Modulus(0.7)
        two_k = 2.0 * periods(mod).K
        for T in [-1.0, 0.0, 0.4, 2.2]:
            assert abs(f_forward(T + math.pi, mod) - f_forward(T, mod) - two_k) \
                <= 1e-11

    def test_phi_landmarks(self):
        mod = Modulus(0.6)
        assert phi(0.0, mod) == 0.0
        assert abs(phi(periods(mod).K, mod) - 0.5 * math.pi) <= 1e-11

    def test_phi_round_trip(self):
        mod = Modulus(0.8)
        for u in [1.1, -0.7, 5.3]:
            assert abs(f_forward(phi(u, mod), mod) - u) <= 1e-11

    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.999999])
    def test_phi_small_argument_against_mpmath(self, kappa):
        # |u| log-spaced from just below 1e-4, where phi switches from Newton
        # to its series, down to the smallest subnormal; Newton's absolute
        # tolerance used to leave 1.2e-9 relative error at u = 1e-15.  The
        # reference inverts f(T) = F(theta | m)/c, where
        # sin^2 theta = (1 + lam) sin^2 T / (1 + cos psi), sin psi = kappa sin T
        import mpmath

        mod = Modulus(kappa)
        with mpmath.workdps(30):
            k = mpmath.mpf(kappa)
            lam = mpmath.sqrt(1 - k * k)
            m = (1 - lam) / (1 + lam)
            c = mpmath.sqrt((1 + lam) / 2)
            for u in [10.0 ** -(4.05 + 2.0 * j) for j in range(160)] + [5e-324]:
                sn = mpmath.ellipfun("sn", u * c, m=m)
                sin_t = sn * mpmath.sqrt((2 - (1 - lam) * sn**2) / (1 + lam))
                ref_phi, ref_s2 = float(mpmath.asin(sin_t)), float(sin_t)
                for sign in (1.0, -1.0):
                    got = phi(sign * u, mod)
                    assert abs(got - sign * ref_phi) <= 1e-13 * ref_phi, sign * u
                    got = s2(sign * u, mod)
                    assert abs(got - sign * ref_s2) <= 1e-13 * ref_s2, sign * u

    @pytest.mark.parametrize("kappa, bound", [(0.3, 2e-15), (0.6, 2e-15), (0.9, 2e-15),
                                              (0.999, 5e-15)])
    def test_phi_relative_accuracy_against_mpmath(self, kappa, bound):
        # u seeded over three periods either side of 0, log-spaced over
        # +-[1e-4, 1], and 1e-9 and an ulp either side of each multiple of
        # 2K, where f(pi) by quadrature may round below the target
        mod = Modulus(kappa)
        two_k = 2.0 * periods(mod).K
        rng = random.Random(f"phi:{kappa}")
        us = [rng.uniform(-3.0 * two_k, 3.0 * two_k) for _ in range(40)]
        us += [s * 10.0 ** (-0.16 * j) for j in range(26) for s in (1.0, -1.0)]
        us += [two_k * n + e for n in range(-3, 4) for e in (1e-9, -1e-9)]
        us += [math.nextafter(two_k * n, s * math.inf) for n in range(1, 4) for s in (1, -1)]
        for u in us:
            got = phi(u, mod)
            assert _rel_err(got, _mp_phi(u, kappa)) <= bound, u
            assert phi(-u, mod) == -got, u

    @pytest.mark.parametrize("kappa, f_bound, phi_bound", [(0.999, 1e-15, 3e-15),
                                                          (0.9999, 2e-15, 7e-15)])
    def test_f_and_phi_near_kappa_one_against_mpmath(self, kappa, f_bound, phi_bound):
        # f' peaks at pi/2 with height about 1/lam; f' from the complement
        # lam^2 + kappa^2 cos^2 t does not cancel there.  The bounds come
        # from 400 seeded T and u per kappa over the same ranges: the worst
        # f was 8.2e-16 at 0.999 and 1.7e-15 at 0.9999 (4.2e-15, and at
        # 0.9999 3.9e-14 or a ConvergenceError for 137 of the 400, when f'
        # was formed from kappa^2 sin^2 t alone and f integrated over all of
        # [0, |T|]; 1.5e-15 and 5.9e-15 before f reflected past 3 pi/4).
        # phi is worst where f still integrates across the peak, at T in
        # (pi/2, 3 pi/4]: 2.5e-15 and 5.9e-15
        mod = Modulus(kappa)
        rng = random.Random(f"near one:{kappa}")
        for _ in range(24):
            T = rng.uniform(-3.0 * math.pi, 3.0 * math.pi)
            assert _rel_err(f_forward(T, mod), _mp_f(T, kappa)) <= f_bound, T
        for _ in range(24):
            u = rng.uniform(-3.0 * mod.two_k, 3.0 * mod.two_k)
            assert _rel_err(phi(u, mod), _mp_phi(u, kappa)) <= phi_bound, u

    def test_phi_past_the_peak_at_kappa_0999(self):
        # Newton returned a T where f differed from |u| by 10 ulps, and phi
        # was 6.45e-15 from mpmath
        u = -7.214633969637685
        assert _rel_err(phi(u, Modulus(0.999)), _mp_phi(u, 0.999)) <= 1e-15

    def test_phi_where_two_levels_agree_by_accident(self):
        # the f integrand over [0, 0.9695832262418205] has level differences
        # 1.5e-2, 5.5e-11 and 7.6e-12: stopping at level 2 left f 7.8e-12
        # and phi 1.8e-12 from mpmath
        u = 4.175714903180484
        assert _rel_err(phi(u, Modulus(0.3)), _mp_phi(u, 0.3)) <= 2e-15

    def test_f_prime_is_the_closed_form_bit_for_bit(self):
        # _f_prime writes out f14_34_12_closed(lam^2 + (kappa cos t)^2)
        rng = random.Random("f prime closed form")
        kappas = [10.0**-e for e in range(1, 13)] + [1.0 - 10.0**-e for e in range(1, 13)]
        kappas += [103965003 * 2.0**-53, 0.3, 0.6, 0.9]
        for k in kappas:
            mod = Modulus(k)
            f_prime = _f_prime(mod)
            for t in [0.0, 0.5 * math.pi, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(200)]:
                c = mod.kappa * math.cos(t)
                assert f_prime(t) == f14_34_12_closed(mod.lam * mod.lam + c * c), (k, t)

    def test_f_prime_default_shift_is_unchanged_bit_for_bit(self):
        # _integral evaluates f'(a + (s - c)); with the default shift a = c = 0
        # that is f'(s) as it was written before the shift, at every t
        def unshifted(mod, t):
            c = mod.kappa * math.cos(t)
            c = math.sqrt(mod.lam * mod.lam + c * c)
            return math.sqrt(0.5 * (1.0 + c)) / c

        rng = random.Random("f prime default shift")
        ts = [0.0, -0.0, 5e-324, 1e-300, 0.5 * math.pi, math.pi, 1e8]
        ts += [rng.uniform(-10.0, 10.0) for _ in range(300)]
        for k in (1e-9, 0.3, 0.6, 0.9, 0.999999):
            mod = Modulus(k)
            f_prime = _f_prime(mod)
            shifted = _f_prime(mod, 1.25, 0.5)
            for t in ts:
                assert f_prime(t) == unshifted(mod, t), (k, t)
                assert shifted(t) == unshifted(mod, 1.25 + (t - 0.5)), (k, t)

    @pytest.mark.parametrize("kappa, per_solve, per_f", [(0.3, 186, 76), (0.6, 200, 81),
                                                         (0.9, 274, 102)])
    def test_phi_route_quadrature_evaluations(self, monkeypatch, kappa, per_solve, per_f):
        # f' evaluations per phi solve and per f, over u in three periods 2K
        # and T in three periods pi either side of 0.  Integrating from 0
        # spent tanh-sinh nodes down to t = 1e-300, and every Newton iterate
        # integrated again from 0: 305 / 316 / 546 per solve and 100 / 104 /
        # 128 per f at kappa = 0.3 / 0.6 / 0.9.  Over the shifted interval,
        # with the residual carried between iterates: 174 / 183 / 247 and
        # 70 / 73 / 90; the bounds are about 10% above those
        evaluations = []

        def counted(f, a, b):
            result = integrate(f, a, b)
            evaluations.append(result.evaluations)
            return result

        monkeypatch.setattr(core, "integrate", counted)
        mod = Modulus(kappa)
        rng = random.Random(f"evaluations:{kappa}")
        for _ in range(40):
            phi(rng.uniform(-3.0 * mod.two_k, 3.0 * mod.two_k), mod)
        assert sum(evaluations) / 40 <= per_solve
        evaluations.clear()
        for _ in range(40):
            f_forward(rng.uniform(-3.0 * math.pi, 3.0 * math.pi), mod)
        assert sum(evaluations) / 40 <= per_f

    @pytest.mark.parametrize("kappa", [0.3, 0.9, 0.999])
    def test_f_reduces_by_its_period_against_mpmath(self, kappa):
        # f(T + n pi) = f(T) + n 2K: the quadrature runs over at most [0, pi],
        # up to the largest |T| whose reduction keeps 8 digits; f(1e4)
        # raised ConvergenceError when it integrated over all of [0, |T|]
        mod = Modulus(kappa)
        limit = math.nextafter(2.0**28, 0.0)
        assert limit == reduction_limit(math.pi)
        for T in [math.pi, 3.5, 2.0 * math.pi, 10.0, 123.456, 1e4, 98765.4321, 3.3e6, 1e8,
                  limit]:
            got = f_forward(T, mod)
            assert _rel_err(got, _mp_f(T, kappa)) <= 1e-15, T
            assert f_forward(-T, mod) == -got, T

    def test_f_restores_the_part_of_pi_its_reduction_drops(self):
        # |T| is reduced by math.pi, n (pi - math.pi) = 1.2e-16 n short of
        # n pi; just below the peak of f' (about 1/lam = 707 at 0.999999)
        # dropping it cost up to 5.2e-15 of f
        mod = Modulus(0.999999)
        for n in (10, 1000, 10**6):
            for r in (1.5707, 1.5708):
                T = n * math.pi + r
                assert _rel_err(f_forward(T, mod), _mp_f(T, 0.999999)) <= 5e-16, T

    @pytest.mark.parametrize("kappa", [0.3, 0.6, 0.9, 0.999])
    def test_s2_near_multiples_of_pi_against_mpmath(self, kappa):
        # s2 = sin(phi) is small where phi nears n pi: the sine of the
        # rounded phi carried phi's rounding, up to ulp(phi)/2 = 8.9e-16
        # for phi in [8, 16), and s2 was up to 2.4e-15 (3.0e-14 at 0.999)
        # from mpmath here; the largest error on these u is now 7.4e-16
        # (1.4e-15 at 0.999)
        import mpmath

        mod = Modulus(kappa)
        bound = 2e-15 if kappa > 0.9 else 1e-15
        rng = random.Random(f"s2:{kappa}")
        for _ in range(40):
            u = (rng.randint(-3, 3) + rng.uniform(-0.03, 0.03)) * mod.two_k
            with mpmath.workdps(40):
                ref = mpmath.sin(_mp_phi(u, kappa))
            assert abs(s2(u, mod) - ref) <= bound, u

    def test_f_and_phi_where_the_complement_rounds_above_one(self):
        # lam^2 + kappa^2 cos^2 t can round an ulp above 1 for small kappa;
        # at this kappa it does at every t with cos t == 1.0, a node that
        # tanh-sinh on [0, r] always evaluates, and f and phi raised
        # DomainError on every call
        k = 103965003 * 2.0**-53
        mod = Modulus(k)
        assert mod.lam == 1.0 and mod.lam**2 + k**2 > 1.0
        assert _rel_err(f_forward(1.0, mod), _mp_f(1.0, k)) <= 1e-15
        assert _rel_err(phi(1.0, mod), _mp_phi(1.0, k)) <= 1e-15
        # it happened at a few percent of kappa below about 1e-2
        rng = random.Random("complement above one")
        kappas = [math.exp(rng.uniform(math.log(KAPPA_MIN), 0.0)) for _ in range(2000)]
        kappas += [rng.uniform(1e-6, 1e-2) for _ in range(1000)]
        for k in kappas:
            mod = Modulus(k)
            f_forward(1.0, mod)
            phi(1.0, mod)

    @pytest.mark.parametrize("T", [2.0**28, -2.0**28, 1e300, math.inf, -math.inf, math.nan])
    def test_f_unreducible_argument(self, T):
        # fewer than 8 digits of T survive reduction modulo pi beyond 2**28
        with pytest.raises(DomainError):
            f_forward(T, Modulus(0.6))

    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan, 1e300])
    def test_phi_unreducible_argument(self, u):
        # inf used to raise OverflowError and nan ValueError from math.floor
        with pytest.raises(DomainError):
            phi(u, Modulus(0.6))
        with pytest.raises(DomainError):
            s2(u, Modulus(0.6))

    @pytest.mark.parametrize("kappa", [0.3, 0.9])
    def test_float32_argument_takes_the_path_of_its_value(self, kappa):
        # the series below |u| = 1e-4 was summed in the type of u, single
        # precision for a float32: 2.5e-10 relative off at 5e-5, kappa = 0.9
        np32 = pytest.importorskip("numpy").float32
        mod = Modulus(kappa)
        for v in (5e-5, -3e-6, 1e-30, 0.0, 0.3, -2.0, 9.5):
            u = np32(v)
            x = float(u)
            assert phi(u, mod).hex() == phi(x, mod).hex(), v
            assert s2(u, mod).hex() == s2(x, mod).hex(), v
            assert dn2(u, mod, Route.PHI).hex() == dn2(x, mod, Route.PHI).hex(), v
        # a huge int is still refused by the reduction, not overflowed by float()
        for fn in (phi, s2, partial(dn2, route=Route.PHI)):
            with pytest.raises(DomainError):
                fn(10**400, mod)

    def test_s2_landmarks(self):
        mod = Modulus(0.7)
        assert s2(0.0, mod) == 0.0
        assert abs(s2(periods(mod).K, mod) - 1.0) <= 1e-11

    def test_s2_identity(self):
        mod = Modulus(0.7)
        x = 0.4
        expected = math.sqrt(1.0 - dn2(x, mod) ** 2) / mod.kappa
        assert abs(s2(x, mod) - expected) <= 1e-11
        K = periods(mod).K
        for xx in np.linspace(-2.0 * K, 2.0 * K, 40):
            y = dn2(float(xx), mod)
            ss = s2(float(xx), mod)
            assert abs(y * y + mod.kappa**2 * ss * ss - 1.0) <= 1e-11


class TestPeriods:
    def test_methods_agree(self):
        for i in range(1, 10):
            mod = Modulus(0.1 * i)
            pe = periods(mod, PeriodMethod.ELLIPTIC)
            ph = periods(mod, PeriodMethod.HYPER)
            pi_ = periods(mod, PeriodMethod.INTEGRAL)
            assert abs(pe.K - ph.K) <= 1e-12
            assert abs(pe.Kprime - ph.Kprime) <= 1e-12
            assert abs(pi_.K - pe.K) <= 1e-8
            assert abs(pi_.Kprime - pe.Kprime) <= 1e-8

    def test_special_ratios(self):
        p = periods(Modulus(1.0 / 3.0))
        assert abs(p.Kprime / p.K - 2.0) <= 1e-10
        p = periods(Modulus(1.0 / math.sqrt(2.0)))
        assert abs(p.Kprime / p.K - math.sqrt(2.0)) <= 1e-12

    def test_i_gamma_cross_method(self):
        mod = Modulus(0.6)
        pe = periods(mod, PeriodMethod.ELLIPTIC)
        # K = I(gamma) with (cos, sin) = (lam, kappa), K' = sqrt(2) I(gamma)
        # with (kappa, lam)
        assert abs(i_gamma(mod.lam, mod.kappa) - pe.K) <= 1e-8
        assert abs(math.sqrt(2.0) * i_gamma(mod.kappa, mod.lam) - pe.Kprime) <= 1e-8

    def test_i_gamma_small_angle(self):
        # I(gamma) = pi/2 + O(gamma^2): the integrand in s tends to 1
        assert abs(i_gamma(math.cos(0.01), math.sin(0.01)) - 0.5 * math.pi) <= 1e-3
        # the pair carries sin gamma itself, so no angle underflows or loses
        # digits to cos gamma rounding to 1
        for sin_g in (1e-12, 1e-50, 1e-100, 1e-140, 1e-200, 1e-300):
            cos_g = math.sqrt((1.0 - sin_g) * (1.0 + sin_g))
            assert abs(i_gamma(cos_g, sin_g) - 0.5 * math.pi) <= 1e-15, sin_g

    @pytest.mark.parametrize("method", ["hyper", "elliptic", None, Route.SN])
    def test_unknown_method_is_refused(self, method):
        # not a PeriodMethod member: it used to return INTEGRAL's pair
        with pytest.raises(DomainError, match="unknown period method"):
            periods(Modulus(0.6), method)

    def test_i_gamma_domain(self):
        bad = [
            (1.0, 0.0), (0.0, 1.0), (-0.6, 0.8), (0.6, -0.8),  # not positive
            (0.6, 0.8 + 1e-11), (0.6, 0.6), (2.0, 2.0),  # not on the unit circle
            (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
            (2.0**-511, 1.0),  # cos gamma squared would be subnormal
        ]
        for cos_g, sin_g in bad:
            with pytest.raises(DomainError):
                i_gamma(cos_g, sin_g)
        # within 1e-12 of the unit circle is accepted
        assert abs(i_gamma(0.6, 0.8 + 1e-13) - i_gamma(0.6, 0.8)) <= 1e-12
        assert i_gamma(2.0**-510, 1.0) > 0.0


class TestGreenhill:
    def test_symmetric_cubic(self):
        for lam in [0.3, 0.8]:
            r1, r2 = greenhill_check(1.0, lam, -lam)
            assert abs(r1) <= 1e-8
            assert abs(r2) <= 1e-8

    def test_generic_cubic(self):
        r1, r2 = greenhill_check(2.0, 1.0, 0.0)
        assert abs(r1) <= 1e-8
        assert abs(r2) <= 1e-8

    def test_nearly_degenerate(self):
        r1, r2 = greenhill_check(1.0, 0.999, 0.0)
        assert abs(r1) <= 1e-8
        assert abs(r2) <= 1e-8

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            greenhill_check(1.0, 1.0, 0.0)
        # a - c overflows: the roots cannot be scaled
        with pytest.raises(DomainError):
            greenhill_check(1e308, 0.0, -1e308)

    @pytest.mark.parametrize("a, b, c", [
        (2.0, 0.3, -1.0), (1.0, 0.999, 0.0), (3e-5, 1e-5, -2e-5), (5e9, -1e9, -3e9),
        (1e-160, 5e-161, 0.0),
    ])
    def test_quadrupled_roots_halve_the_residuals_bit_for_bit(self, a, b, c):
        # the roots are scaled by a power of 4 into a - c in [1, 4), exactly
        r1, r2 = greenhill_check(a, b, c)
        assert greenhill_check(4.0 * a, 4.0 * b, 4.0 * c) == (0.5 * r1, 0.5 * r2)
        assert greenhill_check(0.25 * a, 0.25 * b, 0.25 * c) == (2.0 * r1, 2.0 * r2)

    @pytest.mark.parametrize("a, b, c", [(1e-160, 5e-161, 0.0), (3e-323, 1e-323, 0.0)])
    def test_tiny_cubic_is_accurate(self, a, b, c):
        # next to a root 1/(sqrt(x) sqrt(y) sqrt(z)) overflowed, and
        # greenhill_check(1e-160, 5e-161, 0) raised ConvergenceError;
        # (3e-323, 1e-323, 0) returned residuals as large as the integrals
        pref = 2.0 / math.sqrt(a - c)
        closed = (pref * complete_K((a - b) / (a - c), (b - c) / (a - c)),
                  pref * complete_K((b - c) / (a - c), (a - b) / (a - c)))
        for r, k in zip(greenhill_check(a, b, c), closed):
            assert math.isfinite(r) and abs(r) <= 1e-15 * k, (r, k)

    @pytest.mark.parametrize("a, b, c", [
        (1.0, 1e-200, 0.0), (1.0, 1e-100, 0.0), (1e-160, 5e-161, 0.0),
    ])
    def test_underflowing_cubic_is_accurate_or_a_typed_error(self, a, b, c):
        # next to a root the cubic underflows to 0 while its factors are
        # still representable
        pref = 2.0 / math.sqrt(a - c)
        closed = (pref * complete_K((a - b) / (a - c), (b - c) / (a - c)),
                  pref * complete_K((b - c) / (a - c), (a - b) / (a - c)))
        try:
            residuals = greenhill_check(a, b, c)
        except (ConvergenceError, DomainError):
            return
        for r, k in zip(residuals, closed):
            assert abs(r) <= 1e-14 * abs(k), (r, k)
