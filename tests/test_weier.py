import math

import numpy as np
import pytest

from dn2.core import Modulus, Route, dn2, periods
from dn2.hyper import F_QUARTER_ONE, gauss_2f1
from dn2.kernel import DomainError
from dn2.weier import lattice_from_invariants, wp_halfperiods


def invariants(kappa):
    return 4.0 / 3.0 - kappa**2, 8.0 / 27.0 - kappa**2 / 3.0


class TestLattice:
    def test_known_roots(self):
        lat = lattice_from_invariants(*invariants(0.6))
        lam = 0.8
        assert abs(lat.e1 - (1.0 / 6.0 + 0.5 * lam)) <= 1e-13
        assert abs(lat.e2 - (1.0 / 6.0 - 0.5 * lam)) <= 1e-13
        assert abs(lat.e3 + 1.0 / 3.0) <= 1e-13

    def test_square_lattice(self):
        # g3 = 0 forces a symmetric root triple
        lat = lattice_from_invariants(*invariants(2.0 * math.sqrt(2.0) / 3.0))
        assert abs(lat.g3) <= 1e-15
        assert abs(lat.e2) <= 1e-13
        assert abs(lat.e1 + lat.e3) <= 1e-13

    def test_generic_cubic(self):
        lat = lattice_from_invariants(5.0, 1.0)
        for e in (lat.e1, lat.e2, lat.e3):
            assert abs((4.0 * e * e - 5.0) * e - 1.0) <= 1e-12
        assert lat.e1 > lat.e2 > lat.e3
        assert abs(lat.e1 + lat.e2 + lat.e3) <= 1e-13
        assert 0.0 < lat.m < 1.0

    def test_negative_discriminant(self):
        with pytest.raises(DomainError):
            lattice_from_invariants(1.0, 1.0)


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


class TestHalfperiods:
    def test_positive(self):
        hp = wp_halfperiods(lattice_from_invariants(*invariants(0.6)))
        assert hp.K > 0.0 and hp.Kprime > 0.0
        assert math.isfinite(hp.Kprime / hp.K)

    def test_square(self):
        hp = wp_halfperiods(
            lattice_from_invariants(*invariants(2.0 * math.sqrt(2.0) / 3.0))
        )
        assert abs(hp.K - hp.Kprime) <= 1e-12

    def test_hypergeometric_cross_check(self):
        hp = wp_halfperiods(lattice_from_invariants(*invariants(0.5)))
        assert abs(hp.K - 0.5 * math.pi * gauss_2f1(F_QUARTER_ONE, 0.25, 0.75)) <= 1e-12
