import math

import numpy as np
import pytest

from dn2.hyper import F_QUARTER_ONE, gauss_2f1
from dn2.jacobi import PoleError
from dn2.kernel import DomainError
from dn2.weier import lattice_from_invariants, wp, wp_halfperiods


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
    def test_midpoint_values(self):
        lat = lattice_from_invariants(*invariants(0.5))
        hp = wp_halfperiods(lat)
        w, wp_ = hp.K, hp.Kprime
        assert abs(wp(complex(w, 0.0), lat) - lat.e1) <= 1e-11
        assert abs(wp(complex(w, wp_), lat) - lat.e2) <= 1e-11
        assert abs(wp(complex(0.0, wp_), lat) - lat.e3) <= 1e-11

    def test_differential_equation(self):
        lat = lattice_from_invariants(*invariants(0.5))
        z = complex(0.31, 0.17)
        # sixth-order central difference: the pole at 0 is close enough that
        # lower-order stencils cannot reach 1e-9 before roundoff takes over
        h = 1e-3
        p = wp(z, lat)
        dp = (
            45.0 * (wp(z + h, lat) - wp(z - h, lat))
            - 9.0 * (wp(z + 2 * h, lat) - wp(z - 2 * h, lat))
            + (wp(z + 3 * h, lat) - wp(z - 3 * h, lat))
        ) / (60.0 * h)
        resid = dp * dp - (4.0 * p**3 - lat.g2 * p - lat.g3)
        assert abs(resid) <= 1e-9

    def test_even_and_periodic(self):
        lat = lattice_from_invariants(*invariants(0.7))
        hp = wp_halfperiods(lat)
        for zr in np.linspace(0.2, 2.0 * hp.K - 0.2, 4):
            for zi in np.linspace(0.2, 2.0 * hp.Kprime - 0.2, 4):
                z = complex(float(zr), float(zi))
                v = wp(z, lat)
                assert abs(wp(-z, lat) - v) <= 1e-10
                assert abs(wp(z + 2.0 * hp.K, lat) - v) <= 1e-10
                assert abs(wp(z + 2.0j * hp.Kprime, lat) - v) <= 1e-10

    def test_pole_at_origin(self):
        lat = lattice_from_invariants(*invariants(0.5))
        with pytest.raises(PoleError):
            wp(complex(0.0, 0.0), lat)

    def test_real_monotone_on_perimeter(self):
        # values are real on the half-period rectangle boundary and decrease
        # strictly on the counterclockwise walk away from the origin pole
        lat = lattice_from_invariants(*invariants(0.4))
        hp = wp_halfperiods(lat)
        w, wq = hp.K, hp.Kprime
        pts = []
        n = 30
        for i in range(1, n):
            pts.append(complex(w * i / n, 0.0))
        for i in range(n + 1):
            pts.append(complex(w, wq * i / n))
        for i in range(1, n + 1):
            pts.append(complex(w * (n - i) / n, wq))
        for i in range(1, n):
            pts.append(complex(0.0, wq * (n - i) / n))
        vals = [wp(z, lat) for z in pts]
        for v in vals:
            assert abs(v.imag) <= 1e-10
        reals = [v.real for v in vals]
        assert all(x > y for x, y in zip(reals, reals[1:]))


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
