import math

import pytest

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
