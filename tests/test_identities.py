import math
import random

import pytest
from hypothesis import given, strategies as st

from dn2.core import Modulus, PeriodMethod, periods
from dn2.identities import (
    PERIOD_RELATION_LABELS,
    identity_bbg_91,
    identity_bbg_92,
    period_relations,
    symmetric_pair,
    transform_signature4,
)
from dn2.hyper import F_HALF_ONE, agm, gauss_2f1
from dn2.kernel import ConvergenceError, DomainError, integrate

GRID = [0.05 * i for i in range(1, 20)]


class TestBbg:
    def test_92_spot_values(self):
        for lam in [0.5, 0.8]:
            rep = identity_bbg_92(lam)
            assert rep.passed
            assert abs(rep.residual) <= 1e-12
            assert rep.residual == rep.lhs - rep.rhs

    def test_91_spot_values(self):
        for lam in [0.6, 0.9]:
            rep = identity_bbg_91(lam)
            assert rep.passed
            assert abs(rep.residual) <= 1e-12

    def test_sweep(self):
        for lam in GRID:
            assert identity_bbg_91(lam).passed, lam
            assert identity_bbg_92(lam).passed, lam

    @pytest.mark.parametrize("check", [identity_bbg_91, identity_bbg_92])
    @pytest.mark.parametrize("lam", [0.45, 0.9])
    def test_lambda_shifted_between_sides_is_detected(self, check, lam):
        # lhs at lam against rhs at lam + 1e-6 differ by 2e-7 to 2e-6
        residual = check(lam).lhs - check(lam + 1e-6).rhs
        assert abs(residual) > 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            identity_bbg_91(0.0)
        with pytest.raises(DomainError):
            identity_bbg_92(1.0)


class TestSymmetricPair:
    def test_fixed_point(self):
        assert abs(symmetric_pair(1.0 / 3.0) - 1.0 / 3.0) <= 1e-15

    def test_boundary(self):
        assert symmetric_pair(0.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            symmetric_pair(1.0)

    def test_spot_value(self):
        y = symmetric_pair(0.2)
        assert abs(y - 0.5) <= 1e-15
        assert abs(0.2 + y + 3.0 * 0.2 * y - 1.0) <= 1e-15

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_involution(self, x):
        assert abs(symmetric_pair(symmetric_pair(x)) - x) <= 1e-15

    def test_decreasing(self):
        vals = [symmetric_pair(0.05 * i) for i in range(20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTransform:
    def test_spot_value(self):
        rep = transform_signature4(0.25)
        assert rep.passed
        assert abs(rep.residual) <= 1e-11

    def test_constraint(self):
        x = 0.3
        y = symmetric_pair(x)
        assert abs(x + y + 3.0 * x * y - 1.0) <= 1e-15

    def test_sweep(self):
        for x in GRID:
            assert transform_signature4(x).passed, x

    def test_boundary_guard(self):
        with pytest.raises(DomainError):
            transform_signature4(1.0)
        with pytest.raises(DomainError):
            transform_signature4(0.0)


class TestPeriodRelations:
    def test_self_complementary(self):
        kappa = 1.0 / math.sqrt(2.0)
        reports = period_relations(kappa)
        assert len(reports) == len(PERIOD_RELATION_LABELS)
        assert all(r.passed for r in reports)
        p = periods(Modulus(kappa), PeriodMethod.ELLIPTIC)
        q = periods(Modulus(Modulus(kappa).lam), PeriodMethod.ELLIPTIC)
        assert abs(p.K - q.K) <= 1e-12

    def test_spot_value(self):
        assert all(r.passed for r in period_relations(0.3))

    def test_square_and_double(self):
        kappa = 2.0 * math.sqrt(2.0) / 3.0
        reports = period_relations(kappa)
        assert all(r.passed for r in reports)
        p = periods(Modulus(kappa))
        q = periods(Modulus(1.0 / 3.0))
        assert abs(p.Kprime / p.K - 1.0) <= 1e-10
        assert abs(q.Kprime / q.K - 2.0) <= 1e-10
        assert abs((p.Kprime / p.K) * (q.Kprime / q.K) - 2.0) <= 1e-10

    def test_sweep(self):
        for kappa in GRID:
            assert all(r.passed for r in period_relations(kappa)), kappa

    def test_sqrt2_relations_on_the_exact_complement(self):
        # Modulus(lam) took lam back from the rounded kappa: K'(kappa) =
        # sqrt(2) K(lam) was off by 9e-12 relative at kappa = 1e-3, and
        # below kappa = 1.05e-8, where lam rounds to 1, the check raised
        rng = random.Random("complement relations")
        kappas = [2.0**-510, 1e-12, 1.0 - 1e-12]
        kappas += [10.0 ** rng.uniform(-12.0, 0.0) for _ in range(60)]
        kappas += [1.0 - 10.0 ** rng.uniform(-12.0, -0.3) for _ in range(60)]
        kappas += [10.0**-e for e in range(1, 12)] + [1.0 - 10.0**-e for e in range(1, 12)]
        for kappa in kappas:
            reports = period_relations(kappa)
            for r in reports[:2]:
                assert abs(r.residual) <= 1e-15 * r.lhs, kappa
            assert all(r.passed for r in reports), kappa
        assert len(period_relations(1e-9)) == len(PERIOD_RELATION_LABELS)


def test_bbg_pair_implies_transform():
    # composing the two checked identities at the same lambda reproduces the
    # transformation residual at x = (1-lam)/(1+lam)
    for lam in [0.2, 0.5, 0.8]:
        x = (1.0 - lam) / (1.0 + lam)
        rep = transform_signature4(x)
        assert abs(rep.residual) <= (
            abs(identity_bbg_91(lam).residual)
            + abs(identity_bbg_92(lam).residual)
            + 1e-11
        )


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize(
    "check", [identity_bbg_91, identity_bbg_92, transform_signature4, period_relations]
)
def test_tol_not_finite_and_positive_is_a_domain_error(check, tol):
    with pytest.raises(DomainError):
        check(0.5, tol=tol)


@pytest.mark.parametrize("fn, args", [
    (agm, (1.0, 0.3)),
    (agm, (0.0, 0.3)),
    (gauss_2f1, (F_HALF_ONE, 0.3, 0.7)),
    (gauss_2f1, (F_HALF_ONE, 0.3, 0.6)),
    (integrate, (math.exp, 0.1, 0.1003)),
    (integrate, (math.exp, 2.0, 2.0001)),
    (identity_bbg_91, (0.3,)),
    (identity_bbg_92, (0.3,)),
    (transform_signature4, (0.3,)),
    (symmetric_pair, (0.3,)),
    (symmetric_pair, (1.0,)),
    (period_relations, (0.3,)),
])
def test_float32_argument_computes_as_its_float(fn, args):
    # NumPy 2 keeps a float32 in single precision through Python float
    # arithmetic: agm and gauss_2f1 returned float32s, integrate's nodes
    # were float32 (2.5e-5 relative off on the first interval, and a
    # spurious ConvergenceError on the second), and identity_bbg_92 failed
    # its 1e-12 tolerance with a residual of -1.19e-7.  Each converts after
    # its domain test, so a float32 returns what its float returns, in
    # Python floats, or raises the same typed error
    np32 = pytest.importorskip("numpy").float32

    def outcome(*xs):
        try:
            return repr(fn(*xs))
        except (DomainError, ConvergenceError) as exc:
            return type(exc).__name__

    narrow = [np32(x) if type(x) is float else x for x in args]
    wide = [float(x) if type(x) is np32 else x for x in narrow]
    assert outcome(*narrow) == outcome(*wide)


@pytest.mark.parametrize("fn, args", [
    (agm, (10**400, 1.0)),
    (integrate, (math.exp, 0.0, 10**400)),
    (integrate, (math.exp, -10**400, 0.0)),
])
def test_int_beyond_the_floats_is_a_domain_error(fn, args):
    # float() would overflow: integrate raised OverflowError, and agm a
    # ConvergenceError from the ratio that underflowed
    with pytest.raises(DomainError):
        fn(*args)
