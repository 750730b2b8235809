import math

import pytest

from dn2.kernel import ConvergenceError, DomainError, integrate, newton_invert


def agm(a, b):
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


class TestIntegrate:
    def test_constant(self):
        r = integrate(lambda t: 1.0, 0.0, 1.0)
        assert abs(r.value - 1.0) <= 1e-12
        assert r.err_estimate >= 0.0
        assert r.evaluations >= 1

    def test_inverse_sqrt_singularity(self):
        r = integrate(lambda t: t ** -0.5, 0.0, 1.0, singular_left=True)
        assert abs(r.value - 2.0) <= 1e-12

    def test_right_singularity(self):
        # a right-endpoint singularity at b != 0 is ulp-limited: the integrand
        # reconstructs b - x from a rounded node, so accuracy caps near 1e-8
        # (callers that need better move the singular point to 0 first)
        r = integrate(
            lambda t: (1.0 - t) ** -0.5, 0.0, 1.0, singular_right=True, tol=1e-8
        )
        assert abs(r.value - 2.0) <= 1e-7

    def test_complete_elliptic_vs_agm(self):
        # independent value: K(m) = pi / (2 agm(1, sqrt(1-m)))
        for m in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            r = integrate(
                lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                0.0,
                0.5 * math.pi,
            )
            ref = 0.5 * math.pi / agm(1.0, math.sqrt(1.0 - m))
            assert abs(r.value - ref) <= 1e-12, m

    def test_linearity(self):
        tol = 1e-12
        f = math.cos
        g = lambda t: t * t
        a, b = 0.2, 1.4
        alpha, beta = 2.5, -0.75
        combined = integrate(lambda t: alpha * f(t) + beta * g(t), a, b, tol=tol)
        parts = alpha * integrate(f, a, b, tol=tol).value + beta * integrate(
            g, a, b, tol=tol
        ).value
        assert abs(combined.value - parts) <= 2.0 * tol

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda t: t, 1.0, 0.0)

    def test_nan_integrand_rejected(self):
        with pytest.raises(ConvergenceError):
            integrate(lambda t: math.nan, 0.0, 1.0)

    def test_nonconvergence_carries_best(self):
        # a genuinely hostile integrand: interior kink limits the convergence
        # rate, so a very tight tolerance cannot be met
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda t: abs(t - 0.123456789) ** 0.5, 0.0, 1.0, tol=1e-16,
                      max_level=4)
        assert info.value.best is not None
        assert math.isfinite(info.value.best.value)


class TestNewtonInvert:
    def test_square(self):
        x = newton_invert(lambda t: t * t, lambda t: 2 * t, 4.0, 3.0)
        assert abs(x - 2.0) <= 1e-10

    def test_sine(self):
        x = newton_invert(math.sin, math.cos, 0.5, 0.5)
        assert abs(x - math.pi / 6) <= 1e-10

    def test_quadrature_round_trip(self):
        # invert the module's own forward quadrature of a monotone integrand
        def forward(T):
            return integrate(lambda t: 1.0 + 0.25 * math.sin(t) ** 2, 0.0, T).value \
                if T > 0 else 0.0

        target = forward(0.7)
        x = newton_invert(
            forward, lambda T: 1.0 + 0.25 * math.sin(T) ** 2, target, 0.3
        )
        assert abs(x - 0.7) <= 1e-10

    def test_no_bracket(self):
        with pytest.raises(ConvergenceError):
            newton_invert(math.tanh, lambda t: 1.0 / math.cosh(t) ** 2, 5.0, 0.0)

