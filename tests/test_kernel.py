import math

import pytest

from dn2.kernel import (
    QUAD_TOL,
    ConvergenceError,
    DomainError,
    gauss_legendre,
    integrate,
    newton_invert,
    trapezoid,
)


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
        # t^-1/2 is finite at every node: nodes that round onto 0 are dropped
        r = integrate(lambda t: t ** -0.5, 0.0, 1.0)
        assert abs(r.value - 2.0) <= 1e-12

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
        f = math.cos
        g = lambda t: t * t
        a, b = 0.2, 1.4
        alpha, beta = 2.5, -0.75
        combined = integrate(lambda t: alpha * f(t) + beta * g(t), a, b)
        parts = alpha * integrate(f, a, b).value + beta * integrate(g, a, b).value
        assert abs(combined.value - parts) <= 2e-12

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda t: t, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [
        (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
        (math.nan, 1.0), (0.0, math.nan), (1.0, 1.0),
    ])
    def test_bounds_not_finite_and_ordered_raise_before_any_evaluation(self, a, b):
        calls = []

        def f(t):
            calls.append(t)
            return 1.0

        with pytest.raises(DomainError):
            integrate(f, a, b)
        assert calls == []

    def test_width_that_overflows_raises_before_any_evaluation(self):
        # b - a = inf: every node off the centre would sit at +-inf, and the
        # centre's weight would be infinite
        calls = []
        with pytest.raises(DomainError):
            integrate(lambda t: calls.append(t) or 1.0, -1.7e308, 1.7e308)
        assert calls == []

    def test_width_past_1e306_is_scaled_by_a_power_of_two(self):
        # the weight half (pi/2) cosh t overflowed at the outer nodes, and a
        # constant over [0, 1e307] raised "non-finite tanh-sinh sum at level 0"
        r = integrate(lambda t: 1.0, 0.0, 1e307)
        assert abs(r.value - 1e307) <= 1e-15 * 1e307
        r = integrate(lambda t: math.sin(t * 1e-307), 0.0, 1e307)
        assert abs(r.value - (1.0 - math.cos(1.0)) * 1e307) <= 1e-14 * r.value
        r = integrate(lambda t: 1.0, -8e307, 8e307)
        assert abs(r.value - 1.6e308) <= 1e-15 * 1.6e308
        # the scaling is exact: f is evaluated at the nodes of the interval
        # scaled by 2**-4, times 2**4, and the result is that of the scaled
        # integral, times 2**4, bit for bit
        xs, scaled = [], []
        wide = integrate(lambda t: xs.append(t) or math.exp(-t / 1e306), 0.0, 1e307)
        narrow = integrate(lambda t: scaled.append(t) or math.exp(-16.0 * t / 1e306),
                           0.0, 1e307 / 16.0)
        assert xs == [16.0 * t for t in scaled]
        assert wide == (16.0 * narrow.value, 16.0 * narrow.err_estimate, narrow.evaluations)
        # a failure carries its best estimate at the scale of the interval
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda t: 1e-10 * abs(t / 1e307 - 0.123456789) ** 0.5, 0.0, 1e307)
        assert abs(info.value.best.value / 1e297 - 0.6) <= 0.1

    def test_level_sum_near_1e306_does_not_overflow(self):
        # the level sum is about 2**level times the integral: scaled from
        # 2**1016 on, it overflowed at level 11 and raised "non-finite
        # tanh-sinh sum" with no best estimate
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            integrate(lambda t: abs(t / 1e306 - 0.123456789) ** 0.5, 0.0, 1e306)
        best = info.value.best
        assert math.isfinite(best.value) and abs(best.value / 1e306 - 0.576) <= 0.01

    def test_nan_integrand_rejected(self):
        with pytest.raises(ConvergenceError):
            integrate(lambda t: math.nan, 0.0, 1.0)
        # so is inf, next to an endpoint too: there is no skip for it
        with pytest.raises(ConvergenceError):
            integrate(lambda t: math.inf if t < 1e-20 else 1.0, 0.0, 1.0)
        # a single nan at the centre node, and infinities of both signs,
        # which sum to nan: each makes its level's node sum non-finite
        with pytest.raises(ConvergenceError):
            integrate(lambda t: math.nan if t == 0.5 else 1.0, 0.0, 1.0)
        with pytest.raises(ConvergenceError):
            integrate(lambda t: math.copysign(math.inf, t - 0.5), 0.0, 1.0)

    def test_nonconvergence_carries_best(self):
        # a genuinely hostile integrand: interior kink limits the convergence
        # rate, so even the stop tolerance QUAD_TOL cannot be met
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda t: abs(t - 0.123456789) ** 0.5, 0.0, 1.0)
        assert info.value.best is not None
        assert math.isfinite(info.value.best.value)

    @pytest.mark.parametrize("a, b", [(100.0, 100.0 + 1e-14), (0.0, 5e-324)])
    def test_level_with_no_node_inside_raises(self, a, b):
        # both used to return 0.0 after 0 evaluations, with err_estimate 0
        calls = []
        with pytest.raises(ConvergenceError, match="no tanh-sinh node of level 0") as info:
            integrate(lambda t: calls.append(t) or 1.0, a, b)
        assert f"({a!r}, {b!r})" in str(info.value)
        assert calls == [] and info.value.best is None

    @pytest.mark.parametrize("a, b", [(1.0, 1.0 + 1e-12), (100.0, 100.0 + 1e-10)])
    def test_error_estimate_counts_the_nodes_dropped_onto_an_endpoint(self, a, b):
        # nodes within half an ulp of an endpoint round onto it and are
        # dropped: the value is 1.6e-4 relative off, and err_estimate must
        # cover that, not only the last level difference
        from fractions import Fraction

        r = integrate(lambda t: 1.0, a, b)
        exact = Fraction(b) - Fraction(a)
        assert abs(Fraction(r.value) - exact) > 1e-4 * exact
        assert r.err_estimate >= abs(Fraction(r.value) - exact)


def _each(g):
    """An integrand of trapezoid: g at each node sine of a level."""
    return lambda sines: [g(x) for x in sines]


class TestTrapezoid:
    @pytest.mark.parametrize("a", [1e-3, 0.5, 3.0, 100.0])
    def test_even_periodic_integrand(self, a):
        # 1/(1 + a sin^2 s) is smooth, even and pi-periodic, and its
        # integral over [0, pi/2] is pi / (2 sqrt(1 + a))
        r = trapezoid(lambda S: [1.0 / (1.0 + a * x * x) for x in S], 0.0, 0.5 * math.pi, 8)
        ref = 0.5 * math.pi / math.sqrt(1.0 + a)
        assert abs(r.value - ref) <= 1e-15 * ref, a
        assert 0.0 <= r.err_estimate <= QUAD_TOL
        # n + 1 values for n intervals, n doubled from 8
        n = r.evaluations - 1
        assert n >= 16 and n & (n - 1) == 0

    def test_non_finite_value_raises(self):
        with pytest.raises(ConvergenceError):
            trapezoid(_each(lambda x: math.nan), 0.0, 1.0, 8)
        # a single non-finite value, at an endpoint or at a midpoint added by
        # a doubling
        with pytest.raises(ConvergenceError):
            trapezoid(_each(lambda x: math.inf if x == 0.0 else 1.0), 0.0, 1.0, 8)
        with pytest.raises(ConvergenceError):
            trapezoid(_each(lambda x: math.nan if x == math.sin(1.0 / 16.0) else 1.0), 0.0, 1.0, 8)

    @pytest.mark.parametrize("f", [
        _each(lambda x: math.inf if x < math.sin(0.5) else -math.inf),  # fsum meets inf - inf
        _each(lambda x: 1e308),  # fsum overflows on the way
    ])
    def test_sum_that_fsum_rejects_raises_convergence_error(self, f):
        # math.fsum raises ValueError or OverflowError, not a non-finite sum
        with pytest.raises(ConvergenceError):
            trapezoid(f, 0.0, 1.0, 8)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0), (1.0, 1.0)])
    def test_bounds_not_finite_and_ordered_raise(self, a, b):
        with pytest.raises(DomainError):
            trapezoid(_each(lambda x: 1.0), a, b, 8)

    def test_start_is_the_callers(self):
        # the first doubling of n = 5 intervals stops on a constant: 2 n + 1
        # values, none computed twice
        calls = []
        r = trapezoid(_each(lambda x: calls.append(x) or 1.0), 0.0, 1.0, 5)
        assert r == (1.0, 0.0, 11)
        assert len(calls) == len(set(calls)) == 11

    def test_sines_are_those_of_the_per_node_abscissae(self):
        # level 0 holds sin a, sin(a + j h) and sin b, in increasing s, and
        # each later level the sines of the midpoints of the one before, h
        # halved; two calls with the same (a, b, n) share one table
        a, b, n = 0.25, 1.5, 3
        seen = []
        trapezoid(lambda S: seen.append(S) or [1.0] * len(S), a, b, n)
        h = (b - a) / n
        assert list(seen[0]) == [math.sin(a), *(math.sin(a + j * h) for j in range(1, n)), math.sin(b)]
        assert list(seen[1]) == [math.sin(a + (j + 0.5) * h) for j in range(n)]
        again = []
        trapezoid(lambda S: again.append(S) or [1.0] * len(S), a, b, n)
        assert [id(S) for S in again] == [id(S) for S in seen]
        # which no integrand can change
        with pytest.raises(TypeError):
            seen[0][1] = 0.0
        # a level past the first doubling: 2 n midpoints of the n intervals of h / 2
        seen.clear()
        with pytest.raises(ConvergenceError):
            trapezoid(lambda S: seen.append(S) or [abs(math.asin(x) - 0.6) ** 0.5 for x in S], a, b, n)
        assert list(seen[2]) == [math.sin(a + (j + 0.5) * (0.5 * h)) for j in range(2 * n)]

    def test_a_signed_zero_bound_is_zero(self):
        # -0.0 and 0.0 are one key of the table: both take sin(0.0) = 0.0
        for a in (-0.0, 0.0, -0.0):
            seen = []
            trapezoid(lambda S: seen.append(S) or [1.0] * len(S), a, 1.0, 4)
            assert math.copysign(1.0, seen[0][0]) == 1.0

    @pytest.mark.parametrize("n", [0, -8, 8.0])
    def test_start_that_is_not_a_positive_integer_raises(self, n):
        with pytest.raises(DomainError, match="positive integer"):
            trapezoid(_each(lambda x: 1.0), 0.0, 1.0, n)

    def test_width_that_overflows_raises(self):
        with pytest.raises(DomainError):
            trapezoid(_each(lambda x: 1.0), -1.7e308, 1.7e308, 8)

    def test_nonconvergence_carries_best(self):
        # an interior kink at s = 0.3, s = asin(sin s) on [0, 1]: the error
        # falls only algebraically
        with pytest.raises(ConvergenceError) as info:
            trapezoid(_each(lambda x: abs(math.asin(x) - 0.3) ** 0.5), 0.0, 1.0, 8)
        assert abs(info.value.best.value - 0.5) <= 1e-4


class TestGaussLegendre:
    def test_exact_for_degree_nine(self):
        # the integral of x^j over [-1, 1] is 2/(j + 1) for even j, 0 for odd
        for j in range(10):
            ref = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(gauss_legendre(lambda x: x**j, -1.0, 1.0) - ref) <= 4e-16, j
        # and not beyond: x^10 is off by the rule's error term
        assert abs(gauss_legendre(lambda x: x**10, -1.0, 1.0) - 2.0 / 11.0) > 1e-4

    def test_weights_and_nodes(self):
        # a constant sums the weights: 2 on [-1, 1], exactly
        assert gauss_legendre(lambda x: 1.0, -1.0, 1.0) == 2.0
        nodes = []
        gauss_legendre(lambda x: nodes.append(x) or 0.0, -1.0, 1.0)
        x1, x2 = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0, \
            math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
        assert sorted(nodes) == pytest.approx([-x2, -x1, 0.0, x1, x2], abs=1e-16)

    def test_short_step_of_an_analytic_integrand(self):
        # exp over a step of 0.08 is exact to rounding
        a, b = 0.3, 0.38
        ref = math.exp(a) * math.expm1(b - a)  # b - a is exact
        assert abs(gauss_legendre(math.exp, a, b) - ref) <= 2e-16 * ref

    def test_reversed_and_empty_steps(self):
        f = math.cos
        assert gauss_legendre(f, 0.7, 0.2) == -gauss_legendre(f, 0.2, 0.7)
        assert gauss_legendre(f, 0.5, 0.5) == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_raises(self, value):
        with pytest.raises(ConvergenceError, match="Gauss-Legendre"):
            gauss_legendre(lambda x: value if x > 0.5 else 1.0, 0.0, 1.0)


class TestNewtonInvert:
    def test_square(self):
        x = newton_invert(lambda t: t * t - 4.0, lambda t: 2 * t, 0.0, 3.0, 3.0)
        assert x == 2.0

    def test_sine(self):
        x = newton_invert(lambda t: math.sin(t) - 0.5, math.cos, 0.0, 0.5 * math.pi, 0.5)
        assert abs(x - math.pi / 6) <= 2e-16

    def test_quadrature_round_trip(self):
        # invert the module's own forward quadrature of a monotone integrand
        def forward(T):
            return integrate(lambda t: 1.0 + 0.25 * math.sin(t) ** 2, 0.0, T).value \
                if T > 0 else 0.0

        target = forward(0.7)
        x = newton_invert(
            lambda T: forward(T) - target, lambda T: 1.0 + 0.25 * math.sin(T) ** 2,
            0.0, math.pi, 0.3,
        )
        assert abs(x - 0.7) <= 1e-15  # the rounding of forward

    def test_starts_from_x0_and_stops_without_a_last_evaluation(self):
        calls = []

        def f(t):
            calls.append(t)
            return t * t - 2.0

        x = newton_invert(f, lambda t: 2 * t, 0.0, 2.0, 1.5)
        assert abs(x - math.sqrt(2.0)) <= 2e-16
        assert calls[0] == 1.5
        assert x not in calls  # the converged step is returned unevaluated
        assert len(calls) <= 5

    def test_bisects_where_newton_leaves_the_bracket(self):
        # the tangent at the flat start of x^5 points far outside [0, 2]
        x = newton_invert(lambda t: t**5 - 1.0, lambda t: 5 * t**4, 0.0, 2.0, 0.01)
        assert abs(x - 1.0) <= 2e-16
        # a derivative that is not positive is not followed either
        x = newton_invert(lambda t: math.tanh(t) - 0.5, lambda t: 0.0, 0.0, 3.0, 2.0)
        assert abs(x - math.atanh(0.5)) <= 2e-16

    def test_target_within_rounding_of_an_end_returns_that_end(self):
        # 3 hi rounds one ulp below the target: Newton keeps aiming past hi
        target = math.nextafter(3.0, math.inf)
        assert newton_invert(lambda t: 3.0 * t - target, lambda t: 3.0, 0.0, 1.0, 0.5) == 1.0

    def test_nan_function_value(self):
        with pytest.raises(ConvergenceError):
            newton_invert(lambda t: math.nan, lambda t: 1.0, 0.0, 1.0, 0.5)

    def test_no_bracket(self):
        # an f with no root on [lo, hi] collapses the bracket onto an end;
        # toward 0.0 that takes over 1,000 halvings, past the iteration cap,
        # where f at the end that never moved names the cause
        for target, x0 in [(5.0, 0.0), (0.999, 1.0), (-0.5, 2.0), (-1e-300, 2.0)]:
            with pytest.raises(ConvergenceError, match="f has no root on the bracket") as info:
                newton_invert(lambda t: math.tanh(t) - target,
                              lambda t: 1.0 / math.cosh(t) ** 2, 0.0, 3.0, x0)
            assert 0.0 <= info.value.best <= 3.0

    def test_root_just_inside_an_end_at_zero(self):
        x = newton_invert(lambda t: math.tanh(t) - 1e-300,
                          lambda t: 1.0 / math.cosh(t) ** 2, 0.0, 3.0, 2.0)
        assert x == 1e-300

    def test_iteration_cap_with_a_sign_change_keeps_its_message(self):
        # f seen below 0 only, with hi far and the Newton steps tiny: the
        # cap comes first, and f(hi) > 0 shows a root may lie on the bracket
        with pytest.raises(ConvergenceError, match="iteration cap"):
            newton_invert(lambda t: t - 1.0, lambda t: 1e300, 0.0, 2.0, 0.0)

    def test_float32_bounds_and_start_compute_as_their_floats(self):
        # NumPy 2 kept float32 iterates in single precision: they stalled,
        # every step failed the NEWTON_RTOL stop, and the cap raised
        np32 = pytest.importorskip("numpy").float32
        x = newton_invert(lambda t: t * t - 2.0, lambda t: 2.0 * t, np32(1), np32(2), np32(1.5))
        assert type(x) is float and x == 1.4142135623730951
        assert x == newton_invert(lambda t: t * t - 2.0, lambda t: 2.0 * t, 1.0, 2.0, 1.5)

    @pytest.mark.parametrize("lo, hi, x0", [(-(10**400), 2.0, 1.0), (0.0, 10**400, 1.0), (0.0, 2.0, 10**400)])
    def test_int_beyond_the_floats_raises_domain_error(self, lo, hi, x0):
        with pytest.raises(DomainError, match="newton_invert"):
            newton_invert(lambda t: t * t - 2.0, lambda t: 2.0 * t, lo, hi, x0)
