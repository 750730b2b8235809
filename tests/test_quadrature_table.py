"""The tanh-sinh node table: integrate adds up precomputed nodes instead of
working them out on every call, without changing a single bit of any result."""

import math

import pytest

from dn2.core import (
    Modulus,
    PeriodMethod,
    _f_prime,
    f_forward,
    greenhill_check,
    i_gamma,
    periods,
    phi,
)
from dn2.kernel import (
    _T_CUTOFF,
    MAX_LEVEL,
    ConvergenceError,
    QuadResult,
    _level,
    integrate,
)

T = [0.4, 1.3, -2.9, 7.0]
X = [0.37, -3.1, 7.5]

# kappa -> f at T, phi at X, I(gamma) of the pairs (kappa, lam) and
# (lam, kappa), INTEGRAL periods (K, K'),
# greenhill_check(2, kappa, -1), and the QuadResult (value, err_estimate,
# evaluations) of the f integrand over (0, 1.3), as float.hex; computed before
# the node table existed, when integrate worked out every node on each call
# (phi regenerated when its Newton solve took a relative stop; at 0.3, f(-2.9)
# when f became odd bit for bit and the QuadResult when integrate's stop
# tolerance became QUAD_TOL; at 0.9, the greenhill residual of the lower
# interval when its integrand became a product of square roots; f at 7.0
# when f began to reduce |T| > pi by its period, and at 0.6 f(1.3) and the
# QuadResult, at 0.9 f(0.4), when f' began to take cos psi from
# lam^2 + kappa^2 cos^2 t: each within 1.6e-16 of mpmath; at 0.9 f(-2.9)
# when f began to reflect past 3 pi/4, and phi(-3.1) at 0.3 and 0.6 when phi
# began to add n pi to double precision: each closer to mpmath; the I and
# INTEGRAL rows when i_gamma took the pair (cos gamma, sin gamma) and summed
# its smooth periodic form by the trapezoid rule, which moved I(kappa, lam)
# and K' at 0.9 by 1 ulp each; phi at 0.9 when its Newton solve began to
# carry the residual f(T) - u_r between iterates, which moved phi(0.37)
# closer to mpmath, 2.1e-16 to 6.2e-17, and phi(7.5) by 1 ulp away from
# it, 3.7e-17 to 2.0e-16; I(kappa, lam) at 0.6 and 0.9 when the trapezoid
# rule began from the strip-sized start, closer to mpmath, 1.4e-16 to
# 2.1e-17 and 1.9e-16 to 8.5e-17, and with it K' = sqrt(2) I at 0.9 by
# 1 ulp across a near tie, 9.3e-17 to 9.9e-17: the exact K' lies 6e-18
# from the midpoint of the two doubles)
GOLDEN = {
    0.3: (
        ['0x1.9a518181dd78cp-2', '0x1.51803b35356f2p+0', '-0x1.7a5268a3cc9c8p+1', '0x1.c762b3c48a348p+2'],
        ['0x1.7a4fd280c59d1p-2', '-0x1.85a8c81896328p+1', '0x1.d817891c15e62p+2'],
        ('0x1.2bc3b27509f94p+1', '0x1.994410fba5435p+0'),
        ('0x1.994410fba5435p+0', '0x1.a7ee520651b1ap+1'),
        ('0x1.0000000000000p-51', '-0x1.0000000000000p-51'),
        ('0x1.51803b35356f2p+0', '0x1.4506000000000p-34', 74),
    ),
    0.6: (
        ['0x1.9c87005260fa8p-2', '0x1.62aa6d30d09cfp+0', '-0x1.957175fa82c6cp+1', '0x1.e35af8012f8cep+2'],
        ['0x1.789a156ff5ea0p-2', '-0x1.6aa4e1f8a78fdp+1', '0x1.bcd6f15a6adc0p+2'],
        ('0x1.e27d6a71d3d3dp+0', '0x1.b472b565457b4p+0'),
        ('0x1.b472b565457b4p+0', '0x1.552c009726818p+1'),
        ('0x0.0p+0', '-0x1.0000000000000p-51'),
        ('0x1.62aa6d30d09cfp+0', '0x1.0000000000000p-52', 148),
    ),
    0.9: (
        ['0x1.a06717659446fp-2', '0x1.95fcf2e530dbap+0', '-0x1.f872eeae67238p+1', '0x1.2402b48c93cfcp+3'],
        ['0x1.75bbe7d9fd3fap-2', '-0x1.1552d09cb2018p+1', '0x1.5e5ddc12f94e4p+2'],
        ('0x1.a22a6fbf05361p+0', '0x1.0bc753100a5e0p+1'),
        ('0x1.0bc753100a5e0p+1', '0x1.27b016eefc587p+1'),
        ('0x0.0p+0', '-0x1.0000000000000p-51'),
        ('0x1.95fcf2e530dbap+0', '0x1.0000000000000p-52', 148),
    ),
}
# phi(5.0, Modulus(0.999999)) fails in f's quadrature; its ConvergenceError.best
# (the failing f was at Newton's second iterate, T = 2.4232, past the peak of
# f' at pi/2: regenerated when phi began to solve on [0, pi] from
# x0 = u pi / 2K, where it had searched for a bracket, when f' began to
# take cos psi from lam^2 + kappa^2 cos^2 t, which moved that T by an ulp,
# and when f began to reflect past 3 pi/4: the f at that T = 2.4232 now
# converges, and the failing f is at Newton's third iterate, T = 1.8543,
# whose best estimate is 3.5e-10 from mpmath; and when f began to integrate
# over the shifted interval of core._integral and Newton to carry its
# residual: the failing f is still that at T = 1.8543, which crosses back
# below 3 pi/4 and so integrates from 0 across the peak, now over the
# shifted interval, in 13,335 evaluations where it took 19,017; its best
# estimate moved by 12 ulp and is still 3.5e-10 from mpmath)
GOLDEN_KAPPA_TO_ONE_BEST = ('0x1.4e65c55c65cc3p+3', '0x1.a6414af880000p-16', 13335)


def _quad_hex(r: QuadResult):
    return (r.value.hex(), r.err_estimate.hex(), r.evaluations)


def _values(kappa):
    mod = Modulus(kappa)
    p = periods(mod, PeriodMethod.INTEGRAL)
    quad = integrate(_f_prime(mod), 0.0, 1.3)
    return (
        [f_forward(t, mod).hex() for t in T],
        [phi(x, mod).hex() for x in X],
        (i_gamma(mod.kappa, mod.lam).hex(), i_gamma(mod.lam, mod.kappa).hex()),
        (p.K.hex(), p.Kprime.hex()),
        tuple(v.hex() for v in greenhill_check(2.0, kappa, -1.0)),
        _quad_hex(quad),
    )


@pytest.mark.parametrize("kappa", sorted(GOLDEN))
def test_values_match_the_untabled_quadrature_bit_for_bit(kappa):
    _level.cache_clear()
    assert _values(kappa) == GOLDEN[kappa]  # cold table
    assert _values(kappa) == GOLDEN[kappa]  # warm table


def test_kappa_to_one_failure_keeps_its_best_estimate():
    _level.cache_clear()
    for _table in ("cold", "warm"):
        with pytest.raises(ConvergenceError) as info:
            phi(5.0, Modulus(0.999999))
        assert _quad_hex(info.value.best) == GOLDEN_KAPPA_TO_ONE_BEST


def _reference_integrate(f, a, b, *, singular_left=False, tol=1e-12):
    """integrate as it was before the node table: every node worked out anew;
    it stops from level 3 on, and raises at a level with no node inside
    (a, b), as integrate does."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    span_eps = 8.0 * math.ulp(max(abs(a), abs(b), 1.0))

    def node_sum(ts):
        acc = 0.0
        used = 0
        for t in ts:
            u = 0.5 * math.pi * math.sinh(t)
            e = math.exp(-2.0 * abs(u))
            dist = 2.0 * half * e / (1.0 + e)
            x = (a + dist) if t < 0.0 else (b - dist) if t > 0.0 else mid
            if x <= a or x >= b:
                continue
            w = half * 0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2
            if w == 0.0:
                continue
            fx = f(x)
            used += 1
            if not math.isfinite(fx):
                if singular_left and (x - a) <= span_eps:
                    continue
                raise ConvergenceError(f"non-finite integrand value at x={x}")
            acc += w * fx
        if not used:
            raise ConvergenceError("no node inside the interval")
        return acc, used

    h = 1.0
    n0 = int(_T_CUTOFF / h)
    acc, used = node_sum(k * h for k in range(-n0, n0 + 1))
    evaluations = used
    total = h * acc
    prev = total
    delta = math.inf
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        nmax = int(_T_CUTOFF / h)
        start = nmax if nmax % 2 == 1 else nmax - 1
        acc, used = node_sum(k * h for k in range(-start, nmax + 1, 2))
        evaluations += used
        total = 0.5 * prev + h * acc
        delta = abs(total - prev)
        if level >= 3 and delta <= max(tol, 1e-15 * abs(total)):
            return QuadResult(total, delta, evaluations)
        prev = total
    raise ConvergenceError("no convergence", best=QuadResult(total, delta, evaluations))


CASES = [
    # (integrand, a, b)
    (math.cos, 0.0, 1.0),
    (math.exp, -3.0, 2.5),
    (lambda t: 1.0 / math.sqrt(1.0 - 0.7 * math.sin(t) ** 2), 0.0, 0.5 * math.pi),
    (lambda t: t ** -0.5, 0.0, 1.0),
    # singular at b: nodes that round onto b are dropped, the others stay finite
    (lambda t: (1.0 - t) ** -0.5, 0.0, 1.0),
    (lambda t: 1.0 / math.sqrt(t * (2.0 - t)), 0.0, 2.0),
    # nodes round onto the endpoints of a short interval far from 0
    (lambda t: t * t, 1e6, 1e6 + 1e-4),
    (lambda t: math.log(t), 1e-300, 1e-290),
    (lambda t: math.sin(1e3 * t), -1.0, 1.0),
    # cannot meet the stop tolerance: the failure carries the same best estimate
    (lambda t: abs(t - 0.123456789) ** 0.5, 0.0, 1.0),
]


def _outcome(fn, f, a, b):
    try:
        return ("ok", _quad_hex(fn(f, a, b)))
    except ConvergenceError as exc:
        best = exc.best
        return ("fail", None if best is None else _quad_hex(best))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_integrate_matches_the_per_node_reference(case):
    f, a, b = CASES[case]
    expected = _outcome(lambda *args: _reference_integrate(*args, tol=1e-10), f, a, b)
    _level.cache_clear()
    assert _outcome(integrate, f, a, b) == expected
    assert _outcome(integrate, f, a, b) == expected


TINY = 5e-324  # the smallest subnormal


def _degenerate_intervals():
    # spans of a few subnormals, on both sides of 0
    for k in (1, 2, 3, 4, 5, 7, 12, 33):
        for base in (0.0, -7 * TINY, 1e-310):
            yield base, base + k * TINY
    # a few adjacent doubles, within a binade and across one
    for x in (1.0, 1.5, -2.0, 1e-300, 2.0**-1022, 1e300):
        a = b = x
        for _ in range(3):
            a, b = math.nextafter(a, -math.inf), math.nextafter(b, math.inf)
            yield a, x
            yield x, b
    # mid rounds to -0.0
    yield -2 * TINY, TINY
    # a + b overflows, so the centre node lies past b
    yield 1.7e308, 1.701e308
    yield -1.701e308, -1.7e308


@pytest.mark.parametrize("a, b", list(_degenerate_intervals()))
def test_split_runs_match_the_reference_on_degenerate_intervals(a, b):
    # the node loop keeps, per run, only the endpoint tests a node of that
    # run can meet: the same nodes, in the same order, signed zeros
    # included, give the same result
    def run(fn):
        xs = []
        outcome = _outcome(fn, lambda t: xs.append(t.hex()) or 1.0, a, b)
        return outcome, xs

    assert run(integrate) == run(lambda *args: _reference_integrate(*args, tol=1e-10))


def test_node_table_is_bounded_and_lazy():
    assert _level.cache_info().maxsize == MAX_LEVEL + 1
    _level.cache_clear()
    integrate(math.cos, 0.0, 1.0)
    assert _level.cache_info().currsize < MAX_LEVEL + 1  # only the levels reached
    with pytest.raises(ConvergenceError):
        integrate(lambda t: abs(t - 0.123456789) ** 0.5, 0.0, 1.0)
    assert _level.cache_info().currsize == MAX_LEVEL + 1


def test_level_nodes():
    def node(t):
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * abs(u))
        return (e, 1.0 + e, math.cosh(t), math.cosh(u) ** 2)

    for level in range(MAX_LEVEL + 1):
        # level 0 holds t = 1..6, each finer level the positive odd
        # multiples of h, in increasing t
        h = 2.0**-level
        nmax = int(_T_CUTOFF / h)
        ts = [k * h for k in range(1, nmax + 1, 1 if level == 0 else 2)]
        assert len(ts) == (6 if level == 0 else (int(_T_CUTOFF * 2**level) + 1) // 2)
        nodes = _level(level)
        assert nodes == tuple(node(t) for t in ts)
        # integrate walks the table backwards for the nodes at -t: sinh is
        # odd and cosh even, so they are the same nodes, bit for bit
        assert tuple(node(-t) for t in reversed(ts)) == nodes[::-1]
        for e, one_plus_e, cosh_t, cosh_u2 in nodes:
            assert 0.0 < e < 1.0 and one_plus_e == 1.0 + e
            assert cosh_t > 1.0 and math.isfinite(cosh_u2) and cosh_u2 > 1.0
