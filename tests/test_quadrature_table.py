"""The node tables: integrate adds up precomputed tanh-sinh nodes, and
trapezoid reads its node sines, instead of working them out on every call,
without changing a single bit of any result."""

import math
import random

import pytest

from dn2.core import (
    _STRIP_N,
    _TRAPEZOID_COT,
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
    _SINES_CACHE,
    _T_CUTOFF,
    MAX_LEVEL,
    QUAD_TOL,
    ConvergenceError,
    QuadResult,
    _level,
    _sines,
    integrate,
    trapezoid,
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
# from the midpoint of the two doubles; phi when its solve began from the
# root of the series of f' and took T - u_r out of the residual's
# quadrature: phi(0.37) at 0.3 and 0.6 moved closer to mpmath, 1.5e-16 to
# 3.0e-18 and 1.2e-16 to 3.3e-17, and phi(7.5) at 0.9, 2.0e-16 to 1.2e-16,
# and phi(0.37) at 0.9 by 1 ulp across a near tie, 6.2e-17 to 9.0e-17: the
# exact value lies 0.09 ulp from the midpoint of the two doubles; f and phi
# when they began to read the per-modulus table of f(T) - T and its
# Gauss-Legendre steps, with no tanh-sinh: f(-2.9) at 0.3, 1.0e-16 to
# 5.0e-17, f(1.3) at 0.6, 1.6e-16 to 7.6e-20, f(0.4) at 0.9, 1.5e-16 to
# 1.6e-17, and phi(0.37) at 0.9, 9.0e-17 to 6.2e-17, each closer to mpmath,
# and f(-2.9) at 0.6 by 1 ulp across a near tie, 6.2e-17 to 7.8e-17: the
# exact value lies 0.06 ulp from the midpoint of the two doubles; phi when
# it began to reduce by the table's own 2K, not by ELLIPTIC's: phi(7.5) at
# 0.6, 6.7e-17 to 6.1e-17, and at 0.9, 1.25e-16 to 3.7e-17, each closer to
# mpmath.  The QuadResult rows integrate f' by tanh-sinh itself and keep
# their value and evaluations; their err_estimate moved when integrate
# began to add the weight of the nodes dropped onto each endpoint times the
# largest |f| seen on its half)
GOLDEN = {
    0.3: (
        ['0x1.9a518181dd78cp-2', '0x1.51803b35356f2p+0', '-0x1.7a5268a3cc9c7p+1', '0x1.c762b3c48a348p+2'],
        ['0x1.7a4fd280c59d2p-2', '-0x1.85a8c81896328p+1', '0x1.d817891c15e62p+2'],
        ('0x1.2bc3b27509f94p+1', '0x1.994410fba5435p+0'),
        ('0x1.994410fba5435p+0', '0x1.a7ee520651b1ap+1'),
        ('0x1.0000000000000p-51', '-0x1.0000000000000p-51'),
        ('0x1.51803b35356f2p+0', '0x1.4506055823ed8p-34', 74),
    ),
    0.6: (
        ['0x1.9c87005260fa8p-2', '0x1.62aa6d30d09d0p+0', '-0x1.957175fa82c6bp+1', '0x1.e35af8012f8cep+2'],
        ['0x1.789a156ff5e9fp-2', '-0x1.6aa4e1f8a78fdp+1', '0x1.bcd6f15a6adc1p+2'],
        ('0x1.e27d6a71d3d3dp+0', '0x1.b472b565457b4p+0'),
        ('0x1.b472b565457b4p+0', '0x1.552c009726818p+1'),
        ('0x0.0p+0', '-0x1.0000000000000p-51'),
        ('0x1.62aa6d30d09cfp+0', '0x1.90f8a72eea19cp-52', 148),
    ),
    0.9: (
        ['0x1.a06717659446ep-2', '0x1.95fcf2e530dbap+0', '-0x1.f872eeae67238p+1', '0x1.2402b48c93cfcp+3'],
        ['0x1.75bbe7d9fd3fap-2', '-0x1.1552d09cb2018p+1', '0x1.5e5ddc12f94e5p+2'],
        ('0x1.a22a6fbf05361p+0', '0x1.0bc753100a5e0p+1'),
        ('0x1.0bc753100a5e0p+1', '0x1.27b016eefc587p+1'),
        ('0x0.0p+0', '-0x1.0000000000000p-51'),
        ('0x1.95fcf2e530dbap+0', '0x1.d7bfb9f0bb493p-52', 148),
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
# estimate moved by 12 ulp and is still 3.5e-10 from mpmath; its
# err_estimate moved when integrate began to add the weight of the nodes
# dropped onto each endpoint times the largest |f| seen on its half)
GOLDEN_KAPPA_TO_ONE_BEST = ('0x1.4e65c55c65cc3p+3', '0x1.a6414b081c2d9p-16', 13335)


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
    it stops from level 3 on, raises at a level with no node inside (a, b),
    and adds to its error estimate, per endpoint, the weight of the nodes
    that round onto it, summed from the outermost node inwards, times the
    largest |f| seen on its half (t <= 0 for a, t >= 0 for b), as integrate
    does."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    span_eps = 8.0 * math.ulp(max(abs(a), abs(b), 1.0))

    def node_sum(ts):
        acc = peak_a = peak_b = drop_a = centre = 0.0
        used = 0
        right = []
        for t in ts:
            u = 0.5 * math.pi * math.sinh(t)
            e = math.exp(-2.0 * abs(u))
            dist = 2.0 * half * e / (1.0 + e)
            x = (a + dist) if t < 0.0 else (b - dist) if t > 0.0 else mid
            if x <= a or x >= b:
                unscaled = math.cosh(t) / math.cosh(u) ** 2
                if x <= a and t <= 0.0:
                    drop_a += unscaled
                elif t < 0.0:
                    raise AssertionError("a left node rounded onto b")
                elif t == 0.0:
                    centre = unscaled
                else:
                    right.append(unscaled)
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
            if t <= 0.0:
                peak_a = max(peak_a, abs(fx))
            if t >= 0.0:
                peak_b = max(peak_b, abs(fx))
        if not used:
            raise ConvergenceError("no node inside the interval")
        outer = 0.0
        for unscaled in reversed(right):
            outer += unscaled
        drop_b = centre + outer
        scale = half * 0.5 * math.pi
        return acc, used, scale * drop_a, peak_a, scale * drop_b, peak_b

    h = 1.0
    n0 = int(_T_CUTOFF / h)
    acc, used, skip_a, peak_a, skip_b, peak_b = node_sum(k * h for k in range(-n0, n0 + 1))
    evaluations = used
    total = h * acc
    prev = total
    delta = math.inf
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        nmax = int(_T_CUTOFF / h)
        start = nmax if nmax % 2 == 1 else nmax - 1
        acc, used, drop_a, level_a, drop_b, level_b = node_sum(
            k * h for k in range(-start, nmax + 1, 2)
        )
        evaluations += used
        total = 0.5 * prev + h * acc
        skip_a = 0.5 * skip_a + h * drop_a
        skip_b = 0.5 * skip_b + h * drop_b
        peak_a, peak_b = max(peak_a, level_a), max(peak_b, level_b)
        delta = abs(total - prev)
        err = delta + skip_a * peak_a + skip_b * peak_b
        if level >= 3 and delta <= max(tol, 1e-15 * abs(total)):
            return QuadResult(total, err, evaluations)
        prev = total
    raise ConvergenceError("no convergence", best=QuadResult(total, err, evaluations))


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
        assert tuple(n[:4] for n in nodes) == tuple(node(t) for t in ts)
        # integrate walks the table backwards for the nodes at -t: sinh is
        # odd and cosh even, so they are the same nodes, bit for bit
        assert tuple(node(-t) for t in reversed(ts)) == tuple(n[:4] for n in nodes[::-1])
        for e, one_plus_e, cosh_t, cosh_u2, _ in nodes:
            assert 0.0 < e < 1.0 and one_plus_e == 1.0 + e
            assert cosh_t > 1.0 and math.isfinite(cosh_u2) and cosh_u2 > 1.0
        # the tail of each node: its unscaled weight and every later one's,
        # added from the last inwards
        tail = 0.0
        for i in reversed(range(len(nodes))):
            tail += nodes[i][2] / nodes[i][3]
            assert nodes[i][4] == tail


def _reference_trapezoid(f, a, b, n):
    """trapezoid as it was before the sine table: f of each abscissa, worked
    out on every call, with the same levels, sums and stop."""
    h = (b - a) / n
    levels = [math.fsum([0.5 * f(a), 0.5 * f(b), *(f(a + j * h) for j in range(1, n))])]
    total = h * levels[0]
    delta = math.inf
    for _ in range(MAX_LEVEL):
        levels.append(math.fsum([f(a + (j + 0.5) * h) for j in range(n)]))
        n *= 2
        h *= 0.5
        prev, total = total, h * math.fsum(levels)
        delta = abs(total - prev)
        if delta <= QUAD_TOL:
            return QuadResult(total, delta, n + 1)
    raise ConvergenceError("no convergence", best=QuadResult(total, delta, n + 1))


def _reference_i_gamma(cos_g, sin_g):
    """i_gamma's trapezoid regime as it was before the sine table: h of each
    node from math.sin of its abscissa."""
    c2 = cos_g * cos_g

    def h(s):
        x = sin_g * math.sin(s)
        p = math.sqrt(c2 + x * x)
        return math.sqrt(0.5 * (1.0 + p)) / p

    n = max(4, math.ceil(_STRIP_N / math.asinh(cos_g / sin_g)))
    return _reference_trapezoid(h, 0.0, 0.5 * math.pi, n).value


def _trapezoid_pairs():
    """(cos gamma, sin gamma) of seeded moduli, both orders, where
    cot gamma >= 0.0708, the trapezoid rule's reach before the sine table,
    and of the golden kappas."""
    rng = random.Random("sine table")
    kappas = sorted(GOLDEN) + [rng.random() for _ in range(1500)]
    kappas += [2.0**-e for e in range(1, 60)] + [1.0 - 2.0**-e for e in range(1, 9)]
    pairs = []
    for kappa in kappas:
        mod = Modulus(kappa)
        pairs += [(c, s) for c, s in ((mod.lam, mod.kappa), (mod.kappa, mod.lam)) if c >= 0.0708 * s]
    return pairs


def test_i_gamma_matches_the_per_node_trapezoid_bit_for_bit():
    pairs = _trapezoid_pairs()
    assert len(pairs) > 2500
    expected = [_reference_i_gamma(c, s).hex() for c, s in pairs]
    _sines.cache_clear()
    assert [i_gamma(c, s).hex() for c, s in pairs] == expected  # cold table
    assert [i_gamma(c, s).hex() for c, s in pairs] == expected  # warm table


TRAPEZOID_CASES = [
    # (g of sin s, a, b, n)
    (lambda x: 1.0 / (1.0 + 0.7 * x * x), 0.0, 0.5 * math.pi, 8),
    (lambda x: math.exp(x), -math.pi, math.pi, 5),
    (lambda x: 1.0 / math.sqrt(1.0 - 0.99 * x * x), 0.0, 0.5 * math.pi, 4),
    (lambda x: x * x, 0.3, 1.1, 3),
    (lambda x: 1.0, -0.0, 1.0, 1),
    # cannot meet the stop tolerance: the failure carries the same best estimate
    (lambda x: abs(x - 0.123456789) ** 0.5, 0.0, 1.0, 8),
]


def _trapezoid_outcome(fn, f, a, b, n):
    try:
        return ("ok", _quad_hex(fn(f, a, b, n)))
    except ConvergenceError as exc:
        return ("fail", _quad_hex(exc.best))


@pytest.mark.parametrize("case", range(len(TRAPEZOID_CASES)))
def test_trapezoid_matches_the_per_node_reference(case):
    g, a, b, n = TRAPEZOID_CASES[case]
    expected = _trapezoid_outcome(_reference_trapezoid, lambda s: g(math.sin(s)), a, b, n)
    _sines.cache_clear()
    for _table in ("cold", "warm"):
        assert _trapezoid_outcome(trapezoid, lambda S: [g(x) for x in S], a, b, n) == expected


def test_sine_table_holds_every_start_that_i_gamma_takes():
    # from cot gamma = _TRAPEZOID_COT up, i_gamma starts from n0 = 4 to 176
    # and stops at its first doubling: levels 0 and 1 of each n0, about
    # 31,000 sines, within the table's bound
    n_max = math.ceil(_STRIP_N / math.asinh(_TRAPEZOID_COT))
    assert n_max == 176
    _sines.cache_clear()
    starts = set()
    for n in range(n_max, 3, -1):
        # a cot gamma whose start is n, midway between those of n and n - 1
        cot = max(_TRAPEZOID_COT, math.sinh(_STRIP_N / (n - 0.5)))
        sin_g = 1.0 / math.sqrt(1.0 + cot * cot)
        i_gamma(cot * sin_g, sin_g)
        starts.add(max(4, math.ceil(_STRIP_N / math.asinh(cot))))
    assert starts == set(range(4, n_max + 1))
    info = _sines.cache_info()
    assert info.currsize == 2 * len(starts) <= _SINES_CACHE
    assert sum(len(_sines(0.0, 0.5 * math.pi, n, level)) for n in starts for level in (0, 1)) < 32000
