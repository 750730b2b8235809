"""Numeric foundations: tanh-sinh quadrature, the nested trapezoid rule for
smooth periodic integrands, a 5-point Gauss-Legendre rule for short steps
of an analytic integrand, and safeguarded root-finding.

Everything here works in plain double precision and is a pure function of its
inputs; any non-finite intermediate aborts with an explicit error instead of
letting NaNs propagate into results.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple


class DomainError(ValueError):
    """Argument lies outside an operation's supported domain."""


class ConvergenceError(ArithmeticError):
    """An iterative scheme failed to meet its tolerance.

    ``best`` carries the most accurate estimate available at the point of
    failure, when one exists.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class QuadResult(NamedTuple):
    value: float
    err_estimate: float
    evaluations: int


def reduction_limit(period: float) -> float:
    """Largest |x| whose ulp is at most 1e-8 * period.

    Beyond it fewer than 8 significant digits of x survive reduction modulo
    the period, so callers raise DomainError for ``not abs(x) <= limit``,
    a test that also catches inf and nan.
    """
    # ulp(x) = 2**(e - 52) for |x| in [2**e, 2**(e + 1)), and
    # 1e-8 * period lies in [2**(k - 1), 2**k)
    k = math.frexp(1e-8 * period)[1]
    return math.nextafter(math.ldexp(1.0, k + 52), 0.0)


# |t| beyond which the tanh-sinh weight underflows double precision
_T_CUTOFF = 6.115
# finest refinement level of integrate; bounds the node table
MAX_LEVEL = 11
# integrate stops at a level from 3 on that differs from the previous one
# by at most this much, and trapezoid at a doubling that changes its value
# by at most this much
QUAD_TOL = 1e-10
# newton_invert stops once a step is at most this share of the iterate
NEWTON_RTOL = 1e-9
NEWTON_MAX_ITER = 60


@lru_cache(maxsize=MAX_LEVEL + 1)
def _level(level: int) -> tuple[tuple[float, float, float, float, float], ...]:
    """The tanh-sinh nodes t > 0 that integrate adds at refinement level
    ``level``, in increasing t.

    Level 0 holds t = 1, ..., 6; level L >= 1 adds t = k h, h = 2**-L, at
    odd k.  A node is stored as (e, 1 + e, cosh t, cosh(u)**2, tail) with
    u = (pi/2) sinh t and e = exp(-2|u|): everything about it that does not
    depend on the interval.  ``tail`` is the sum of cosh t / cosh(u)**2
    over the node and every later one, added from the last inwards: the
    unscaled weight of the nodes that integrate drops once this one rounds
    onto an endpoint.  sinh is odd and cosh even, so the node at -t is the
    same: integrate walks the table backwards for t < 0, and adds t = 0 at
    level 0 itself.  Built on first use, so a caller pays only for the
    levels its integrands reach.
    """
    h = math.ldexp(1.0, -level)
    nodes = []
    for k in range(1, int(_T_CUTOFF / h) + 1, 1 if level == 0 else 2):
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * u)
        nodes.append((e, 1.0 + e, math.cosh(t), math.cosh(u) ** 2))
    tail = 0.0
    tails = []
    for _, _, cosh_t, cosh_u2 in reversed(nodes):
        tail += cosh_t / cosh_u2
        tails.append(tail)
    return tuple(node + (tail,) for node, tail in zip(nodes, reversed(tails)))


def _check_interval(name: str, a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; DomainError unless a < b are finite and so is b - a.

    The test and every later use see the floats, so that numpy.float32
    bounds, which NumPy 2 would keep in single precision, are used in
    double; an int beyond the floats is refused, not overflowed.
    """
    try:
        fa, fb = float(a), float(b)
    except OverflowError:  # an int beyond the floats
        fa = fb = math.nan
    if not (-math.inf < fa < fb < math.inf and fb - fa < math.inf):
        raise DomainError(f"{name} requires finite a < b and b - a, got a={a}, b={b}")
    return fa, fb


def _check_pair(name: str, m: float, mc: float) -> None:
    """Raise DomainError unless 0 <= m < 1 and mc = 1 - m to within 1e-12."""
    if not (0.0 <= m <= 1.0 and 0.0 < mc <= 1.0 and abs(m + mc - 1.0) <= 1e-12):
        raise DomainError(f"{name} requires 0 <= m < 1 and mc = 1 - m, got ({m!r}, {mc!r})")


def integrate(f: Callable[[float], float], a: float, b: float) -> QuadResult:
    """Tanh-sinh (double-exponential) quadrature of ``f`` over ``(a, b)``.

    Integrable inverse-square-root endpoint singularities are absorbed by the
    transformation; nodes that round onto an endpoint are never evaluated.
    The abscissae and weights come from the shared node table ``_level``,
    refined up to ``MAX_LEVEL``.  Refinement stops at the first level from
    3 on whose value differs from the previous level's by at most
    ``QUAD_TOL``, or 1e-15 of the value; levels 0 to 2 never stop it, so
    that a difference small by accident between levels 1 and 2 cannot.
    ``err_estimate`` is that difference plus, for each endpoint, the weight
    of the last level's nodes that round onto it times the largest |f| seen
    on its half of the interval: on an interval much narrower than its
    distance from 0 those nodes carry real weight.
    Bounds that are not finite, not in order, or so far apart that b - a
    overflows, raise DomainError; a non-finite node sum of a level, which any
    non-finite value of f makes, a level with no node inside (a, b), as on
    [100, 100 + 1e-14], or no convergence by ``MAX_LEVEL``, raises
    ConvergenceError, as in ``trapezoid``.
    """
    a, b = _check_interval("integrate", a, b)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # hoisted out of the node loop: Python groups 2.0 * half * e as
    # (2.0 * half) * e, so hoisting leaves every product bit for bit the same
    two_half = 2.0 * half
    # past b - a = 2**1000 the weight half (pi/2) cosh t overflows at the
    # outer nodes, or the level sum, about 2**level times the integral, at
    # level 11: every weight is scaled by 2**-k and the result by 2**k
    k = max(0, math.frexp(b - a)[1] - 1000)
    weight_scale = math.ldexp(half * 0.5 * math.pi, -k)

    def node_sum(level: int) -> tuple[float, int, float, float, float, float]:
        # the abscissa is the nearer endpoint moved inwards by
        # d = 2 half e / (1 + e), computed without cancellation, so that
        # endpoint singularities see an accurate abscissa.  A node that
        # rounds onto an endpoint is dropped, and a node whose weight
        # underflows weighs nothing.  Off the centre e < 1, so d is below
        # (b - a) / 2 but for rounding, which never carries a left node onto
        # b nor a right node onto a while b - a is finite; x never decreases
        # along a run, so the nodes dropped onto a run's endpoint are its
        # outermost ones, and their unscaled weight is the tail of the
        # innermost of them.  Besides the sum it returns, per endpoint, the
        # weight dropped onto it and the largest |f| on its half (t <= 0 for
        # a, t >= 0 for b): an integrand singular at one endpoint must not
        # charge its size there to the nodes dropped at the other.  The left
        # run (t < 0) is the table walked backwards, in increasing t
        nodes = _level(level)
        acc = top = bottom = drop_a = drop_b = 0.0
        used = 0
        for e, one_plus_e, cosh_t, cosh_u2, tail in reversed(nodes):
            x = a + two_half * e / one_plus_e
            if x <= a:
                drop_a = tail
                continue
            w = weight_scale * cosh_t / cosh_u2
            if w == 0.0:
                continue
            y = f(x)
            acc += w * y
            used += 1
            if y > top:
                top = y
            elif y < bottom:
                bottom = y
        peak_a = top if top > -bottom else -bottom
        top = bottom = 0.0
        # level 0 only: t = 0, so x = mid and w = weight_scale; mid may round
        # onto either endpoint of a short interval, or overflow past b
        if level == 0 and weight_scale != 0.0:
            if a < mid < b:
                y = f(mid)
                acc += weight_scale * y
                used += 1
                top, bottom = max(y, 0.0), min(y, 0.0)
                peak_a = max(peak_a, abs(y))
            elif mid <= a:
                drop_a += 1.0
            else:
                drop_b = 1.0
        for e, one_plus_e, cosh_t, cosh_u2, tail in nodes:
            x = b - two_half * e / one_plus_e
            if x >= b:
                drop_b += tail
                break
            w = weight_scale * cosh_t / cosh_u2
            if w == 0.0:
                continue
            y = f(x)
            acc += w * y
            used += 1
            if y > top:
                top = y
            elif y < bottom:
                bottom = y
        # every weight is positive and finite, so a non-finite value of f
        # makes the sum non-finite
        if not math.isfinite(acc):
            raise ConvergenceError(f"non-finite tanh-sinh sum at level {level}")
        if not used:  # no evaluation supports this level's share of the value
            raise ConvergenceError(f"no tanh-sinh node of level {level} lies inside ({a!r}, {b!r})")
        peak_b = top if top > -bottom else -bottom
        return acc, used, weight_scale * drop_a, peak_a, weight_scale * drop_b, peak_b

    # the value, and the weight that the level's rule dropped onto each
    # endpoint, halve the previous level's and add this level's new nodes;
    # the error estimate is the last difference plus, per endpoint, the
    # dropped weight times the largest |f| seen on its half
    def estimate() -> float:
        return math.ldexp(delta + skip_a * peak_a + skip_b * peak_b, k)

    h = 1.0
    acc, used, skip_a, peak_a, skip_b, peak_b = node_sum(0)
    evaluations = used
    total = h * acc
    prev = total
    delta = math.inf
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        acc, used, drop_a, level_peak_a, drop_b, level_peak_b = node_sum(level)
        evaluations += used
        total = 0.5 * prev + h * acc
        skip_a = 0.5 * skip_a + h * drop_a
        skip_b = 0.5 * skip_b + h * drop_b
        if level_peak_a > peak_a:
            peak_a = level_peak_a
        if level_peak_b > peak_b:
            peak_b = level_peak_b
        delta = abs(total - prev)
        if level >= 3 and delta <= max(QUAD_TOL, 1e-15 * abs(total)):
            return QuadResult(math.ldexp(total, k), estimate(), evaluations)
        prev = total
    raise ConvergenceError(
        f"quadrature did not converge to {QUAD_TOL} within {MAX_LEVEL} levels",
        best=QuadResult(math.ldexp(total, k), estimate(), evaluations),
    )


# the node sines trapezoid keeps: every start up to n = 176 at levels 0 and 1,
# the ones i_gamma reaches, are 346 tables of about 31,000 sines in all
_SINES_CACHE = 512


@lru_cache(maxsize=_SINES_CACHE)
def _sines(a: float, b: float, n: int, level: int) -> memoryview:
    """The sines of the nodes that trapezoid adds at refinement ``level``
    from n intervals on [a, b], each ``math.sin`` of the abscissa that
    trapezoid takes there.

    Level 0 holds a, a + j h for j = 1, ..., n - 1, and b, with
    h = (b - a) / n; level L >= 1 holds the n 2**(L-1) midpoints
    a + (j + 0.5) h of the level before, h halved L - 1 times as trapezoid
    halves it.  Built on first use, as ``_level`` is, and kept as an
    array('d'), a quarter of the memory of a tuple of floats, behind a
    read-only view: every later call shares it, so no integrand may change
    it.
    """
    # imported on the first table, not with dn2: the array module adds
    # about 0.2 ms and 0.13 MB to a start-up that sums no trapezoid rule
    from array import array

    h = (b - a) / n
    if level == 0:
        sines = [math.sin(a), *(math.sin(a + j * h) for j in range(1, n)), math.sin(b)]
    else:
        for _ in range(level - 1):
            h *= 0.5
        sines = [math.sin(a + (j + 0.5) * h) for j in range(n << (level - 1))]
    return memoryview(array("d", sines)).toreadonly()


def trapezoid(f: Callable[[memoryview], list[float]], a: float, b: float, n: int) -> QuadResult:
    """Nested trapezoid rule over [a, b] for an integrand of sin s.

    ``f`` takes the sines of one level's nodes, a read-only sequence in
    increasing s, and returns their values as a list, which trapezoid does
    not change.  The sines come from the per-(a, b, n, level) table
    ``_sines``, so a caller pays for ``math.sin`` once per node and not once
    per call.  The first level holds sin a and sin b, whose values weigh
    half.
    Meant for an integrand whose odd derivatives in s vanish at a and b,
    such as a smooth even periodic function over a half period: the
    Euler-Maclaurin corrections then vanish, and the rule converges
    geometrically, at a rate set by the width of the strip about [a, b]
    where it is analytic (Trefethen & Weideman, SIAM Rev. 56 (2014)
    385-458).  That width tells the caller how many intervals suffice, so
    the caller passes the start n.  From n intervals it doubles n, reusing
    every value, and stops at the first doubling that changes the sum by at
    most ``QUAD_TOL``; a doubling about squares the error, so the doubled
    sum lies far within it.  It takes n + 1 evaluations for the final n,
    2 n + 1 when the first doubling stops it.  Bounds as for ``integrate``,
    and an n that is not a positive integer, raise DomainError; a
    non-finite sum, or no convergence by n * 2**MAX_LEVEL intervals, raises
    ConvergenceError.  A bound of -0.0 is taken as 0.0: the table holds one
    entry for both, and its sines must not depend on which came first.
    """
    a, b = _check_interval("trapezoid", a, b)
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"trapezoid requires a positive integer n, got {n!r}")
    a, b = a + 0.0, b + 0.0
    start = n
    h = (b - a) / n
    # one exactly rounded sum per level, and one of the levels: in a sum of
    # thousands of values, the rounding of a running sum would cost digits
    values = f(_sines(a, b, n, 0))
    levels = [_finite_fsum([0.5 * values[0], *values[1:-1], 0.5 * values[-1]])]
    total = h * levels[0]
    delta = math.inf
    for level in range(1, MAX_LEVEL + 1):
        # the midpoints of the n intervals; n and h change by powers of 2
        levels.append(_finite_fsum(f(_sines(a, b, start, level))))
        n *= 2
        h *= 0.5
        prev, total = total, h * _finite_fsum(levels)
        delta = abs(total - prev)
        if delta <= QUAD_TOL:
            return QuadResult(total, delta, n + 1)
    raise ConvergenceError(
        f"trapezoid rule did not converge to {QUAD_TOL} within {n} intervals",
        best=QuadResult(total, delta, n + 1),
    )


# the 5-point Gauss-Legendre rule on [-1, 1]: nodes 0, +-_GL_X1 and +-_GL_X2
# with weights _GL_W0, _GL_W1 and _GL_W2, each the double nearest its exact
# value
_GL_X1, _GL_X2 = 0.5384693101056831, 0.906179845938664
_GL_W0, _GL_W1, _GL_W2 = 128.0 / 225.0, 0.47862867049936647, 0.23692688505618908


def gauss_legendre(f: Callable[[float], float], a: float, b: float) -> float:
    """The 5-point Gauss-Legendre rule for ``f`` over [a, b]; for b < a it
    is minus the rule over [b, a], and for a = b it is 0.

    The rule is exact for polynomials of degree 9.  For an f analytic in the
    strip |Im t| < s about [a, b], a width |b - a| of at most 0.08 s puts
    its error at the level of rounding (Trefethen, SIAM Rev. 50 (2008)
    67-87), so the caller sizes the step and no error estimate is made: a
    caller that needs one compares the rule with its sum over the two
    halves.  A non-finite value raises ConvergenceError, as in
    ``integrate``.
    """
    m = 0.5 * (a + b)
    r = 0.5 * (b - a)
    d1 = r * _GL_X1
    d2 = r * _GL_X2
    s = r * (_GL_W0 * f(m) + _GL_W1 * (f(m - d1) + f(m + d1)) + _GL_W2 * (f(m - d2) + f(m + d2)))
    if not math.isfinite(s):
        raise ConvergenceError(f"non-finite Gauss-Legendre sum over [{a!r}, {b!r}]")
    return s


def _finite_fsum(values: list[float]) -> float:
    """math.fsum of values already computed, so that no exception of f is
    caught here; a non-finite value or sum raises ConvergenceError."""
    try:
        total = math.fsum(values)
    except (ValueError, OverflowError):  # inf - inf, or an overflow on the way
        total = math.nan
    if not math.isfinite(total):
        raise ConvergenceError("non-finite trapezoid sum")
    return total


def newton_invert(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    x0: float,
) -> float:
    """Solve f(x) = 0 for increasing f with f(lo) <= 0 <= f(hi).

    Newton steps from x0 in [lo, hi] stay inside a bracket that every
    evaluation shrinks; a step that would leave it, or a derivative that is
    not positive, gives way to bisection.  Once a step is at most
    ``NEWTON_RTOL`` |x| the next iterate, kept in [lo, hi], is returned
    without evaluating f again: Newton's quadratic convergence puts it within
    rounding of the root.  An f with no root on [lo, hi], by more than
    that, raises ConvergenceError "f has no root on the bracket" once the
    bracket collapses onto lo or hi, or, where halving toward 0.0 meets the
    iteration cap first, once f keeps its sign at the end that never moved;
    the cap raises otherwise.  ``best`` is the last iterate.  lo, hi and
    x0 are used as floats, so that numpy.float32 ones, which NumPy 2 would
    keep in single precision, give their floats' root; an int beyond the
    floats raises DomainError.
    """
    try:
        lo, hi, x = float(lo), float(hi), float(x0)
    except OverflowError:
        raise DomainError(
            f"newton_invert requires float bounds and start, got {lo!r}, {hi!r}, {x0!r}"
        ) from None
    below = above = False  # whether f has been seen on each side of 0
    for _ in range(NEWTON_MAX_ITER):
        g = f(x)
        if not math.isfinite(g):
            raise ConvergenceError(f"non-finite function value at x={x}")
        if g == 0.0:
            return x
        if g < 0.0:
            lo, below = x, True
        else:
            hi, above = x, True
        d = fprime(x)
        step = g / d if 0.0 < d < math.inf else math.inf
        xn = x - step
        if abs(step) <= NEWTON_RTOL * abs(x):
            # a root within rounding of lo or hi can look just outside them
            return min(max(xn, lo), hi)
        if not lo <= xn <= hi:
            xn = 0.5 * (lo + hi)
            if not lo < xn < hi:
                if below and above:  # the root lies between adjacent doubles
                    return x
                raise ConvergenceError("f has no root on the bracket", best=x)
        x = xn
    # f seen on one side of 0 only: the same sign at the end that never moved
    if below != above and (f(hi) < 0.0 if below else f(lo) > 0.0):
        raise ConvergenceError("f has no root on the bracket", best=x)
    raise ConvergenceError("root iteration exceeded the iteration cap", best=x)
