"""Numeric foundations: tanh-sinh quadrature, the nested trapezoid rule for
smooth periodic integrands, and safeguarded root-finding.

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
def _level(level: int) -> tuple[tuple[float, float, float, float], ...]:
    """The tanh-sinh nodes t > 0 that integrate adds at refinement level
    ``level``, in increasing t.

    Level 0 holds t = 1, ..., 6; level L >= 1 adds t = k h, h = 2**-L, at
    odd k.  A node is stored as (e, 1 + e, cosh t, cosh(u)**2) with
    u = (pi/2) sinh t and e = exp(-2|u|): everything about it that does not
    depend on the interval.  sinh is odd and cosh even, so the node at -t is
    the same: integrate walks the table backwards for t < 0, and adds t = 0
    at level 0 itself.  Built on first use, so a caller pays only for the
    levels its integrands reach.
    """
    h = math.ldexp(1.0, -level)
    nodes = []
    for k in range(1, int(_T_CUTOFF / h) + 1, 1 if level == 0 else 2):
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * u)
        nodes.append((e, 1.0 + e, math.cosh(t), math.cosh(u) ** 2))
    return tuple(nodes)


def _check_interval(name: str, a: float, b: float) -> None:
    """DomainError unless a < b are finite and so is b - a."""
    if not (-math.inf < a < b < math.inf and b - a < math.inf):
        raise DomainError(f"{name} requires finite a < b and b - a, got a={a}, b={b}")


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
    Bounds that are not finite, not in order, or so far apart that b - a
    overflows, raise DomainError; a non-finite node sum of a level, which any
    non-finite value of f makes, a level with no node inside (a, b), as on
    [100, 100 + 1e-14], or no convergence by ``MAX_LEVEL``, raises
    ConvergenceError, as in ``trapezoid``.
    """
    _check_interval("integrate", a, b)
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

    def node_sum(level: int) -> tuple[float, int]:
        # the abscissa is the nearer endpoint moved inwards by
        # d = 2 half e / (1 + e), computed without cancellation, so that
        # endpoint singularities see an accurate abscissa.  A node that
        # rounds onto an endpoint is dropped: its true weight is far below
        # double resolution, and so is a node whose weight underflows.
        # Off the centre e < 1, so d is below (b - a) / 2 but for rounding,
        # which never carries a left node onto b nor a right node onto a
        # while b - a is finite; x never decreases along a run, so once a
        # right node rounds onto b every later one does too.  The left run
        # (t < 0) is the table walked backwards, in increasing t
        nodes = _level(level)
        acc = 0.0
        used = 0
        for e, one_plus_e, cosh_t, cosh_u2 in reversed(nodes):
            x = a + two_half * e / one_plus_e
            if x <= a:
                continue
            w = weight_scale * cosh_t / cosh_u2
            if w == 0.0:
                continue
            acc += w * f(x)
            used += 1
        # level 0 only: t = 0, so x = mid and w = weight_scale; mid may round
        # onto either endpoint of a short interval, or overflow past b
        if level == 0 and a < mid < b and weight_scale != 0.0:
            acc += weight_scale * f(mid)
            used += 1
        for e, one_plus_e, cosh_t, cosh_u2 in nodes:
            x = b - two_half * e / one_plus_e
            if x >= b:
                break
            w = weight_scale * cosh_t / cosh_u2
            if w == 0.0:
                continue
            acc += w * f(x)
            used += 1
        # every weight is positive and finite, so a non-finite value of f
        # makes the sum non-finite
        if not math.isfinite(acc):
            raise ConvergenceError(f"non-finite tanh-sinh sum at level {level}")
        if not used:  # no evaluation supports this level's share of the value
            raise ConvergenceError(f"no tanh-sinh node of level {level} lies inside ({a!r}, {b!r})")
        return acc, used

    h = 1.0
    acc, used = node_sum(0)
    evaluations = used
    total = h * acc
    prev = total
    delta = math.inf
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        acc, used = node_sum(level)
        evaluations += used
        total = 0.5 * prev + h * acc
        delta = abs(total - prev)
        if level >= 3 and delta <= max(QUAD_TOL, 1e-15 * abs(total)):
            return QuadResult(math.ldexp(total, k), math.ldexp(delta, k), evaluations)
        prev = total
    raise ConvergenceError(
        f"quadrature did not converge to {QUAD_TOL} within {MAX_LEVEL} levels",
        best=QuadResult(math.ldexp(total, k), math.ldexp(delta, k), evaluations),
    )


def trapezoid(f: Callable[[float], float], a: float, b: float, n: int) -> QuadResult:
    """Nested trapezoid rule for ``f`` over ``[a, b]``.

    Meant for an f whose odd derivatives vanish at a and b, such as a smooth
    even periodic function over a half period: the Euler-Maclaurin
    corrections then vanish, and the rule converges geometrically, at a rate
    set by the width of the strip about [a, b] where f is analytic
    (Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458).  That width tells
    the caller how many intervals suffice, so the caller passes the start n.
    From n intervals it doubles n, reusing every value, and stops at the
    first doubling that changes the sum by at most ``QUAD_TOL``; a doubling
    about squares the error, so the doubled sum lies far within it.  It
    takes n + 1 evaluations for the final n, 2 n + 1 when the first doubling
    stops it.  Bounds as for ``integrate``, and an n that is not a positive
    integer, raise DomainError; a non-finite sum, or no convergence by
    n * 2**MAX_LEVEL intervals, raises ConvergenceError.
    """
    _check_interval("trapezoid", a, b)
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"trapezoid requires a positive integer n, got {n!r}")
    h = (b - a) / n
    # one exactly rounded sum per level, and one of the levels: in a sum of
    # thousands of values, the rounding of a running sum would cost digits
    levels = [_finite_fsum([0.5 * f(a), 0.5 * f(b), *(f(a + j * h) for j in range(1, n))])]
    total = h * levels[0]
    delta = math.inf
    for _ in range(MAX_LEVEL):
        # the midpoints of the n intervals; n and h change by powers of 2
        levels.append(_finite_fsum([f(a + (j + 0.5) * h) for j in range(n)]))
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
    the cap raises otherwise.  ``best`` is the last iterate.
    """
    x = x0
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
