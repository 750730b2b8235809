"""Numeric foundations: tanh-sinh quadrature and safeguarded root-finding.

Everything here works in plain double precision and is a pure function of its
inputs; any non-finite intermediate aborts with an explicit error instead of
letting NaNs propagate into results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable


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


@dataclass(frozen=True)
class QuadResult:
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
# integrate stops at a level from 2 on that differs from the previous one
# by at most this much
QUAD_TOL = 1e-10
# newton_invert stops once a step is at most this share of the iterate
NEWTON_RTOL = 1e-9
NEWTON_MAX_ITER = 60


@lru_cache(maxsize=MAX_LEVEL + 1)
def _level(level: int) -> tuple[tuple[tuple[float, float, float, float], ...], ...]:
    """The tanh-sinh nodes integrate adds at refinement level ``level``.

    Level 0 holds every node t = k on [-6, 6]; level L >= 1 adds the nodes
    t = k h, h = 2**-L, at odd k.  They come split by the sign of t into
    three runs, left (t < 0), centre (t = 0, level 0 only) and right
    (t > 0), each in increasing t.  A node is stored as
    (e, 1 + e, cosh t, cosh(u)**2) with u = (pi/2) sinh t and
    e = exp(-2|u|): everything about it that does not depend on the
    interval.  Built on first use, so a caller pays only for the levels its
    integrands reach.
    """
    h = math.ldexp(1.0, -level)
    nmax = int(_T_CUTOFF / h)
    if level == 0:
        ks = range(-nmax, nmax + 1)
    else:
        start = nmax if nmax % 2 == 1 else nmax - 1
        ks = range(-start, nmax + 1, 2)
    runs = ([], [], [])
    for k in ks:
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * abs(u))
        run = runs[0 if t < 0.0 else 2 if t > 0.0 else 1]
        run.append((e, 1.0 + e, math.cosh(t), math.cosh(u) ** 2))
    return tuple(tuple(run) for run in runs)


def integrate(f: Callable[[float], float], a: float, b: float) -> QuadResult:
    """Tanh-sinh (double-exponential) quadrature of ``f`` over ``(a, b)``.

    Integrable inverse-square-root endpoint singularities are absorbed by the
    transformation; nodes that round onto an endpoint are never evaluated.
    The abscissae and weights come from the shared node table ``_level``,
    refined up to ``MAX_LEVEL``.  Refinement stops at the first level from
    2 on whose value differs from the previous level's by at most
    ``QUAD_TOL``, or 1e-15 of the value; levels 0 and 1 never stop it, and
    one small difference does.  Bounds
    that are not finite, or not in order, raise DomainError; a non-finite
    integrand value, or no convergence by ``MAX_LEVEL``, raises
    ConvergenceError.
    """
    if not -math.inf < a < b < math.inf:
        raise DomainError(f"integrate requires finite a < b, got a={a}, b={b}")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    # hoisted out of the node loop: Python groups 2.0 * half * e as
    # (2.0 * half) * e, so hoisting leaves every product bit for bit the same
    two_half = 2.0 * half
    weight_scale = half * 0.5 * math.pi
    # per run of _level: the abscissa is base + scale * e / (1 + e), the
    # distance from the nearer endpoint computed without cancellation, so
    # that endpoint singularities see an accurate abscissa; negating the
    # scale is exact, so b + (-2 half) e / (1 + e) is b - 2 half e / (1 + e),
    # and the centre node (e = 1) is mid + 0.0
    bases = (a, mid, b)
    scales = (two_half, 0.0, -two_half)

    def node_sum(level: int) -> tuple[float, int]:
        acc = 0.0
        used = 0
        for nodes, base, scale in zip(_level(level), bases, scales):
            for e, one_plus_e, cosh_t, cosh_u2 in nodes:
                x = base + scale * e / one_plus_e
                # a node that rounds onto an endpoint is dropped: its true
                # weight is far below double resolution.  x never decreases
                # along a run, so once a node rounds onto b every later one
                # does too
                if x >= b:
                    break
                if x <= a:
                    continue
                w = weight_scale * cosh_t / cosh_u2
                if w == 0.0:
                    continue
                fx = f(x)
                used += 1
                if not math.isfinite(fx):
                    raise ConvergenceError(f"non-finite integrand value at x={x}")
                acc += w * fx
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
        if level >= 2 and delta <= max(QUAD_TOL, 1e-15 * abs(total)):
            return QuadResult(total, delta, evaluations)
        prev = total
    raise ConvergenceError(
        f"quadrature did not converge to {QUAD_TOL} within {MAX_LEVEL} levels",
        best=QuadResult(total, delta, evaluations),
    )


def newton_invert(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    x0: float,
) -> float:
    """Solve f(x) = target for increasing f with f(lo) <= target <= f(hi).

    Newton steps from x0 in [lo, hi] stay inside a bracket that every
    evaluation shrinks; a step that would leave it, or a derivative that is
    not positive, gives way to bisection.  Once a step is at most
    ``NEWTON_RTOL`` |x| the next iterate, kept in [lo, hi], is returned
    without evaluating f again: Newton's quadratic convergence puts it within
    rounding of the root.  A target outside [f(lo), f(hi)] by more than
    that collapses the bracket onto lo or hi without f ever crossing it, and
    raises ConvergenceError, as does the iteration cap; ``best`` is the last
    iterate.
    """
    x = x0
    below = above = False  # whether f has been seen on each side of target
    for _ in range(NEWTON_MAX_ITER):
        g = f(x) - target
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
                raise ConvergenceError(
                    f"target {target!r} lies outside f's range on the bracket", best=x
                )
        x = xn
    raise ConvergenceError("root iteration exceeded the iteration cap", best=x)
