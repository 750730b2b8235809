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
# finest refinement level integrate accepts; bounds the node table
MAX_LEVEL = 11


@lru_cache(maxsize=MAX_LEVEL + 1)
def _level(level: int) -> tuple[tuple[int, float, float, float, float], ...]:
    """The tanh-sinh nodes integrate adds at refinement level ``level``.

    Level 0 holds every node t = k on [-6, 6]; level L >= 1 adds the nodes
    t = k h, h = 2**-L, at odd k.  Each node, in increasing t, is stored as
    (side, e, 1 + e, cosh t, cosh(u)**2) with u = (pi/2) sinh t and
    e = exp(-2|u|), where side is the sign of t: everything about a node
    that does not depend on the interval.  Built on first use, so a caller
    pays only for the levels its integrands reach.
    """
    h = math.ldexp(1.0, -level)
    nmax = int(_T_CUTOFF / h)
    if level == 0:
        ks = range(-nmax, nmax + 1)
    else:
        start = nmax if nmax % 2 == 1 else nmax - 1
        ks = range(-start, nmax + 1, 2)
    nodes = []
    for k in ks:
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * abs(u))
        side = -1 if t < 0.0 else 1 if t > 0.0 else 0
        nodes.append((side, e, 1.0 + e, math.cosh(t), math.cosh(u) ** 2))
    return tuple(nodes)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    singular_left: bool = False,
    singular_right: bool = False,
    tol: float = 1e-12,
    max_level: int = MAX_LEVEL,
) -> QuadResult:
    """Tanh-sinh (double-exponential) quadrature of ``f`` over ``(a, b)``.

    Integrable inverse-square-root endpoint singularities are absorbed by the
    transformation; flag them so that nodes which round onto a singular
    endpoint can be discarded instead of aborting the computation.  The
    abscissae and weights come from the shared node table ``_level``;
    ``max_level`` must lie in [2, MAX_LEVEL].
    """
    if not (a < b):
        raise DomainError(f"integrate requires a < b, got a={a}, b={b}")
    if not 2 <= max_level <= MAX_LEVEL:
        raise DomainError(f"integrate requires 2 <= max_level <= {MAX_LEVEL}, got {max_level}")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    span_eps = 8.0 * math.ulp(max(abs(a), abs(b), 1.0))
    # hoisted out of the node loop: Python groups 2.0 * half * e as
    # (2.0 * half) * e, so hoisting leaves every product bit for bit the same
    two_half = 2.0 * half
    weight_scale = half * 0.5 * math.pi

    def node_sum(nodes) -> tuple[float, int]:
        acc = 0.0
        used = 0
        for side, e, one_plus_e, cosh_t, cosh_u2 in nodes:
            # distance from the nearer endpoint, computed without cancellation
            # so that endpoint singularities see an accurate abscissa
            dist = two_half * e / one_plus_e
            x = (a + dist) if side < 0 else (b - dist) if side > 0 else mid
            if x <= a or x >= b:
                # node rounded onto an endpoint; its true weight is far below
                # double resolution
                continue
            w = weight_scale * cosh_t / cosh_u2
            if w == 0.0:
                continue
            fx = f(x)
            used += 1
            if not math.isfinite(fx):
                near_left = singular_left and (x - a) <= span_eps
                near_right = singular_right and (b - x) <= span_eps
                if near_left or near_right:
                    continue
                raise ConvergenceError(f"non-finite integrand value at x={x}")
            acc += w * fx
        return acc, used

    h = 1.0
    acc, used = node_sum(_level(0))
    evaluations = used
    total = h * acc
    prev = total
    delta = math.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        acc, used = node_sum(_level(level))
        evaluations += used
        total = 0.5 * prev + h * acc
        delta = abs(total - prev)
        if level >= 2 and delta <= max(tol, 1e-15 * abs(total)):
            return QuadResult(total, delta, evaluations)
        prev = total
    raise ConvergenceError(
        f"quadrature did not converge to tol={tol} within {max_level} levels",
        best=QuadResult(total, delta, evaluations),
    )


def newton_invert(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    target: float,
    x0: float,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> float:
    """Solve f(x) = target for monotone f, starting from x0.

    Newton steps are taken only while they stay inside the current bracket;
    otherwise the step falls back to bisection, so convergence is guaranteed
    once a sign change has been found.
    """
    gx = f(x0) - target
    if not math.isfinite(gx):
        raise ConvergenceError(f"non-finite function value at x0={x0}")
    if abs(gx) <= tol:
        return x0
    slope = fprime(x0)
    if not math.isfinite(slope) or slope == 0.0:
        slope = 1.0
    direction = -1.0 if (gx > 0.0) == (slope > 0.0) else 1.0

    step = 0.5 * max(1.0, abs(x0))
    prev_x, prev_g = x0, gx
    bracket = None
    for _ in range(80):
        x1 = x0 + direction * step
        g1 = f(x1) - target
        if not math.isfinite(g1):
            raise ConvergenceError(f"non-finite function value at x={x1}")
        if abs(g1) <= tol:
            return x1
        if (g1 > 0.0) != (prev_g > 0.0):
            bracket = (prev_x, prev_g, x1, g1)
            break
        prev_x, prev_g = x1, g1
        step *= 2.0
    if bracket is None:
        raise ConvergenceError("could not bracket the target value")

    xa, ga, xb, _gb = bracket
    lo, hi = (xa, xb) if xa < xb else (xb, xa)
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        gx = f(x) - target
        if not math.isfinite(gx):
            raise ConvergenceError(f"non-finite function value at x={x}")
        if abs(gx) <= tol:
            return x
        if (gx > 0.0) == (ga > 0.0):
            xa, ga = x, gx
        else:
            xb = x
        lo, hi = (xa, xb) if xa < xb else (xb, xa)
        d = fprime(x)
        xn = x - gx / d if (math.isfinite(d) and d != 0.0) else lo
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        x = xn
    raise ConvergenceError("root iteration exceeded the iteration cap", best=x)

