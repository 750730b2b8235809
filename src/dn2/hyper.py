"""Gauss hypergeometric 2F1 for zero-balanced parameter families, the closed
form of F(1/4,3/4;1/2;.), and the complete elliptic integral K(m) via the
arithmetic-geometric mean.

The K argument is the parameter m = k^2 throughout.  complete_K and gauss_2f1
take their argument with its complement, and f14_34_12_closed the complement
alone, computed by the caller in a form that does not cancel; none forms
1 - m itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import ConvergenceError, DomainError

# cutover from the direct series to the log-connection series at 1-x;
# both regimes are overlap-tested on [0.7, 0.8]
_CUTOVER = 0.75
_MAX_TERMS = 2000


@dataclass(frozen=True)
class HyperParams:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.c <= 0.0 and float(self.c).is_integer():
            raise DomainError("c must not be zero or a negative integer")


F_QUARTER_ONE = HyperParams(0.25, 0.75, 1.0)
F_HALF_ONE = HyperParams(0.5, 0.5, 1.0)
F_QUARTER_HALF = HyperParams(0.25, 0.75, 0.5)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("agm requires positive arguments")
    for _ in range(64):
        if abs(a - b) <= 1e-15 * a:
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError("agm iteration failed to converge")


def _check_pair(name: str, m: float, mc: float) -> None:
    """Raise DomainError unless 0 <= m < 1 and mc = 1 - m to within 1e-12."""
    if not (0.0 <= m <= 1.0 and 0.0 < mc <= 1.0 and abs(m + mc - 1.0) <= 1e-12):
        raise DomainError(f"{name} requires 0 <= m < 1 and mc = 1 - m, got ({m!r}, {mc!r})")


def complete_K(m: float, mc: float) -> float:
    """Complete elliptic integral of the first kind, parameter m = k^2 with
    complement mc = 1 - m: K(m) = pi / (2 agm(1, sqrt(mc)))."""
    _check_pair("complete_K", m, mc)
    return 0.5 * math.pi / agm(1.0, math.sqrt(mc))


def _digamma(x: float) -> float:
    # recurrence into the asymptotic regime, then the Bernoulli tail
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    return acc + math.log(x) - 0.5 / x - tail


def _direct_series(p: HyperParams, x: float) -> float:
    total = 1.0
    comp = 0.0
    term = 1.0
    small = 0
    for n in range(_MAX_TERMS):
        term *= (p.a + n) * (p.b + n) / ((p.c + n) * (n + 1.0)) * x
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(term) <= 1e-17 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(f"2F1 series did not converge at x={x}")


def _log_connection(p: HyperParams, xc: float) -> float:
    # series at 1-x for the zero-balanced case c = a + b
    pref = math.exp(math.lgamma(p.c) - math.lgamma(p.a) - math.lgamma(p.b))
    log_xc = math.log(xc)
    psi_a = _digamma(p.a)
    psi_b = _digamma(p.b)
    psi_n = _digamma(1.0)
    coef = 1.0
    total = 0.0
    comp = 0.0
    small = 0
    for n in range(_MAX_TERMS):
        term = coef * (2.0 * psi_n - psi_a - psi_b - log_xc)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(term) <= 1e-17 * max(1.0, abs(total)):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        coef *= (p.a + n) * (p.b + n) / ((n + 1.0) * (n + 1.0)) * xc
        psi_a += 1.0 / (p.a + n)
        psi_b += 1.0 / (p.b + n)
        psi_n += 1.0 / (n + 1.0)
    else:
        raise ConvergenceError(f"2F1 connection series did not converge at 1-x={xc}")
    return pref * total


def gauss_2f1(p: HyperParams, x: float, xc: float) -> float:
    """2F1(a, b; c; x) for 0 <= x < 1, given x and its complement xc = 1 - x.

    Once xc falls below 1 - cutover, zero-balanced families (c = a + b)
    switch to the logarithmic connection series in xc, so an x that rounds
    to 1 is still accepted while xc > 0.  Other families stay on the direct
    series, which fails loudly if it cannot meet its tail bound.
    """
    _check_pair("gauss_2f1", x, xc)
    if xc < 1.0 - _CUTOVER and abs(p.c - p.a - p.b) <= 1e-12:
        return _log_connection(p, xc)
    return _direct_series(p, x)


def f14_34_12_closed(uc: float) -> float:
    """Closed form of F(1/4, 3/4; 1/2; u), given only the complement uc = 1 - u.

    With sin^2(psi) = u it is cos(psi/2)/cos(psi) = sqrt((1 + c)/2)/c,
    c = cos(psi) = sqrt(uc), for every u < 1, negative u included: every uc
    in (0, inf).  A u that rounds to 1 still works while uc > 0.
    """
    if not 0.0 < uc < math.inf:
        raise DomainError(f"f14_34_12_closed requires 0 < uc = 1 - u < inf, got {uc!r}")
    c = math.sqrt(uc)
    return math.sqrt(0.5 * (1.0 + c)) / c
