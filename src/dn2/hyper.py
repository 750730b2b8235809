"""Gauss hypergeometric 2F1 for zero-balanced parameter families, the closed
form of F(1/4,3/4;1/2;.), and the complete elliptic integral K(m) via the
arithmetic-geometric mean.

The K argument is the parameter m = k^2 throughout.  complete_K and gauss_2f1
take their argument with its complement, and f14_34_12_closed the complement
alone, computed by the caller in a form that does not cancel; none forms
1 - m itself.

Both 2F1 series run from per-family tables of what a term takes apart from
x (the Pochhammer ratios, the digamma sums and the Gamma prefactor), each
built whole, for all _MAX_TERMS terms, the first time a call takes its
series, and cached on the HyperParams family as an immutable tuple.  Each
table entry is rounded as the per-term formula rounded it, so the sums are
those of the formulas, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .kernel import ConvergenceError, DomainError, _check_pair

# cutover from the direct series to the log-connection series at 1-x;
# both regimes are overlap-tested on [0.7, 0.8]
_CUTOVER = 0.75
_MAX_TERMS = 2000


@dataclass(frozen=True)
class HyperParams:
    """Parameters (a, b; c) of a 2F1 family.

    Compares, hashes and prints by (a, b, c) alone and is immutable.  Its
    series tables are cached on first use of their regime, as ``_direct``:
    the ratios r_n = (a+n)(b+n)/((c+n)(n+1)), and as ``_connection``: the
    pair (Gamma(c)/(Gamma(a) Gamma(b)), ((D_n, R_n), ...)) with
    D_n = 2 psi(n+1) - psi(a+n) - psi(b+n), the digammas accumulated by
    psi(y+1) = psi(y) + 1/y, and R_n = (a+n)(b+n)/(n+1)^2.  ``_connection``
    is None for a family without the connection series: one that is not
    zero-balanced (c = a + b), or whose a or b is a pole of Gamma, so that
    its direct series is a polynomial.  Each table is a pure function of
    (a, b, c), so threads that race to build one build equal tuples.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.c <= 0.0 and float(self.c).is_integer():
            raise DomainError("c must not be zero or a negative integer")

    @cached_property
    def _direct(self) -> tuple[float, ...]:
        a, b, c = self.a, self.b, self.c
        return tuple((a + n) * (b + n) / ((c + n) * (n + 1.0)) for n in range(_MAX_TERMS))

    @cached_property
    def _connection(self) -> tuple[float, tuple[tuple[float, float], ...]] | None:
        a, b, c = self.a, self.b, self.c
        if not abs(c - a - b) <= 1e-12 or any(v <= 0.0 and float(v).is_integer() for v in (a, b)):
            return None
        # lgamma drops the sign of Gamma, which is negative on (-1, 0), (-3, -2), ...
        sign = math.prod(-1.0 if v < 0.0 and math.floor(v) % 2 else 1.0 for v in (a, b, c))
        pref = sign * math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(b))
        psi_a, psi_b, psi_n = _digamma(a), _digamma(b), _digamma(1.0)
        pairs = []
        for n in range(_MAX_TERMS):
            pairs.append((2.0 * psi_n - psi_a - psi_b,
                          (a + n) * (b + n) / ((n + 1.0) * (n + 1.0))))
            psi_a += 1.0 / (a + n)
            psi_b += 1.0 / (b + n)
            psi_n += 1.0 / (n + 1.0)
        return pref, tuple(pairs)


F_QUARTER_ONE = HyperParams(0.25, 0.75, 1.0)
F_HALF_ONE = HyperParams(0.5, 0.5, 1.0)
F_QUARTER_HALF = HyperParams(0.25, 0.75, 0.5)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    It runs as max(a, b) agm(1, min/max), so that a b can neither overflow
    nor underflow; at a = 1 >= b, as complete_K calls it, the scaling is
    exact.  A ratio min/max that underflows raises ConvergenceError.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("agm requires positive arguments")
    if a < b:
        a, b = b, a
    s, b, a = a, b / a, 1.0
    for _ in range(64):
        if abs(a - b) <= 1e-15 * a:
            return s * (0.5 * (a + b))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError("agm iteration failed to converge")


def complete_K(m: float, mc: float) -> float:
    """Complete elliptic integral of the first kind, parameter m = k^2 with
    complement mc = 1 - m: K(m) = pi / (2 agm(1, sqrt(mc)))."""
    _check_pair("complete_K", m, mc)
    return 0.5 * math.pi / agm(1.0, math.sqrt(mc))


def _digamma(x: float) -> float:
    if x < 0.0:
        # reflection psi(x) = psi(1 - x) - pi cot(pi x), in constant time;
        # cot has period pi, and x - round(x) is exact, so pi times it keeps
        # the digits that pi x would lose
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
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
    for r in p._direct:
        term *= r * x
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
    pref, pairs = p._connection
    log_xc = math.log(xc)
    coef = 1.0
    total = 0.0
    comp = 0.0
    small = 0
    for d, r in pairs:
        term = coef * (d - log_xc)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        # |term| <= 1e-17 max(1, |total|), without a call to max
        if abs(term) <= 1e-17 or abs(term) <= 1e-17 * abs(total):
            small += 1
            if small >= 2:
                return pref * total
        else:
            small = 0
        coef *= r * xc
    raise ConvergenceError(f"2F1 connection series did not converge at 1-x={xc}")


def gauss_2f1(p: HyperParams, x: float, xc: float) -> float:
    """2F1(a, b; c; x) for 0 <= x < 1, given x and its complement xc = 1 - x.

    Once xc falls below 1 - cutover, zero-balanced families (c = a + b)
    switch to the logarithmic connection series in xc, so an x that rounds
    to 1 is still accepted while xc > 0.  Other families, and those whose
    a or b is zero or a negative integer (a polynomial), stay on the direct
    series, which fails loudly if it cannot meet its tail bound.
    """
    _check_pair("gauss_2f1", x, xc)
    if xc < 1.0 - _CUTOVER and p._connection is not None:
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
