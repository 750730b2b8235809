"""Gauss hypergeometric 2F1, to x -> 1 for F(1/4,3/4;1;.) and F(1/2,1/2;1;.),
the closed form of F(1/4,3/4;1/2;.), and the complete elliptic integral K(m)
via the arithmetic-geometric mean.

The K argument is the parameter m = k^2 throughout.  complete_K and gauss_2f1
take their argument with its complement, and f14_34_12_closed the complement
alone, computed by the caller in a form that does not cancel; none forms
1 - m itself.

Both 2F1 series run from per-family tables of what a term takes apart from
x (the Pochhammer ratios, and for the connection series the digamma sums
and the Gamma prefactor, from their closed forms), each built whole, for
all _MAX_TERMS terms, the first time a call takes its series, and cached on
the HyperParams family as an immutable tuple.  The direct table's entries
are rounded as the per-term formula rounded them, so its sums are those of
the formula, bit for bit.
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
# the two families that take the connection series, by (min(a, b), max(a, b), c),
# with a + b = c = 1: the prefactor Gamma(1)/(Gamma(a) Gamma(1 - a)) =
# sin(pi a)/pi (DLMF 5.5.3) and D_0 = 2 psi(1) - psi(a) - psi(1 - a) (DLMF 5.4)
_CLOSED_FORMS = {
    (0.25, 0.75, 1.0): (math.sqrt(0.5) / math.pi, 6.0 * math.log(2.0)),
    (0.5, 0.5, 1.0): (1.0 / math.pi, 4.0 * math.log(2.0)),
}


@dataclass(frozen=True)
class HyperParams:
    """Parameters (a, b; c) of a 2F1 family.

    Compares, hashes and prints by (a, b, c) alone and is immutable.  Its
    series tables are cached on first use of their regime, as ``_direct``:
    the ratios r_n = (a+n)(b+n)/((c+n)(n+1)), and as ``_connection``: the
    pair (Gamma(c)/(Gamma(a) Gamma(b)), ((D_n, R_n), ...)) with
    D_n = 2 psi(n+1) - psi(a+n) - psi(b+n) and R_n = (a+n)(b+n)/(n+1)^2.
    The prefactor and D_0 are closed forms, and D_n runs by
    D_{n+1} = D_n + 2/(n+1) - 1/(a+n) - 1/(b+n).  Only F(1/4,3/4;1) and
    F(1/2,1/2;1) have them, in either order of a and b; ``_connection`` is
    None for every other family.  Each table is a pure function of
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
        lo, hi, _ = key = (min(self.a, self.b), max(self.a, self.b), self.c)
        if key not in _CLOSED_FORMS:
            return None
        pref, d = _CLOSED_FORMS[key]
        pairs = []
        for n in range(_MAX_TERMS):
            pairs.append((d, (lo + n) * (hi + n) / ((n + 1.0) * (n + 1.0))))
            d += 2.0 / (n + 1.0) - 1.0 / (lo + n) - 1.0 / (hi + n)
        return pref, tuple(pairs)


F_QUARTER_ONE = HyperParams(0.25, 0.75, 1.0)
F_HALF_ONE = HyperParams(0.5, 0.5, 1.0)
F_QUARTER_HALF = HyperParams(0.25, 0.75, 0.5)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    It runs as max(a, b) agm(1, min/max), so that a b can neither overflow
    nor underflow; at a = 1 >= b, as complete_K calls it, the scaling is
    exact.  An argument that is not positive, or an int beyond the floats,
    raises DomainError, and the rest run in double, a numpy.float32 too; a
    ratio min/max that underflows raises ConvergenceError.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("agm requires positive arguments")
    try:
        a, b = float(a), float(b)  # a numpy.float32 would run in single precision
    except OverflowError:  # an int beyond the floats
        raise DomainError(f"agm requires arguments within the floats, got ({a}, {b})") from None
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

    Once xc falls below 1 - cutover, F(1/4,3/4;1) and F(1/2,1/2;1) switch
    to the logarithmic connection series in xc, within 4e-16 relative, so an
    x that rounds to 1 is still accepted while xc > 0.  Every other family
    stays on the direct series, which raises ConvergenceError where it
    cannot meet its tail bound: for F(1/3,2/3;1) from about x = 0.99 on.
    """
    _check_pair("gauss_2f1", x, xc)
    x, xc = float(x), float(xc)  # a numpy.float32 would sum in single precision
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
