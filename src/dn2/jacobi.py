"""Jacobian elliptic functions sn, cn, dn at parameter m = k^2.

Every function takes m with its exact complement mc = 1 - m.  Real arguments
go through the descending Landen/AGM recursion seeded from mc; complex
arguments are split into two real evaluations at (m, mc) and (mc, m) by the
classical addition formula, so the recursion itself stays entirely real.
jacobi_real and jacobi_complex build the Landen ladder of each pair anew on
every call; core.Modulus caches its two ladders and runs _ascent and
_addition, the arithmetic of these two functions, on them.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

# complete_K stays bound, unused: bench/tracing.py wraps that name here
from .hyper import complete_K  # noqa: F401
from .kernel import DomainError, _check_pair, reduction_limit

# the addition split's denominator is m |z - iK'|^2 near a pole: below this
# times m, z lies within sqrt(POLE_THRESHOLD) of the pole, at every m
POLE_THRESHOLD = 1e-12
# below this |x| the Landen ascent in jacobi_real overflows (its first step
# squares cot(x c)), while sn, cn, dn round to x, 1, 1 from |x| < 1e-9 on
_TINY = 1e-150
_FLOAT_MIN = sys.float_info.min


class PoleError(ArithmeticError):
    """Evaluation at (or numerically indistinguishable from) a pole."""


class JacobiTriple(NamedTuple):
    sn: float | complex
    cn: float | complex
    dn: float | complex


def _ladder(m: float, mc: float) -> tuple[float, float, tuple[tuple[float, float], ...], float]:
    """Everything _ascent needs that depends on the pair (m, mc) alone.

    Returns the real period 4K(m), the largest |x| that reduction modulo it
    keeps to 8 significant digits, the descending Landen ladder as (a_n, b_n)
    rungs in the order the ascent walks them (top rung first), and the
    ladder's limit c.  Its rungs are the steps of hyper.agm(1, sqrt(mc)); one
    more where the last is not within 1e-15 gives that AGM, and 2 pi / agm
    is 4.0 * complete_K(m, mc) bit for bit.  A bad pair raises DomainError.
    """
    _check_pair("jacobi_real", m, mc)
    emc = mc
    a = 1.0
    rungs: list[tuple[float, float]] = []
    c = 0.0
    for _ in range(16):
        emc = math.sqrt(emc)
        rungs.append((a, emc))
        c = 0.5 * (a + emc)
        if abs(a - emc) <= 1e-8 * a:
            break
        emc *= a
        a = c
    agm = c if abs(a - emc) <= 1e-15 * a else 0.5 * (c + math.sqrt(a * emc))
    period = 2.0 * math.pi / agm
    rungs.reverse()
    return period, reduction_limit(period), tuple(rungs), c


def _ascent(x: float, ladder: tuple, m: float) -> tuple[float, float, float]:
    """sn, cn, dn of a real x as a plain tuple, from the ladder of the pair
    (m, mc); jacobi_real's body, which core.dn2 runs on a Modulus's ladder."""
    period, limit, rungs, c = ladder
    if not abs(x) <= limit:
        raise DomainError(
            f"jacobi_real argument {x!r} is beyond {limit:.6g}: fewer than 8 digits "
            f"survive reduction modulo the period {period!r}"
        )
    if m == 0.0:
        return math.sin(x), math.cos(x), 1.0
    # reduce modulo the real period to keep the recursion well conditioned
    x = math.remainder(x, period)
    if abs(x) < _TINY:
        return x, 1.0, 1.0

    dn = 1.0
    u = x * c
    sn = math.sin(u)
    cn = math.cos(u)
    aa = cn / sn
    cc = c * aa
    for b, e in rungs:
        aa *= cc
        cc *= dn
        dn = (e + aa) / (b + aa)
        aa = cc / b
    amp = 1.0 / math.sqrt(cc * cc + 1.0)
    sn = amp if sn >= 0.0 else -amp
    return sn, cc * sn, dn


def jacobi_real(x: float, m: float, mc: float) -> JacobiTriple:
    """sn, cn, dn of a real argument, 0 <= m < 1 with complement mc = 1 - m.

    Raises DomainError when |x| is so large (or not finite) that fewer than
    8 significant digits of x survive reduction modulo the period 4K(m).
    """
    return JacobiTriple(*_ascent(x, _ladder(m, mc), m))


def _addition(z: complex, m: float, mc: float, re_ladder: tuple, im_ladder: tuple | None):
    """sn(z) by DLMF 22.8, then the triples of Re z at (m, mc) and Im z at
    (mc, m), from their ladders, and the formula's denominator, or None at
    m = 0, where im_ladder is not read (the pair (1, 0) raises DomainError,
    so a caller passes None); raises jacobi_complex's errors in its order."""
    s, c, d = _ascent(z.real, re_ladder, m)
    if m == 0.0:
        # cosh(710) is below the largest double, so sin and cos stay finite
        if not abs(z.imag) <= 710.0:
            raise DomainError(f"|Im z| must be at most 710 at m = 0, got {z!r}")
        return None
    s1, c1, d1 = _ascent(z.imag, im_ladder, mc)
    denom = c1 * c1 + m * s * s * s1 * s1
    if denom < POLE_THRESHOLD * m or denom < _FLOAT_MIN:
        raise PoleError(f"jacobi functions at a pole (denominator {denom:.3e})")
    return complex(s * d1, c * d * s1 * c1) / denom, s, c, d, s1, c1, d1, denom


def jacobi_complex(z: complex, m: float, mc: float) -> JacobiTriple:
    """sn, cn, dn of a complex argument via the real-real addition split.

    The imaginary part runs at the pair (mc, m) and reduces modulo 4K'(m).
    Raises PoleError within about 1e-6 of a pole (z congruent to iK' modulo 2K
    and 2iK') at every m, and where sn^2 would overflow (m below 1e-296 only).
    At m = 0, where sn and cn are sin and cos, |Im z| beyond 710 (or not
    finite), where they would overflow, raises DomainError.  m and mc are
    used as floats once the pair is checked, so that a numpy.float32 pair,
    which NumPy 2 would keep in single precision, gives its floats' triple;
    the check refuses an int beyond the floats, which is not below 1.
    """
    z = complex(z)
    _check_pair("jacobi_real", m, mc)
    m, mc = float(m), float(mc)
    if (split := _addition(z, m, mc, _ladder(m, mc), _ladder(mc, m) if m else None)) is None:
        return JacobiTriple(cmath.sin(z), cmath.cos(z), complex(1.0))
    sn, s, c, d, s1, c1, d1, denom = split
    cn = complex(c * c1, -s * d * s1 * d1) / denom
    dn = complex(d * c1 * d1, -m * s * c * s1) / denom
    return JacobiTriple(sn, cn, dn)
