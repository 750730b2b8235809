"""The signature-four elliptic function dn2.

Three evaluation routes (Jacobian sn closed form, Weierstrass P bridge,
amplitude inversion on the real axis), the companion function s2, the
incomplete integral f and its inverse phi, and the fundamental periods by
three methods.  The WP route is the package's one Weierstrass P bridge,
1/3 + P(z) = kappa^2 / (2 (1 - dn2(z))), on the lattice of ``invariants_of``:
there e3 = -1/3, so 1/3 + P(z) = (e1 - e3) / sn^2(c z).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

# f14_34_12_closed stays bound, unused: bench/tracing.py counts that name here
from .hyper import F_QUARTER_ONE, complete_K, f14_34_12_closed, gauss_2f1  # noqa: F401
# jacobi_complex and jacobi_real stay bound, unused: bench/tracing.py wraps
# those names here
from .jacobi import _addition, _ascent, _ladder, jacobi_complex, jacobi_real  # noqa: F401
from .kernel import DomainError, integrate, newton_invert, reduction_limit, trapezoid


_derived = partial(field, init=False, repr=False, compare=False)
# below it kappa^2 is subnormal, and m and d lose their digits or vanish
KAPPA_MIN = 2.0**-510
# pi - math.pi: n pi = n math.pi + n _PI_LO, where the reductions of f and
# phi by the period pi would otherwise drop n _PI_LO
_PI_LO = 1.2246467991473532e-16
# f reflects a reduced argument beyond this by f(pi - r) = 2K - f(r).  From
# pi/2 on, no quadrature of f would cross the peak of f' at pi/2, and phi
# would stop failing as kappa -> 1; bench/test_bench_harness.py pins one
# such failure, so that waits for a benchmark change (ROADMAP item 1)
_REFLECT = 0.75 * math.pi
# i_gamma's trapezoid rule starts from n0 = max(4, ceil(_STRIP_N / a))
# intervals, a = asinh(cot gamma) the half-width of h's strip of
# analyticity.  Its error with n intervals is about A e^(-4 a n), A between
# 0.2 and 2 for n >= 4 from cot gamma = 0.07 up, and the first doubling
# changes the sum by about the error of n0, at most A e^(-4 _STRIP_N).  For
# that to meet QUAD_TOL at A = 1 takes _STRIP_N >= 5.8; 7 is the least
# integer that meets it with a margin wider than the spread of A: the
# largest first change is 3e-13, 1/336 of QUAD_TOL (at 6, 1/6).  The
# doubled sum is then off by about A e^(-56), far below rounding
_STRIP_N = 7.0
# i_gamma sums by that trapezoid rule where cot gamma is at least this, and
# below it by tanh-sinh over the sinh map of [0, pi/4] and over [pi/4, pi/2].
# The regimes cost the same here: the map takes 199 evaluations from
# cot gamma = 2.6e-19 up, and the trapezoid rule 2 n0 + 1 = 199 from
# sinh(7/99) = 0.07077 up, but 201 just below
_TRAPEZOID_COT = 0.0708


@dataclass(frozen=True)
class Modulus:
    """Modulus kappa in [2**-510, 1) and the quantities derived from it.

    A Modulus compares and hashes by the pair (kappa, lam), as by kappa for
    one built from kappa, and is immutable.  It is the one place that derives
    kappa's quantities, each once on construction and in a form that does not
    cancel at either end of (0, 1).  ``complement``, the modulus of the exact
    pair (lam, kappa), ``lattice``, the lattice data ``invariants_of(self)``,
    and ``two_k``, the ELLIPTIC 2K by which ``phi`` reduces, are cached, as
    are the two Landen ladders and the constants of the WP bridge that
    ``dn2`` reads on every SN and WP call.  These ladders are the package's
    only ladder cache: jacobi_real and jacobi_complex build theirs on every
    call.  Every Modulus, a complement too, has 2**-510 <= kappa <= 1 and
    lam > 0; kappa is 1.0 only for the complement of a kappa below about
    6.6e-9, whose lam rounds to 1.0.
    """

    kappa: float
    lam: float = field(init=False, repr=False)  # sqrt((1 - kappa)(1 + kappa))
    d: float = _derived()  # 1 - lam = kappa^2 / (1 + lam)
    m: float = _derived()  # d / (1 + lam), the Jacobian parameter of the SN and WP routes
    m1: float = _derived()  # 2 lam / (1 + lam) = 1 - m
    c: float = _derived()  # sqrt((1 + lam) / 2), the argument scale of the SN and WP routes

    def __post_init__(self):
        k = self.kappa
        lam = 0.0  # kappa = 1 has lam = 0; _derive refuses it, and every kappa outside [0, 1)
        if 0.0 <= k < 1.0:
            # a numpy.float32 kappa would derive everything in single precision
            vars(self)["kappa"] = k = float(k)
            lam = math.sqrt((1.0 - k) * (1.0 + k))
        self._derive(lam)

    def _derive(self, lam: float) -> None:
        k = self.kappa
        if not (KAPPA_MIN <= k <= 1.0 and lam > 0.0):
            raise DomainError(f"modulus must lie in [2**-510, 1), got {k}")
        d = k * k / (1.0 + lam)
        # frozen: set the derived fields the way cached_property does
        vars(self).update(
            lam=lam, d=d, m=d / (1.0 + lam), m1=2.0 * lam / (1.0 + lam),
            c=math.sqrt(0.5 * (1.0 + lam)),
        )

    @cached_property
    def complement(self) -> Modulus:
        # Modulus(self.lam) would take lam back from the rounded kappa
        com = object.__new__(Modulus)
        vars(com)["kappa"] = self.lam
        com._derive(self.kappa)
        return com

    @cached_property
    def lattice(self) -> LatticeData:
        return invariants_of(self)

    @cached_property
    def two_k(self) -> float:
        return 2.0 * periods(self, PeriodMethod.ELLIPTIC).K

    @cached_property
    def _re_ladder(self) -> tuple:  # jacobi's ladder of (m, m1), for Re(c z)
        return _ladder(self.m, self.m1)

    @cached_property
    def _im_ladder(self) -> tuple:  # and of (m1, m), for Im(c z)
        return _ladder(self.m1, self.m)

    @cached_property
    def _wp_scale(self) -> float:  # e1 - e3
        lat = self.lattice
        return lat.e1 - lat.e3

    @cached_property
    def _wp_half_k2(self) -> float:
        return 0.5 * self.kappa**2


class Route(enum.Enum):
    SN = "sn"
    WP = "wp"
    PHI = "phi"


_SN, _WP, _PHI = Route.SN, Route.WP, Route.PHI  # dn2 reads globals, not enum class attributes


class PeriodMethod(enum.Enum):
    INTEGRAL = "integral"
    ELLIPTIC = "elliptic"
    HYPER = "hyper"


class LatticeData(NamedTuple):
    """Invariants, discriminant, roots e1 > e2 > e3, the Jacobian parameter
    m = (e2 - e3)/(e1 - e3), mc = (e1 - e2)/(e1 - e3) and scale sqrt(e1 - e3)."""

    g2: float
    g3: float
    delta: float
    e1: float
    e2: float
    e3: float
    m: float
    mc: float
    scale: float


def invariants_of(mod: Modulus) -> LatticeData:
    """Lattice data of the coperiodic Weierstrass function.

    The midpoint values have closed forms for this family.  e3 is -1/3
    exactly, so the WP route's 1/3 + P = (1/3 + e3) + (e1 - e3)/sn^2 is
    (e1 - e3)/sn^2, with no sum that could cancel near its pole.
    """
    k2 = mod.kappa**2
    lam = mod.lam
    g2 = 4.0 / 3.0 - k2
    g3 = 8.0 / 27.0 - k2 / 3.0
    e1 = 1.0 / 6.0 + 0.5 * lam
    e2 = 1.0 / 6.0 - 0.5 * lam
    e3 = -1.0 / 3.0
    # 16 (e1 - e2)^2 (e1 - e3)^2 (e2 - e3)^2 = (lam (1 + lam) d)^2 = (lam k2)^2,
    # where g2^3 - 27 g3^2 would cancel
    delta = (lam * k2) ** 2
    return LatticeData(g2, g3, delta, e1, e2, e3, mod.m, mod.m1, mod.c)


def dn2(z: float | complex, mod: Modulus, route: Route = Route.SN) -> float | complex:
    """Evaluate dn2 at z by the requested route.

    A point on the real axis, z.imag == 0.0 whatever the type of z, takes
    each route's real path and yields a float; any other point yields a
    complex value, and DomainError on PHI.  SN and WP pass on the
    addition split's PoleError: within 1e-6/c of a pole (z congruent to iK'
    modulo the lattice).  A route that is not a Route member raises
    DomainError.
    """
    on_axis = z.imag == 0.0
    if route is _PHI:
        if not on_axis:
            raise DomainError("PHI route is defined on the real axis only")
        return _phi_route(z.real, mod)[0]

    # sn of c z: jacobi_real's and jacobi_complex's arithmetic, on mod's ladders
    if on_axis:
        sn = _ascent(float(z.real) * mod.c, mod._re_ladder, mod.m)[0]
    else:
        sn = _addition(complex(z) * mod.c, mod.m, mod.m1, mod._re_ladder, mod._im_ladder)[0]
    sn2 = sn * sn
    if route is _SN:
        return 1.0 - mod.d * sn2
    if route is not _WP:
        raise DomainError(f"unknown dn2 route {route!r}")
    if abs(sn2) < 1e-26:
        # lattice point: P has its pole here and dn2 tends to 1
        return 1.0 if on_axis else complex(1.0)
    # 1/3 + wp(z) = (e1 - e3)/sn^2, as 1/3 + e3 = 0
    return 1.0 - mod._wp_half_k2 / (mod._wp_scale / sn2)


def dn2_deriv(x: float, mod: Modulus) -> float:
    """d/dx of dn2 on the real axis, by the sn-route chain rule.

    As in dn2, a point with x.imag == 0.0, whatever its type, is the float
    x.real, and any other point raises DomainError.
    """
    if x.imag != 0.0:
        raise DomainError(f"dn2_deriv is defined on the real axis only, got {x!r}")
    sn, cn, dn = _ascent(float(x.real) * mod.c, mod._re_ladder, mod.m)
    return -2.0 * mod.d * sn * cn * dn * mod.c


def _f_prime(mod: Modulus, a: float = 0.0, c: float = 0.0):
    """f'(a + (s - c)), where f'(t) = F(1/4, 3/4; 1/2; kappa^2 sin^2 t) is
    the integrand of f; with the default shift it is f'(s) bit for bit.

    The complement is cos^2 psi = lam^2 + kappa^2 cos^2 t, with
    sin psi = kappa sin t, which does not cancel as kappa sin t -> 1.  The
    closed form sqrt((1 + p)/2)/p, p = cos psi, is f14_34_12_closed of that
    complement, written out with the same operations in the same order, so
    that the quadrature's inner loop makes one call per node, not two; its
    domain test can never fail here, where the complement is at least
    lam^2 > 0.
    """
    k = mod.kappa
    l2 = mod.lam * mod.lam
    cos, sqrt = math.cos, math.sqrt  # closure cells: no attribute lookup per node

    def f_prime(s: float) -> float:
        p = k * cos(a + (s - c))
        p = sqrt(l2 + p * p)
        return sqrt(0.5 * (1.0 + p)) / p

    return f_prime


def _integral(mod: Modulus, a: float, b: float) -> float:
    """The integral of f' over [a, b], a <= b: tanh-sinh of f'(a + (s - c))
    over [c, c + (b - a)], c = (b - a)/1024, whose left-end nodes stop near
    ulp(c), 1e-19 (b - a), where from 0 they would walk down to the smallest
    double with f' flat there.  s - c is exact near c, so the left end is a.
    """
    w = b - a
    c = w / 1024.0
    return integrate(_f_prime(mod, a, c), c, c + w).value if w > 0.0 else 0.0


def f_forward(T: float, mod: Modulus) -> float:
    """The incomplete integral f(T); odd, bit for bit, and strictly increasing.

    |T| = n pi + r is reduced by f(T + n pi) = f(T) + n 2K, and an r past
    3 pi/4 by f(pi - r) = 2K - f(r): the quadrature over [0, pi - r] is
    shorter, stays clear of the peak of f' at pi/2, and near pi leaves f
    with little more than the error of 2K; it is _integral's, with no nodes
    spent next to 0.  The reduction is by math.pi; the n (pi - math.pi) it
    drops is restored through f'.  Below |T| = 1e-4 it returns the series
    T + kappa^2 T^3 / 8 instead, as phi does: quadrature finds no node
    inside an interval as short as [0, 5e-324].  Raises DomainError when
    |T| is so large (or not finite) that fewer than 8 significant digits of
    T survive reduction modulo pi.
    """
    if abs(T) < 1e-4:
        T = float(T)  # a numpy.float32 would sum the series in single precision
        return T + mod.kappa**2 * T**3 / 8.0
    n, r = _reduce(abs(T), math.pi, f"f argument {T!r}")
    sign = 1.0
    if r > _REFLECT:
        n, r, sign = n + 1, math.pi - r, -1.0  # math.pi - r is exact
    fr = _integral(mod, 0.0, r)
    if n:
        # f(|T|) = n 2K + sign f(r - sign n _PI_LO), to first order in _PI_LO
        fr = n * mod.two_k + (sign * fr - n * _PI_LO * _f_prime(mod)(r))
    return math.copysign(fr, T)


def _reduce(a: float, period: float, what: str) -> tuple[int, float]:
    """n and r with a = n period + r, 0 <= r < period, exactly, for a >= 0.

    Raises DomainError for ``not a <= reduction_limit(period)``: fewer than 8
    significant digits of a survive the reduction there, and inf and nan
    fail the test too.
    """
    limit = reduction_limit(period)
    if not a <= limit:
        raise DomainError(
            f"{what} is beyond {limit:.6g}: fewer than 8 "
            f"digits survive reduction modulo {period!r}"
        )
    r = math.fmod(a, period)  # exact
    return round((a - r) / period), r


def _phi_and_s2(u: float, mod: Modulus) -> tuple[float, float]:
    """phi(u) and s2(u) from one solve of phi(|u|) = n pi + t, t in [0, pi].

    phi is n pi + t with u's sign, and s2 is (-1)^n sin t with u's sign: the
    sine of the rounded phi would carry phi's rounding, up to ulp(phi)/2,
    where phi nears a multiple of pi and s2 nears 0.
    """
    a = abs(u)
    if a < 1e-4:
        a = float(a)  # a numpy.float32 would sum the series in single precision
        n, t = 0, a - mod.kappa**2 * a**3 / 8.0
    else:
        two_k = mod.two_k
        n, ur = _reduce(a, two_k, f"phi argument {u!r} (period 2K)")
        f_prime = _f_prime(mod)
        last = []  # the last iterate x and g(x)

        def g(T: float) -> float:  # f(T) - ur, as phi's docstring says
            if last and (T > _REFLECT) == (last[0] > _REFLECT):
                x, gx = last
                gx += _integral(mod, x, T) if x <= T else -_integral(mod, T, x)
            elif T > _REFLECT:
                r = math.pi - T  # exact; two_k - ur is exact for ur >= K
                gx = (two_k - ur) - _integral(mod, 0.0, r) - _PI_LO * f_prime(r)
            else:
                gx = _integral(mod, 0.0, T) - ur
            last[:] = T, gx
            return gx

        t = newton_invert(g, f_prime, 0.0, math.pi, ur * math.pi / two_k)
    s = math.copysign(math.sin(t), u)
    return math.copysign(n * math.pi + (t + n * _PI_LO), u), -s if n % 2 else s


def _phi_route(x: float, mod: Modulus) -> tuple[float, float, float]:
    """dn2(x) by the PHI route, phi(x) and s2(x), from one solve of phi."""
    p, s2x = _phi_and_s2(x, mod)
    s = mod.kappa * s2x
    return math.sqrt(1.0 - s * s), p, s2x


def phi(u: float, mod: Modulus) -> float:
    """Inverse of f on the whole real line.

    phi is odd, so it solves for |u| and takes u's sign.  Reduction uses
    f(T + pi) = f(T) + 2K, then a safeguarded Newton solve of f(T) = u_r on
    [0, pi], where f runs from 0 to 2K; the derivative of f is at least 1
    everywhere.  Its residual f(T) - u_r comes from the nearer end of
    [0, pi] at the first iterate and at one across 3 pi/4 from the last; at
    any other it is the last residual plus f' integrated over the step.
    Below |u| = 1e-4 it returns the series u - kappa^2 u^3 / 8 instead,
    whose next term is below 1e-17 u there: quadrature cannot integrate
    over an interval as short as [0, 5e-324].  Raises DomainError
    when |u| is so large (or not finite) that fewer than 8 significant
    digits of u survive reduction modulo 2K.
    """
    return _phi_and_s2(u, mod)[0]


def s2(x: float, mod: Modulus) -> float:
    """Companion function sin(phi(x)), from the same solve as phi(x)."""
    return _phi_and_s2(x, mod)[1]


def i_gamma(cos_g: float, sin_g: float) -> float:
    """The period integral I(gamma) of an acute angle gamma, given as the
    exact pair (cos gamma, sin gamma).

    I(gamma) is the integral of cos(t/2) / sqrt(cos^2 t - cos^2 gamma) over
    [0, gamma].  With sin t = sin gamma cos s it is the integral over
    [0, pi/2] of h(s) = cos(t/2) / cos t = F(1/4, 3/4; 1/2; sin^2 t), taken
    from p^2 = cos^2 t = cos^2 gamma + (sin gamma sin s)^2, which does not
    cancel.  h is smooth, even and pi-periodic, with its poles at
    Im s = +-a, a = asinh(cot gamma).  Where cot gamma >= _TRAPEZOID_COT the
    trapezoid rule sums it from max(4, ceil(7 / a)) intervals, a start that
    the strip's width makes enough for its first doubling.  Below, h peaks at
    s = 0 with a width of about cot gamma: sin s = cot gamma sinh v maps
    [0, pi/4] onto [0, asinh(tan gamma / sqrt 2)], where h ds is
    sqrt((1 + p)/2) / (sin gamma cos s) dv with p = cos gamma cosh v, which
    lies between 0.7 and 1.4 at any cot gamma, and tanh-sinh sums that piece
    and h over [pi/4, pi/2].  Either way the cost is bounded: at most 199
    evaluations from cot gamma = 2.6e-19 up, and 348 down to 2**-510.
    Raises DomainError unless both members are positive, cos^2 + sin^2 = 1
    within 1e-12, and cos gamma >= 2**-510, below which its square is
    subnormal, as for kappa.
    """
    if not (KAPPA_MIN <= cos_g and 0.0 < sin_g
            and abs(cos_g * cos_g + sin_g * sin_g - 1.0) <= 1e-12):
        raise DomainError(
            "i_gamma requires a positive pair on the unit circle with cos gamma "
            f">= 2**-510, got ({cos_g!r}, {sin_g!r})"
        )
    c2 = cos_g * cos_g
    cot = cos_g / sin_g
    sin, sinh, cosh, sqrt = math.sin, math.sinh, math.cosh, math.sqrt  # closure cells

    def h(s: float) -> float:
        # f14_34_12_closed(c2 + x * x), written out with the same operations
        # in the same order, as in _f_prime
        x = sin_g * sin(s)
        p = sqrt(c2 + x * x)
        return sqrt(0.5 * (1.0 + p)) / p

    if cos_g >= _TRAPEZOID_COT * sin_g:
        n = max(4, math.ceil(_STRIP_N / math.asinh(cot)))
        return trapezoid(h, 0.0, 0.5 * math.pi, n).value

    def mapped(v: float) -> float:  # h(s) ds / dv with sin s = cot sinh v
        p = cos_g * cosh(v)
        sg = cot * sinh(v)
        return sqrt(0.5 * (1.0 + p)) / (sin_g * sqrt((1.0 - sg) * (1.0 + sg)))

    quarter = 0.25 * math.pi
    top = math.asinh(math.sqrt(0.5) * (sin_g / cos_g))
    return integrate(mapped, 0.0, top).value + integrate(h, quarter, 2.0 * quarter).value


@dataclass(frozen=True)
class PeriodPair:
    K: float
    Kprime: float


def periods(mod: Modulus, method: PeriodMethod = PeriodMethod.ELLIPTIC) -> PeriodPair:
    """Half-period magnitudes (K, K'); fundamental periods are 2K and 2iK'.

    A method that is not a PeriodMethod member raises DomainError.
    """
    if method is PeriodMethod.ELLIPTIC:
        pref = math.sqrt(2.0 / (1.0 + mod.lam))
        return PeriodPair(
            pref * complete_K(mod.m, mod.m1),
            pref * complete_K(mod.m1, mod.m),
        )
    if method is PeriodMethod.HYPER:
        k2 = mod.kappa**2
        l2 = mod.lam * mod.lam
        half_pi = 0.5 * math.pi
        return PeriodPair(
            half_pi * gauss_2f1(F_QUARTER_ONE, k2, l2),
            math.sqrt(2.0) * half_pi * gauss_2f1(F_QUARTER_ONE, l2, k2),
        )
    if method is not PeriodMethod.INTEGRAL:
        raise DomainError(f"unknown period method {method!r}")
    return PeriodPair(i_gamma(mod.lam, mod.kappa), math.sqrt(2.0) * i_gamma(mod.kappa, mod.lam))


def greenhill_check(a: float, b: float, c: float) -> tuple[float, float]:
    """Residuals of the two cubic-integral reductions to complete K.

    For the cubic (t-a)(t-b)(t-c) with a > b > c, returns the quadrature
    value minus the closed form for the middle and lower root intervals.
    The roots are first scaled by a power of 4 that brings a - c into
    [1, 4), so the residuals of (4a, 4b, 4c) are those of (a, b, c) halved,
    bit for bit.
    """
    if not (a > b > c and a - c < math.inf):
        raise DomainError(f"greenhill_check requires a > b > c, a - c finite, got {(a, b, c)!r}")
    # roots scaled by 4**-k scale both integrals and closed forms by 2**k,
    # exactly; with a - c in [1, 4) no integrand overflows next to a root,
    # and QUAD_TOL is an error relative to the integrals
    k = (math.frexp(a - c)[1] - 1) // 2
    a, b, c = (math.ldexp(x, -2 * k) for x in (a, b, c))
    pref = 2.0 / math.sqrt(a - c)
    ab, bc, ac = a - b, b - c, a - c

    def halved(f_lo, f_hi, length: float) -> float:
        # each half is parametrised by the distance s from its own singular
        # root, so quadrature nodes keep full accuracy at the endpoints
        m = 0.5 * length
        return integrate(f_lo, 0.0, m).value + integrate(f_hi, 0.0, length - m).value

    def inv_root(x: float, y: float, z: float) -> float:
        # 1/sqrt(x y z) as a product of roots: the product x y z underflows
        # to 0 next to a root where x, y and z are still representable
        return 1.0 / (math.sqrt(x) * math.sqrt(y) * math.sqrt(z))

    mid = halved(
        lambda s: inv_root(ab - s, s, s + bc),
        lambda s: inv_root(s, ab - s, ac - s),
        ab,
    )
    low = halved(
        lambda s: inv_root(ac - s, bc - s, s),
        lambda s: inv_root(ab + s, s, bc - s),
        bc,
    )
    return (
        math.ldexp(mid - pref * complete_K(ab / ac, bc / ac), -k),
        math.ldexp(low - pref * complete_K(bc / ac, ab / ac), -k),
    )
