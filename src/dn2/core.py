"""The signature-four elliptic function dn2.

Three evaluation routes (Jacobian sn closed form, Weierstrass P bridge,
amplitude inversion on the real axis), the companion function s2, the
incomplete integral f and its inverse phi, and the fundamental periods by
three methods.  The WP route is the package's one Weierstrass P bridge,
1/3 + P(z) = kappa^2 / (2 (1 - dn2(z))), on the lattice of ``invariants_of``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

from .hyper import F_QUARTER_ONE, complete_K, f14_34_12_closed, gauss_2f1
# jacobi_complex stays bound, unused: bench/tracing.py wraps that name here
from .jacobi import jacobi_complex, jacobi_real, sn_complex  # noqa: F401
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
# i_gamma sums by the trapezoid rule where cot gamma is at least this, and by
# tanh-sinh below it: at 0.05 the trapezoid rule takes 257 evaluations and
# tanh-sinh 297, at 0.04 they take 513 and 297
_TRAPEZOID_COT = 0.05


@dataclass(frozen=True)
class Modulus:
    """Modulus kappa in [2**-510, 1) and the quantities derived from it.

    A Modulus compares and hashes by the pair (kappa, lam), as by kappa for
    one built from kappa, and is immutable.  It is the one place that derives
    kappa's quantities, each once on construction and in a form that does not
    cancel at either end of (0, 1).  ``complement``, the modulus of the exact
    pair (lam, kappa), ``lattice``, the lattice data ``invariants_of(self)``,
    and ``two_k``, the ELLIPTIC 2K by which ``phi`` reduces, are cached.
    """

    kappa: float
    lam: float = field(init=False, repr=False)  # sqrt((1 - kappa)(1 + kappa))
    d: float = _derived()  # 1 - lam = kappa^2 / (1 + lam)
    m: float = _derived()  # d / (1 + lam), the Jacobian parameter of the SN and WP routes
    m1: float = _derived()  # 2 lam / (1 + lam) = 1 - m
    c: float = _derived()  # sqrt((1 + lam) / 2), the argument scale of the SN and WP routes

    def __post_init__(self):
        k = self.kappa
        if not KAPPA_MIN <= k < 1.0:
            raise DomainError(f"modulus must lie in [2**-510, 1), got {k}")
        # a numpy.float32 kappa would derive everything in single precision
        vars(self)["kappa"] = k = float(k)
        self._derive(math.sqrt((1.0 - k) * (1.0 + k)))

    def _derive(self, lam: float) -> None:
        k = self.kappa
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

    The midpoint values have closed forms for this family; using them keeps
    1/3 + e3 exactly zero in double precision, which the WP route needs to
    stay accurate near its pole.
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
    complex value, and DomainError on PHI.  SN and WP pass on
    sn_complex's PoleError: within 1e-6/c of a pole (z congruent to iK'
    modulo the lattice).  A route that is not a Route member raises
    DomainError.
    """
    on_axis = z.imag == 0.0
    if route is _PHI:
        if not on_axis:
            raise DomainError("PHI route is defined on the real axis only")
        s = mod.kappa * _phi_and_s2(z.real, mod)[1]
        return math.sqrt(1.0 - s * s)

    if on_axis:
        sn = jacobi_real(float(z.real) * mod.c, mod.m, mod.m1).sn
    else:
        sn = sn_complex(complex(z) * mod.c, mod.m, mod.m1)
    sn2 = sn * sn
    if route is _SN:
        return 1.0 - mod.d * sn2
    if route is not _WP:
        raise DomainError(f"unknown dn2 route {route!r}")
    if abs(sn2) < 1e-26:
        # lattice point: P has its pole here and dn2 tends to 1
        return 1.0 if on_axis else complex(1.0)
    lat = mod.lattice
    # 1/3 + wp(z), associated so the exact cancellation 1/3 + e3 = 0
    # survives floating point
    denom = (1.0 / 3.0 + lat.e3) + (lat.e1 - lat.e3) / sn2
    return 1.0 - 0.5 * mod.kappa**2 / denom


def dn2_deriv(x: float, mod: Modulus) -> float:
    """d/dx of dn2 on the real axis, by the sn-route chain rule.

    As in dn2, a point with x.imag == 0.0, whatever its type, is the float
    x.real, and any other point raises DomainError.
    """
    if x.imag != 0.0:
        raise DomainError(f"dn2_deriv is defined on the real axis only, got {x!r}")
    t = jacobi_real(float(x.real) * mod.c, mod.m, mod.m1)
    return -2.0 * mod.d * t.sn * t.cn * t.dn * mod.c


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
    from cos^2 t = cos^2 gamma + (sin gamma sin s)^2, which does not cancel.
    h is smooth, even and pi-periodic, with its poles at
    Im s = +-asinh(cot gamma).  Where cot gamma >= 0.05 the trapezoid rule
    sums it; below, h peaks at s = 0 with a width of about cot gamma, which
    tanh-sinh resolves from the endpoint.  Raises DomainError unless both
    members are positive, cos^2 + sin^2 = 1 within 1e-12, and
    cos gamma >= 2**-510, below which its square is subnormal, as for kappa.
    """
    if not (KAPPA_MIN <= cos_g and 0.0 < sin_g
            and abs(cos_g * cos_g + sin_g * sin_g - 1.0) <= 1e-12):
        raise DomainError(
            "i_gamma requires a positive pair on the unit circle with cos gamma "
            f">= 2**-510, got ({cos_g!r}, {sin_g!r})"
        )
    c2 = cos_g * cos_g

    def h(s: float) -> float:
        x = sin_g * math.sin(s)
        return f14_34_12_closed(c2 + x * x)

    quad = trapezoid if cos_g >= _TRAPEZOID_COT * sin_g else integrate
    return quad(h, 0.0, 0.5 * math.pi).value


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
