"""The signature-four elliptic function dn2.

Three evaluation routes (Jacobian sn closed form, Weierstrass P bridge,
amplitude inversion on the real axis), the companion function s2, the
incomplete integral f and its inverse phi, and the fundamental periods by
three methods.  The WP route is the package's one Weierstrass P bridge,
1/3 + P(z) = kappa^2 / (2 (1 - dn2(z))), on the lattice of ``invariants_of``:
there e3 = -1/3, so 1/3 + P(z) = (e1 - e3) / sn^2(c z).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

# f14_34_12_closed stays bound, unused: bench/tracing.py counts that name here
from .hyper import F_QUARTER_ONE, complete_K, f14_34_12_closed, gauss_2f1  # noqa: F401
# jacobi_complex and jacobi_real stay bound, unused: bench/tracing.py wraps
# those names here
from .jacobi import _addition, _ascent, _ladder, jacobi_complex, jacobi_real  # noqa: F401
from .kernel import (
    ConvergenceError, DomainError, gauss_legendre, integrate, newton_invert, reduction_limit,
    trapezoid,
)


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
# 0.2 and 2 for n >= 4 from cot gamma = 0.04 up (0.33 below 0.0708), and
# the first doubling changes the sum by about the error of n0, at most
# A e^(-4 _STRIP_N).  For that to meet QUAD_TOL at A = 1 takes
# _STRIP_N >= 5.8; 7 is the least integer that meets it with a margin wider
# than the spread of A: the largest first change is 3e-13, 1/336 of
# QUAD_TOL (at 6, 1/6), and 2.3e-13 below 0.0708.  The doubled sum is then
# off by about A e^(-56), far below rounding
_STRIP_N = 7.0
# i_gamma sums by that trapezoid rule where cot gamma is at least this, and
# below it by tanh-sinh over the sinh map of [0, pi/4] and over [pi/4, pi/2].
# The map takes 199 evaluations from cot gamma = 2.6e-19 up, and the rule
# 2 n0 + 1, 353 at most from 0.04 up (n0 = 176).  A rule evaluation reads
# its node's sine from kernel's table and costs about a third of a map
# evaluation, which works out a sinh, a cosh and a node (0.15 against
# 0.44 us, best of 10, Python 3.11 on an x86-64 Xeon), so the rule's 353
# cost less than the map's 199; K and K' together then take at most 362
_TRAPEZOID_COT = 0.04
# inside the reach, f and phi read a table of f(T_k) - T_k at T_k = k h on
# [0, pi/2], each step the 5-point Gauss-Legendre rule's integral of f' - 1
# over its two halves.  f' has its branch points at pi/2 +- ib,
# b = asinh(lam/kappa), and a step h <= _TABLE_STEP b keeps them at least
# about 12 half-steps from it: the rule's error over the step then meets
# its rounding only next to the peak at the largest kappa, and over the
# halves it lies below it (Trefethen, SIAM Rev. 50 (2008) 67-87)
_TABLE_STEP = 0.08
# the table takes n = ceil((pi/2) / (_TABLE_STEP b)) steps, at most this
# many: up to kappa = 0.9639.  Beyond, f and phi integrate by tanh-sinh as
# they did before the table; the table cannot serve kappa -> 1, where b -> 0
_TABLE_CAP = 72
# each step's rule is checked against its sum over the two halves.  On
# 2,000 kappa across the reach the two differ by at most 1.3e-15 h, near
# the peak of f' at the largest kappa, where the rule's error over the
# whole step and the rounding of a step (about 2 h) meet; 2**-48 = 3.6e-15
# leaves that a margin, and a gap beyond it means the integrand is not the
# analytic f' - 1 the step assumes
_TABLE_TOL = 2.0**-48
# f reduces by math.pi, and every f call would otherwise recompute this
_PI_LIMIT = reduction_limit(math.pi)
# phi's DomainError names its argument so, formatted only when it raises
_PHI_ARGUMENT = "phi argument {!r} (period 2K)"


@dataclass(frozen=True)
class Modulus:
    """Modulus kappa in [2**-510, 1) and the quantities derived from it.

    A Modulus compares and hashes by the pair (kappa, lam), as by kappa for
    one built from kappa, and is immutable.  It is the one place that derives
    kappa's quantities, each once on construction and in a form that does not
    cancel at either end of (0, 1).  ``complement``, the modulus of the exact
    pair (lam, kappa), and ``lattice``, the lattice data
    ``invariants_of(self)``, are cached, as are the two Landen ladders and
    the constants of the WP bridge that ``dn2`` reads on every SN and WP
    call.  These ladders are the package's only ladder cache: jacobi_real
    and jacobi_complex build theirs on every call.  ``_f_table``, built on
    the first f or phi call and never on construction, caches f(T) - T on
    a grid of [0, pi/2], the derivatives of f's inverse there, and the
    period 2K of f, from which ``f_forward`` and ``phi`` take f, start
    phi's solve and reduce with no tanh-sinh and no ELLIPTIC K; it
    is None beyond the table's reach, kappa above about 0.9639.
    Every Modulus, a complement too, has 2**-510 <= kappa <= 1 and lam > 0;
    kappa is 1.0 only for the complement of a kappa below about 6.6e-9,
    whose lam rounds to 1.0.
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
    def _f_table(self) -> _FTable | None:
        return _build_f_table(self)

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


def _f_excess(mod: Modulus):
    """f'(t) - 1, without the cancellation of f'(t) - 1.0 where f' nears 1.

    With p = cos psi as in _f_prime and sin psi = kappa sin t,
    sqrt((1 + p)/2) - p = (1 - p)(1 + 2p) / (2 (sqrt((1 + p)/2) + p)) and
    1 - p = (kappa sin t)^2 / (1 + p): a product and quotients of terms
    that are all accurate to a few ulp, so that f'(t) - 1 is too, where
    f'(t) - 1.0 would carry the rounding of f', up to 2e-16, and lose
    every digit at t = 0.
    """
    k = mod.kappa
    l2 = mod.lam * mod.lam
    cos, sin, sqrt = math.cos, math.sin, math.sqrt  # closure cells

    def excess(t: float) -> float:
        p = k * cos(t)
        p = sqrt(l2 + p * p)
        q = k * sin(t)
        return q * q * (1.0 + 2.0 * p) / (2.0 * p * (1.0 + p) * (sqrt(0.5 * (1.0 + p)) + p))

    return excess


def _integral(mod: Modulus, a: float, b: float) -> float:
    """The integral of f' over [a, b], a <= b: tanh-sinh of f'(a + (s - c))
    over [c, c + (b - a)], c = (b - a)/1024, whose left-end nodes stop near
    ulp(c), 1e-19 (b - a), where from 0 they would walk down to the smallest
    double with f' flat there.  s - c is exact near c, so the left end is a.
    """
    w = b - a
    c = w / 1024.0
    return integrate(_f_prime(mod, a, c), c, c + w).value if w > 0.0 else 0.0


class _FTable(NamedTuple):
    """f(T_k) - T_k at T_k = k h, k = 0..n, n h = pi/2, as the unevaluated
    sums hi_k + lo_k; f(T_k) rounded, and the inverse's derivatives
    T'(f_k) = 1/f'(T_k) and T''(f_k) = -f''(T_k)/f'(T_k)^3, for phi's
    start; 2K - pi, twice the last sum, in three parts of at most 26
    significant bits; 2K as two_k, the double nearest pi plus those parts,
    carry, the rest, and limit, reduction_limit(two_k); and the closures
    f' - 1, which the rule integrates, and f'."""

    h: float
    hi: tuple[float, ...]
    lo: tuple[float, ...]
    f: tuple[float, ...]
    t_prime: tuple[float, ...]
    t_second: tuple[float, ...]
    two_k_less_pi: tuple[float, float, float]
    two_k: float
    carry: float
    limit: float
    excess: Callable[[float], float]
    f_prime: Callable[[float], float]


def _build_f_table(mod: Modulus) -> _FTable | None:
    """Modulus._f_table: None where it would take more than _TABLE_CAP
    steps, kappa above about 0.9639.  Each step adds the rule over its two
    halves to the running sum exactly, by fsum, which hi + lo carries; a
    step whose rule differs from the sum over its halves by more than
    _TABLE_TOL h raises ConvergenceError.  The inverse's derivatives at
    each node take f' = g/p in _f_prime's closed form, g = sqrt((1 + p)/2):
    T' = p/g, and T'' = -kappa^2 sin t cos t (2 + p)/(1 + p)^2, which is
    -f''/f'^3 with f'' = (1/(4 g p) - g/p^2) (-kappa^2 sin t cos t / p)
    written without its quotients by g and p."""
    n = max(1, math.ceil(0.5 * math.pi / (_TABLE_STEP * math.asinh(mod.lam / mod.kappa))))
    if n > _TABLE_CAP:
        return None
    excess = _f_excess(mod)
    h = 0.5 * math.pi / n
    t = [k * h for k in range(n + 1)]
    hi, lo = [0.0], [0.0]
    for a, b in zip(t, t[1:]):
        m = 0.5 * (a + b)
        left, right = gauss_legendre(excess, a, m), gauss_legendre(excess, m, b)
        if not abs(gauss_legendre(excess, a, b) - (left + right)) <= _TABLE_TOL * h:
            raise ConvergenceError(f"the table of f fails its check on [{a!r}, {b!r}]")
        parts = (hi[-1], lo[-1], left, right)
        hi.append(math.fsum(parts))
        lo.append(math.fsum((*parts, -hi[-1])))
    f = [math.fsum(parts) for parts in zip(t, hi, lo)]
    kappa, l2 = mod.kappa, mod.lam * mod.lam
    t_prime, t_second = [], []
    for x in t:
        kc = kappa * math.cos(x)
        p = math.sqrt(l2 + kc * kc)
        t_prime.append(p / math.sqrt(0.5 * (1.0 + p)))
        t_second.append(-kappa * math.sin(x) * kc * (2.0 + p) / ((1.0 + p) * (1.0 + p)))
    # f's reduction multiplies these by n + 1 < 2**27, exactly
    two_k_less_pi = (*_split(2.0 * hi[-1]), _split(2.0 * lo[-1])[0])
    two_k = math.fsum((math.pi, _PI_LO, *two_k_less_pi))
    carry = math.fsum((math.pi, _PI_LO, *two_k_less_pi, -two_k))
    return _FTable(h, tuple(hi), tuple(lo), tuple(f), tuple(t_prime), tuple(t_second),
                   two_k_less_pi, two_k, carry, reduction_limit(two_k), excess, _f_prime(mod))


def _split(x: float) -> tuple[float, float]:
    """Veltkamp's split: x = hi + lo exactly, each with at most 26
    significant bits."""
    y = 134217729.0 * x  # 2**27 + 1
    hi = y - (y - x)
    return hi, x - hi


def _f_terms(table: _FTable, a: float, n: int, r: float) -> list[float]:
    """Terms whose exact sum is f(a), a = n math.pi + r >= 0 exactly,
    r in [0, math.pi], inside the table's reach.

    With pi = math.pi + _PI_LO, f(T + pi) = f(T) + 2K and
    f(pi - r) = 2K - f(r), f(a) is a + m (2K - pi) + s (f(r') - r')
    + m _PI_LO (1 - f'(r')), to first order in _PI_LO: m = n, s = 1 and
    r' = r up to pi/2, and past it m = n + 1, s = -1 and r' = math.pi - r,
    exact.  f(r') - r' is hi_k + lo_k at the nearest T_k plus the rule's
    integral of f' - 1 from T_k to r'.
    """
    m, s = n, 1.0
    if r > 0.5 * math.pi:
        m, s, r = n + 1, -1.0, math.pi - r
    k = int(r / table.h + 0.5)
    terms = [a, s * table.hi[k], s * table.lo[k], s * gauss_legendre(table.excess, k * table.h, r)]
    if m:
        terms += [m * c for c in table.two_k_less_pi]
        terms.append(m * _PI_LO * (1.0 - table.f_prime(r)))
    return terms


def _table_start(table: _FTable, v: float) -> float:
    """The T with f(T) = v by the quintic inverse between the table's
    nodes: with f_k <= v < f_(k+1), H = f_(k+1) - f_k and s = (v - f_k)/H,
    the quintic in s that takes T_k, H T'_k and H^2 T''_k at s = 0 and those
    of node k + 1 at s = 1; past the first or last node, that step's
    quintic extended.  Its error goes as the sixth derivative of T(v) times
    (H s (1 - s))^6 / 720: on 400 kappa across the reach, at most 5e-10 of
    T, half of NEWTON_RTOL, and 1e-11 to 1e-14 in the median."""
    fs = table.f
    k = bisect.bisect_right(fs, v, 1, len(fs) - 1) - 1
    big_h = fs[k + 1] - fs[k]
    s = (v - fs[k]) / big_h
    r = 1.0 - s
    s2, s3, r2 = s * s, s * s * s, r * r
    return (k * table.h + table.h * s3 * (10.0 + s * (6.0 * s - 15.0))
            + big_h * (table.t_prime[k] * s * r2 * r * (1.0 + 3.0 * s)
                       - table.t_prime[k + 1] * s3 * r * (4.0 - 3.0 * s)
                       + 0.5 * big_h * (table.t_second[k] * s2 * r2 * r
                                        + table.t_second[k + 1] * s3 * r2)))


def f_forward(T: float, mod: Modulus) -> float:
    """The incomplete integral f(T); odd, bit for bit, and strictly increasing.

    |T| = n pi + r is reduced by f(T + n pi) = f(T) + n 2K, and an r past
    pi/2 by f(pi - r) = 2K - f(r).  Inside the reach of Modulus._f_table,
    kappa up to about 0.9639, f(|T|) is the exactly rounded sum of |T|, the
    table's f(T_k) - T_k at the nearest T_k, the 5-point Gauss-Legendre
    rule's integral of f' - 1 from T_k to r or pi - r, and the table's
    2K - pi, times the number of periods and reflections, exactly: no
    tanh-sinh, at every |T| down to the smallest subnormal.  Beyond the
    reach the reflection is past 3 pi/4, 2K is ELLIPTIC's, and f(r) is
    _integral's tanh-sinh of f' over [0, r], with no nodes spent next to 0;
    below |T| = 1e-4 it is the series T + kappa^2 T^3 / 8 instead, as phi
    takes its own there: tanh-sinh finds no node inside an interval as
    short as [0, 5e-324].  Either way the reduction is by math.pi; the
    n (pi - math.pi) it drops is restored through f'.  T is reduced in
    double whatever real type it has, a numpy.float32 too.  Raises
    DomainError when |T| is so large (or not finite) that fewer than 8
    significant digits of T survive reduction modulo pi.
    """
    a, n, r = _reduce(T, math.pi, _PI_LIMIT, "f argument {!r}")
    table = mod._f_table
    if table is not None:
        return math.copysign(math.fsum(_f_terms(table, a, n, r)), T)
    if a < 1e-4:
        return math.copysign(a + mod.kappa**2 * a**3 / 8.0, T)
    sign = 1.0
    if r > _REFLECT:
        n, r, sign = n + 1, math.pi - r, -1.0  # math.pi - r is exact
    fr = _integral(mod, 0.0, r)
    if n:
        # f(|T|) = n 2K + sign f(r - sign n _PI_LO), to first order in _PI_LO
        two_k = 2.0 * periods(mod, PeriodMethod.ELLIPTIC).K
        fr = n * two_k + (sign * fr - n * _PI_LO * _f_prime(mod)(r))
    return math.copysign(fr, T)


def _reduce(x: float, period: float, limit: float, what: str) -> tuple[float, int, float]:
    """a = |x| as a float, and n and r with a = n period + r, 0 <= r < period,
    exactly: the real line's one conversion of its argument.

    Raises DomainError for ``not a <= limit``, limit being
    reduction_limit(period): fewer than 8 significant digits of x survive
    the reduction there, and inf, nan and an int beyond the floats fail the
    test too.  The test and the reduction see the float, so that a
    numpy.float32 x, which NumPy 2 would keep in single precision, is
    refused where its float is, and has (a - r) / period rounded in double.
    The message names x by what.format(x), formatted only then.
    """
    try:
        a = abs(float(x))
    except OverflowError:  # an int beyond the floats
        a = math.inf
    if not a <= limit:
        raise DomainError(
            f"{what.format(x)} is beyond {limit:.6g}: fewer than 8 "
            f"digits survive reduction modulo {period!r}"
        )
    r = math.fmod(a, period)  # exact
    return a, round((a - r) / period), r


def _phi_route(u: float, mod: Modulus) -> tuple[float, float, float]:
    """dn2(u) by the PHI route, phi(u) and s2(u), from one solve of
    phi(|u|) = n pi + t, t in [0, pi] up to the table's carry, after one
    _reduce of u: _phi_tabled's inside the reach of Modulus._f_table, at
    every |u|, and beyond it _phi_integrated's, or below |u| = 1e-4 the
    series u - kappa^2 u^3 / 8, whose next term is below 1e-17 u there.

    phi is n pi + t with u's sign, and s2 is (-1)^n sin t with u's sign: the
    sine of the rounded phi would carry phi's rounding, up to ulp(phi)/2,
    where phi nears a multiple of pi and s2 nears 0.  dn2 is
    sqrt(cos^2 t + lam^2 sin^2 t), which is sqrt(1 - (kappa s2)^2) without
    its cancellation where kappa s2 nears 1.
    """
    table = mod._f_table
    if table is not None:
        _, n, ur = _reduce(u, table.two_k, table.limit, _PHI_ARGUMENT)
        t = _phi_tabled(table, n, ur)
    else:
        two_k = 2.0 * periods(mod, PeriodMethod.ELLIPTIC).K
        a, n, ur = _reduce(u, two_k, reduction_limit(two_k), _PHI_ARGUMENT)
        t = a - mod.kappa**2 * a**3 / 8.0 if a < 1e-4 else _phi_integrated(mod, two_k, ur)
    sin_t = math.sin(t)
    s = math.copysign(sin_t, u)
    return (math.hypot(math.cos(t), mod.lam * sin_t),
            math.copysign(n * math.pi + (t + n * _PI_LO), u), -s if n % 2 else s)


def _phi_tabled(table: _FTable, n: int, ur: float) -> float:
    """The root T of f(T) = u - n 2K = ur - n carry inside the table's reach,
    by Newton on -ur, n carry and f_forward's terms of f(T), rounded once;
    f' >= 1 puts T within n |carry| of [0, pi], and the bracket leaves one
    carry more for rounding.  The first iterate is the table's quintic
    inverse at v = ur - n carry, or pi less it at 2K - v past K: within
    5e-10 of T, so that Newton's first step meets NEWTON_RTOL and
    the solve takes one residual, next to the multiples of 2K too, where
    T is as small as n carry."""
    def g(T: float) -> float:  # f(T) - (u - n 2K)
        return math.fsum((-ur, n * table.carry, *_f_terms(table, T, 0, T)))

    two_k = table.two_k
    v = ur - n * table.carry
    x0 = math.pi - _table_start(table, two_k - v) if v > 0.5 * two_k else _table_start(table, v)
    w = (n + 1) * abs(table.carry)
    return newton_invert(g, table.f_prime, -w, math.pi + w, x0)


def _phi_integrated(mod: Modulus, two_k: float, ur: float) -> float:
    """The root T in [0, pi] of f(T) = ur beyond the table's reach, from
    ur pi / 2K.  The residual is f(T) - ur by _integral from the nearer
    end of [0, pi] at the first iterate and at one across 3 pi/4 from the
    last, and otherwise the last residual plus f' integrated over the step.
    """
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

    return newton_invert(g, f_prime, 0.0, math.pi, ur * math.pi / two_k)


def phi(u: float, mod: Modulus) -> float:
    """Inverse of f on the whole real line.

    phi is odd, so it solves for |u| and takes u's sign.  Reduction uses
    f(T + pi) = f(T) + 2K, then a safeguarded Newton solve of f(T) = u_r,
    where f runs from 0 to 2K on [0, pi] and f' >= 1.  Inside the reach of
    Modulus._f_table, kappa up to about 0.9639, 2K is the table's own, the
    first iterate is the table's quintic inverse, from f(T_k) and the
    inverse's first two derivatives there, and the residual is f_forward's
    exact terms of f(T), rounded once: one residual, of five f' - 1
    evaluations, decides phi, with no tanh-sinh and no ELLIPTIC K.  Beyond
    the reach 2K is ELLIPTIC's, the first iterate is u_r pi / 2K, and the
    residual comes from the nearer end of [0, pi] at the first iterate and
    at one across 3 pi/4 from the last, by tanh-sinh of f'; at any other it
    is the last residual plus f' integrated over the step, and below
    |u| = 1e-4 it returns the series u - kappa^2 u^3 / 8 instead, whose next
    term is below 1e-17 u there: tanh-sinh cannot integrate over an
    interval as short as [0, 5e-324].  Inside the reach the table serves
    every |u|, down to the smallest subnormal.  u is reduced in double
    whatever real type it has, a numpy.float32 too.
    Raises DomainError when |u| is so large (or not finite) that fewer than
    8 significant digits of u survive reduction modulo 2K.
    """
    return _phi_route(u, mod)[1]


def s2(x: float, mod: Modulus) -> float:
    """Companion function sin(phi(x)), from the same solve as phi(x)."""
    return _phi_route(x, mod)[2]


def i_gamma(cos_g: float, sin_g: float) -> float:
    """The period integral I(gamma) of an acute angle gamma, given as the
    exact pair (cos gamma, sin gamma).

    I(gamma) is the integral of cos(t/2) / sqrt(cos^2 t - cos^2 gamma) over
    [0, gamma].  With sin t = sin gamma cos s it is the integral over
    [0, pi/2] of h(s) = cos(t/2) / cos t = F(1/4, 3/4; 1/2; sin^2 t), taken
    from p^2 = cos^2 t = cos^2 gamma + (sin gamma sin s)^2, which does not
    cancel.  h is smooth, even and pi-periodic, with its poles at
    Im s = +-a, a = asinh(cot gamma), and a function of sin s.  Where
    cot gamma >= _TRAPEZOID_COT the trapezoid rule sums it from
    max(4, ceil(7 / a)) intervals, a start that the strip's width makes
    enough for its first doubling, at the node sines that kernel keeps for
    each start.  Below, h peaks at s = 0 with a width of about cot gamma:
    sin s = cot gamma sinh v maps
    [0, pi/4] onto [0, asinh(tan gamma / sqrt 2)], where h ds is
    sqrt((1 + p)/2) / (sin gamma cos s) dv with p = cos gamma cosh v, which
    lies between 0.7 and 1.4 at any cot gamma, and tanh-sinh sums that piece
    and h over [pi/4, pi/2].  Either way the cost is bounded: the rule takes
    at most 353 evaluations, each about a third of a map evaluation, and the
    map 199 from cot gamma = 2.6e-19 up, and 348 down to 2**-510.
    Raises DomainError unless both members are positive, cos^2 + sin^2 = 1
    within 1e-12, and cos gamma >= 2**-510, below which its square is
    subnormal, as for kappa.  Both are tested and used as floats: a
    numpy.float32 pair, which NumPy 2 would keep in single precision, where
    cos^2 + sin^2 - 1 can round to 0 off the circle, gives its floats' value
    or error.
    """
    c = s = math.nan
    if KAPPA_MIN <= cos_g and 0.0 < sin_g:  # a str raises TypeError here
        try:
            c, s = float(cos_g), float(sin_g)
        except OverflowError:  # an int beyond the floats lies off the circle
            pass
    # KAPPA_MIN again on the float: NumPy 2 finds a float32 0 >= 2**-510
    if not (KAPPA_MIN <= c and abs(c * c + s * s - 1.0) <= 1e-12):
        raise DomainError(
            "i_gamma requires a positive pair on the unit circle with cos gamma "
            f">= 2**-510, got ({cos_g!r}, {sin_g!r})"
        )
    cos_g, sin_g = c, s
    c2 = cos_g * cos_g
    cot = cos_g / sin_g
    sin, sinh, cosh, sqrt = math.sin, math.sinh, math.cosh, math.sqrt  # closure cells

    # h is f14_34_12_closed(c2 + x * x), x = sin_g sin s, written out with
    # the same operations in the same order, as in _f_prime: at the node
    # sines of a trapezoid level, or at one s for integrate
    if cos_g >= _TRAPEZOID_COT * sin_g:
        def h_of_sines(sines) -> list[float]:
            values = []
            append = values.append
            for sin_s in sines:
                x = sin_g * sin_s
                p = sqrt(c2 + x * x)
                append(sqrt(0.5 * (1.0 + p)) / p)
            return values

        n = max(4, math.ceil(_STRIP_N / math.asinh(cot)))
        return trapezoid(h_of_sines, 0.0, 0.5 * math.pi, n).value

    def h(s: float) -> float:
        x = sin_g * sin(s)
        p = sqrt(c2 + x * x)
        return sqrt(0.5 * (1.0 + p)) / p

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
