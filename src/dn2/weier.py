"""Weierstrass P for real rectangular lattices, built from the invariants
through the Jacobian sn bridge (no lattice summation)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hyper import complete_K
from .jacobi import PoleError, jacobi_complex
from .kernel import DomainError


@dataclass(frozen=True)
class PeriodPair:
    K: float
    Kprime: float


@dataclass(frozen=True)
class LatticeData:
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


def lattice_from_invariants(g2: float, g3: float) -> LatticeData:
    """Lattice data from invariants with positive discriminant.

    Roots of 4w^3 - g2 w - g3 come from the trigonometric three-real-root
    form, then a Newton polish per root.
    """
    delta = g2**3 - 27.0 * g3**2
    if delta <= 0.0:
        raise DomainError("rectangular lattice requires g2^3 - 27 g3^2 > 0")
    arg = 3.0 * math.sqrt(3.0) * g3 / g2**1.5
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg)
    amp = math.sqrt(g2 / 3.0)

    def polish(w: float) -> float:
        for _ in range(2):
            fw = (4.0 * w * w - g2) * w - g3
            dfw = 12.0 * w * w - g2
            if dfw != 0.0:
                w -= fw / dfw
        return w

    roots = sorted(
        (polish(amp * math.cos((theta - 2.0 * math.pi * k) / 3.0)) for k in range(3)),
        reverse=True,
    )
    e1, e2, e3 = roots
    ac = e1 - e3
    return LatticeData(g2, g3, delta, e1, e2, e3, (e2 - e3) / ac, (e1 - e2) / ac, math.sqrt(ac))


def wp(z: complex, lat: LatticeData) -> complex:
    """P(z) = e3 + (e1 - e3)/sn^2(z*scale); pole signal at lattice points."""
    try:
        sn = jacobi_complex(complex(z) * lat.scale, lat.m, lat.mc).sn
    except PoleError:
        # sn poles are regular points of P where 1/sn^2 underflows to zero
        return complex(lat.e3)
    sn2 = sn * sn
    if abs(sn2) < 1e-13:
        raise PoleError("wp pole: z is congruent to a lattice point")
    return lat.e3 + (lat.e1 - lat.e3) / sn2


def wp_halfperiods(lat: LatticeData) -> PeriodPair:
    """Half-periods (omega, omega'/i) of the lattice."""
    return PeriodPair(
        complete_K(lat.m, lat.mc) / lat.scale,
        complete_K(lat.mc, lat.m) / lat.scale,
    )
