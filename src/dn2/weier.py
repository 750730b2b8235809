"""Lattice data of a real rectangular lattice from its invariants, and its
half-periods.  Weierstrass P itself is the WP route of ``core.dn2``."""

from __future__ import annotations

import math

from .core import LatticeData, PeriodPair
# bench/tracing.py wraps jacobi_complex and complete_K on this module, and a
# traced run fails on a missing name: both stay bound, jacobi_complex unused
from .hyper import complete_K
from .jacobi import jacobi_complex  # noqa: F401
from .kernel import DomainError


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


def wp_halfperiods(lat: LatticeData) -> PeriodPair:
    """Half-periods (omega, omega'/i) of the lattice."""
    return PeriodPair(
        complete_K(lat.m, lat.mc) / lat.scale,
        complete_K(lat.mc, lat.m) / lat.scale,
    )
