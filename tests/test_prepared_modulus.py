"""The per-modulus caches: a Modulus caches what depends on kappa alone, its
Landen ladders included, without changing a single bit of any result."""

import dataclasses
import math
import random

import pytest

from dn2.core import Modulus, Route, dn2, dn2_deriv, invariants_of, periods, phi
from dn2.identities import identity_bbg_91
from dn2.jacobi import JacobiTriple, PoleError, _ladder, jacobi_complex, jacobi_real
from dn2.kernel import DomainError, integrate
from dn2.weier import lattice_from_invariants

Z = [complex(0.4, 0.3), complex(1.9, 2.2), complex(-2.7, 0.8)]
X = [0.37, -3.1, 7.5]

# kappa -> dn2 by SN and by WP at Z, dn2 by SN at X, phi at X, as float.hex;
# first computed before the caches existed, when every call derived
# everything anew, and regenerated when Modulus began to derive m, m1 and
# 1 - lam without cancellation (the complex values moved by a few ulp),
# when phi's Newton solve took a relative stop (phi moved, closer to mpmath)
# and when f began to reflect past 3 pi/4 and phi to add n pi to double
# precision (phi(-3.1) at 0.3 and 0.6 moved, closer to mpmath), and when
# phi's Newton solve began to carry its residual between iterates (at 0.9,
# phi(0.37) moved closer to mpmath and phi(7.5) by 1 ulp away from it)
GOLDEN = {
    0.3: (
        [('0x1.fdfef3446e5a5p-1', '-0x1.50a9ba1420891p-7'), ('0x1.557f6090e0a42p-2', '0x1.54ad3c82f438ap-2'), ('0x1.024a250761509p+0', '-0x1.6e82a70dc8fe5p-5')],
        [('0x1.fdfef3446e5a5p-1', '-0x1.50a9ba1420893p-7'), ('0x1.557f6090e0a40p-2', '0x1.54ad3c82f438ap-2'), ('0x1.024a250761509p+0', '-0x1.6e82a70dc8fe6p-5')],
        ['0x1.fcfca5ef2a572p-1', '0x1.ffc83bb61acd3p-1', '0x1.ed7e06a451782p-1'],
        ['0x1.7a4fd280c59d1p-2', '-0x1.85a8c81896328p+1', '0x1.d817891c15e62p+2'],
    ),
    0.6: (
        [('0x1.f7ffbd1d3a5d0p-1', '-0x1.507d0b88ebe10p-5'), ('-0x1.17916abf0d8ecp-1', '0x1.b4582472db42cp-3'), ('0x1.e4273f4ee76e8p-1', '-0x1.a6821d75cb7dcp-3')],
        [('0x1.f7ffbd1d3a5d0p-1', '-0x1.507d0b88ebe10p-5'), ('-0x1.17916abf0d8eep-1', '0x1.b4582472db42dp-3'), ('0x1.e4273f4ee76e7p-1', '-0x1.a6821d75cb7dep-3')],
        ['0x1.f3f1d26c8640dp-1', '0x1.f76f7a6d12edcp-1', '0x1.db61ac8d646f7p-1'],
        ['0x1.789a156ff5ea0p-2', '-0x1.6aa4e1f8a78fdp+1', '0x1.bcd6f15a6adc0p+2'],
    ),
    0.9: (
        [('0x1.ee0e26cade522p-1', '-0x1.7a38e6dd3a72bp-4'), ('-0x1.cdebad4360654p-2', '-0x1.b9b259cb37620p-6'), ('0x1.81392a75157d0p-2', '-0x1.00514f342a775p-2')],
        [('0x1.ee0e26cade522p-1', '-0x1.7a38e6dd3a729p-4'), ('-0x1.cdebad4360654p-2', '-0x1.b9b259cb3761fp-6'), ('0x1.81392a75157d4p-2', '-0x1.00514f342a773p-2')],
        ['0x1.e4dd3533d49b4p-1', '0x1.559342b13745cp-1', '0x1.849f9f52fa6cfp-1'],
        ['0x1.75bbe7d9fd3fap-2', '-0x1.1552d09cb2018p+1', '0x1.5e5ddc12f94e4p+2'],
    ),
}


def _hex(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


def _values(mod):
    return (
        [_hex(dn2(z, mod, Route.SN)) for z in Z],
        [_hex(dn2(z, mod, Route.WP)) for z in Z],
        [_hex(dn2(x, mod, Route.SN)) for x in X],
        [_hex(phi(x, mod)) for x in X],
    )


@pytest.mark.parametrize("kappa", sorted(GOLDEN))
def test_values_match_the_uncached_computation_bit_for_bit(kappa):
    mod = Modulus(kappa)
    assert _values(mod) == GOLDEN[kappa]
    assert _values(mod) == GOLDEN[kappa]  # again, from warm caches


def test_reused_and_fresh_modulus_agree_bit_for_bit():
    reused = Modulus(0.6)
    first = _values(reused)
    assert _values(Modulus(0.6)) == first
    assert _values(reused) == first


def _outcome(f, *args):
    try:
        v = f(*args)
    except (DomainError, PoleError) as exc:
        return type(exc), str(exc)
    return type(v), _hex(v)


def _public_sn(z, mod):
    """sn(c z) by jacobi's public functions, as dn2 took it before it ran
    their arithmetic on the Modulus's own ladders."""
    if z.imag == 0.0:
        return jacobi_real(float(z.real) * mod.c, mod.m, mod.m1).sn
    return jacobi_complex(complex(z) * mod.c, mod.m, mod.m1).sn


def _public_sn_route(z, mod):
    sn = _public_sn(z, mod)
    return 1.0 - mod.d * (sn * sn)


def _public_wp_route(z, mod):
    # the WP bridge as it reads the lattice data, with the 1/3 + e3 = 0
    # that dn2's WP branch leaves out
    sn = _public_sn(z, mod)
    sn2 = sn * sn
    if abs(sn2) < 1e-26:
        return 1.0 if z.imag == 0.0 else complex(1.0)
    lat = mod.lattice
    denom = (1.0 / 3.0 + lat.e3) + (lat.e1 - lat.e3) / sn2
    return 1.0 - 0.5 * mod.kappa**2 / denom


def _public_deriv(x, mod):
    t = jacobi_real(float(x) * mod.c, mod.m, mod.m1)
    return -2.0 * mod.d * t.sn * t.cn * t.dn * mod.c


def _seeded_moduli():
    """Seeded kappa over [2**-510, 1 - 2**-53], log-spaced from both ends,
    with the ends themselves, and the complement of each."""
    rng = random.Random("ladders on the modulus")
    kappas = [2.0**-510, 1.0 - 2.0**-53, 0.6]
    kappas += [2.0 ** -rng.uniform(1.0, 510.0) for _ in range(6)]
    kappas += [1.0 - 2.0 ** -rng.uniform(1.0, 53.0) for _ in range(6)]
    mods = [Modulus(k) for k in kappas]
    return mods + [mod.complement for mod in mods]


@pytest.mark.parametrize("mod", _seeded_moduli(), ids=lambda mod: f"{mod.kappa!r},{mod.lam!r}")
def test_sn_and_wp_are_the_public_functions_bit_for_bit(mod):
    # dn2 runs jacobi's ascent and addition split on mod's cached ladders:
    # every value, PoleError and DomainError is the one that jacobi_real
    # and jacobi_complex give, with the same message
    rng = random.Random(f"public bits:{mod.kappa}:{mod.lam}")
    p = periods(mod)
    K, Kp, c = p.K, p.Kprime, mod.c
    xs = [rng.uniform(-6.0, 6.0) * K for _ in range(12)]
    xs += [0.0, -0.0, 1e-300, 2.0 * K, 1e300, math.inf, math.nan]
    zs = [complex(rng.uniform(-4.0, 4.0) * K, rng.uniform(-4.0, 4.0) * Kp) for _ in range(12)]
    zs += [complex(x, 0.0) for x in xs[:4]] + [complex(x, -0.0) for x in xs[:4]]
    zs += [complex(0.0, Kp), complex(2.0 * K, 3.0 * Kp), complex(0.5, 1e300), complex(math.nan, 0.5)]
    # the rim of the pole disc around iK', inside and outside it
    zs += [complex(0.0, Kp) + r / c * complex(math.cos(a), math.sin(a))
           for r in (0.99e-6, 1.01e-6) for a in range(4)]
    outcomes = {PoleError: 0, DomainError: 0, float: 0, complex: 0}
    for z in xs + zs:
        for route, public in ((Route.SN, _public_sn_route), (Route.WP, _public_wp_route)):
            got = _outcome(dn2, z, mod, route)
            assert got == _outcome(public, z, mod), (z, route)
            outcomes[got[0]] += 1
    for x in xs:
        assert _outcome(dn2_deriv, x, mod) == _outcome(_public_deriv, x, mod), x
    # each kind of outcome was met
    assert all(outcomes.values()), outcomes


def test_modulus_compares_and_hashes_by_kappa_and_stays_frozen():
    warm = Modulus(0.6)
    _values(warm)
    assert warm == Modulus(0.6)
    assert hash(warm) == hash(Modulus(0.6))
    assert warm != Modulus(0.7)
    assert len({warm, Modulus(0.6)}) == 1
    for name in ("kappa", "lam", "d", "m", "m1", "c", "lattice", "two_k", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(warm, name, 0.5)


def test_cached_values_are_the_derived_quantities():
    mod = Modulus(0.6)
    lam = math.sqrt((1.0 - 0.6) * (1.0 + 0.6))
    d = 0.6 * 0.6 / (1.0 + lam)
    assert (mod.lam, mod.d) == (lam, d)
    assert (mod.m, mod.m1) == (d / (1.0 + lam), 2.0 * lam / (1.0 + lam))
    assert mod.c == math.sqrt(0.5 * (1.0 + lam))
    assert (mod.lattice.m, mod.lattice.mc, mod.lattice.scale) == (mod.m, mod.m1, mod.c)
    assert mod.lattice is mod.lattice
    assert mod.two_k > 0.0
    # what dn2's SN and WP read on every call
    assert mod._re_ladder == _ladder(mod.m, mod.m1) and mod._re_ladder is mod._re_ladder
    assert mod._im_ladder == _ladder(mod.m1, mod.m) and mod._im_ladder is mod._im_ladder
    lat = mod.lattice
    assert mod._wp_scale == lat.e1 - lat.e3
    assert mod._wp_half_k2 == 0.5 * mod.kappa**2


LATTICE_FIELDS = ("g2", "g3", "delta", "e1", "e2", "e3", "m", "mc", "scale")


def test_jacobi_triple_fields_and_immutability():
    # the records that only hold values are NamedTuples: tuples with their
    # fields in order, immutable, and with the repr and hash they had as
    # frozen dataclasses
    triples = (jacobi_real(0.8, 0.5, 0.5), jacobi_complex(complex(0.4, 0.3), 0.5, 0.5))
    for t in triples:
        assert isinstance(t, JacobiTriple)
    records = [(t, ("sn", "cn", "dn")) for t in triples] + [
        (integrate(math.sin, 0.0, 1.0), ("value", "err_estimate", "evaluations")),
        (invariants_of(Modulus(0.6)), LATTICE_FIELDS),
        (lattice_from_invariants(4.0 / 3.0 - 0.36, 8.0 / 27.0 - 0.12), LATTICE_FIELDS),
        (identity_bbg_91(0.6), ("parameter", "lhs", "rhs", "residual", "tol", "passed")),
    ]
    for r, fields in records:
        values = tuple(getattr(r, name) for name in fields)
        assert isinstance(r, tuple)
        assert tuple(r) == values
        assert hash(r) == hash(values)
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values))
        assert repr(r) == f"{type(r).__name__}({shown})"
        with pytest.raises(AttributeError):
            setattr(r, fields[0], 0.0)
