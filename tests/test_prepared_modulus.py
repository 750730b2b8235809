"""The per-modulus caches: a Modulus caches what depends on kappa alone, and
jacobi caches the Landen ladder per parameter, without changing a single bit
of any result."""

import dataclasses
import math

import pytest

from dn2.core import Modulus, Route, dn2, phi
from dn2.jacobi import JacobiTriple, _ladder, jacobi_complex, jacobi_real

Z = [complex(0.4, 0.3), complex(1.9, 2.2), complex(-2.7, 0.8)]
X = [0.37, -3.1, 7.5]

# kappa -> dn2 by SN and by WP at Z, dn2 by SN at X, phi at X, as float.hex;
# first computed before the caches existed, when every call derived
# everything anew, and regenerated when Modulus began to derive m, m1 and
# 1 - lam without cancellation (the complex values moved by a few ulp),
# when phi's Newton solve took a relative stop (phi moved, closer to mpmath)
# and when f began to reflect past 3 pi/4 and phi to add n pi to double
# precision (phi(-3.1) at 0.3 and 0.6 moved, closer to mpmath)
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
        ['0x1.75bbe7d9fd3f9p-2', '-0x1.1552d09cb2018p+1', '0x1.5e5ddc12f94e5p+2'],
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
    _ladder.cache_clear()
    assert _values(Modulus(0.6)) == first
    assert _values(reused) == first


def test_jacobi_real_same_on_cold_and_warm_ladder_cache():
    for m in (0.0, 0.09, 0.5, 0.95):
        _ladder.cache_clear()
        cold = [jacobi_real(x, m, 1.0 - m) for x in X]
        warm = [jacobi_real(x, m, 1.0 - m) for x in X]
        assert [tuple(map(_hex, t)) for t in cold] == [tuple(map(_hex, t)) for t in warm]


def test_ladder_cache_is_bounded():
    assert _ladder.cache_info().maxsize is not None


def test_modulus_compares_and_hashes_by_kappa_and_stays_frozen():
    warm = Modulus(0.6)
    _values(warm)
    assert warm == Modulus(0.6)
    assert hash(warm) == hash(Modulus(0.6))
    assert warm != Modulus(0.7)
    assert len({warm, Modulus(0.6)}) == 1
    for name in ("kappa", "lam", "d", "m", "m1", "c", "alpha", "beta", "lattice", "two_k",
                 "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(warm, name, 0.5)


def test_cached_values_are_the_derived_quantities():
    mod = Modulus(0.6)
    lam = math.sqrt((1.0 - 0.6) * (1.0 + 0.6))
    d = 0.6 * 0.6 / (1.0 + lam)
    assert (mod.lam, mod.d) == (lam, d)
    assert (mod.m, mod.m1) == (d / (1.0 + lam), 2.0 * lam / (1.0 + lam))
    assert mod.c == math.sqrt(0.5 * (1.0 + lam))
    assert (mod.alpha, mod.beta) == (math.atan2(lam, 0.6), math.atan2(0.6, lam))
    assert (mod.lattice.m, mod.lattice.mc, mod.lattice.scale) == (mod.m, mod.m1, mod.c)
    assert mod.lattice is mod.lattice
    assert mod.two_k > 0.0


def test_jacobi_triple_fields_and_immutability():
    for t in (jacobi_real(0.8, 0.5, 0.5), jacobi_complex(complex(0.4, 0.3), 0.5, 0.5)):
        assert isinstance(t, JacobiTriple)
        assert (t.sn, t.cn, t.dn) == tuple(t)
        with pytest.raises(AttributeError):
            t.sn = 0.0
