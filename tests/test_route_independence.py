"""The SN and WP routes take their period from jacobi's own Landen ladder,
and the PHI route from its own table of f.

The three dn2 routes check each other only while none runs another's code
path.  The Landen ladder of jacobi is the AGM of (1, sqrt(mc)), so it gives
the real period 4K(m) itself; the SN and WP routes then read nothing of
hyper's AGM, which the ELLIPTIC periods run on.  Inside the reach of its
table of f the PHI route reduces by the table's own 2K, and reads nothing
of it either.  Nor do the other kernels that one route or period method
runs move any other: scaled by 1 + 1e-9, each moves its owner alone, but
for integrate near kappa = 1, which PHI runs beyond the reach of its table
of f, and INTEGRAL too where cot gamma < 0.04, and complete_K there, whose
2K PHI reduces by beyond that reach.
"""

import math
import random
import sys

import pytest

from dn2 import hyper
from dn2.core import Modulus, PeriodMethod, Route, dn2, periods
from dn2.hyper import complete_K
from dn2.jacobi import _ladder, jacobi_complex, jacobi_real
from dn2.kernel import DomainError

KAPPAS = [0.3, 0.6, 0.9]
SCALE = 1.0 + 1e-9


def _sweep():
    """Both orders of Modulus(kappa).(m, m1) from kappa = 2**-510 to
    1 - 2**-53, seeded raw pairs (m, 1 - m), m = 0, and m = 1 with the
    smallest complements, where the ladder is longest."""
    rng = random.Random("ladder sweep")
    kappas = [2.0**-e for e in range(1, 511)] + [1.0 - 2.0**-e for e in range(2, 54)]
    kappas += [rng.random() for _ in range(5000)]
    kappas += [math.exp(-rng.uniform(0.0, 350.0)) for _ in range(5000)]
    pairs = [(0.0, 1.0), (1.0, 5e-324), (1.0, 2.0**-1022)]
    for kappa in kappas:
        mod = Modulus(kappa)
        pairs += [(mod.m, mod.m1), (mod.m1, mod.m)]
    for _ in range(2000):
        m = rng.random()
        pairs.append((m, 1.0 - m))
    return pairs


def test_ladder_period_is_four_complete_k_bit_for_bit():
    pairs = _sweep()
    assert len(pairs) > 23000
    bad = [(m, mc) for m, mc in pairs if _ladder(m, mc)[0] != 4.0 * complete_K(m, mc)]
    assert bad == []
    # within the ladder's cap of 16 rungs
    assert max(len(_ladder(m, mc)[2]) for m, mc in pairs) <= 12


def _points(mod):
    """Seeded real x past one period and complex z off the poles, fixed
    before any kernel is perturbed."""
    rng = random.Random(f"independence:{mod.kappa}")
    p = periods(mod)
    xs = [rng.uniform(1.0, 5.0) * 2.0 * p.K for _ in range(20)]
    zs = [complex(rng.uniform(-6.0, 6.0) * p.K, rng.uniform(0.1, 0.9) * p.Kprime)
          for _ in range(20)]
    return xs, zs


def _values(kappa, xs, zs):
    """Each route's values and each period method's pair, keyed by name."""
    mod = Modulus(kappa)  # fresh: Modulus caches the table of f that PHI reads
    return {
        "sn": [dn2(v, mod, Route.SN) for v in xs + zs],
        "wp": [dn2(v, mod, Route.WP) for v in xs + zs],
        "phi": [dn2(x, mod, Route.PHI) for x in xs],
        **{method.value: periods(mod, method) for method in PeriodMethod},
    }


# complete_K reads hyper.agm when it runs, so scaling both at once would
# cancel in K: each is scaled on its own, in every dn2 module that binds it.
# It moves ELLIPTIC alone: SN, WP and PHI keep every bit, where PHI moved
# while it reduced by ELLIPTIC's 2K
@pytest.mark.parametrize("kernel", ["complete_K", "agm"])
@pytest.mark.parametrize("kappa", KAPPAS)
def test_sn_and_wp_do_not_run_hypers_agm(monkeypatch, kernel, kappa):
    xs, zs = _points(Modulus(kappa))
    before = _values(kappa, xs, zs)
    original = getattr(hyper, kernel)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dn2"]:
        if getattr(module, kernel, None) is original:
            monkeypatch.setattr(module, kernel, lambda a, b: SCALE * original(a, b))
    try:
        after = _values(kappa, xs, zs)
    finally:
        monkeypatch.undo()
    assert sorted(key for key in before if after[key] != before[key]) == ["elliptic"]


@pytest.mark.parametrize("m, mc", [(1.0, 0.0), (-0.1, 1.1), (0.5, 0.6)])
def test_bad_pair_is_refused_by_the_ladder(m, mc):
    # the ladder that jacobi_real and jacobi_complex build on each call
    with pytest.raises(DomainError, match="jacobi_real"):
        _ladder(m, mc)
    with pytest.raises(DomainError, match="jacobi_real"):
        jacobi_real(0.5, m, mc)
    with pytest.raises(DomainError, match="jacobi_real"):
        jacobi_complex(complex(0.5, 0.5), m, mc)


def _scaled(value):
    if isinstance(value, tuple):  # integrate's and trapezoid's QuadResult
        return value._replace(value=SCALE * value.value)
    return SCALE * value


# kernel, the dn2 modules whose binding of it is scaled, and the one route
# or period method that runs it at these moduli, or None for none.
# jacobi._ascent and jacobi._addition are left out: SN and WP share them.
# INTEGRAL's integrand writes f14_34_12_closed out, as PHI's does, so core's
# binding, which bench/tracing.py counts, moves nothing.  Inside the reach of
# the table of f, PHI takes f from Gauss-Legendre steps and no longer
# integrates by tanh-sinh, so integrate runs for nothing here, and it
# reduces by the table's 2K, so core's complete_K runs for ELLIPTIC alone
KERNELS = [
    ("complete_K", ["core"], "elliptic"),
    ("gauss_2f1", ["core", "hyper"], "hyper"),
    ("gauss_legendre", ["core"], "phi"),
    ("integrate", ["core"], None),
    ("newton_invert", ["core"], "phi"),
    ("trapezoid", ["core"], "integral"),
    ("f14_34_12_closed", ["core"], None),
]


def _moved(monkeypatch, kernel, modules, kappa):
    """The routes and period methods whose values move when the dn2
    modules' bindings of kernel are scaled by SCALE."""
    xs, zs = _points(Modulus(kappa))
    before = _values(kappa, xs, zs)
    for name in modules:
        module = sys.modules[f"dn2.{name}"]
        original = getattr(module, kernel)
        monkeypatch.setattr(module, kernel,
                            lambda *a, _f=original: _scaled(_f(*a)))
    try:
        after = _values(kappa, xs, zs)
    finally:
        monkeypatch.undo()
    return sorted(key for key in before if after[key] != before[key])


@pytest.mark.parametrize("kernel, modules, owner", KERNELS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_each_kernel_moves_one_route_or_method(monkeypatch, kernel, modules, owner, kappa):
    assert _moved(monkeypatch, kernel, modules, kappa) == ([owner] if owner else [])


# at moduli where cot gamma < 0.04 for K' or for K, below about 0.03997
# and above 0.99920, INTEGRAL sums the peak of its integrand by integrate:
# there, at 0.03 and 0.9995, integrate moves INTEGRAL.  At 0.05 and 0.999
# INTEGRAL runs the trapezoid rule for both periods, and integrate moves
# nothing at 0.05.  Beyond the table's reach, at 0.999 and 0.9995, PHI
# integrates f' by tanh-sinh, runs no Gauss-Legendre step and reduces by
# ELLIPTIC's 2K, so integrate and complete_K move PHI too; every other
# kernel still moves its owner alone
END_KAPPAS = [0.03, 0.05, 0.999, 0.9995]
END_OWNERS = {
    ("complete_K", 0.999): ["elliptic", "phi"],
    ("complete_K", 0.9995): ["elliptic", "phi"],
    ("integrate", 0.03): ["integral"],
    ("integrate", 0.999): ["phi"],
    ("integrate", 0.9995): ["integral", "phi"],
    ("gauss_legendre", 0.999): [],
    ("gauss_legendre", 0.9995): [],
}


@pytest.mark.parametrize("kernel, modules, owner", KERNELS)
@pytest.mark.parametrize("kappa", END_KAPPAS)
def test_each_kernel_at_the_ends_of_the_modulus_range(monkeypatch, kernel, modules, owner, kappa):
    expected = END_OWNERS.get((kernel, kappa), [owner] if owner else [])
    assert _moved(monkeypatch, kernel, modules, kappa) == expected
