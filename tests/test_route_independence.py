"""The SN and WP routes take their period from jacobi's own Landen ladder.

The three dn2 routes check each other only while none runs another's code
path.  The Landen ladder of jacobi is the AGM of (1, sqrt(mc)), so it gives
the real period 4K(m) itself; the SN and WP routes then read nothing of
hyper's AGM, which the ELLIPTIC periods and the PHI route's reduction by 2K
run on.  Nor do the other kernels that one route or period method runs
move any other: scaled by 1 + 1e-9, each moves its owner alone.
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
    mod = Modulus(kappa)  # fresh: Modulus caches the 2K that PHI reduces by
    return {
        "sn": [dn2(v, mod, Route.SN) for v in xs + zs],
        "wp": [dn2(v, mod, Route.WP) for v in xs + zs],
        "phi": [dn2(x, mod, Route.PHI) for x in xs],
        **{method.value: periods(mod, method) for method in PeriodMethod},
    }


# complete_K reads hyper.agm when it runs, so scaling both at once would
# cancel in K: each is scaled on its own
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
    assert after["sn"] == before["sn"] and after["wp"] == before["wp"]
    assert after["elliptic"] != before["elliptic"]
    moved = [abs(a - b) for a, b in zip(after["phi"], before["phi"])]
    assert max(moved) > 1e-11
    # the SN route did not move with PHI, so the two now disagree by about
    # PHI's induced error; had SN reduced by the same K it would follow PHI
    gap = [abs(a - b) for a, b in zip(after["phi"], after["sn"])]
    assert sum(gap) >= 0.5 * sum(moved)


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
# binding, which bench/tracing.py counts, moves nothing
KERNELS = [
    ("gauss_2f1", ["core", "hyper"], "hyper"),
    ("integrate", ["core"], "phi"),
    ("newton_invert", ["core"], "phi"),
    ("trapezoid", ["core"], "integral"),
    ("f14_34_12_closed", ["core"], None),
]


@pytest.mark.parametrize("kernel, modules, owner", KERNELS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_each_kernel_moves_one_route_or_method(monkeypatch, kernel, modules, owner, kappa):
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
    moved = sorted(key for key in before if after[key] != before[key])
    assert moved == ([owner] if owner else [])
