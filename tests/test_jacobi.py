import cmath
import functools
import math
import random

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dn2.core import Modulus
from dn2.hyper import complete_K
from dn2.jacobi import JacobiTriple, PoleError, jacobi_complex, jacobi_real
from dn2.kernel import DomainError

# mpmath.ellipfun at dps=50
REF_SN_08_05 = 0.69093485086643876128
REF_CN_08_05 = 0.72291702971929775126
REF_DN_08_05 = 0.8725276591198046451
REF_SN_Z = complex(0.32516204665318884479, 0.3890802934203017228)
REF_CN_Z = complex(1.0299234867600685195, -0.12283839153814864954)
REF_DN_Z = complex(1.0075291612129409735, -0.037670615221298739735)


def rk_triple(x, m):
    """Jacobi triple by high-resolution integration of the coupled ODE system
    sn' = cn dn, cn' = -sn dn, dn' = -m sn cn."""

    def rhs(t, y):
        s, c, d = y
        return [c * d, -s * d, -m * s * c]

    sol = solve_ivp(rhs, (0.0, x), [0.0, 1.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-13, dense_output=True)
    return sol.y[:, -1]


class TestReal:
    def test_at_zero(self):
        j = jacobi_real(0.0, 0.3, 0.7)
        assert (j.sn, j.cn, j.dn) == (0.0, 1.0, 1.0)

    def test_quarter_period(self):
        for m in [0.1, 0.3, 0.5, 0.7, 0.9]:
            j = jacobi_real(complete_K(m, 1.0 - m), m, 1.0 - m)
            assert abs(j.sn - 1.0) <= 1e-12, m

    def test_vs_ode_oracle(self):
        s, c, d = rk_triple(0.8, 0.5)
        j = jacobi_real(0.8, 0.5, 0.5)
        assert abs(j.sn - s) <= 1e-10
        assert abs(j.cn - c) <= 1e-10
        assert abs(j.dn - d) <= 1e-10

    def test_reference_values(self):
        j = jacobi_real(0.8, 0.5, 0.5)
        assert abs(j.sn - REF_SN_08_05) <= 1e-13
        assert abs(j.cn - REF_CN_08_05) <= 1e-13
        assert abs(j.dn - REF_DN_08_05) <= 1e-13

    def test_identities_on_grid(self):
        for m in [0.1, 0.5, 0.9]:
            for x in np.linspace(-6.0, 6.0, 25):
                j = jacobi_real(float(x), m, 1.0 - m)
                assert abs(j.sn**2 + j.cn**2 - 1.0) <= 1e-12
                assert abs(j.dn**2 + m * j.sn**2 - 1.0) <= 1e-12

    def test_periodicity(self):
        for m in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            K4 = 4.0 * complete_K(m, 1.0 - m)
            for x in np.linspace(0.0, 3.0, 7):
                a = jacobi_real(float(x), m, 1.0 - m)
                b = jacobi_real(float(x) + K4, m, 1.0 - m)
                assert abs(a.sn - b.sn) <= 1e-11, m

    def test_trigonometric_limit(self):
        j = jacobi_real(0.7, 0.0, 1.0)
        assert abs(j.sn - math.sin(0.7)) <= 1e-15
        assert abs(j.cn - math.cos(0.7)) <= 1e-15
        assert j.dn == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi_real(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            jacobi_real(0.5, -0.1, 1.1)
        with pytest.raises(DomainError):
            jacobi_real(0.5, 0.5, 0.6)  # not a complement pair
        with pytest.raises(DomainError):
            jacobi_complex(complex(0.5, 0.5), 0.5, 0.6)

    @pytest.mark.parametrize("x", [1e300, -1e300, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("m", [0.0, 0.5])
    def test_unreducible_argument(self, x, m):
        # fewer than 8 digits of x would survive reduction modulo 4K(m)
        with pytest.raises(DomainError):
            jacobi_real(x, m, 1.0 - m)

    def test_reduction_limit_edge(self):
        # 4K(0.5) = 7.42, so ulp(x) may reach 2**-24 and |x| stays below 2**29
        edge = math.nextafter(2.0**29, 0.0)
        j = jacobi_real(edge, 0.5, 0.5)
        assert abs(j.sn**2 + j.cn**2 - 1.0) <= 1e-12
        with pytest.raises(DomainError):
            jacobi_real(2.0**29, 0.5, 0.5)
        with pytest.raises(DomainError):
            jacobi_complex(complex(0.3, math.inf), 0.5, 0.5)


class TestComplex:
    def test_real_axis_agrees_exactly(self):
        for x in [0.2, 0.8, 1.7]:
            jr = jacobi_real(x, 0.4, 0.6)
            jc = jacobi_complex(complex(x, 0.0), 0.4, 0.6)
            assert jc.sn == complex(jr.sn, 0.0)
            assert jc.cn == complex(jr.cn, 0.0)
            assert jc.dn == complex(jr.dn, 0.0)

    def test_imaginary_transformation(self):
        m = 0.3
        y = 0.6
        jc = jacobi_complex(complex(0.0, y), m, 1.0 - m)
        jp = jacobi_real(y, 1.0 - m, m)
        assert abs(jc.sn - 1j * jp.sn / jp.cn) <= 1e-13

    def test_identities_at_complex_point(self):
        j = jacobi_complex(complex(0.3, 0.4), 0.3, 0.7)
        assert abs(j.sn**2 + j.cn**2 - 1.0) <= 1e-11
        assert abs(j.dn**2 + 0.3 * j.sn**2 - 1.0) <= 1e-11

    def test_reference_values(self):
        j = jacobi_complex(complex(0.3, 0.4), 0.3, 0.7)
        assert abs(j.sn - REF_SN_Z) <= 1e-13
        assert abs(j.cn - REF_CN_Z) <= 1e-13
        assert abs(j.dn - REF_DN_Z) <= 1e-13

    def test_pole_signalled(self):
        m = 0.5
        Kp = complete_K(1.0 - m, m)
        with pytest.raises(PoleError):
            jacobi_complex(complex(0.0, Kp), m, 1.0 - m)

    def test_trigonometric_limit(self):
        z = complex(0.4, 0.2)
        j = jacobi_complex(z, 0.0, 1.0)
        assert abs(j.sn - cmath.sin(z)) <= 1e-14
        assert abs(j.cn - cmath.cos(z)) <= 1e-14
        assert abs(j.dn - 1.0) <= 1e-14

    @pytest.mark.parametrize("y", [711.0, -711.0, 1e5, math.inf, math.nan])
    def test_trigonometric_limit_beyond_double_range_is_a_domain_error(self, y):
        # cmath.sin raised an untyped OverflowError from |Im z| of about 710
        # on, and returned inf or nan for an Im z that is not finite
        with pytest.raises(DomainError):
            jacobi_complex(complex(0.3, y), 0.0, 1.0)
        for x in (0.3, 1.5, 3.0):
            j = jacobi_complex(complex(x, -710.0), 0.0, 1.0)  # still finite
            assert cmath.isfinite(j.sn) and cmath.isfinite(j.cn)

    def test_complement_rounding_to_one(self):
        # 1 - m rounds to 1 for m = 2**-54: the imaginary part runs at the
        # pair (1.0, m), whose Landen ladder is seeded from m itself
        import mpmath

        mpmath.mp.dps = 40
        m = 2.0**-54
        for z in (complex(0.4, 0.7), complex(-1.3, 2.5)):
            j = jacobi_complex(z, m, 1.0)
            for name, got in zip(("sn", "cn", "dn"), j):
                ref = complex(mpmath.ellipfun(name, mpmath.mpc(z), m=mpmath.mpf(m)))
                assert abs(got - ref) <= 1e-14 * abs(ref), (z, name)
        with pytest.raises(DomainError):
            jacobi_complex(complex(0.3, math.inf), m, 1.0)
        with pytest.raises(DomainError):
            jacobi_complex(complex(0.3, math.nan), m, 1.0)


def _outcome(fn, z, m, mc):
    """The sn as hex, or the error's type and message."""
    try:
        v = fn(z, m, mc)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    v = v if type(v) is complex else v.sn
    return v.real.hex(), v.imag.hex()


def _split_sn(z, m, mc):
    """sn(z) by DLMF 22.8 from jacobi_real's triples of Re z at (m, mc) and
    Im z at (mc, m), and sin z at m = 0, as the addition split writes it."""
    if m == 0.0:
        return cmath.sin(z)
    s, c, d = jacobi_real(z.real, m, mc)
    s1, c1, d1 = jacobi_real(z.imag, mc, m)
    return complex(s * d1, c * d * s1 * c1) / (c1 * c1 + m * s * s * s1 * s1)


def _pairs():
    # (m, m1) of Modulus(kappa) from kappa = 1e-12 to 1 - 1e-12
    kappas = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.6, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12]
    return [(Modulus(k).m, Modulus(k).m1) for k in kappas]


class TestSnComplex:
    """The sn of jacobi_complex: the addition split of two real triples, and
    the typed errors of its pole, its 710 rule and its reduction limit."""

    @pytest.mark.parametrize("m, mc", _pairs() + [(0.0, 1.0)])
    def test_sn_of_jacobi_complex_bit_for_bit(self, m, mc):
        K = complete_K(m, mc)
        # at m = 0 the imaginary period is infinite: the box stops at 700
        Kp = complete_K(mc, m) if m > 0.0 else 350.0
        rng = random.Random(f"sn_complex:{m}")
        zs = [complex(rng.uniform(-2.0, 2.0) * K, rng.uniform(-2.0, 2.0) * Kp) for _ in range(200)]
        values = 0
        for z in zs + [complex(0.0, Kp), complex(K, Kp), complex(0.3, 0.0), complex(-0.0, 0.4)]:
            got = _outcome(jacobi_complex, z, m, mc)
            if type(got[0]) is str:
                assert got == _outcome(_split_sn, z, m, mc), z
                values += 1
        assert values >= 200

    @pytest.mark.parametrize("m, mc", _pairs())
    def test_pole_error(self, m, mc):
        K, Kp = complete_K(m, mc), complete_K(mc, m)
        for z in (complex(0.0, Kp), complex(2.0 * K, Kp), complex(1e-8, Kp * (1.0 - 1e-9))):
            got = _outcome(jacobi_complex, z, m, mc)
            assert got[0] is PoleError and got[1].startswith("jacobi functions at a pole"), z

    @pytest.mark.parametrize("y", [711.0, -711.0, 1e5, math.inf, math.nan])
    def test_domain_error_beyond_710_at_m_zero(self, y):
        got = _outcome(jacobi_complex, complex(0.3, y), 0.0, 1.0)
        assert got[0] is DomainError and got[1].startswith("|Im z| must be at most 710")

    @pytest.mark.parametrize("m, mc", [(0.0, 1.0), (0.5, 0.5)] + _pairs()[::5])
    @pytest.mark.parametrize("x", [1e300, -math.inf, math.nan])
    def test_domain_error_beyond_the_reduction_limit(self, m, mc, x):
        # the real part is checked first: at m = 0 before the 710 rule
        for y in (0.3, 800.0):
            got = _outcome(jacobi_complex, complex(x, y), m, mc)
            assert got[0] is DomainError and got[1].startswith("jacobi_real argument"), (x, y)

    def test_every_path_returns_a_jacobi_triple(self):
        # m = 0, a tiny argument, the Landen ascent, and the complex split
        # at m = 0 and m > 0: the repr and hash of a triple built by its
        # constructor
        triples = (
            jacobi_real(0.8, 0.0, 1.0), jacobi_real(1e-200, 0.5, 0.5), jacobi_real(0.8, 0.5, 0.5),
            jacobi_complex(complex(0.4, 0.3), 0.0, 1.0), jacobi_complex(complex(0.4, 0.3), 0.5, 0.5),
        )
        for t in triples:
            ref = JacobiTriple(*t)
            assert type(t) is JacobiTriple
            assert repr(t) == repr(ref) and hash(t) == hash(ref) and t == ref
            assert (t.sn, t.cn, t.dn) == tuple(t)


# x = +-10**-k for k = 1..323 and the smallest subnormal; below about 1e-154
# the Landen ascent in jacobi_real used to overflow and return nan
TINY = [s * x for x in [10.0**-k for k in range(1, 324)] + [5e-324] for s in (1.0, -1.0)]


@functools.lru_cache(maxsize=None)
def _mp_triple_abs(x, m):
    import mpmath

    with mpmath.workdps(30):
        sn = mpmath.ellipfun("sn", x, m=m)
        return sn, mpmath.sqrt(1 - sn**2), mpmath.sqrt(1 - m * sn**2)


def mp_triple(x, m):
    # sn from mpmath at 30 digits; cn and dn from sn^2 + cn^2 = 1 and
    # dn^2 + m sn^2 = 1, both positive for |x| < K(m); sn is odd, cn and dn
    # even, and the cache shares values between a parameter and its
    # complement
    sn, cn, dn = _mp_triple_abs(abs(x), m)
    return (-sn if x < 0 else sn), cn, dn


def close(got, ref, rel):
    # relative, or within two units of the smallest subnormal
    return abs(got - ref) <= rel * abs(ref) + 1e-323


class TestTinyArguments:
    @pytest.mark.parametrize("m", [0.25, 0.75])
    def test_real_part_against_mpmath(self, m):
        import mpmath

        with mpmath.workdps(30):
            for x in TINY:
                for name, got, ref in zip("scd", jacobi_real(x, m, 1.0 - m), mp_triple(x, m)):
                    assert close(got, float(ref), 1e-15), (x, name, got)

    @pytest.mark.parametrize("m", [0.25, 0.75])
    def test_imaginary_part_against_mpmath(self, m):
        # mpmath's complex ellipfun carries an absolute error near 10**-dps
        # in the imaginary part, so the reference is the addition formula
        # on mpmath's real values
        import mpmath

        with mpmath.workdps(30):
            s, c, d = mp_triple(0.3, m)
            for y in TINY:
                s1, c1, d1 = mp_triple(y, 1 - m)
                den = c1**2 + m * s**2 * s1**2
                refs = (
                    mpmath.mpc(s * d1, c * d * s1 * c1) / den,
                    mpmath.mpc(c * c1, -s * d * s1 * d1) / den,
                    mpmath.mpc(d * c1 * d1, -m * s * c * s1) / den,
                )
                for name, got, ref in zip("scd", jacobi_complex(complex(0.3, y), m, 1.0 - m), refs):
                    ref = complex(ref)
                    assert close(got.real, ref.real, 1e-15), (y, name, got)
                    assert close(got.imag, ref.imag, 1e-14), (y, name, got)
