"""Independent checks of every output against mpmath at 32 digits.

Imported only after the timed loop, so mpmath counts neither towards set-up
time nor towards the program's peak RSS.  References are built from the
modulus kappa exactly as given, not from the program's derived doubles:

- dn2(z) = 1 - (1 - lam) sn^2(z c | m), m = (1-lam)/(1+lam), c = sqrt((1+lam)/2),
  with sn from ``mpmath.ellipfun`` (the paper's sn formula);
- K = pi/2 F(1/4,3/4;1;kappa^2) and K' = sqrt(2) pi/2 F(1/4,3/4;1;lam^2) by
  ``mpmath.hyp2f1``, and the same pair by ``mpmath.ellipk``;
- f(T) and I(gamma) by ``mpmath.quad``.

An error is |value - ref| / max(|ref|, 1); a value passes within TOL.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath as mp

from harness import Raised

mp.mp.dps = 32
TOL = 1e-11  # a 1e-9 relative error fails by two orders of magnitude
DIGITS_CAP = 17.0
# I(gamma) by mpmath.quad costs about 80 ms; this many moduli of each moduli
# round are also checked that way, the rest against hyp2f1 and ellipk only
QUAD_MODULI = 4


class Check:
    """Errors collected for one operation."""

    def __init__(self):
        self.worst = 0.0
        self.reasons: list[str] = []

    def close(self, label: str, value, ref) -> None:
        if isinstance(value, Raised) or value is None or isinstance(value, str):
            self.fail(f"{label}: no value ({value!r})")
            return
        err = float(abs(mp.mpmathify(value) - ref) / max(abs(ref), 1))
        if not err <= TOL:
            self.reasons.append(f"{label}: error {err:.3g} > {TOL:g}")
        self.worst = max(self.worst, err) if err == err else math.inf

    def true(self, label: str, cond: bool) -> None:
        if not cond:
            self.fail(label)

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)
        self.worst = math.inf

    @property
    def ok(self) -> bool:
        return not self.reasons

    @property
    def digits(self) -> float:
        if self.worst == 0.0:
            return DIGITS_CAP
        return min(DIGITS_CAP, -math.log10(self.worst))


@dataclass(frozen=True)
class Ref:
    kappa: object
    lam: object
    m: object
    c: object
    K: object
    Kp: object


@lru_cache(maxsize=None)
def ref(kappa: float) -> Ref:
    k = mp.mpf(kappa)
    lam = mp.sqrt((1 - k) * (1 + k))
    half_pi = mp.pi / 2
    K = half_pi * hyp(0.25, 0.75, 1, k * k)
    Kp = mp.sqrt(2) * half_pi * hyp(0.25, 0.75, 1, (1 - k) * (1 + k))
    return Ref(k, lam, (1 - lam) / (1 + lam), mp.sqrt((1 + lam) / 2), K, Kp)


@lru_cache(maxsize=None)
def hyp(a, b, c, x):
    return mp.hyp2f1(a, b, c, x)


def dn2_ref(z, r: Ref):
    arg = (mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)) * r.c
    sn = mp.ellipfun("sn", arg, m=r.m)
    return 1 - (1 - r.lam) * sn * sn


def s2_ref(x: float, r: Ref):
    # kappa^2 s2^2 = 1 - dn2^2 = (1-lam) sn^2 (1+dn2); s2 has the sign of sn
    sn = mp.ellipfun("sn", mp.mpf(x) * r.c, m=r.m)
    dn2 = 1 - (1 - r.lam) * sn * sn
    return sn * mp.sqrt((1 - r.lam) * (1 + dn2)) / r.kappa


def f_ref(t: float, r: Ref):
    """f(T) by quadrature of F(1/4,3/4;1/2;kappa^2 sin^2) in closed form,
    reduced with f(T + pi) = f(T) + 2K."""
    t = mp.mpf(t)
    n = mp.floor(t / mp.pi)
    tr = t - n * mp.pi

    def integrand(s):
        psi = mp.asin(r.kappa * mp.sin(s))
        return mp.cos(psi / 2) / mp.cos(psi)

    return 2 * n * r.K + mp.quad(integrand, [0, tr])


def i_gamma_ref(gamma):
    def integrand(u):
        return mp.cos((gamma - u) / 2) / mp.sqrt(mp.sin(u) * mp.sin(2 * gamma - u))

    return mp.quad(integrand, [0, gamma])


# ------------------------------------------------------------ library ops


def _check_dn2(chk: Check, z, out, r: Ref, meta) -> None:
    chk.close(f"dn2({z})", out, dn2_ref(z, r))
    expect = (meta or {}).get("expect")
    if expect == "lam":
        chk.close("dn2(K) = lam", out, r.lam)
    elif expect == "-lam":
        chk.close("dn2(K + iK') = -lam", out, -r.lam)


def _check_modulus(chk: Check, args, out, quad: bool) -> None:
    kappa, _points = args
    r = ref(kappa)
    per, lat, lat2, half, ids, rel, vals = out
    ellip_pref = mp.sqrt(2 / (1 + r.lam))
    K_ellipk = ellip_pref * mp.ellipk(r.m)
    Kp_ellipk = ellip_pref * mp.ellipk(2 * r.lam / (1 + r.lam))
    chk.close("oracle: ellipk K vs hyp2f1 K", K_ellipk, r.K)
    chk.close("oracle: ellipk K' vs hyp2f1 K'", Kp_ellipk, r.Kp)
    elliptic, hyper, integral = per
    chk.close("ELLIPTIC K", elliptic.K, K_ellipk)
    chk.close("ELLIPTIC K'", elliptic.Kprime, Kp_ellipk)
    chk.close("HYPER K", hyper.K, r.K)
    chk.close("HYPER K'", hyper.Kprime, r.Kp)
    chk.close("INTEGRAL K", integral.K, r.K)
    chk.close("INTEGRAL K'", integral.Kprime, r.Kp)
    if quad:
        alpha, beta = mp.acos(r.kappa), mp.acos(r.lam)
        chk.close("INTEGRAL K vs quad I(beta)", integral.K, i_gamma_ref(beta))
        chk.close("INTEGRAL K' vs quad I(alpha)", integral.Kprime, mp.sqrt(2) * i_gamma_ref(alpha))

    k2 = r.kappa**2
    g2, g3 = mp.mpf(4) / 3 - k2, mp.mpf(8) / 27 - k2 / 3
    roots = (mp.mpf(1) / 6 + r.lam / 2, mp.mpf(1) / 6 - r.lam / 2, -mp.mpf(1) / 3)
    _check_lattice(chk, "invariants_of", lat, g2, g3, roots)
    chk.close("invariants_of m", lat.m, r.m)
    chk.close("invariants_of scale", lat.scale, r.c)
    # lattice_from_invariants and wp_halfperiods are checked against the roots
    # of the cubic with the invariants they were given, so that the rounding
    # of g2 and g3 to doubles is not charged to them
    g2d, g3d = mp.mpf(lat.g2), mp.mpf(lat.g3)
    e1, e2, e3 = sorted((mp.re(w) for w in mp.polyroots([4, 0, -g2d, -g3d], maxsteps=200,
                                                         extraprec=60)), reverse=True)
    m, scale = (e2 - e3) / (e1 - e3), mp.sqrt(e1 - e3)
    _check_lattice(chk, "lattice_from_invariants", lat2, g2d, g3d, (e1, e2, e3))
    chk.close("lattice_from_invariants m", lat2.m, m)
    chk.close("lattice_from_invariants scale", lat2.scale, scale)
    chk.close("wp_halfperiods K", half.K, mp.ellipk(m) / scale)
    chk.close("wp_halfperiods K'", half.Kprime, mp.ellipk(1 - m) / scale)
    chk.close("wp_halfperiods K = dn2's K", half.K, r.K)
    chk.close("wp_halfperiods K' = dn2's K'", half.Kprime, r.Kp)

    bbg91, bbg92, sig4 = ids
    for rep, lhs, rhs in (
        (bbg91, *_bbg91_refs(bbg91.parameter)),
        (bbg92, *_bbg92_refs(bbg92.parameter)),
        (sig4, *_sig4_refs(sig4.parameter)),
    ):
        _check_report(chk, "identity", rep, lhs, rhs)
    for rep, lhs in zip(rel, _relation_lhs(kappa)):
        _check_report(chk, "period relation", rep, lhs, None)
    for z, route, v in vals:
        chk.close(f"dn2 {route}({z})", v, dn2_ref(z, r))


def _check_lattice(chk: Check, name: str, lat, g2, g3, roots) -> None:
    chk.close(f"{name} g2", lat.g2, g2)
    chk.close(f"{name} g3", lat.g3, g3)
    chk.close(f"{name} delta", lat.delta, g2**3 - 27 * g3**2)
    for label, v, e in zip(("e1", "e2", "e3"), (lat.e1, lat.e2, lat.e3), roots):
        chk.close(f"{name} {label}", v, e)


def _bbg91_refs(lam: float):
    l = mp.mpf(lam)
    lhs = hyp(0.25, 0.75, 1, l * l)
    return lhs, mp.sqrt(1 / (1 + l)) * 2 / mp.pi * mp.ellipk(2 * l / (1 + l))


def _bbg92_refs(lam: float):
    l = mp.mpf(lam)
    lhs = hyp(0.25, 0.75, 1, (1 - l) * (1 + l))
    return lhs, mp.sqrt(2 / (1 + l)) * 2 / mp.pi * mp.ellipk((1 - l) / (1 + l))


def _sig4_refs(x: float):
    x = mp.mpf(x)
    y = (1 - x) / (1 + 3 * x)
    return mp.sqrt(1 + 3 * x) * hyp(0.25, 0.75, 1, x * x), hyp(0.25, 0.75, 1, (1 - y) * (1 + y))


def _relation_lhs(kappa: float):
    # period_relations pairs kappa with the modulus lam, as a double
    pk = ref(kappa)
    pl = ref(float(math.sqrt(1.0 - kappa**2)))
    return (pk.Kp, pl.Kp, pk.K * pk.Kp, (pk.Kp / pk.K) * (pl.Kp / pl.K))


def _check_report(chk: Check, label: str, rep, lhs, rhs) -> None:
    chk.true(f"{label} at {rep.parameter}: residual {rep.residual:.3g} > tol", rep.passed)
    chk.true(f"{label}: residual is not lhs - rhs", rep.residual == rep.lhs - rep.rhs)
    chk.close(f"{label} lhs", rep.lhs, lhs)
    if rhs is not None:
        chk.close(f"{label} rhs", rep.rhs, rhs)


def _check_real_line(ops, outs, checks) -> None:
    by_point: dict[tuple, dict] = {}
    for i, ((kind, (x, mod), meta), out) in enumerate(zip(ops, outs)):
        r = ref(mod.kappa)
        chk = checks[i]
        if kind == "dn2_phi":
            _check_dn2(chk, x, out, r, meta)
        elif kind == "s2":
            chk.close(f"s2({x})", out, s2_ref(x, r))
        elif kind == "phi":
            if not isinstance(out, Raised):
                chk.close(f"f(phi({x})) = x", x, f_ref(out, r))
        elif not isinstance(out, Raised):
            chk.close(f"f({x})", out, f_ref(x, r))
        if kind != "f":
            by_point.setdefault((mod.kappa, x), {})[kind] = (i, out)
    for (kappa, x), got in by_point.items():
        if len(got) < 3 or any(isinstance(v, Raised) for _i, v in got.values()):
            continue
        (i_d, d), (i_s, s), (i_p, p) = got["dn2_phi"], got["s2"], got["phi"]
        for i in (i_d, i_s, i_p):
            checks[i].close(f"dn2^2 + kappa^2 s2^2 = 1 at {x}", d * d + kappa**2 * s * s, 1)
            checks[i].close(f"s2 = sin(phi) at {x}", s, mp.sin(p))


# --------------------------------------------------------------- CLI ops


def parse_output(argv, text: str) -> list[dict]:
    fmt = argv[argv.index("--format") + 1]
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return [dict(row) for row in csv.DictReader(io.StringIO(text))]


def _num(v):
    if isinstance(v, (int, float)):
        return float(v)
    if v == "pole":
        return v
    return float(v)


def _flag(v) -> bool:
    return v is True or str(v).lower() == "true"


def _arg(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_command(chk: Check, argv, out) -> None:
    if isinstance(out, Raised):
        chk.fail(f"command raised {out.error}")
        return
    code, text = out
    chk.true(f"exit code {code}", code == 0)
    try:
        rows = parse_output(argv, text)
    except (ValueError, KeyError) as exc:
        chk.fail(f"unparsable output: {exc}")
        return
    chk.true("no output rows", bool(rows))
    cmd = next(a for a in argv if a in ("eval", "periods", "lattice", "identities", "sample"))
    if cmd != "identities":
        r = ref(float(_arg(argv, "--kappa")))
    if cmd == "eval":
        _check_eval(chk, argv, rows[0], r)
    elif cmd == "periods":
        row = rows[0]
        for meth in ("elliptic", "hyper", "integral"):
            chk.close(f"K_{meth}", _num(row[f"K_{meth}"]), r.K)
            chk.close(f"Kprime_{meth}", _num(row[f"Kprime_{meth}"]), r.Kp)
            chk.close(f"ratio_{meth}", _num(row[f"ratio_{meth}"]), r.Kp / r.K)
        chk.close("delta_K_max", _num(row["delta_K_max"]), 0)
        chk.close("delta_Kprime_max", _num(row["delta_Kprime_max"]), 0)
    elif cmd == "lattice":
        row = rows[0]
        k2 = r.kappa**2
        g2, g3 = mp.mpf(4) / 3 - k2, mp.mpf(8) / 27 - k2 / 3
        expect = {
            "g2": g2, "g3": g3, "delta": g2**3 - 27 * g3**2,
            "e1": mp.mpf(1) / 6 + r.lam / 2, "e2": mp.mpf(1) / 6 - r.lam / 2,
            "e3": -mp.mpf(1) / 3, "k2": r.m, "K": r.K, "Kprime": r.Kp,
        }
        for key, value in expect.items():
            chk.close(key, _num(row[key]), value)
    elif cmd == "identities":
        _check_identities(chk, rows)
    else:
        _check_sample(chk, argv, rows, r)


def _check_eval(chk: Check, argv, row, r: Ref) -> None:
    z_text = _arg(argv, "--z")
    z = complex(_num(row["z_re"]), _num(row["z_im"]))
    symbolic = {"K": r.K, "K+iK'": mp.mpc(r.K, r.Kp), "K/2+iK'/3": mp.mpc(r.K / 2, r.Kp / 3)}
    if z_text in symbolic:
        chk.close(f"z = {z_text}", z, symbolic[z_text])
    zarg = z.real if z.imag == 0.0 else z
    ref_val = dn2_ref(zarg, r)
    values = {k: v for k, v in row.items() if k.startswith("dn2_") and k.endswith("_re")}
    for key in values:
        re_v, im_v = _num(row[key]), _num(row[key[:-3] + "_im"])
        if "pole" in (re_v, im_v):
            chk.fail(f"{key[:-3]} reported a pole at {z}")
            continue
        v = complex(re_v, im_v)
        chk.close(key[:-3], v, ref_val)
        if z_text == "K":
            chk.close(f"{key[:-3]}(K) = lam", v, r.lam)
        elif z_text == "K+iK'":
            chk.close(f"{key[:-3]}(K + iK') = -lam", v, -r.lam)
    chk.true("no dn2 value", bool(values))
    if "delta_max" in row:
        chk.close("delta_max", _num(row["delta_max"]), 0)
    if z.imag == 0.0:
        x = z.real
        chk.close("s2", _num(row["s2"]), s2_ref(x, r))
        chk.close("f(phi) = z", x, f_ref(_num(row["phi"]), r))


def _check_identities(chk: Check, rows) -> None:
    refs = {
        "bbg_91": _bbg91_refs,
        "bbg_92": _bbg92_refs,
        "transform_sig4": _sig4_refs,
    }
    labels = (
        "kappa_prime_vs_sqrt2_lambda",
        "lambda_prime_vs_sqrt2_kappa",
        "area_product",
        "ratio_product",
    )
    for row in rows:
        name = row["identity"].removeprefix("worst:")
        p = _num(row["parameter"])
        lhs, rhs, residual = _num(row["lhs"]), _num(row["rhs"]), _num(row["residual"])
        chk.true(f"{name} at {p} did not pass", _flag(row["passed"]))
        chk.true(f"{name}: residual is not lhs - rhs", residual == lhs - rhs)
        if name in refs:
            lref, rref = refs[name](p)
            chk.close(f"{name} lhs at {p}", lhs, lref)
            chk.close(f"{name} rhs at {p}", rhs, rref)
        else:
            label = name.removeprefix("period_")
            chk.close(f"{name} lhs at {p}", lhs, _relation_lhs(p)[labels.index(label)])


def _check_sample(chk: Check, argv, rows, r: Ref) -> None:
    region = _arg(argv, "--region")
    chk.true(f"{len(rows)} rows, expected --n", len(rows) == int(_arg(argv, "--n")) ** (
        2 if region == "grid" else 1))
    for row in rows:
        z = complex(_num(row["z_re"]), _num(row["z_im"]))
        re_v, im_v = _num(row["dn2_re"]), _num(row["dn2_im"])
        if re_v == "pole":
            near = min(abs(z - complex(0, r.Kp)), abs(z - complex(2 * r.K, r.Kp)))
            chk.true(f"pole reported at {z}, {near:.3g} from the pole", near < 1e-9)
            continue
        zarg = z.real if z.imag == 0.0 else z
        chk.close(f"sample dn2({z})", complex(re_v, im_v), dn2_ref(zarg, r))
        if region == "perimeter":
            chk.true(f"perimeter walk not decreasing at {z}", row["decreasing"] == "true")


# ------------------------------------------------------------------ entry

REAL_LINE_KINDS = ("dn2_phi", "s2", "phi", "f")


@dataclass
class Verdict:
    checks: list = field(default_factory=list)

    @property
    def failed(self) -> list[int]:
        return [i for i, c in enumerate(self.checks) if not c.ok]

    def digits_min(self) -> float:
        passing = [c.digits for c in self.checks if c.ok]
        return min(passing) if passing else 0.0


def check(ops, outs) -> Verdict:
    """Check one round's outcomes; ``outs[i]`` is the outcome of ``ops[i]``."""
    checks = [Check() for _ in ops]
    quad_left = QUAD_MODULI
    real_line = []
    for i, ((kind, args, meta), out) in enumerate(zip(ops, outs)):
        chk = checks[i]
        if isinstance(out, Raised):
            chk.fail(f"{kind}{args[:1]} raised {out.error}: {out.message}")
        if kind in REAL_LINE_KINDS:
            real_line.append(i)
        elif isinstance(out, Raised):
            continue
        elif kind in ("sn", "wp"):
            z, mod = args
            _check_dn2(chk, z, out, ref(mod.kappa), meta)
        elif kind == "modulus":
            quad = quad_left > 0 and not (meta or {}).get("fault")
            quad_left -= quad
            _check_modulus(chk, args, out, quad)
        else:
            _check_command(chk, args[0], out)
    if real_line:
        _check_real_line([ops[i] for i in real_line], [outs[i] for i in real_line],
                         [checks[i] for i in real_line])
    return Verdict(checks)
