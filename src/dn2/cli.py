"""Command-line front end: evaluate dn2, periods, lattice data, identity
sweeps, and CSV/JSONL sampling for external plotting.

Commands build records; main alone writes them, to stdout or sample --out,
and exits 1 if an identity record has not passed, 2 on a usage error,
DomainError, ConvergenceError or OSError, and 0 otherwise.  A reader that
closes stdout early (``| head -1``) has stopped reading, which is no error.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import os
import random
import re
import sys

from . import core, identities
from .core import Modulus, PeriodMethod, Route
from .jacobi import PoleError
from .kernel import ConvergenceError, DomainError
# unused: bench/tracing.py wraps it on this module, and fails on a missing name
from .weier import wp_halfperiods  # noqa: F401


# the most records one command builds; a request for more (a tiny --step, a
# huge --n) is a DomainError, not a run that exhausts memory
MAX_RECORDS = 100_000


def _check_count(count: float, what: str) -> None:
    if not count <= MAX_RECORDS:
        raise DomainError(f"{what} would make more than {MAX_RECORDS} records")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(records, fmt: str, stream) -> None:
    if fmt == "jsonl":
        stream.writelines(json.dumps(r) + "\n" for r in records)
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(records[0].keys())
        writer.writerows([_fmt(v) for v in r.values()] for r in records)
    else:
        blocks = ("".join(f"{k} = {_fmt(v)}\n" for k, v in r.items()) for r in records)
        stream.write("\n".join(blocks))


# a number, K', K, i, an operator or a parenthesis
_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|K'|[Ki()*/+-]")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def parse_z(text: str, K: float, Kprime: float) -> complex:
    """Parse a z argument: a number like 0.3+0.4i, or symbolic K / iK' forms.

    expr := term (('+' | '-') term)*
    term := factor (('*' | '/') factor | factor)*   juxtaposition multiplies
    factor := ('+' | '-') factor | NUMBER | 'K' | "K'" | 'i' | '(' expr ')'

    A juxtaposed factor follows K, K', i or ')', or it follows a number and
    is not one itself: 2K, iK'/3 and (1+i)K, but not 1 2.  Spaces separate
    tokens and never join them: 2 K' is 2K', but 1 e5 and K ' are rejected.
    Numbers stay int or float and each operator is applied as soon as its
    right operand is parsed, so the value is what Python computes for the
    same expression.  Anything else raises DomainError at the first token
    the grammar does not admit.
    """
    symbols = {"K": K, "K'": Kprime, "i": 1j}
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek() -> str:
        return tokens[pos] if pos < len(tokens) else ""

    def take() -> str:
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("unexpected end of input")
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            op = take()
            value = _BINARY[op](value, term())
        return value

    def term():
        value = factor()
        while True:
            nxt = peek()[:1]
            if nxt in ("*", "/"):
                take()
                value = _BINARY[nxt](value, factor())
            elif nxt and (nxt in "Ki(" or nxt in "0123456789."
                          and tokens[pos - 1] in ("K", "K'", "i", ")")):
                value = _BINARY["*"](value, factor())
            else:
                return value

    def factor():
        tok = take()
        if tok in ("+", "-"):
            value = factor()
            return -value if tok == "-" else value
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return value
        if tok in symbols:
            return symbols[tok]
        if tok[0] in "0123456789.":
            return int(tok) if tok.isdigit() else float(tok)
        raise ValueError(f"unexpected {tok!r}")

    try:
        # only spaces, and whitespace at either end, may lie outside tokens
        if "".join(tokens) != text.strip().replace(" ", ""):
            raise ValueError("unexpected character")
        value = expr()
        if pos != len(tokens):
            raise ValueError(f"unexpected {tokens[pos]!r}")
        return complex(value)
    except (ValueError, ArithmeticError, RecursionError) as exc:
        raise DomainError(f"cannot parse z value {text!r}") from exc


def _dn2_fields(key: str, z: float | complex, mod: Modulus, route: Route):
    """Record fields {key_re, key_im} of dn2 at z, both "pole" at a pole,
    and the value as a complex number, or None at a pole."""
    try:
        v = complex(core.dn2(z, mod, route))
    except PoleError:
        return {f"{key}_re": "pole", f"{key}_im": "pole"}, None
    return {f"{key}_re": v.real, f"{key}_im": v.imag}, v


def cmd_eval(args) -> list[dict]:
    mod = Modulus(args.kappa)
    pp = core.periods(mod)
    z = parse_z(args.z, pp.K, pp.Kprime)
    real = z.imag == 0.0
    record = {"kappa": args.kappa, "z_re": z.real, "z_im": z.imag, "route": args.route}
    each = args.route == "all"
    routes = [r for r in Route if real or r is not Route.PHI] if each else [Route(args.route)]
    values = []
    # at a real z one solve gives the PHI route's dn2, phi and s2; off the
    # axis core.dn2 rejects the PHI route
    solved = core._phi_route(z.real, mod) if real else None
    for route in routes:
        key = f"dn2_{route.value}" if each else "dn2"
        if real and route is Route.PHI:
            v = complex(solved[0])
            fields = {f"{key}_re": v.real, f"{key}_im": v.imag}
        else:
            fields, v = _dn2_fields(key, z, mod, route)
        record.update(fields)
        values.append(v)
    if each:
        # the routes share one pole set: every value is there, or none is
        record["delta_max"] = "pole" if None in values else max(
            abs(p - q) for i, p in enumerate(values) for q in values[i + 1:])
    if real:
        _, phi, s2 = solved
        record.update(s2=s2, phi=phi)
    return [record]


def cmd_periods(args) -> list[dict]:
    mod = Modulus(args.kappa)
    record = {"kappa": args.kappa, "method": args.method}
    each = args.method == "all"
    methods = list(PeriodMethod) if each else [PeriodMethod(args.method)]
    pairs = [core.periods(mod, m) for m in methods]
    for m, p in zip(methods, pairs):
        sfx = f"_{m.value}" if each else ""
        record.update({f"K{sfx}": p.K, f"Kprime{sfx}": p.Kprime, f"ratio{sfx}": p.Kprime / p.K})
    if each:
        ks = [p.K for p in pairs]
        kps = [p.Kprime for p in pairs]
        record["delta_K_max"] = max(ks) - min(ks)
        record["delta_Kprime_max"] = max(kps) - min(kps)
    return [record]


def cmd_lattice(args) -> list[dict]:
    mod = Modulus(args.kappa)
    lat = mod.lattice
    pp = core.periods(mod)
    return [{"kappa": args.kappa, "g2": lat.g2, "g3": lat.g3, "delta": lat.delta,
             "e1": lat.e1, "e2": lat.e2, "e3": lat.e3, "k2": lat.m,
             "K": pp.K, "Kprime": pp.Kprime}]


def cmd_identities(args) -> list[dict]:
    step = args.step
    if not 0.0 < step < 0.5:
        raise DomainError(f"step must lie in (0, 0.5), got {step}")
    # about (1 - step/2)/step grid values, each with one record per check,
    # and one worst record per check
    checks = 3 + len(identities.PERIOD_RELATION_LABELS)
    _check_count(((1.0 - 0.5 * step) / step + 1.0) * checks, f"step {step}")
    grid = []
    i = 1
    while i * step < 1.0 - 0.5 * step:
        grid.append(i * step)
        i += 1
    tol = {} if args.tol is None else {"tol": args.tol}
    reports = [
        (name, check(lam, **tol))
        for lam in grid
        for name, check in (("bbg_91", identities.identity_bbg_91),
                            ("bbg_92", identities.identity_bbg_92))
    ]
    reports += [("transform_sig4", identities.transform_signature4(x, **tol)) for x in grid]
    reports += [
        (f"period_{label}", rep)
        for kappa in grid
        for label, rep in zip(identities.PERIOD_RELATION_LABELS,
                              identities.period_relations(kappa, **tol))
    ]
    records = [{"identity": name, **rep._asdict()} for name, rep in reports]
    worst: dict[str, dict] = {}
    for rec in records:
        name = rec["identity"]
        if abs(rec["residual"]) > abs(worst.setdefault(name, rec)["residual"]):
            worst[name] = rec
    return records + [{**worst[name], "identity": f"worst:{name}"} for name in sorted(worst)]


def _perimeter_point(s: float, K: float, Kprime: float) -> complex:
    # counterclockwise walk around the half-period rectangle starting at iK'
    if s <= Kprime:
        return complex(0.0, Kprime - s)
    s -= Kprime
    if s <= K:
        return complex(s, 0.0)
    s -= K
    if s <= Kprime:
        return complex(K, s)
    s -= Kprime
    return complex(K - s, Kprime)


def cmd_sample(args) -> list[dict]:
    mod = Modulus(args.kappa)
    pp = core.periods(mod)
    K, Kprime = pp.K, pp.Kprime
    n = args.n
    if n < 2:
        raise DomainError(f"need at least 2 sample points, got {n}")
    _check_count(n * n if args.region == "grid" else n, f"--n {n} on {args.region}")
    route = Route(args.route)
    if args.region != "real-axis" and route is Route.PHI:
        raise DomainError("phi route samples the real axis only")

    if args.region == "real-axis":
        points = [2.0 * K * i / (n - 1) for i in range(n)]
    elif args.region == "perimeter":
        total = 2.0 * (K + Kprime)
        # keep clear of the pole vertex at iK' (start and end of the walk)
        margin = 0.01 * total
        points = [
            _perimeter_point(margin + (total - 2.0 * margin) * i / (n - 1), K, Kprime)
            for i in range(n)
        ]
    elif args.seed is not None:
        rng = random.Random(args.seed)
        points = [
            complex(rng.uniform(0.0, 2.0 * K), rng.uniform(0.0, 2.0 * Kprime))
            for _ in range(n * n)
        ]
    else:
        points = [
            complex(2.0 * K * j / (n - 1), 2.0 * Kprime * i / (n - 1))
            for i in range(n)
            for j in range(n)
        ]

    rows = []
    prev = None
    for z in points:
        fields, v = _dn2_fields("dn2", z, mod, route)
        row = {"z_re": z.real, "z_im": z.imag, **fields, "route": route.value}
        if args.region == "perimeter":
            # a pole row is not decreasing; the row after it, like the
            # first row, has no value to compare with
            dec = v is not None and (prev is None or v.real < prev)
            row["decreasing"] = "true" if dec else "false"
            prev = None if v is None else v.real
        rows.append(row)
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dn2",
        description="Signature-four elliptic function dn2: evaluation, periods, "
        "lattice data, identity sweeps, and plot sampling.",
    )
    parser.add_argument(
        "--format", choices=("human", "csv", "jsonl"), default="human",
        help="output rendering (sample treats human as csv)",
    )
    parser.add_argument("--tol", type=float, default=None, help="override identity tolerances")
    parser.add_argument("--seed", type=int, default=None, help="seed for random grid sampling")
    parser.set_defaults(out="-")
    sub = parser.add_subparsers(dest="command", required=True)
    kappa = argparse.ArgumentParser(add_help=False)
    kappa.add_argument("--kappa", type=float, required=True)
    routes = [r.value for r in Route]

    p = sub.add_parser("eval", parents=[kappa], help="evaluate dn2 (and s2, phi on the real axis)")
    p.add_argument("--z", required=True, help="point, e.g. 0.37, 0.3+0.4i, K, K+iK', iK'/2")
    p.add_argument("--route", choices=[*routes, "all"], default=Route.SN.value)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("periods", parents=[kappa], help="fundamental half-periods K, K'")
    p.add_argument("--method", choices=[*(m.value for m in PeriodMethod), "all"],
                   default=PeriodMethod.ELLIPTIC.value)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("lattice", parents=[kappa],
                       help="invariants, discriminant, roots, half-periods")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("identities", help="sweep all identity checkers over a grid")
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("sample", parents=[kappa], help="write CSV/JSONL samples for plotting")
    p.add_argument("--region", choices=("real-axis", "perimeter", "grid"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--route", choices=routes, default=Route.SN.value)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would take a --z value that starts with '-' (-iK'/3, -1e-200)
    # for an option: hand it over as --z=VALUE
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--z":
            argv[i:i + 2] = [f"--z={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    # sample writes plotting data: it renders human as csv
    fmt = "csv" if args.command == "sample" and args.format == "human" else args.format
    try:
        records = args.func(args)
        if args.out == "-":
            try:
                _emit(records, fmt, sys.stdout)
                sys.stdout.flush()  # a closed pipe shows here, not at exit
            except BrokenPipeError:
                # the reader stopped: Python flushes stdout again at exit, so
                # point it at devnull (the SIGPIPE note of the signal docs)
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                _emit(records, fmt, fh)
    except (DomainError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only identity records carry "passed"
    return 0 if all(r.get("passed", True) for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
