import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dn2 import cli
from dn2.cli import main, parse_z
from dn2.core import Modulus, dn2, periods


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def human_to_dict(text):
    d = {}
    for line in text.strip().splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            d[k] = v
    return d


class TestParseZ:
    def test_plain_numbers(self):
        assert parse_z("0.37", 1.0, 2.0) == complex(0.37, 0.0)
        assert parse_z("0.3+0.4i", 1.0, 2.0) == complex(0.3, 0.4)

    def test_symbolic(self):
        K, Kp = 1.7, 2.6
        assert parse_z("K", K, Kp) == complex(K, 0.0)
        assert parse_z("K+iK'", K, Kp) == complex(K, Kp)
        assert parse_z("iK'/2", K, Kp) == complex(0.0, 0.5 * Kp)
        assert parse_z("2K", K, Kp) == complex(2.0 * K, 0.0)

    def test_rejects_garbage(self):
        from dn2.kernel import DomainError

        with pytest.raises(DomainError):
            parse_z("import os", 1.0, 1.0)
        with pytest.raises(DomainError):
            parse_z("$(rm)", 1.0, 1.0)

    def test_implicit_products_and_precedence(self):
        K, Kp = 1.7, 2.6
        assert parse_z("iK'/3", K, Kp) == 1j * Kp / 3
        assert parse_z("K/2+iK'/3", K, Kp) == K / 2 + 1j * Kp / 3
        assert parse_z("(1+i)K", K, Kp) == (1 + 1j) * K
        assert parse_z("2(1-i)", K, Kp) == 2 * (1 - 1j)
        assert parse_z("-iK'", K, Kp) == -1j * Kp
        assert parse_z("1/2K", K, Kp) == 1 / 2 * K
        assert parse_z("1+2*3-4/8", K, Kp) == 6.5
        assert parse_z(" 2 K' ", K, Kp) == 2 * Kp
        assert parse_z("1e-3K+.5i", K, Kp) == 1e-3 * K + 0.5 * 1j

    @pytest.mark.parametrize(
        "text",
        ["2**10", "9**9**9", "__import__('os')", "()", "", "1j", "Q", "K''", "1.2.3",
         "(1.2.3)", "(1", "1)", "1/0", "2^3", "1 _ 0", "9" * 400 + "K",
         # a space ends a token: these are not 12, 1e5, K' and 0.5i
         "1 2", "1 e5", "K ' ", "0. 5i"],
    )
    def test_rejects_what_the_grammar_does_not_admit(self, text):
        from dn2.kernel import DomainError

        with pytest.raises(DomainError):
            parse_z(text, 1.0, 1.0)

    def test_evaluation_stops_at_the_first_rejected_token(self, monkeypatch):
        # parsing and evaluation are one pass: the operators of a valid
        # prefix are applied, nothing after the first token the grammar
        # rejects is, and no input reaches any operator but + - * /
        from dn2.kernel import DomainError

        calls = []
        monkeypatch.setattr(
            cli, "_BINARY",
            {op: (lambda a, b, op=op: calls.append(op) or a) for op in cli._BINARY},
        )
        for text, applied in (("9**9**9", []), ("2*3**4", ["*"]), ("1+2+", ["+"]),
                              ("1+2*)", []), ("(1-2)3(", ["-", "*"])):
            calls.clear()
            with pytest.raises(DomainError):
                parse_z(text, 1.0, 1.0)
            assert calls == applied, text


class TestEval:
    def test_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--kappa", "0.6", "--z", "0")
        assert code == 0
        d = human_to_dict(out)
        assert float(d["dn2_re"]) == 1.0

    def test_symbolic_quarter_period(self, capsys):
        code, out, _ = run(capsys, "eval", "--kappa", "0.6", "--z", "K")
        assert code == 0
        d = human_to_dict(out)
        assert abs(float(d["dn2_re"]) - 0.8) <= 1e-11
        assert abs(float(d["s2"]) - 1.0) <= 1e-11
        assert abs(float(d["phi"]) - 0.5 * math.pi) <= 1e-11

    def test_route_all(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kappa", "0.5", "--z", "0.37", "--route", "all"
        )
        assert code == 0
        d = human_to_dict(out)
        assert float(d["delta_max"]) <= 1e-11
        assert abs(float(d["dn2_sn_re"]) - float(d["dn2_wp_re"])) <= 1e-11

    def test_pole_token(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kappa", "0.6", "--z", "iK'", "--route", "wp"
        )
        assert code == 0
        d = human_to_dict(out)
        assert d["dn2_re"] == "pole"

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "--format", "jsonl", "eval", "--kappa", "0.6", "--z", "0.5"
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert abs(rec["dn2_re"] - dn2(0.5, Modulus(0.6))) <= 1e-15

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--kappa", "1.5", "--z", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("z", ["2**10", "9**9**9", "__import__('os')", "()"])
    def test_rejected_z_exit_2(self, capsys, z):
        code, out, err = run(capsys, "eval", "--kappa", "0.6", "--z", z)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse z value")

    @pytest.mark.parametrize("route", ["sn", "wp", "phi", "all"])
    @pytest.mark.parametrize("z", ["1e400", "1e300", "0-1e400", "1e400-1e400"])
    def test_unreducible_z_exit_2(self, capsys, z, route):
        # 1e400 parses to inf and used to end in a traceback; at 1e300 no digit
        # of the result is significant, and it used to print digits anyway
        code, out, err = run(capsys, "eval", "--kappa", "0.6", "--z", z, "--route", route)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("z", ["1e400i", "0.3+1e300i"])
    def test_unreducible_imaginary_part_exit_2(self, capsys, z):
        code, out, err = run(capsys, "eval", "--kappa", "0.6", "--z", z, "--route", "all")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_s2_and_phi_are_the_library_values(self, capsys):
        # near phi = n pi the sine of the rounded phi carries phi's rounding:
        # at the second point it is 0.08288876765973821, and s2 is
        # 0.08288876765973885
        from dn2 import core

        for kappa, z in ((0.6, 1.7), (0.9, 12.469080500322399)):
            code, out, _ = run(
                capsys, "--format", "jsonl", "eval", "--kappa", str(kappa), "--z", repr(z)
            )
            assert code == 0
            rec = json.loads(out)
            assert list(rec)[-2:] == ["s2", "phi"]
            mod = Modulus(kappa)
            assert rec["s2"].hex() == core.s2(z, mod).hex(), z
            assert rec["phi"].hex() == core.phi(z, mod).hex(), z

    @pytest.mark.parametrize("route, solves", [("sn", 1), ("wp", 1), ("phi", 2), ("all", 2)])
    def test_s2_and_phi_from_one_solve(self, capsys, monkeypatch, route, solves):
        # s2 and phi share one solve; the PHI route solves once more for dn2
        from dn2 import core

        calls = []
        newton_invert = core.newton_invert

        def counted(*args):
            calls.append(args)
            return newton_invert(*args)

        monkeypatch.setattr(core, "newton_invert", counted)
        code, _, _ = run(capsys, "eval", "--kappa", "0.6", "--z", "1.7", "--route", route)
        assert code == 0
        assert len(calls) == solves

    @pytest.mark.parametrize("z", ["1e-320", "-1e-200", "5e-324", "1e-320i", "0.3+1e-160i"])
    def test_tiny_z(self, capsys, z):
        # z = 1e-320 used to print nan for dn2, and 1.19e-24 for phi and s2
        code, out, _ = run(
            capsys, "--format", "jsonl", "eval", "--kappa", "0.6", f"--z={z}", "--route", "all"
        )
        assert code == 0
        rec = json.loads(out)
        assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float))
        if rec["z_im"] == 0.0:
            assert rec["dn2_sn_re"] == rec["dn2_wp_re"] == rec["dn2_phi_re"] == 1.0
            assert rec["phi"] == rec["s2"] == rec["z_re"] == float(z)

    @pytest.mark.parametrize("z", ["-iK'/3", "-1e-200"])
    @pytest.mark.parametrize("joined", [False, True])
    def test_z_with_leading_minus(self, capsys, z, joined):
        # argparse used to take these for options ("expected one argument")
        argv = [f"--z={z}"] if joined else ["--z", z]
        code, out, _ = run(capsys, "--format", "jsonl", "eval", "--kappa", "0.6", *argv)
        assert code == 0
        rec = json.loads(out)
        mod = Modulus(0.6)
        pp = periods(mod)
        want = parse_z(z, pp.K, pp.Kprime)
        assert (rec["z_re"], rec["z_im"]) == (want.real, want.imag)
        assert complex(rec["dn2_re"], rec["dn2_im"]) == complex(
            dn2(want if want.imag else want.real, mod)
        )

    def test_bare_z_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--kappa", "0.6", "--z"])
        assert info.value.code == 2

    def test_kappa_where_lam_rounds_to_one(self, capsys):
        # lam = sqrt(1 - 1e-18) rounds to 1: this used to exit 2 from periods
        code, out, _ = run(capsys, "--format", "jsonl", "eval", "--kappa", "1e-9", "--z", "0.3")
        assert code == 0
        assert json.loads(out)["dn2_re"] == dn2(0.3, Modulus(1e-9))


class TestPeriods:
    def test_double_ratio(self, capsys):
        code, out, _ = run(
            capsys, "periods", "--kappa", "0.333333333333", "--method", "elliptic"
        )
        assert code == 0
        d = human_to_dict(out)
        assert abs(float(d["ratio"]) - 2.0) <= 1e-9

    def test_all_methods(self, capsys):
        code, out, _ = run(
            capsys, "periods", "--kappa", "0.70710678", "--method", "all"
        )
        assert code == 0
        d = human_to_dict(out)
        assert abs(float(d["ratio_elliptic"]) - math.sqrt(2.0)) <= 1e-7
        assert float(d["delta_K_max"]) <= 1e-8
        assert float(d["delta_Kprime_max"]) <= 1e-8

    def test_hyper_method(self, capsys):
        code, out, _ = run(capsys, "periods", "--kappa", "0.5", "--method", "hyper")
        assert code == 0
        d = human_to_dict(out)
        # K = (pi/2) F(1/4,3/4;1;0.25); mpmath reference at dps=50
        assert abs(float(d["K"]) - 0.5 * math.pi * 1.0546486148314670479) <= 1e-13

    @pytest.mark.parametrize("method", ["elliptic", "hyper"])
    def test_kappa_where_lam_rounds_to_one(self, capsys, method):
        import mpmath

        code, out, _ = run(
            capsys, "--format", "jsonl", "periods", "--kappa", "1e-9", "--method", method
        )
        assert code == 0
        rec = json.loads(out)
        with mpmath.workdps(40):
            k = mpmath.mpf(1e-9)
            Kp = mpmath.sqrt(2) * mpmath.pi / 2 * mpmath.hyp2f1(0.25, 0.75, 1, 1 - k * k)
        assert abs(rec["Kprime"] / Kp - 1) <= 1e-14


class TestLattice:
    def test_square_lattice(self, capsys):
        kappa = repr(2.0 * math.sqrt(2.0) / 3.0)
        code, out, _ = run(capsys, "lattice", "--kappa", kappa)
        assert code == 0
        d = human_to_dict(out)
        assert abs(float(d["g3"])) <= 1e-15

    def test_midpoint_root(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kappa", "0.6")
        assert code == 0
        d = human_to_dict(out)
        assert abs(float(d["e3"]) + 1.0 / 3.0) <= 1e-15

    def test_special_jacobian_modulus(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kappa", repr(1.0 / 3.0))
        assert code == 0
        d = human_to_dict(out)
        k = math.sqrt(float(d["k2"]))
        assert abs(k - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-12

    @pytest.mark.parametrize("kappa", ["1e-6", "0.1"])
    def test_discriminant(self, capsys, kappa):
        # g2^3 - 27 g3^2 cancels: it printed -4.4e-16 at kappa = 1e-6
        import mpmath

        code, out, _ = run(capsys, "--format", "jsonl", "lattice", "--kappa", kappa)
        assert code == 0
        rec = json.loads(out)
        with mpmath.workdps(60):
            k2 = mpmath.mpf(float(kappa)) ** 2
            delta = (mpmath.mpf(4) / 3 - k2) ** 3 - 27 * (mpmath.mpf(8) / 27 - k2 / 3) ** 2
        assert abs(rec["delta"] / delta - 1) <= 1e-14


    def test_half_periods_are_those_of_periods(self, capsys):
        # lattice printed K(m)/c, which differed from periods' ELLIPTIC K
        # in the last bits at 864 of 2,000 kappa
        rng = random.Random("lattice periods")
        for kappa in [1e-9, 1.0 - 1e-12] + [rng.uniform(0.01, 0.99) for _ in range(40)]:
            recs = []
            for cmd in ("lattice", "periods"):
                code, out, _ = run(capsys, "--format", "jsonl", cmd, "--kappa", repr(kappa))
                assert code == 0
                recs.append(json.loads(out))
            lat, per = recs
            assert (lat["K"], lat["Kprime"]) == (per["K"], per["Kprime"]), kappa


class TestIdentities:
    def test_coarse_sweep(self, capsys):
        code, out, _ = run(capsys, "identities", "--step", "0.45")
        assert code == 0
        assert "worst:" in out

    def test_full_sweep(self, capsys):
        code, out, _ = run(capsys, "identities", "--step", "0.05")
        assert code == 0

    def test_tol_overrides_each_checkers_own(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "--tol", "1e-300", "identities",
                           "--step", "0.45")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 14 and all(float(r["tol"]) == 1e-300 for r in rows)
        assert any(r["passed"] == "False" for r in rows)
        # without --tol each checker keeps its own default
        code, out, _ = run(capsys, "--format", "csv", "identities", "--step", "0.45")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 14
        for r in rows:
            name = r["identity"].removeprefix("worst:")
            assert float(r["tol"]) == (1e-11 if name == "transform_sig4" else 1e-12), name

    def test_record_fields(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "identities", "--step", "0.45")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "parameter", "lhs", "rhs", "residual", "tol", "passed"]
        sweep = [r for r in rows[1:] if not r[0].startswith("worst:")]
        worst = [r for r in rows[1:] if r[0].startswith("worst:")]
        assert [r[0] for r in sweep[:3]] == ["bbg_91", "bbg_92", "transform_sig4"]
        # one worst row per identity, sorted by name, repeating that sweep row
        assert [r[0] for r in worst] == sorted("worst:" + r[0] for r in sweep)
        assert all([f"worst:{r[0]}", *r[1:]] in worst for r in sweep)

    def test_bad_step_exit_2(self, capsys):
        code, _, _ = run(capsys, "identities", "--step", "0.7")
        assert code == 2

    @pytest.mark.parametrize("step", ["1e-300", "5e-324", "1e-5", "6e-5"])
    def test_step_too_fine_exit_2_before_any_check(self, capsys, monkeypatch, step):
        # the grid is counted before it is built: 1e-300 asked for 1e300 values
        calls = []
        monkeypatch.setattr(cli.identities, "identity_bbg_91", lambda *a, **k: calls.append(a))
        code, out, err = run(capsys, "identities", "--step", step)
        assert (code, out, calls) == (2, "", [])
        assert err.startswith(f"error: step {float(step)} would make more than ")

    def test_fine_step_within_the_record_limit(self, capsys):
        # 99 grid values, 7 records each, and 7 worst records
        code, out, _ = run(capsys, "--format", "jsonl", "identities", "--step", "0.01")
        assert code == 0 and out.count("\n") == 700

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0"])
    def test_tol_not_finite_and_positive_exit_2(self, capsys, tol):
        # each used to rule every check failed or every check passed
        code, out, err = run(capsys, "--tol", tol, "identities", "--step", "0.45")
        assert (code, out) == (2, "")
        assert err.startswith("error: tolerance must be finite and positive")


EVAL_KEYS = ["kappa", "z_re", "z_im", "route"]
ALL_ROUTE_KEYS = ["dn2_sn_re", "dn2_sn_im", "dn2_wp_re", "dn2_wp_im"]


class TestRecordShape:
    # a record's key order is the CSV header, the JSONL key order and the
    # human line order
    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "human"])
    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["eval", "--kappa", "0.6", "--z", "1.7"],
             EVAL_KEYS + ["dn2_re", "dn2_im", "s2", "phi"]),
            (["eval", "--kappa", "0.6", "--z", "0.6+0.4i", "--route", "wp"],
             EVAL_KEYS + ["dn2_re", "dn2_im"]),
            (["eval", "--kappa", "0.6", "--z", "1.7", "--route", "all"],
             EVAL_KEYS + ALL_ROUTE_KEYS + ["dn2_phi_re", "dn2_phi_im", "delta_max", "s2", "phi"]),
            (["eval", "--kappa", "0.6", "--z", "0.6+0.4i", "--route", "all"],
             EVAL_KEYS + ALL_ROUTE_KEYS + ["delta_max"]),
            (["eval", "--kappa", "0.6", "--z", "iK'", "--route", "all"],
             EVAL_KEYS + ALL_ROUTE_KEYS + ["delta_max"]),
            (["periods", "--kappa", "0.6"], ["kappa", "method", "K", "Kprime", "ratio"]),
            (["periods", "--kappa", "0.6", "--method", "all"],
             ["kappa", "method"]
             + [f"{k}_{m}" for m in ("integral", "elliptic", "hyper")
                for k in ("K", "Kprime", "ratio")]
             + ["delta_K_max", "delta_Kprime_max"]),
        ],
    )
    def test_key_order(self, capsys, fmt, argv, keys):
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code == 0
        if fmt == "csv":
            header, row = csv.reader(io.StringIO(out))
            assert header == keys and len(row) == len(keys)
        elif fmt == "jsonl":
            assert list(json.loads(out)) == keys
        else:
            assert [line.split(" = ")[0] for line in out.splitlines()] == keys

    def test_poles_render_as_pole_in_every_field(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl", "eval", "--kappa", "0.6",
                           "--z", "iK'", "--route", "all")
        assert code == 0
        rec = json.loads(out)
        # no two values were compared, so there is no delta either
        assert all(rec[k] == "pole" for k in ALL_ROUTE_KEYS + ["delta_max"])

    def test_human_records_are_separated_by_one_blank_line(self, capsys):
        code, out, _ = run(capsys, "identities", "--step", "0.45")
        assert code == 0
        # seven checks at the one grid point 0.45, then one worst: record each
        blocks = out.split("\n\n")
        assert len(blocks) == 14
        keys = ["identity", "parameter", "lhs", "rhs", "residual", "tol", "passed"]
        assert all([line.split(" = ")[0] for line in b.splitlines()] == keys for b in blocks)
        assert out.endswith("passed = True\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "--kappa", "0.6", "--z", "1.7", "--route", "all"],
        ["periods", "--kappa", "0.6", "--method", "all"],
        ["lattice", "--kappa", "0.6"],
        ["--tol", "1e-300", "identities", "--step", "0.45"],
        ["sample", "--kappa", "0.6", "--region", "real-axis", "--n", "3", "--out", "-"],
    ])
    def test_commands_return_records_and_write_nothing(self, capsys, argv):
        # main is the one writer and sets the exit status, failing identities too
        args = cli.build_parser().parse_args(argv)
        records = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert records and all(isinstance(r, dict) for r in records)


class TestSample:
    def test_perimeter_monotone(self, tmp_path, capsys):
        # by WP this is also Weierstrass P decreasing on the walk, on either
        # side of its pole at 0: 1/3 + P = kappa^2 / (2 (1 - dn2)) grows with
        # dn2 wherever dn2 != 1
        for route in ("sn", "wp"):
            path = tmp_path / f"perim_{route}.csv"
            code, _, _ = run(
                capsys, "sample", "--kappa", "0.6", "--region", "perimeter",
                "--n", "400", "--route", route, "--out", str(path),
            )
            assert code == 0
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 400
            reals = [float(r["dn2_re"]) for r in rows]
            for r in rows:
                assert abs(float(r["dn2_im"])) <= 1e-10
                assert r["route"] == route
            assert all(a > b for a, b in zip(reals, reals[1:]))
            assert all(r["decreasing"] == "true" for r in rows)

    def test_real_axis_passes_through_lambda(self, tmp_path, capsys):
        mod = Modulus(0.6)
        K = periods(mod).K
        path = tmp_path / "axis.csv"
        code, _, _ = run(
            capsys, "sample", "--kappa", "0.6", "--region", "real-axis",
            "--n", "201", "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # n odd: the middle row sits exactly at x = K where dn2 = lambda
        middle = rows[100]
        assert abs(float(middle["z_re"]) - K) <= 1e-12
        assert abs(float(middle["dn2_re"]) - 0.8) <= 1e-11

    def test_grid_marks_pole(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "sample", "--kappa", "0.6", "--region", "grid",
            "--n", "9", "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81
        assert any(r["dn2_re"] == "pole" for r in rows)

    def test_csv_round_trip(self, tmp_path, capsys):
        mod = Modulus(0.45)
        path = tmp_path / "axis.csv"
        code, _, _ = run(
            capsys, "sample", "--kappa", "0.45", "--region", "real-axis",
            "--n", "25", "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            x = float(r["z_re"])
            # 17 significant digits round-trip doubles exactly
            assert float(repr(dn2(x, mod))) == float(r["dn2_re"])

    def test_jsonl_output(self, capsys):
        code, out, _ = run(
            capsys, "--format", "jsonl", "sample", "--kappa", "0.5",
            "--region", "real-axis", "--n", "5", "--out", "-",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(isinstance(json.loads(l)["dn2_re"], float) for l in lines)

    def test_seeded_grid_reproducible(self, capsys):
        a = run(capsys, "--seed", "7", "sample", "--kappa", "0.5",
                "--region", "grid", "--n", "4", "--out", "-")
        b = run(capsys, "--seed", "7", "sample", "--kappa", "0.5",
                "--region", "grid", "--n", "4", "--out", "-")
        assert a == b

    @pytest.mark.parametrize("argv", [
        ["--region", "real-axis", "--n", "1"],
        ["--region", "grid", "--n", "3", "--route", "phi"],
    ])
    def test_bad_sample_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "sample", "--kappa", "0.6", *argv, "--out", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("region, n", [
        ("real-axis", 100_001), ("perimeter", 10**30), ("grid", 317), ("grid", 10**30),
    ])
    def test_too_many_points_exit_2(self, capsys, region, n):
        # counted before a point is built: grid makes n**2 of them
        code, out, err = run(capsys, "sample", "--kappa", "0.6", "--region", region,
                             "--n", str(n), "--out", "-")
        assert (code, out) == (2, "")
        assert err == f"error: --n {n} on {region} would make more than 100000 records\n"

    @pytest.mark.parametrize("seed, region, largest_n", [
        ([], "real-axis", 9), ([], "perimeter", 9), ([], "grid", 3), (["--seed", "1"], "grid", 3),
    ])
    def test_points_at_the_record_limit(self, capsys, monkeypatch, seed, region, largest_n):
        monkeypatch.setattr(cli, "MAX_RECORDS", 9)
        for n in (largest_n, largest_n + 1):
            code = run(capsys, *seed, "sample", "--kappa", "0.6", "--region", region,
                       "--n", str(n), "--out", "-")[0]
            assert code == (0 if n == largest_n else 2), n

    def test_unwritable_path_exit_2(self, capsys):
        code, _, err = run(
            capsys, "sample", "--kappa", "0.5", "--region", "real-axis",
            "--n", "5", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 2
        assert "error" in err

    def test_small_kappa_perimeter_rows_are_values(self, capsys):
        # the walk keeps 0.01 of its length clear of the pole; this used to
        # die with a PoleError traceback, and later printed spurious pole rows
        mod = Modulus(1e-8)
        code, out, err = run(
            capsys, "sample", "--kappa", "1e-8", "--region", "perimeter",
            "--n", "50", "--out", "-",
        )
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 50
        for r in rows:
            v = complex(dn2(complex(float(r["z_re"]), float(r["z_im"])), mod))
            assert (float(r["dn2_re"]), float(r["dn2_im"])) == (v.real, v.imag), r

    @pytest.mark.parametrize(
        "region, extra", [("real-axis", []), ("perimeter", ["decreasing"]), ("grid", [])]
    )
    def test_row_keys_and_pole_rows_in_every_region(self, capsys, monkeypatch, region, extra):
        from dn2 import core
        from dn2.jacobi import PoleError

        points = []
        evaluate = core.dn2

        def dn2_with_a_pole(z, mod, route):
            points.append(z)
            if len(points) == 2:
                raise PoleError("pole")
            return evaluate(z, mod, route)

        monkeypatch.setattr(core, "dn2", dn2_with_a_pole)
        code, out, _ = run(
            capsys, "--format", "jsonl", "--seed", "1", "sample", "--kappa", "0.6",
            "--region", region, "--n", "3", "--out", "-",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == len(points) == (9 if region == "grid" else 3)
        keys = ["z_re", "z_im", "dn2_re", "dn2_im", "route", *extra]
        assert all(list(r) == keys for r in rows)
        assert rows[1]["dn2_re"] == rows[1]["dn2_im"] == "pole"
        assert all(isinstance(r["dn2_re"], float) for r in rows[:1] + rows[2:])
        # real-axis points stay floats, so that the real SN path runs there
        assert all(isinstance(z, float if region == "real-axis" else complex) for z in points)
        if region == "perimeter":
            # the row after a pole has no value to compare with
            assert [r["decreasing"] for r in rows] == ["true", "false", "true"]

    def test_reader_that_stops_early_is_no_error(self):
        # like `| head -1`: 20,000 rows overfill the pipe, and the reader
        # closes it after the header while the command is still writing
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "dn2.cli", "sample", "--kappa", "0.6",
             "--region", "real-axis", "--n", "20000", "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == "z_re,z_im,dn2_re,dn2_im,route\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""


_STDLIB_ONLY = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import io
import json
import dn2.cli
out, sys.stdout = sys.stdout, io.StringIO()
codes = [
    dn2.cli.main(["eval", "--kappa", "0.6", "--z", "0.3+0.2i", "--route", "all"]),
    dn2.cli.main(["lattice", "--kappa", "0.6"]),
]
sys.stdout = out
added = set(sys.modules) - before
top = {name.partition(".")[0] for name in added}
print(json.dumps({
    "codes": codes,
    "dn2": sorted(name for name in added if name.partition(".")[0] == "dn2"),
    "foreign": sorted(top - set(sys.stdlib_module_names) - {"dn2"}),
}))
"""


def test_no_runtime_dependencies():
    # without site-packages, importing the CLI and running eval and lattice
    # loads only the standard library and dn2 itself
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB_ONLY, src],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert "dn2.cli" in result["dn2"] and "dn2.weier" in result["dn2"]
    assert result["foreign"] == []
