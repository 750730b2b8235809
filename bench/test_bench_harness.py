"""Tests of the benchmark harness itself: the oracle catches small errors,
program errors become failed operations, and thin tails are not reported."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402

workloads.import_dn2()

import oracle  # noqa: E402
from dn2 import core  # noqa: E402


def test_value_perturbed_by_1e_9_relative_fails():
    mod = core.Modulus(0.5)
    z = complex(0.4, 0.3)
    exact = workloads.CALLS["sn"](z, mod)
    ops = [("sn", (z, mod), None)] * 2
    assert oracle.check(ops, [exact, exact * (1 + 1e-9)]).failed == [1]

    args = (0.5, ((0.3, 0.4, "sn"), (1.1, 1.5, "wp"), (0.7, 0.0, "sn")))
    out = workloads.CALLS["modulus"](*args)
    per = list(out[0])
    per[1] = dataclasses.replace(per[1], K=per[1].K * (1 + 1e-9))
    bad = (tuple(per), *out[1:])
    assert oracle.check([("modulus", args, None)] * 2, [out, bad]).failed == [1]


def test_pole_and_convergence_errors_count_as_failed_operations():
    mod = core.Modulus(0.5)
    pole = complex(0.0, core.periods(mod).Kprime)
    ops = [
        ("sn", (pole, mod), None),  # PoleError
        ("phi", (5.0, core.Modulus(0.999999)), None),  # ConvergenceError
        ("sn", (0.3, mod), None),
    ]
    res = harness.run_rounds(ops, workloads.CALLS, seconds=0.0, min_ops=6)
    assert (res.rounds, res.ops, res.consistent) == (2, 6, True)
    errors = [o.error if isinstance(o, harness.Raised) else None for o in res.first]
    assert errors == ["PoleError", "ConvergenceError", None]
    assert oracle.check(ops, res.first).failed == [0, 1]


def test_tail_percentile_needs_ten_samples_beyond_it():
    hist = harness.Histogram()
    for i in range(99):
        hist.add(10_000 + i)
    assert set(harness.tail_percentiles(hist)) == {"op_us_p50"}
    hist.add(10_099)
    assert set(harness.tail_percentiles(hist)) == {"op_us_p50", "op_us_p90"}
    for i in range(899):
        hist.add(20_000 + i)
    assert "op_us_p99" not in harness.tail_percentiles(hist)
    hist.add(30_000)
    tails = harness.tail_percentiles(hist)
    assert set(tails) == {"op_us_p50", "op_us_p90", "op_us_p99"}
    # samples 100..999 are 20_000 + (i - 100): the median is near 20.4 us
    assert abs(tails["op_us_p50"] - 20.4) < 0.1
