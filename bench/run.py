"""dn2 benchmark: one workload, timed with tracing off, or traced per layer.

    python3 bench/run.py --workload plane --seed 1 --seconds 20 --trace 0

Workloads: plane, real_line, moduli, cli (see README.md).  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it has the per-layer metrics of a traced pass,
measured against an untraced pass of the same length.  Every output of the
first round is checked against mpmath after the timed loop, and every later
round must reproduce the first exactly.  The full record, with the trace's
spans, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402

RESULTS = BENCH / "results"
SETUP_PROBES = 7
CLI_PROBES = 5

# argv[1] is the benchmark's directory, for the calibration in harness.py
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import harness; "
    "c = harness.calibrate(); t = time.perf_counter_ns(); import dn2; "
    "ns = time.perf_counter_ns() - t; "
    "print(ns * harness.KERNEL.scale(c, harness.calibrate()) / 1e9)"
)


# ----------------------------------------------------------------- set-up


def setup_once(workload: str, seed: int) -> float:
    """Import dn2 and build the workload's inputs; runs in a fresh child.
    Seconds at the reference speed of harness.py."""
    cal = harness.calibrate()
    t0 = time.perf_counter_ns()
    workloads.import_dn2()
    workloads.BUILDERS[workload](seed)
    ns = time.perf_counter_ns() - t0
    return ns * harness.KERNEL.scale(cal, harness.calibrate()) / 1e9


def _child_seconds(cmd: list[str], env=None) -> float:
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters.  For cli this is one ``import dn2``,
    in a child smaller than any command, so the children's peak RSS stays
    that of the commands."""
    if workload == "cli":
        cmd, env = [sys.executable, "-c", IMPORT_PROBE, str(BENCH)], workloads.cli_env()
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
        env = None
    return [_child_seconds(cmd, env) for _ in range(SETUP_PROBES)]


def _wall_ms(cmd: list[str]) -> float:
    samples = []
    for _ in range(CLI_PROBES):
        cal = harness.calibrate()
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, env=workloads.cli_env(), capture_output=True, check=True)
        ns = time.perf_counter_ns() - t0
        samples.append(ns * harness.KERNEL.scale(cal, harness.calibrate()) / 1e6)
    return statistics.median(samples)


# ------------------------------------------------------------ CLI in-process


def cli_in_process(argv) -> tuple[int, str]:
    from dn2 import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _eval_all_real(argv) -> bool:
    return "eval" in argv and argv[argv.index("--route") + 1] == "all" and (
        "i" not in argv[argv.index("--z") + 1])


# ------------------------------------------------------------------- runs


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _verdict(ops, passes):
    """Check the first round of the first pass; the other passes must match it."""
    import oracle

    first = passes[0].first
    t0 = time.perf_counter()
    verdict = oracle.check(ops, first)
    check_s = time.perf_counter() - t0
    consistent = all(p.consistent and p.first == first for p in passes)
    unexpected = [i for i in verdict.failed if not (ops[i][2] or {}).get("fault")]
    rounds = sum(p.rounds for p in passes)
    detail = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "consistent_rounds": consistent,
        "check_s": check_s,
        "failures": [
            {"op": i, "kind": ops[i][0], "known_fault": (ops[i][2] or {}).get("fault"),
             "reasons": verdict.checks[i].reasons[:4]}
            for i in verdict.failed
        ],
    }
    return {
        "correct": consistent and not unexpected,
        "attempted": sum(p.ops for p in passes),
        "failed": len(verdict.failed) * rounds,
    }, verdict, detail


def run_untraced(workload: str, seed: int, seconds: float, ops) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed)
    calibration = workloads.CLI_CALIBRATION if workload == "cli" else harness.KERNEL
    res = harness.run_rounds(ops, workloads.CALLS, seconds, calibration=calibration)
    rss = _peak_rss_mb(workload)
    head, verdict, detail = _verdict(ops, [res])
    tails = harness.tail_percentiles(res.hist)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (res.ops / (res.elapsed_ns / 1e9), "1/s"),
        "op_us_p50": (tails["op_us_p50"], "us"),
        "op_us_p90": (tails["op_us_p90"], "us"),
        "digits_min": (verdict.digits_min(), "digits"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail.update(setup_samples_s=setup, ops=res.ops, elapsed_s=res.elapsed_ns / 1e9,
                  raw_elapsed_s=res.raw_elapsed_ns / 1e9, op_us_p99=tails.get("op_us_p99"))
    return {**head, "metrics": metrics}, detail


def run_traced(workload: str, seed: int, seconds: float, ops) -> tuple[dict, dict]:
    import tracing

    calls = dict(workloads.CALLS)
    cli = workload == "cli"
    if cli:
        calls["cmd"] = cli_in_process
        cli_in_process(["--format", "jsonl", "lattice", "--kappa", "0.5"])  # import dn2.cli
    half = seconds / 2.0
    untraced = harness.run_rounds(ops, calls, half)

    tracer = tracing.Tracer()
    phi_solves = []
    if cli:
        def traced_cmd(argv):
            before = tracer.calls("kernel.newton_invert")
            out = cli_in_process(argv)
            if _eval_all_real(argv):
                phi_solves.append(tracer.calls("kernel.newton_invert") - before)
            return out

        calls["cmd"] = traced_cmd

    def stop_recording(_rounds):
        tracer.recording = False

    tracer.install()
    tracer.recording = True
    try:
        traced = harness.run_rounds(ops, calls, half, on_round=stop_recording)
    finally:
        tracer.uninstall()
    head, _verdict_, detail = _verdict(ops, [untraced, traced])

    metrics = tracing.layer_metrics(tracer, traced.ops, traced.elapsed_ns / traced.raw_elapsed_ns)
    mean_untraced = untraced.hist.total_ns / untraced.ops
    mean_traced = traced.hist.total_ns / traced.ops
    cli_metrics = {"cli.interp_start_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms"),
                   "cli.main_ms": (0.0, "ms"), "cli.bytes_out": (0.0, "bytes/cmd"),
                   "cli.phi_solves_per_eval": (0.0, "ratio")}
    if cli:
        start = _wall_ms([sys.executable, "-c", "pass"])
        imported = _wall_ms([sys.executable, "-c", "import dn2.cli"])
        cli_metrics = {
            "cli.interp_start_ms": (start, "ms"),
            "cli.import_ms": (imported - start, "ms"),
            "cli.main_ms": (mean_untraced / 1e6, "ms"),
            "cli.bytes_out": (sum(len(o[1]) for o in untraced.first) / len(ops), "bytes/cmd"),
            "cli.phi_solves_per_eval": (sum(phi_solves) / len(phi_solves) if phi_solves else 0.0,
                                        "ratio"),
        }
    metrics.update(cli_metrics)
    metrics["trace.overhead_pct"] = ((mean_traced / mean_untraced - 1.0) * 100.0, "%")
    metrics["trace.ops"] = (traced.ops, "count")
    detail.update(untraced_ops=untraced.ops, traced_ops=traced.ops, edges=tracer.edge_table(),
                  counts=dict(tracer.counts),
                  spans_first_round=[
                      {"id": i, "parent": p, "name": n, "start_ns": a, "end_ns": b}
                      for i, p, n, a, b in tracer.spans
                  ])
    return {**head, "metrics": metrics}, detail


def _format(result: dict) -> dict:
    return {
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(setup_once(args.workload, args.seed))
        return 0
    try:
        workloads.import_dn2()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import dn2 from this checkout: {exc}", file=sys.stderr)
        return 2
    ops = workloads.BUILDERS[args.workload](args.seed)
    run = run_traced if args.trace else run_untraced
    result, detail = run(args.workload, args.seed, args.seconds, ops)
    result = _format(result)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0], "cpus": os.cpu_count(),
              **result, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for f in detail["failures"][:5]:
        print(f"failed op {f['op']} ({f['kind']}): {'; '.join(f['reasons'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
