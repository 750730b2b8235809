"""Closed-loop timing of whole rounds of operations, and the tail statistics.

One caller, single-threaded: each operation starts after the previous one
returns.  Per-operation times go into a log-linear histogram of fixed size,
so the harness's own memory does not grow with the number of operations and
does not show in the program's peak RSS.

Times are stated at a reference CPU speed.  On a shared machine the speed of
a CPU changes by up to 2x from one minute to the next, as other tenants come
and go.  So the harness times a fixed calibration task before and after every
block of operations and scales the block's times by the task's reference
time over its mean time around the block: a time reads as if the task had
taken exactly its reference time.  The default task is a pure-Python kernel,
like the program, around blocks of about 0.1 s; REFERENCE_NS is about its
time on the 2-CPU machine the bounds were measured on (Python 3.11) when
nothing else ran there, so a time reads close to the wall-clock time of that
machine at its quietest (under load the kernel took up to 1.7 ms).  Raw
times are kept in the run's record.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10
SUB_BUCKETS_LOG2 = 8  # 256 linear sub-buckets per octave, below 0.4% wide
MIN_OPS = 100  # enough for op_us_p90 on every workload
BLOCK_NS = 100_000_000  # operations between two calibrations
REFERENCE_NS = 1_000_000  # calibration time that defines the reference speed


def _landen_dn(u: float, m: float) -> float:
    a, b = 1.0, math.sqrt(1.0 - m)
    em, en = [], []
    c = 1.0
    for _ in range(16):
        em.append(a)
        en.append(b)
        c = 0.5 * (a + b)
        if abs(a - b) <= 1e-8 * a:
            break
        a, b = c, math.sqrt(a * b)
    u *= c
    s, cs, d = math.sin(u), math.cos(u), 1.0
    if s != 0.0:
        aa = cs / s
        cc = c * aa
        for i in range(len(em) - 1, -1, -1):
            aa *= cc
            cc *= d
            d = (en[i] + aa) / (em[i] + aa)
            aa = cc / em[i]
    return d


class _Point:
    __slots__ = ("x", "z")

    def __init__(self, x, z):
        self.x, self.z = x, z


def _calibration_kernel() -> float:
    # float recursions, calls, small objects, dicts and complex numbers: the
    # mix the program's pure-Python layers are made of
    acc = 0.0
    for i in range(120):
        acc += _landen_dn(0.01 * i, 0.3 + 0.001 * i)
    table = {}
    for i in range(800):
        p = _Point(0.5 * i, complex(i, 1.0))
        table[i & 63] = (p.x, abs(p.z))
        acc += table.get(i & 31, (0.0, 0.0))[1] * 1e-3 + math.log(1.0 + p.x)
    return acc


def calibrate() -> int:
    """Nanoseconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter_ns()
    _calibration_kernel()
    return time.perf_counter_ns() - t0


@dataclass(frozen=True)
class Calibration:
    """A fixed task timed around each block of operations, and its time at
    the reference speed."""

    measure: Callable[[], int]
    reference_ns: float
    block_ns: int  # operations between two measurements

    def scale(self, before: int, after: int) -> float:
        return 2.0 * self.reference_ns / (before + after)


KERNEL = Calibration(calibrate, REFERENCE_NS, BLOCK_NS)


@dataclass(frozen=True)
class Raised:
    """Outcome of an operation that raised instead of returning."""

    error: str
    message: str


class Histogram:
    """Counts of nanosecond durations in log-linear buckets."""

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        b = ns.bit_length()
        shift = b - SUB_BUCKETS_LOG2 - 1
        key = ns if shift <= 0 else (shift << 16) | (ns >> shift)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.n += 1
        self.total_ns += ns

    @staticmethod
    def _bounds(key: int) -> tuple[int, int]:
        if key < 1 << 16:
            return key, 1
        shift, top = key >> 16, key & 0xFFFF
        return top << shift, 1 << shift

    def percentile(self, q: float) -> float:
        """Value below which a share q of the samples lies, interpolated in
        its bucket."""
        if not self.n:
            raise ValueError("empty histogram")
        rank = q * self.n
        seen = 0
        for key in sorted(self.counts, key=lambda k: self._bounds(k)[0]):
            c = self.counts[key]
            if seen + c >= rank:
                lo, width = self._bounds(key)
                return lo + width * (rank - seen) / c
            seen += c
        lo, width = self._bounds(max(self.counts, key=lambda k: self._bounds(k)[0]))
        return float(lo + width)


def tail_percentiles(hist: Histogram) -> dict[str, float]:
    """op_us_p50 always; p90 and p99 only with TAIL_SAMPLES samples beyond."""
    out = {"op_us_p50": hist.percentile(0.5) / 1e3}
    for name, q in (("op_us_p90", 0.9), ("op_us_p99", 0.99)):
        if hist.n * (1.0 - q) >= TAIL_SAMPLES - 1e-9:
            out[name] = hist.percentile(q) / 1e3
    return out


@dataclass
class Pass:
    """What one timed pass over whole rounds produced."""

    hist: Histogram = field(default_factory=Histogram)
    rounds: int = 0
    elapsed_ns: float = 0.0  # at the reference speed
    raw_elapsed_ns: int = 0
    first: list = field(default_factory=list)
    consistent: bool = True

    @property
    def ops(self) -> int:
        return self.hist.n


def run_rounds(ops, calls, seconds: float, min_ops: int = MIN_OPS, on_round=None,
               calibration: Calibration = KERNEL) -> Pass:
    """Repeat whole rounds of ``ops`` until ``seconds`` have passed and at
    least ``min_ops`` operations ran.

    An operation that raises ArithmeticError or ValueError (the program's
    PoleError, ConvergenceError and DomainError among them) yields a Raised
    outcome and counts as attempted.  Every round's outcomes must equal the
    first round's; the first round is kept for the oracle.
    """
    bound = [(calls[kind], args) for kind, args, _meta in ops]
    res = Pass()
    block: list[int] = []
    clock = time.perf_counter_ns

    def close_block(cal_before: int, block_ns: int) -> int:
        cal_after = calibration.measure()
        scale = calibration.scale(cal_before, cal_after)
        for ns in block:
            res.hist.add(round(ns * scale))
        block.clear()
        res.elapsed_ns += block_ns * scale
        res.raw_elapsed_ns += block_ns
        return cal_after

    cal = calibration.measure()
    deadline = clock() + int(seconds * 1e9)
    block_start = clock()
    while True:
        outs = []
        for call, args in bound:
            t0 = clock()
            try:
                out = call(*args)
            except (ArithmeticError, ValueError) as exc:
                out = Raised(type(exc).__name__, str(exc))
            t1 = clock()
            block.append(t1 - t0)
            outs.append(out)
            if t1 - block_start >= calibration.block_ns:
                cal = close_block(cal, t1 - block_start)
                block_start = clock()
        res.rounds += 1
        if res.rounds == 1:
            res.first = outs
        elif outs != res.first:
            res.consistent = False
        if on_round is not None:
            on_round(res.rounds)
        if clock() >= deadline and res.hist.n + len(block) >= min_ops:
            close_block(cal, clock() - block_start)
            return res
