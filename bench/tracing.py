"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces dn2's public functions with wrappers on every
module that imports them (a module calls the name bound in its own
namespace), and ``uninstall`` puts the originals back.  A wrapper records a
span: its name, its parent (the span open when it started), its duration and
its self time, which is the duration minus the time of its child spans.
Spans are summed per (name, parent) edge; the spans of the first traced
round are also kept whole, with their parent's id, and written out at the end
of the run.  Two private functions of ``dn2.hyper`` are counted, not timed,
to tell the two regimes of gauss_2f1 apart; ``f14_34_12_closed`` is counted
too, because it is the quadrature integrand and runs thousands of times per
solve.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

ROOT_SPAN = "op"

def _dn2_name(args, kwargs) -> str:
    route = kwargs.get("route", args[2] if len(args) > 2 else None)
    return f"core.dn2.{route.value if route is not None else 'sn'}"


def _periods_name(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else None)
    return f"core.periods.{method.value if method is not None else 'elliptic'}"


# module -> {attribute: span name, or a function of the call's arguments}
SPANS = {
    "dn2.core": {
        "dn2": _dn2_name,
        "periods": _periods_name,
        "f_forward": "core.f_forward",
        "phi": "core.phi",
        "s2": "core.s2",
        "i_gamma": "core.i_gamma",
        "invariants_of": "core.invariants_of",
        "integrate": "kernel.integrate",
        "newton_invert": "kernel.newton_invert",
        "jacobi_real": "jacobi.jacobi_real",
        "jacobi_complex": "jacobi.jacobi_complex",
        "complete_K": "hyper.complete_K",
        "gauss_2f1": "hyper.gauss_2f1",
    },
    "dn2.jacobi": {"jacobi_real": "jacobi.jacobi_real", "complete_K": "hyper.complete_K"},
    "dn2.weier": {
        "jacobi_complex": "jacobi.jacobi_complex",
        "complete_K": "hyper.complete_K",
        "lattice_from_invariants": "weier.lattice_from_invariants",
        "wp_halfperiods": "weier.wp_halfperiods",
    },
    "dn2.identities": {
        "periods": _periods_name,
        "gauss_2f1": "hyper.gauss_2f1",
        "identity_bbg_91": "identities.identity_bbg_91",
        "identity_bbg_92": "identities.identity_bbg_92",
        "transform_signature4": "identities.transform_signature4",
        "period_relations": "identities.period_relations",
    },
    "dn2.cli": {
        "parse_z": "cli.parse_z",
        "_emit": "cli.emit",
        "wp_halfperiods": "weier.wp_halfperiods",
    },
}
COUNTS = {
    "dn2.core": {"f14_34_12_closed": "hyper.f14_34_12_closed"},
    "dn2.hyper": {
        "_direct_series": "hyper.gauss_2f1.direct",
        "_log_connection": "hyper.gauss_2f1.log",
    },
}


class Tracer:
    def __init__(self):
        # (name, parent) -> [calls, total_ns, self_ns, quadrature evaluations]
        self.edges: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, name, start_ns, end_ns)
        self.recording = False
        self._stack = [[ROOT_SPAN, 0, 0]]  # [name, child ns, span id]
        self._next_id = 1
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, name):
        edges, stack, clock = self.edges, self._stack, time.perf_counter_ns
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [label, 0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                edge = edges[(label, parent[0])]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
                if self.recording:
                    self.spans.append((span_id, parent[2], label, t0, t1))
            evaluations = getattr(result, "evaluations", None)
            if evaluations is not None:
                edge[3] += evaluations
            return result

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for modname, attrs in table.items():
                mod = importlib.import_module(modname)
                for attr, name in attrs.items():
                    original = getattr(mod, attr)
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, make(original, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # ------------------------------------------------------------- queries

    def _edges(self, name: str):
        # a name covers its sub-spans: "core.periods" covers "core.periods.hyper"
        sub = name + "."
        return ((p, e) for (n, p), e in self.edges.items() if n == name or n.startswith(sub))

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(e[0] for p, e in self._edges(name) if parent is None or p == parent)

    def self_ns(self, name: str) -> int:
        return sum(e[2] for _p, e in self._edges(name))

    def evaluations(self, name: str) -> int:
        return sum(e[3] for _p, e in self._edges(name))

    def edge_table(self) -> list[dict]:
        return [
            {"span": n, "parent": p, "calls": e[0], "total_ns": e[1], "self_ns": e[2],
             "evaluations": e[3]}
            for (n, p), e in sorted(self.edges.items())
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ops: int, scale: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass of ``ops`` operations.

    Counts and self times are per workload operation; a layer the workload
    does not reach reads 0.  ``scale`` takes the spans' raw times to the
    harness's reference speed, as the pass's own times were.
    """
    per_op = 1.0 / ops
    us = per_op * scale / 1e3

    def calls(name):
        return (tr.calls(name) * per_op, "calls/op")

    def self_us(prefix):
        return (tr.self_ns(prefix) * us, "us/op")

    newton = tr.calls("kernel.newton_invert")
    phi_calls = tr.calls("core.phi")
    real_calls = tr.calls("jacobi.jacobi_real")
    wp_calls = tr.calls("core.dn2.wp")
    return {
        "kernel.integrate.calls": calls("kernel.integrate"),
        "kernel.integrate.evals": (tr.evaluations("kernel.integrate") * per_op, "evals/op"),
        "kernel.integrate.self_us": self_us("kernel.integrate"),
        "kernel.newton_invert.calls": calls("kernel.newton_invert"),
        "kernel.newton_invert.self_us": self_us("kernel.newton_invert"),
        "kernel.newton_invert.f_per_solve": (
            _ratio(tr.calls("core.f_forward", "kernel.newton_invert"), newton), "ratio"),
        "core.f_forward.calls": calls("core.f_forward"),
        "core.f_forward.self_us": self_us("core.f_forward"),
        "core.dn2.phi.self_us": self_us("core.dn2.phi"),
        "core.periods_per_phi_call": (
            _ratio(tr.calls("core.periods", "core.phi"), phi_calls), "ratio"),
        "hyper.f14_34_12_closed.calls": (tr.counts["hyper.f14_34_12_closed"] * per_op, "calls/op"),
        "jacobi.jacobi_real.calls": calls("jacobi.jacobi_real"),
        "jacobi.jacobi_real.self_us": self_us("jacobi.jacobi_real"),
        "jacobi.jacobi_complex.calls": calls("jacobi.jacobi_complex"),
        "jacobi.jacobi_complex.self_us": self_us("jacobi.jacobi_complex"),
        "jacobi.K_per_real_call": (
            _ratio(tr.calls("hyper.complete_K", "jacobi.jacobi_real"), real_calls), "ratio"),
        "core.dn2.sn.self_us": self_us("core.dn2.sn"),
        "core.dn2.wp.self_us": self_us("core.dn2.wp"),
        "core.invariants_per_wp_call": (
            _ratio(tr.calls("core.invariants_of", "core.dn2.wp"), wp_calls), "ratio"),
        "hyper.gauss_2f1.direct_calls": (tr.counts["hyper.gauss_2f1.direct"] * per_op, "calls/op"),
        "hyper.gauss_2f1.log_calls": (tr.counts["hyper.gauss_2f1.log"] * per_op, "calls/op"),
        "hyper.gauss_2f1.self_us": self_us("hyper.gauss_2f1"),
        "hyper.complete_K.calls": calls("hyper.complete_K"),
        "hyper.complete_K.self_us": self_us("hyper.complete_K"),
        "core.periods.elliptic.self_us": self_us("core.periods.elliptic"),
        "core.periods.hyper.self_us": self_us("core.periods.hyper"),
        "core.periods.integral.self_us": self_us("core.periods.integral"),
        "core.i_gamma.self_us": self_us("core.i_gamma"),
        "weier.lattice_from_invariants.self_us": self_us("weier.lattice_from_invariants"),
        "weier.wp_halfperiods.self_us": self_us("weier.wp_halfperiods"),
        "identities.calls": calls("identities"),
        "identities.self_us": self_us("identities"),
        "cli.parse_z.self_us": self_us("cli.parse_z"),
        "cli.emit.self_us": self_us("cli.emit"),
    }
