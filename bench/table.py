"""Print the reference tables of README.md from the runs in bench/results/.

    python3 bench/table.py

Each figure is the median over the seeds run for that workload, untraced
(``--trace 0``) for the end-to-end table and traced (``--trace 1``) for the
per-layer table.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("plane", "real_line", "moduli", "cli")


def collect(trace: int) -> dict[str, dict[str, list[float]]]:
    table: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(RESULTS.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        for name, m in record["metrics"].items():
            table[record["workload"]][name].append(m["value"])
        table[record["workload"]]["runs"].append(1)
    return table


def units(trace: int) -> dict[str, str]:
    for path in RESULTS.glob(f"*-trace{trace}.json"):
        return {k: m["unit"] for k, m in json.loads(path.read_text())["metrics"].items()}
    return {}


def render(trace: int) -> str:
    table, unit = collect(trace), units(trace)
    present = [w for w in WORKLOADS if w in table]
    if not present:
        return f"(no --trace {trace} runs in {RESULTS})"
    runs = " ".join(f"{w}: {len(table[w]['runs'])}" for w in present)
    lines = [f"runs per workload: {runs}", "",
             "| metric | unit | " + " | ".join(present) + " |",
             "|---|---|" + "---:|" * len(present)]
    for name, u in unit.items():
        cells = [f"{statistics.median(table[w][name]):.4g}" for w in present]
        lines.append(f"| `{name}` | {u} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print("End to end (untraced)\n")
    print(render(0))
    print("\nPer layer (traced)\n")
    print(render(1))
