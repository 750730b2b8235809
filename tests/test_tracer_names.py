"""Every name the benchmark's tracer wraps or counts resolves on its module.

bench/tracing.py replaces attributes of dn2's modules by name, and a traced
run fails on a missing one; this reads its tables, without changing them, so
that a rename in src/ fails here too.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS, tracing.COUNTS


@pytest.mark.parametrize("table", ["SPANS", "COUNTS"])
def test_every_traced_name_resolves(table):
    entries = dict(zip(("SPANS", "COUNTS"), _tables()))[table]
    assert entries
    for module_name, attrs in entries.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
