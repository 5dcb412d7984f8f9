"""The benchmark's tracer wraps rfim attributes by name, so a rename in
`src/rfim` would break `perfbench/run.py --trace 1`; this test catches it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_rfim_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(m, a) for m, a, *_ in tracing.RFIM_SPANS + tracing.RFIM_COUNTERS]
    assert names
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing, missing
