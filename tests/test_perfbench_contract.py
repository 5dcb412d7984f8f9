"""The benchmark reaches rfim by name: the tracer wraps attributes given as
strings, and the workload, set-up and report scripts import rfim names and
call them with keywords and read fields of their results by name.  A
rename, a deleted parameter or a renamed result field in `src/rfim` would
break `perfbench/run.py`; these tests catch it."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: rfim calls whose results the benchmark reads by attribute name
RESULT_CALLS = {
    ("rfim.counting", "check_instance"),
    ("rfim.counting", "approx_partition"),
    ("rfim.counting", "approx_sample"),
    ("rfim.percolation", "connection_probability"),
    ("rfim.percolation", "tv_domination_check"),
}


def test_every_traced_rfim_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(m, a) for m, a, *_ in tracing.RFIM_SPANS + tracing.RFIM_COUNTERS]
    assert names
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing, missing


def _rfim_imports(tree: ast.AST):
    """(names, modules): local name -> (module, attribute) for every rfim
    name the source imports with `from rfim... import`, and local name ->
    module for every rfim module it imports."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rfim":
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "rfim" and alias.name != "__version__":
                    modules[local] = f"rfim.{alias.name}"
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _resolve(target: ast.AST, names: dict, modules: dict):
    """(module, attribute) of an rfim name read as `name` or
    `module.attribute`, else (None, None)."""
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return modules.get(target.value.id), target.attr
    if isinstance(target, ast.Name):
        return names.get(target.id, (None, None))
    return None, None


def _rfim_uses(tree: ast.AST):
    """(module, attribute, keywords passed) for every rfim name the source
    imports with `from rfim... import` or reads as `module.attribute` of an
    imported rfim module; keywords is None where the name is not called."""
    names, modules = _rfim_imports(tree)
    uses = {}
    for node in ast.walk(tree):
        key = _resolve(node.func if isinstance(node, ast.Call) else node, names, modules)
        if key[0] is None:
            continue
        kws = uses.setdefault(key, set())
        if isinstance(node, ast.Call):
            kws.update(k.arg for k in node.keywords if k.arg is not None)
    for key in names.values():
        uses.setdefault(key, set())
    return uses


def test_every_rfim_name_and_keyword_the_benchmark_uses_exists():
    uses = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for key, kws in _rfim_uses(ast.parse(path.read_text())).items():
            uses.setdefault(key, set()).update(kws)
    assert len(uses) >= 20, sorted(uses)
    missing, bad_keywords = [], []
    for (mod, attr), kws in sorted(uses.items()):
        obj = getattr(importlib.import_module(mod), attr, None)
        if obj is None:
            missing.append(f"{mod}.{attr}")
            continue
        params = inspect.signature(obj).parameters if kws else {}
        bad_keywords += [f"{mod}.{attr}({k}=)" for k in sorted(kws) if k not in params]
    assert not missing, missing
    assert not bad_keywords, bad_keywords


def _result_reads(tree: ast.AST):
    """(module, function, attribute) for every attribute read, within one
    function, on a local name assigned the result of a RESULT_CALLS call."""
    names, modules = _rfim_imports(tree)
    reads = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        results = {}  # local name -> (module, function) of the call it holds
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                key = _resolve(node.value.func, names, modules)
                if key in RESULT_CALLS:
                    results.update((t.id, key) for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in results:
                    reads.add((*results[node.value.id], node.attr))
    return reads


def test_every_result_field_the_benchmark_reads_exists():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= _result_reads(ast.parse(path.read_text()))
    assert {(mod, fn) for mod, fn, _ in reads} == RESULT_CALLS, sorted(reads)
    missing = []
    for mod, fn, attr in sorted(reads):
        module = importlib.import_module(mod)
        # the return annotation is a string (postponed evaluation) naming a
        # record of the function's own module
        record = getattr(module, inspect.signature(getattr(module, fn)).return_annotation)
        if not (attr in record._fields or isinstance(getattr(record, attr, None), property)):
            missing.append(f"{mod}.{fn}(...).{attr} ({record.__name__})")
    assert not missing, missing
