"""The benchmark reaches rfim by name: the tracer wraps attributes given as
strings, and the workload, set-up and report scripts import rfim names and
call them with keywords.  A rename or a deleted parameter in `src/rfim`
would break `perfbench/run.py`; these tests catch it."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_rfim_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(m, a) for m, a, *_ in tracing.RFIM_SPANS + tracing.RFIM_COUNTERS]
    assert names
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing, missing


def _rfim_uses(tree: ast.AST):
    """(module, attribute, keywords passed) for every rfim name the source
    imports with `from rfim... import` or reads as `module.attribute` of an
    imported rfim module; keywords is None where the name is not called."""
    names, modules = {}, {}  # local name -> (module, attribute) / module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rfim":
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "rfim" and alias.name != "__version__":
                    modules[local] = f"rfim.{alias.name}"
                else:
                    names[local] = (node.module, alias.name)
    uses = {}
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            key = (modules.get(target.value.id), target.attr)
        elif isinstance(target, ast.Name):
            key = names.get(target.id, (None, None))
        else:
            continue
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
