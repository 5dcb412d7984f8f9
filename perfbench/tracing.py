"""Outside-in tracing of rfim's layers.

The tracer replaces a module attribute with a wrapper, at the name the
caller resolves: `rfim.counting.build_saw_tree` is the name counting.py
calls, so wrapping it there sees every SAW tree the counting layer builds.
No file under src/ is touched.  Each wrapped call records a span
[name, start, end, parent span, operation id] in memory; counters (such as
`influence_bound` calls made from sawtree) add to the innermost open span.
`summary()` derives self times (a span's duration minus its children's) and
inclusive counts; `write()` dumps the spans as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _free(args, kwargs):
    return len(_arg(args, kwargs, 0, "inst").free_vertices)


# (module the caller resolves the name in, attribute, span name, counts of
# one call from (args, kwargs, result)).  Span names are "<layer>.<function>".
RFIM_SPANS = [
    ("rfim.counting", "approx_partition", "counting.approx_partition",
     lambda a, k, r: {"steps": _free(a, k)}),
    ("rfim.counting", "approx_sample", "counting.approx_sample",
     lambda a, k, r: {"draws": 1}),
    ("rfim.counting", "sample_many", "counting.sample_many",
     lambda a, k, r: {"draws": _arg(a, k, 3, "count")}),
    ("rfim.counting", "check_instance", "counting.check_instance", None),
    ("rfim.counting", "build_saw_tree", "sawtree.build_saw_tree",
     lambda a, k, r: {"trees": 1, "nodes": r.node_count}),
    ("rfim.counting", "root_marginal", "sawtree.root_marginal", None),
    ("rfim.counting", "certified_truncation_error", "sawtree.certified_truncation_error", None),
    ("rfim.counting", "ssm_certificate", "sawtree.ssm_certificate", None),
    ("rfim.counting", "hamiltonian", "model.hamiltonian", None),
    ("rfim.model", "exact_partition", "model.exact_partition",
     lambda a, k, r: {"configs": 2 ** _free(a, k)}),
    ("rfim.percolation", "exact_region_law", "model.exact_region_law",
     lambda a, k, r: {"configs": 2 ** _free(a, k)}),
    ("rfim.glauber", "glauber_sample", "glauber.glauber_sample", None),
    ("rfim.glauber", "run_chains", "glauber.run_chains",
     lambda a, k, r: {"chain_steps": _arg(a, k, 1, "steps") * _arg(a, k, 2, "n_chains")}),
    ("rfim.percolation", "tv_domination_check", "percolation.tv_domination_check", None),
    ("rfim.percolation", "connection_probability", "percolation.connection_probability",
     lambda a, k, r: {"trials": _arg(a, k, 2, "trials")}),
    ("rfim.cli", "cli_dispatch", "cli.cli_dispatch", None),
]
# Calls too frequent for a span each (hundreds of thousands per sample):
# (module, attribute, counter name).
RFIM_COUNTERS = [("rfim.sawtree", "influence_bound", "influence_calls")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.own: defaultdict = defaultdict(Counter)  # span index -> counts
        self.stack: list[int] = []
        self.op = None
        self._patches: list = []

    def install(self, spans, counters) -> None:
        for modname, attr, name, measure in spans:
            self._patch(modname, attr, lambda fn, n=name, m=measure: self._span(fn, n, m))
        for modname, attr, key in counters:
            self._patch(modname, attr, lambda fn, key=key: self._counter(fn, key))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    def reset(self) -> None:
        self.spans.clear()
        self.own.clear()

    def _patch(self, modname, attr, make) -> None:
        mod = importlib.import_module(modname)
        orig = getattr(mod, attr)
        self._patches.append((mod, attr, orig))
        setattr(mod, attr, functools.wraps(orig)(make(orig)))

    def _span(self, fn, name, measure):
        spans, own, stack = self.spans, self.own, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if measure is not None:
                own[idx].update(measure(args, kwargs, result))
            return result

        return traced

    def _counter(self, fn, key):
        own, stack = self.own, self.stack

        def counted(*args, **kwargs):
            own[stack[-1] if stack else -1][key] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, inclusive counts;
        per operation: inclusive counts; and the seconds each span name
        spends inside each ancestor name (`within`)."""
        spans = self.spans
        n = len(spans)
        child_s = [0.0] * n
        incl = [Counter(self.own.get(i, ())) for i in range(n)]
        for i in range(n - 1, -1, -1):
            name, start, end, parent, _ = spans[i]
            if parent >= 0:
                child_s[parent] += end - start
                incl[parent].update(incl[i])
        calls, total_s, self_s = Counter(), Counter(), Counter()
        counts: defaultdict = defaultdict(Counter)
        ops: defaultdict = defaultdict(Counter)
        within: defaultdict = defaultdict(Counter)
        for i, (name, start, end, parent, op) in enumerate(spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_s[i]
            counts[name].update(incl[i])
            ops[op].update(self.own.get(i, ()))
            for pname in {spans[j][0] for j in self._ancestors(i)}:
                within[pname][name] += end - start
        counts["*"] = sum(self.own.values(), Counter())
        return {"calls": calls, "total_s": total_s, "self_s": self_s,
                "counts": counts, "ops": ops, "within": within}

    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if i in self.own:
                    rec["counts"] = dict(self.own[i])
                f.write(json.dumps(rec) + "\n")
