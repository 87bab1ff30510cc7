"""Spans around calls into the library's modules, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper at every name
it is bound to in the `leftcurtain` package, so calls between modules (for
example `shadow.positive_convex_order_leq` or `coupling.shadow`) are seen as
well as the benchmark's own calls; `uninstall()` puts the originals back.
The library itself is not edited.  A span records the function, start,
end, parent span and operation id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Dict, List, Tuple

PACKAGE = "leftcurtain"
MODULES = ("measure", "decomposition", "shadow", "coupling", "geometry", "simplex", "lpsolver", "cli")
# Leaf helpers called from inner loops: a span per call would cost more
# than the work it times.
UNTRACED = {"measure.rat", "measure.call_value", "measure.put_value"}
# Public methods that hold part of a layer's work.
METHODS = {"lpsolver": (("MotProgram", "lp_rows"),)}
ORDER_TESTS = {"measure.positive_convex_order_leq", "measure.convex_order_leq"}
ORDER_SPANS = ORDER_TESTS | {"measure.require_convex_order", "measure.require_convex_order_chain"}
PATH_MEASURE_OUT = {
    "coupling.left_curtain_one_step",
    "coupling.left_monotone_multistep",
    "coupling.free_monotone_transport",
}

def _module_of(key: str) -> str:
    return key.split(".", 1)[0]


def _tableau_cols(bound) -> int:
    """Columns of the simplex tableau: structural, slack/surplus, artificial, rhs."""
    a = bound.arguments
    senses = a.get("senses") or ["="] * len(a["rows"])
    aux = art = 0
    for sense, rhs in zip(senses, a["rhs"]):
        if rhs < 0:
            sense = {"<=": ">=", ">=": "<="}.get(sense, sense)
        aux += sense != "="
        art += sense != "<="
    return len(a["objective"]) + aux + art + 1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.op = -1
        self.counters: Dict[str, int] = {
            "simplex.pivots": 0, "simplex.max_rows": 0, "simplex.max_cols": 0,
            "lpsolver.lp_vars": 0, "lpsolver.lp_rows": 0, "coupling.paths_out": 0,
            "decomposition.pairs": 0,
        }
        self._pairs: set = set()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for short, module in zip(MODULES, modules[1:]):
            for name, fn in list(vars(module).items()):
                key = f"{short}.{name}"
                if (
                    name.startswith("_")
                    or key in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(key, fn)
                for holder in modules:
                    for bound_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, bound_name, fn))
                            setattr(holder, bound_name, wrapper)
            for cls_name, method in METHODS.get(short, ()):
                cls = getattr(module, cls_name)
                fn = vars(cls)[method]
                self._patches.append((cls, method, fn))
                setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patches):
            setattr(holder, name, fn)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = getattr(self, "_hook_" + key.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent, self.op))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if hook is not None:
                parent_key = self.names[spans[parent][0]] if parent >= 0 else ""
                hook(signature.bind(*args, **kwargs), result, parent_key)
            elif key in PATH_MEASURE_OUT and (parent < 0 or _module_of(self.names[spans[parent][0]]) != "coupling"):
                self.counters["coupling.paths_out"] += len(result)
            return result

        return traced

    # --- counts taken at the boundary --------------------------------------

    def _hook_simplex_solve_lp(self, bound, result, parent_key) -> None:
        c = self.counters
        rows = len(bound.arguments["rows"])
        c["simplex.pivots"] += result.iterations
        c["simplex.max_rows"] = max(c["simplex.max_rows"], rows)
        c["simplex.max_cols"] = max(c["simplex.max_cols"], _tableau_cols(bound))
        if _module_of(parent_key) == "lpsolver":
            c["lpsolver.lp_vars"] += len(bound.arguments["objective"])
            c["lpsolver.lp_rows"] += rows

    def _hook_decomposition_decompose_step(self, bound, result, parent_key) -> None:
        pair = (bound.arguments["mu"], bound.arguments["nu"])
        if pair not in self._pairs:
            self._pairs.add(pair)
            self.counters["decomposition.pairs"] += 1

    # --- export and metrics -------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}

    def absorb(self, other: dict) -> None:
        """Merge the export of a tracer that ran in a child process."""
        remap = {}
        for i, name in enumerate(other["names"]):
            if name not in self.names:
                self.names.append(name)
            remap[i] = self.names.index(name)
        offset = len(self.spans)
        for name_id, start, end, parent, _ in other["spans"]:
            self.spans.append((remap[name_id], start, end, parent + offset if parent >= 0 else -1, self.op))
        for key, value in other["counters"].items():
            merge = max if key.startswith("simplex.max_") else (lambda a, b: a + b)
            self.counters[key] = merge(self.counters[key], value)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-module counts and times derived from the spans.

    A span's self time is its duration minus the durations of its children;
    calls are single-threaded and nested, so children never overlap.
    """
    names, spans = tracer.names, tracer.spans
    keys = [names[s[0]] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    self_time = list(durations)
    for s, d in zip(spans, durations):
        if s[3] >= 0:
            self_time[s[3]] -= d
    out: Dict[str, float] = {}
    for module in MODULES:
        ids = [i for i, k in enumerate(keys) if _module_of(k) == module]
        out[f"{module}.calls"] = len(ids)
        out[f"{module}.self_s"] = sum(self_time[i] for i in ids)

    def parent_key(i: int) -> str:
        return keys[spans[i][3]] if spans[i][3] >= 0 else ""

    def count(key: str) -> int:
        return sum(1 for k in keys if k == key)

    def inclusive(wanted) -> float:
        return sum(d for i, d in enumerate(durations) if keys[i] in wanted and parent_key(i) not in wanted)

    c = tracer.counters
    atoms = count("shadow.shadow_atom")
    from_shadow = sum(1 for i, k in enumerate(keys) if k in ORDER_TESTS and _module_of(parent_key(i)) == "shadow")
    decompositions = count("decomposition.decompose_step")
    out.update({
        "measure.order_checks": sum(1 for k in keys if k in ORDER_TESTS),
        "measure.order_s": inclusive(ORDER_SPANS),
        "shadow.atom_calls": atoms,
        "shadow.fold_calls": count("shadow.shadow"),
        "shadow.order_checks_per_atom": from_shadow / atoms if atoms else 0.0,
        "coupling.paths_out": c["coupling.paths_out"],
        "decomposition.repeat_ratio": decompositions / c["decomposition.pairs"] if decompositions else 0.0,
        "simplex.lps": count("simplex.solve_lp"),
        "simplex.pivots": c["simplex.pivots"],
        "simplex.s_per_pivot": out["simplex.self_s"] / c["simplex.pivots"] if c["simplex.pivots"] else 0.0,
        "simplex.max_rows": c["simplex.max_rows"],
        "simplex.max_cols": c["simplex.max_cols"],
        "lpsolver.build_s": inclusive({"lpsolver.build_program", "lpsolver.MotProgram.lp_rows"}),
        "lpsolver.dual_s": inclusive({"lpsolver.extract_dual"}),
        "lpsolver.lp_vars": c["lpsolver.lp_vars"],
        "lpsolver.lp_rows": c["lpsolver.lp_rows"],
    })
    return out

