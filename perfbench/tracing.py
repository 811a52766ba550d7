"""Span and count wrappers installed around quasikernel's layer functions.

The wrappers live here, not in the library: ``Tracer.install`` replaces
each target function in every ``quasikernel`` module namespace that holds
it (``from .kernel import eq_strong`` makes a second reference), and each
target method on its class; ``uninstall`` puts the originals back.

A span is (id, parent id, request id, name, start, end); spans are kept in
memory up to a cap and written out by ``write_spans``.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter

# module -> functions ("Class.method" for methods); a span is named
# "<module>.<function>" without the class.
TARGETS = {
    "surface": ("parse", "parse_expr", "elaborate"),
    "kernel": ("eval_term", "apply_pval", "eq_strong", "finmap"),
    "functors": ("inject", "project", "poly_value", "poly_unvalue"),
    "initial": (
        "InitialAlgebra.construct",
        "InitialAlgebra.destruct",
        "InitialAlgebra.sel",
        "InitialAlgebra.fold",
        "InitialAlgebra.enumerate_trees",
        "InitialAlgebra.is_in_T",
    ),
    "final": (
        "FinalCoalgebra.unfold",
        "FinalCoalgebra.observe",
        "FinalCoalgebra.tree_eq",
        "FinalCoalgebra.membership_failures",
        "FinalCoalgebra.paths_up_to",
    ),
    "checks": (
        "fold_equation_failures",
        "fold_uniqueness_solutions",
        "suite_initial",
        "suite_final",
    ),
    "cpo": ("chain_sup", "lfp", "order_axiom_failures", "minimality_failures"),
    "lab": ("is_coarse", "hom_set", "is_regular_mono", "nno_fragment_check"),
    "cli": ("run",),
}

# Spans whose result length is counted as work done.
RESULT_COUNTS = {
    "initial.enumerate_trees": "initial.trees_enumerated",
    "final.paths_up_to": "final.paths_enumerated",
    "lab.hom_set": "lab.homs_enumerated",
}

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts = {name: 0 for name in RESULT_COUNTS.values()}
        self.destruct_misses = 0  # destruct spans with a sel child span
        self.request = 0
        self._stack: list[list] = []  # per open span: [child time, has sel child, id]
        self._next_id = 0
        self.dropped = 0
        self._cols = {c: array("q") for c in ("id", "parent", "request", "name")}
        self._t0 = array("d")
        self._t1 = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # ---- installation -------------------------------------------------

    def install(self) -> None:
        import quasikernel

        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "quasikernel" or name.startswith("quasikernel."))
        ]
        for mod_name, funcs in TARGETS.items():
            mod = getattr(quasikernel, mod_name)
            for qual in funcs:
                if "." in qual:
                    cls_name, fn_name = qual.split(".")
                    owner = getattr(mod, cls_name)
                    original = vars(owner)[fn_name]
                    self._patch(owner, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))
                    continue
                original = getattr(mod, qual)
                wrapper = self._wrap(f"{mod_name}.{qual}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        idx = self._index(name)
        count_key = RESULT_COUNTS.get(name)
        is_sel = name == "initial.sel"
        is_destruct = name == "initial.destruct"
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0.0, False, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                calls[idx] += 1
                self_s[idx] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                    if is_sel:
                        parent[1] = True
                if is_destruct and frame[1]:
                    self.destruct_misses += 1
                self._record(span_id, parent[2] if parent else -1, idx, t0, t1)
            if count_key is not None:
                counts[count_key] += len(result)
            return result

        return traced

    def _record(self, span_id: int, parent: int, idx: int, t0: float, t1: float) -> None:
        if len(self._t0) >= SPAN_CAP:
            self.dropped += 1
            return
        cols = self._cols
        cols["id"].append(span_id)
        cols["parent"].append(parent)
        cols["request"].append(self.request)
        cols["name"].append(idx)
        self._t0.append(t0)
        self._t1.append(t1)

    # ---- results --------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        if name not in self.names:
            return 0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.self_s[i]

    def write_spans(self, path: Path) -> int:
        """Write kept spans as TSV (times in microseconds); returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        c = self._cols
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_us\tend_us\n")
            base = min(self._t0, default=0.0)
            for i in range(len(self._t0)):
                fh.write(
                    f"{c['id'][i]}\t{c['parent'][i]}\t{c['request'][i]}\t{self.names[c['name'][i]]}\t"
                    f"{(self._t0[i] - base) * 1e6:.1f}\t{(self._t1[i] - base) * 1e6:.1f}\n"
                )
        return len(self._t0)
