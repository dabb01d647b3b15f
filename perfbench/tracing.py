"""Spans around the benchmark's calls into the library's public functions.

The benchmark never calls a library function directly: it goes through a
`Lib` namespace. Untraced, each attribute of `Lib` is the library function
itself, so the measured path carries no tracing cost. Traced, each attribute
is a wrapper that records one span (name, start, end, parent, instance) and,
for some functions, named counters taken from the arguments and the result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import SimpleNamespace

from simplcs import (cohomology, contextuality, groups, linsys,
                     presentations, simplicial, zmod)

# The public functions the benchmark calls, by layer (= package module).
LAYERS = {
    "zmod": (zmod, ["solve"]),
    "linsys": (linsys, ["parse_lcs", "write_lcs", "make_system",
                        "k33_system", "two_vertex_system"]),
    "groups": (groups, ["build_group", "find_isomorphism"]),
    "simplicial": (simplicial, ["complex_of_system", "nzd_sigma",
                                "comm_nerve", "k33_torus_fixture"]),
    "cohomology": (cohomology, ["cochain", "gamma_b",
                                "extract_linear_system"]),
    "presentations": (presentations, [
        "solutions", "enumerate_homs", "check_reduction_bijection",
        "theorem_iso_check", "solution_group", "pi1", "k_group",
        "tietze_simplify", "todd_coxeter", "abelianization"]),
    "contextuality": (contextuality, [
        "enumerate_deterministic", "theta", "mermin_peres_solution",
        "random_phase_state", "quantum_distribution", "is_contextual",
        "verify_verdict"]),
}


def _letters(pres) -> int:
    return sum(abs(e) for rel in pres.relators for _, e in rel)


def _simplices(x) -> int:
    return sum(len(x.simplices[n]) for n in range(x.cap + 1))


def _tc_counts(args, res):
    if res is None:
        return {"presentations.todd_coxeter.inconclusive": 1}
    return {"presentations.todd_coxeter.order_sum": res.order}


# name -> f(args, result) -> {counter: increment}
COUNTERS = {
    "presentations.solutions": lambda a, r: {
        "presentations.solutions.results": len(r)},
    "presentations.enumerate_homs": lambda a, r: {
        "presentations.enumerate_homs.results": len(r)},
    "presentations.todd_coxeter": _tc_counts,
    "presentations.tietze_simplify": lambda a, r: {
        "presentations.tietze_simplify.letters_in": _letters(a[0]),
        "presentations.tietze_simplify.letters_out": _letters(r)},
    "simplicial.nzd_sigma": lambda a, r: {"simplicial.simplices": _simplices(r)},
    "simplicial.comm_nerve": lambda a, r: {"simplicial.simplices": _simplices(r)},
    "cohomology.extract_linear_system": lambda a, r: {
        "cohomology.extracted_rows": r.num_rows,
        "cohomology.extracted_cols": r.num_cols},
    "contextuality.is_contextual": lambda a, r: {
        ("contextuality.is_contextual.contextual" if r.contextual else
         "contextuality.is_contextual.noncontextual"): 1,
        "contextuality.lp_columns": len(a[1]),
        "contextuality.lp_rows": len(r.row_labels)},
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        # (name, start, end, parent index or None, instance id)
        self.spans: list[list] = []
        # instance id -> counter name -> total
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.instance = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.instance])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                for key, inc in count(args, res).items():
                    self.counters[self.instance][key] += inc
            return res
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def summary(self, instances) -> dict[str, dict]:
        """name -> {calls, total_s, self_s} over the spans of `instances`,
        plus the named counters of those instances."""
        acc: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, inst = span
            if inst not in instances:
                continue
            row = acc.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        for inst in instances:
            for key, value in self.counters.get(inst, {}).items():
                acc.setdefault(key, {"count": 0})["count"] += value
        return acc

    def nesting_violations(self, tol: float = 1e-9) -> list[int]:
        """Spans that end before they start, lie outside their parent, or
        start before the previous child of their parent has ended.

        When there are none, the self times of an instance's spans are all
        non-negative and add up to its root span's duration.
        """
        bad = []
        last_end: dict = {}   # parent -> end of its latest child
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                ok = start <= end
            else:
                _, p_start, p_end, _, _ = self.spans[parent]
                ok = (p_start - tol <= start <= end <= p_end + tol and
                      start >= last_end.get(parent, start) - tol)
                last_end[parent] = end
            if not ok:
                bad.append(idx)
        return bad

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst})
                         + "\n")


def make_lib(tracer: Tracer | None) -> SimpleNamespace:
    """Namespace of library functions, wrapped in spans when tracing."""
    fns = {}
    for layer, (module, names) in LAYERS.items():
        for name in names:
            fn = getattr(module, name)
            fns[name] = fn if tracer is None else tracer.wrap(
                f"{layer}.{name}", fn)
    return SimpleNamespace(**fns)
