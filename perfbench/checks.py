"""Answer checks that do not trust the engine that produced the answer.

Every check goes through `Checker.expect(name, got, want)`. A checker built
with `fault=<name>` replaces that check's expected value with a wrong value
of the same kind, which is how the smoke test proves each check can fail.

`got` and `want` may be zero-argument callables. They are then evaluated
inside `expect`, whose time the checker adds up in `seconds`, so the run
can stop an instance's clock while its answer is being checked.
"""

from __future__ import annotations

import time


def wrong_value(want):
    """A value of the same kind as `want` that differs from it."""
    if isinstance(want, bool):
        return not want
    if isinstance(want, int):
        return want + 1
    if want is None:
        return -1
    if isinstance(want, set):
        return want | {("wrong",)}
    if isinstance(want, (list, tuple)):
        return type(want)(list(want) + [("wrong",)])
    raise TypeError(f"no wrong value for {type(want).__name__}")


class Checker:
    def __init__(self, fault: str | None = None):
        self.fault = fault
        self.failures: list[str] = []
        self.evaluated: set[str] = set()
        self.seconds = 0.0

    def expect(self, name: str, got, want) -> None:
        t0 = time.perf_counter()
        self.evaluated.add(name)
        if callable(got):
            got = got()
        if callable(want):
            want = want()
        if name == self.fault:
            want = wrong_value(want)
        if got != want:
            self.failures.append(f"{name}: got {_short(got)}, "
                                 f"want {_short(want)}")
        self.seconds += time.perf_counter() - t0


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def bad_solutions(g, system, sols) -> int:
    """How many assignments fail torsion, row commutation or a row product.

    Uses only the group's multiplication table: powers are repeated products
    and J^b is built from g.j, so no library search code is involved.
    """
    table, e, d = g.table, g.identity, system.modulus
    rows = [[(v, a) for v, a in enumerate(row) if a]
            for row in system.matrix.rows]
    j_pow = [e]
    for _ in range(d - 1):
        j_pow.append(table[j_pow[-1]][g.j])
    targets = [j_pow[b % d] for b in system.rhs]

    bad = 0
    for t in sols:
        ok = all(power_prod(table, e, x, d) == e for x in t)
        for row, target in zip(rows, targets):
            if not ok:
                break
            acc = e
            for v, a in row:
                acc = power_prod(table, acc, t[v], a)
            ok = acc == target and all(
                table[t[v]][t[w]] == table[t[w]][t[v]]
                for i, (v, _) in enumerate(row) for w, _ in row[i + 1:])
        bad += not ok
    return bad


def power_prod(table, acc, x, k):
    """acc * x^k by k table lookups."""
    for _ in range(k):
        acc = table[acc][x]
    return acc


def bad_isomorphism(g, h, mapping) -> int:
    """Defects of a claimed isomorphism g -> h: 0 means bijective and
    multiplicative on every pair."""
    if mapping is None:
        return 1
    if sorted(mapping) != list(range(g.n)) or \
            sorted(mapping.values()) != list(range(h.n)):
        return 1
    return sum(mapping[g.table[a][b]] != h.table[mapping[a]][mapping[b]]
               for a in range(g.n) for b in range(g.n))
