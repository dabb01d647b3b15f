"""Exact linear algebra over Z_d for arbitrary d >= 2.

Z_d is not a field for composite d, so row spans are canonicalized with the
Howell form (the analogue of reduced row echelon form that is canonical for
row spans over Z_d). One Howell form of [A^T | I] solves Ax = b and gives
the kernel of A. One sparse integer Smith normal form gives invariant
factors over Z, and with them every abelianization. No floating point
anywhere.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def stab_unit(a: int, n: int) -> int:
    """A unit u of Z_n with u*a = gcd(a, n) mod n."""
    a %= n
    if a == 0:
        return 1
    g = gcd(a, n)
    ap, np_ = a // g, n // g
    # invert a' mod n/g, then shift by multiples of n/g until coprime to n
    if np_ == 1:
        u = 1
    else:
        _, x, _ = xgcd(ap, np_)
        u = x % np_
        if u == 0:
            u = np_
    while gcd(u, n) != 1:
        u += np_
    return u % n if u % n != 0 else u


class ZModMatrix:
    """Immutable matrix over Z_d with entries reduced into [0, d).

    A matrix built from an integer array keeps the reduced array and makes
    the row tuples of `rows` when they are first read; one built from rows
    keeps the tuples and makes `array()` when it is first read."""

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray,
                 modulus: int, num_cols: Optional[int] = None):
        """rows may be an integer array, reduced mod modulus in one step
        (widened first where its dtype cannot hold the residues)."""
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self._array: Optional[np.ndarray] = None
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ValueError("an array of rows must be 2-D")
            if rows.dtype != object and modulus > np.iinfo(rows.dtype).max:
                rows = rows.astype(np.int64 if modulus < 2 ** 63 else object)
            self._array = np.mod(rows, modulus)
            self._array.flags.writeable = False
            num_rows, widths = rows.shape[0], {rows.shape[1]}
        else:
            self.rows = tuple([tuple([e % modulus for e in map(int, r)])
                               for r in rows])
            num_rows, widths = len(self.rows), {len(r) for r in self.rows}
        if num_rows:
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if num_cols is not None and num_cols != width:
                raise ValueError("num_cols disagrees with row width")
        else:
            if num_cols is None:
                raise ValueError("empty matrix needs explicit num_cols")
            width = num_cols
        self.num_rows = num_rows
        self.num_cols = width
        self.modulus = modulus

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._array.tolist()))

    def array(self) -> np.ndarray:
        """The entries as a read-only num_rows x num_cols array: the reduced
        array a matrix was built from, else int64 (an object array of Python
        ints for a modulus beyond int64)."""
        if self._array is None:
            arr = np.array(self.rows, dtype=np.int64 if self.modulus <= 2 ** 63
                           else object).reshape(self.num_rows, self.num_cols)
            arr.flags.writeable = False
            self._array = arr
        return self._array

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def transpose(self) -> "ZModMatrix":
        return ZModMatrix([[self.rows[i][j] for i in range(self.num_rows)]
                           for j in range(self.num_cols)],
                          self.modulus, num_cols=self.num_rows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product over Z_d."""
        if len(vec) != self.num_cols:
            raise ValueError("dimension mismatch")
        d = self.modulus
        return tuple(sum(a * x for a, x in zip(row, vec)) % d
                     for row in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ZModMatrix) and self.modulus == other.modulus
                and self.num_cols == other.num_cols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.rows, self.num_cols, self.modulus))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"ZModMatrix[{self.num_rows}x{self.num_cols} mod {self.modulus}]({body})"


@dataclass(frozen=True)
class HowellBasis:
    """Howell canonical form of a row span."""

    matrix: ZModMatrix

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.matrix.rows

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    def pivots(self) -> list[tuple[int, int]]:
        """(column, value) of each pivot, in row order."""
        out = []
        for row in self.rows:
            for c, v in enumerate(row):
                if v:
                    out.append((c, v))
                    break
        return out

    def span_size(self) -> int:
        n = self.modulus
        size = 1
        for _, v in self.pivots():
            size *= n // gcd(v, n)
        return size

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """vec less the multiple of each basis row, in turn, that clears
        the row's pivot column where its pivot divides vec's entry there:
        all zeros exactly when vec lies in the span."""
        n = self.modulus
        v = [int(e) % n for e in vec]
        if len(v) != self.matrix.num_cols:
            raise ValueError("dimension mismatch")
        for row, (c, p) in zip(self.rows, self.pivots()):
            if v[c] % p == 0:
                q = v[c] // p
                if q:
                    v = [(a - q * b) % n for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def enumerate_span(self) -> list[tuple[int, ...]]:
        """All span elements (closure; intended for bounded inputs only)."""
        n = self.modulus
        width = self.matrix.num_cols
        seen = {tuple([0] * width)}
        frontier = list(seen)
        while frontier:
            new = []
            for v in frontier:
                for row in self.rows:
                    w = tuple((a + b) % n for a, b in zip(v, row))
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
            frontier = new
        return sorted(seen)


def howell_form(matrix: ZModMatrix) -> HowellBasis:
    """Howell canonical form: identical outputs iff identical row spans."""
    n = matrix.modulus
    work = [list(row) for row in matrix.rows if any(row)]
    pivots: list[tuple[int, list[int]]] = []
    for c in range(matrix.num_cols):
        hit = [row for row in work if row[c]]
        if not hit:
            continue
        rest = [row for row in work if not row[c]]
        r0 = hit[0]
        for r in hit[1:]:
            a, b = r0[c], r[c]
            g, x, y = xgcd(a, b)
            # unimodular 2x2 [[x, y], [-b/g, a/g]] acting on (r0, r)
            r0, r = ([(x * p + y * q) % n for p, q in zip(r0, r)],
                     [((a // g) * q - (b // g) * p) % n for p, q in zip(r0, r)])
            if any(r):
                rest.append(r)
        u = stab_unit(r0[c], n)
        r0 = [(u * a) % n for a in r0]
        ann = n // gcd(r0[c], n)  # r0[c] is now gcd(old pivot, n)
        if ann != 1:
            ra = [(ann * a) % n for a in r0]
            if any(ra):
                rest.append(ra)
        pivots.append((c, r0))
        work = rest

    # reduce entries above each pivot into [0, pivot)
    for i, (c, ri) in enumerate(pivots):
        for j in range(i):
            cj, rj = pivots[j]
            q = rj[c] // ri[c]
            if q:
                pivots[j] = (cj, [(a - q * b) % n for a, b in zip(rj, ri)])
    return HowellBasis(ZModMatrix([r for _, r in pivots], n,
                                  num_cols=matrix.num_cols))


def smith_normal_form(rows: Sequence[dict[int, int]],
                      num_cols: int) -> list[int]:
    """Invariant factors of an integer matrix of sparse rows ({column:
    entry}, num_cols columns): the min(m, n) diagonal entries
    d_1 | d_2 | ... of its Smith normal form, each >= 0, zeros last.

    Elimination over sparse rows (Havas-Holt-Rees, "Recognizing badly
    presented Z-modules", 1993). The pivot is a smallest |entry|, in a
    shortest row holding one, in its column with the fewest rows. Row
    operations reduce the pivot column modulo the pivot; once the pivot is
    alone there, column operations (which then touch its row only) reduce
    its row. A row left as its pivot alone is a diagonal entry; any other
    outcome leaves a smaller entry, so the loop ends. A gcd/lcm pass turns
    the diagonal into invariant factors."""
    live: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = defaultdict(set)   # column -> its rows
    heap, diag = [], []

    def put(i, c, v):
        if v:
            live[i][c] = v
            cols[c].add(i)
        else:
            live[i].pop(c, None)
            cols[c].discard(i)

    def push(i):
        if live[i]:
            heapq.heappush(heap, (min(map(abs, live[i].values())),
                                  len(live[i]), i))
        else:
            del live[i]

    for i, row in enumerate(rows):
        live[i] = {}
        for c, v in row.items():
            put(i, c, v)
        push(i)
    while heap:
        least, length, i = heapq.heappop(heap)
        r = live.get(i)
        if r is None or (least, length) != (min(map(abs, r.values())), len(r)):
            continue  # a stale key: the row has a newer one
        c = min((c for c, v in r.items() if abs(v) == least),
                key=lambda c: len(cols[c]))
        p = r[c]
        for j in cols[c] - {i}:
            q = live[j][c] // p
            for c2, v in r.items():
                put(j, c2, live[j].get(c2, 0) - q * v)
            push(j)
        if len(cols[c]) == 1:
            for c2 in [c2 for c2 in r if c2 != c]:
                put(i, c2, r[c2] % p)
            if len(r) == 1:
                del live[i]
                diag.append(least)
                continue
        push(i)
    rank = len(diag)
    diag = [v for v in diag if v > 1]
    # gcd/lcm on each pair: diag[i] then divides every later entry
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return ([1] * (rank - len(diag)) + diag
            + [0] * (min(len(rows), num_cols) - rank))


@dataclass(frozen=True)
class LinearSolution:
    """One particular solution plus a Howell basis of the kernel."""

    particular: tuple[int, ...]
    kernel: HowellBasis
    modulus: int

    def count(self) -> int:
        return self.kernel.span_size()

    def enumerate(self) -> list[tuple[int, ...]]:
        n = self.modulus
        return sorted(tuple((p + k) % n for p, k in zip(self.particular, vec))
                      for vec in self.kernel.enumerate_span())


def kernel_basis(matrix: ZModMatrix) -> HowellBasis:
    """Howell basis of {x : matrix @ x = 0} over Z_d."""
    sol = solve(matrix, [0] * matrix.num_rows)
    assert sol is not None
    return sol.kernel


def solve(matrix: ZModMatrix, rhs: Sequence[int]) -> Optional[LinearSolution]:
    """Solve matrix @ x = rhs over Z_d; None when no solution exists.

    The rows of [A^T | I] span the pairs (Ax, x), so their Howell form
    reduces (b, 0) to (0, -x) with Ax = b exactly when b lies in the image
    of A. Its rows with a pivot among the last c columns, cut to those
    columns, are the Howell form of the kernel."""
    n = matrix.modulus
    m, c = matrix.num_rows, matrix.num_cols
    if len(rhs) != m:
        raise ValueError("dimension mismatch")
    rhs = tuple(int(e) % n for e in rhs)
    pairs = [list(col) + [0] * c for col in matrix.transpose().rows]
    for j, row in enumerate(pairs):
        row[m + j] = 1
    howell = howell_form(ZModMatrix(pairs, n, num_cols=m + c))
    v = howell.reduce(rhs + (0,) * c)
    if any(v[:m]):
        return None
    x = tuple(-e % n for e in v[m:])
    kernel = [row[m:] for row, (col, _) in zip(howell.rows, howell.pivots())
              if col >= m]
    # safety: the particular solution must actually solve the system
    if matrix.apply(x) != rhs:
        raise ArithmeticError("internal solver error")
    return LinearSolution(x, HowellBasis(ZModMatrix(kernel, n, num_cols=c)), n)
