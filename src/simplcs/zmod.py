"""Exact linear algebra over Z_d for arbitrary d >= 2.

Z_d is not a field for composite d, so row spans are canonicalized with the
Howell form (the analogue of reduced row echelon form that is canonical for
row spans over Z_d). One Howell form of [A^T | I] solves Ax = b and gives
the kernel of A. The integer Smith normal form gives invariant factors over
Z. No floating point anywhere.
"""

from __future__ import annotations

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


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors of an integer matrix: the min(m, n) diagonal
    entries d_1 | d_2 | ... of its Smith normal form, each >= 0."""
    a = [list(map(int, r)) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero |entry| in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None
                                or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        a[t], a[best[0]] = a[best[0]], a[t]
        for r in a:
            r[t], r[best[1]] = r[best[1]], r[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // piv
                for r in a:
                    r[j] -= q * r[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # enforce divisibility of the rest of the block by the pivot
        offender = next((i for i in range(t + 1, m)
                         if any(x % piv for x in a[i][t + 1:])), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        t += 1
    return [a[i][i] for i in range(min(m, n))]


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
