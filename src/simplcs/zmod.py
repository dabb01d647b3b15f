"""Exact linear algebra over Z_d for arbitrary d >= 2.

Z_d is not a field for composite d, so row spans are canonicalized with the
Howell form (the analogue of reduced row echelon form that is canonical for
row spans over Z_d) and systems are solved through the integer Smith normal
form. No floating point anywhere.
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
        """rows may be an integer array, reduced mod modulus in one step."""
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self._array: Optional[np.ndarray] = None
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ValueError("an array of rows must be 2-D")
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

    def nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, its (column, entry) pairs with a nonzero entry, in
        ascending column order."""
        arr = self.array()
        at, cols = arr.nonzero()
        pairs = list(zip(cols.tolist(), arr[at, cols].tolist()))
        ends = np.cumsum(np.bincount(at, minlength=self.num_rows)).tolist()
        return tuple(map(tuple, map(pairs.__getitem__,
                                    map(slice, [0] + ends, ends))))

    @staticmethod
    def identity(n: int, modulus: int) -> "ZModMatrix":
        return ZModMatrix([[1 if i == j else 0 for j in range(n)]
                           for i in range(n)], modulus)

    def _check(self, other: "ZModMatrix") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli: {self.modulus} vs {other.modulus}")

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

    def matmul(self, other: "ZModMatrix") -> "ZModMatrix":
        self._check(other)
        if self.num_cols != other.num_rows:
            raise ValueError("dimension mismatch")
        d = self.modulus
        cols = other.num_cols
        out = []
        for row in self.rows:
            out.append([sum(row[k] * other.rows[k][j]
                            for k in range(self.num_cols)) % d
                        for j in range(cols)])
        return ZModMatrix(out, d, num_cols=cols)

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
    """Howell canonical form of a row span plus the row-operation record.

    ``transform @ source = matrix`` row-wise, so every basis row is an explicit
    Z_d-combination of the input rows.
    """

    matrix: ZModMatrix
    transform: ZModMatrix

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

    def contains(self, vec: Sequence[int]) -> bool:
        n = self.modulus
        v = [int(e) % n for e in vec]
        if len(v) != self.matrix.num_cols:
            raise ValueError("dimension mismatch")
        for row, (c, p) in zip(self.rows, self.pivots()):
            if v[c] % p == 0:
                q = v[c] // p
                if q:
                    v = [(a - q * b) % n for a, b in zip(v, row)]
        return all(e == 0 for e in v)

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
    cols = matrix.num_cols
    nrows = matrix.num_rows
    # carry the transform alongside each working row
    work = [(list(matrix.rows[i]),
             [1 if j == i else 0 for j in range(nrows)])
            for i in range(nrows)]
    work = [rw for rw in work if any(rw[0])]
    pivots: list[tuple[list[int], list[int]]] = []

    def combine(dst, src, factor):
        return [(a + factor * b) % n for a, b in zip(dst, src)]

    for c in range(cols):
        hit = [rw for rw in work if rw[0][c] != 0]
        rest = [rw for rw in work if rw[0][c] == 0]
        if not hit:
            work = rest
            continue
        r0, t0 = hit[0]
        for r, t in hit[1:]:
            a, b = r0[c], r[c]
            g, x, y = xgcd(a, b)
            # unimodular 2x2 [[x, y], [-b/g, a/g]] acting on (r0, r)
            nr0 = [(x * p + y * q) % n for p, q in zip(r0, r)]
            nt0 = [(x * p + y * q) % n for p, q in zip(t0, t)]
            nr = [((a // g) * q - (b // g) * p) % n for p, q in zip(r0, r)]
            nt = [((a // g) * q - (b // g) * p) % n for p, q in zip(t0, t)]
            r0, t0 = nr0, nt0
            if any(nr):
                rest.append((nr, nt))
        u = stab_unit(r0[c], n)
        r0 = [(u * a) % n for a in r0]
        t0 = [(u * a) % n for a in t0]
        piv = r0[c]  # now gcd(old pivot, n), a divisor of n
        ann = n // gcd(piv, n)
        if ann != 1:
            ra = [(ann * a) % n for a in r0]
            if any(ra):
                rest.append((ra, [(ann * a) % n for a in t0]))
        pivots.append((r0, t0))
        work = rest

    # reduce entries above each pivot into [0, pivot)
    for i in range(len(pivots)):
        ri, ti = pivots[i]
        c = next(k for k, v in enumerate(ri) if v)
        p = ri[c]
        for j in range(i):
            rj, tj = pivots[j]
            q = rj[c] // p
            if q:
                pivots[j] = (combine(rj, ri, -q), combine(tj, ti, -q))

    rows = [r for r, _ in pivots]
    trans = [t for _, t in pivots]
    return HowellBasis(ZModMatrix(rows, n, num_cols=cols),
                       ZModMatrix(trans, n, num_cols=nrows))


def smith_normal_form(mat: Sequence[Sequence[int]]
                      ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Integer Smith normal form: returns (D, U, V) with U*mat*V = D.

    U, V unimodular; D diagonal with d_i | d_{i+1}.
    """
    a = [list(map(int, r)) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, f):
        for r in a:
            r[dst] += f * r[src]
        for r in v:
            r[dst] += f * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                addmul_row(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                addmul_col(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1
    return a, u, v


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
    """Solve matrix @ x = rhs over Z_d; None when no solution exists."""
    n = matrix.modulus
    if len(rhs) != matrix.num_rows:
        raise ValueError("dimension mismatch")
    rhs = [int(e) % n for e in rhs]
    m, c = matrix.num_rows, matrix.num_cols
    if c == 0:
        if all(e == 0 for e in rhs):
            return LinearSolution((), HowellBasis(
                ZModMatrix([], n, num_cols=0), ZModMatrix([], n, num_cols=0)), n)
        return None
    if m == 0:
        ident = ZModMatrix.identity(c, n)
        return LinearSolution(tuple([0] * c), howell_form(ident), n)

    d, u, v = smith_normal_form(matrix.rows)
    w = [sum(u[i][k] * rhs[k] for k in range(m)) % n for i in range(m)]
    k = min(m, c)
    y = [0] * c
    kern_gens: list[list[int]] = []
    for i in range(c):
        s = d[i][i] if i < k else 0
        g = gcd(s, n)
        if i < m:
            if w[i] % g:
                return None
            if g != n:
                # s*y = w mod n: divide by g, then invert the unit s/g mod n/g
                sp, np_ = (s % n) // g, n // g
                gg, x, _ = xgcd(sp, np_)
                assert gg == 1
                y[i] = ((w[i] // g) * (x % np_)) % np_
        # kernel of y_i -> s*y_i mod n is generated by n//gcd(s, n)
        mult = n // g
        if mult % n:
            kern_gens.append([(mult if j == i else 0) for j in range(c)])
    # rows of the Smith system beyond the column count must vanish
    for i in range(c, m):
        if w[i] % n:
            return None

    x = [sum(v[i][j] * y[j] for j in range(c)) % n for i in range(c)]
    kern_vecs = []
    for gen in kern_gens:
        kern_vecs.append([sum(v[i][j] * gen[j] for j in range(c)) % n
                          for i in range(c)])
    kern = howell_form(ZModMatrix(kern_vecs, n, num_cols=c))
    # safety: the particular solution must actually solve the system
    if matrix.apply(x) != tuple(rhs):
        raise ArithmeticError("internal solver error")
    return LinearSolution(tuple(x), kern, n)
