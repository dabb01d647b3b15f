"""Linear systems (A, b) over Z_d, the .lcs file format, and built-in systems."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .zmod import ZModMatrix


# Systems with more rows find their distinct rows and relator kinds on
# integer arrays; below it, numpy's per-call cost exceeds the loops'.
ARRAY_ROWS = 256


class RowConditionError(ValueError):
    """Row conditions: each row generates Z_d, spans are distinct, and b
    agrees on every vector that two row multiples share."""


@dataclass(frozen=True)
class LinearSystem:
    """Ax = b over Z_d, with optional row/column labels (e.g. simplex tokens)."""

    matrix: ZModMatrix
    rhs: tuple[int, ...]
    row_labels: Optional[tuple] = None
    col_labels: Optional[tuple] = None

    def __post_init__(self):
        if len(self.rhs) != self.matrix.num_rows:
            raise ValueError("rhs length must match row count")
        d = self.modulus
        object.__setattr__(self, "rhs", tuple(v % d for v in self.rhs))
        if self.row_labels is not None and len(self.row_labels) != self.matrix.num_rows:
            raise ValueError("row label count mismatch")
        if self.col_labels is not None and len(self.col_labels) != self.matrix.num_cols:
            raise ValueError("column label count mismatch")

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    @property
    def num_rows(self) -> int:
        return self.matrix.num_rows

    @property
    def num_cols(self) -> int:
        return self.matrix.num_cols

    @cached_property
    def distinct_rows(self) -> tuple[list[int], list[int]]:
        """(first, at): the row of the first occurrence of each distinct
        (row, b) pair, ascending, and at[i], the place of row i's pair among
        them.

        Up to ARRAY_ROWS rows, pairs are compared as tuples. Beyond, each is
        the bytes of one unsigned integer row holding the entries and b
        (every value is below d), unless d needs more than 64 bits (the
        array then holds Python ints)."""
        dtype = np.min_scalar_type(self.modulus - 1)
        if self.num_rows <= ARRAY_ROWS or dtype == object:
            keys = zip(self.matrix.rows, self.rhs)
        else:
            arr = self.matrix.array()
            buf = np.empty((arr.shape[0], arr.shape[1] + 1), dtype)
            buf[:, :-1] = arr
            buf[:, -1] = self.rhs
            keys = buf.view(np.dtype((np.void, buf.strides[0]))).ravel()
            keys = keys.tolist()
        places: dict = {}
        at = [places.setdefault(key, len(places)) for key in keys]
        # read backwards, each place ends on its first row
        first = dict(zip(reversed(at), range(len(at) - 1, -1, -1)))
        return [first[j] for j in range(len(places))], at

    @cached_property
    def row_multiples(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """row_multiples[i][a] = a*A_i mod d, for a = 0..d-1: the row circles."""
        d = self.modulus
        return tuple(tuple(tuple(a * e % d for e in row) for a in range(d))
                     for row in self.matrix.rows)

    @cached_property
    def row_lift(self) -> dict[tuple[int, ...], int]:
        """b lifted to the row circles: each nonzero a*A_i maps to a*b_i mod d.
        RowConditionError if one vector gets two b values."""
        d = self.modulus
        seen: dict[tuple[int, ...], tuple[int, int]] = {}
        for i, mults in enumerate(self.row_multiples):
            for a, vec in enumerate(mults):
                if not any(vec):
                    continue
                val = a * self.rhs[i] % d
                first, first_val = seen.setdefault(vec, (i, val))
                if first_val != val:
                    raise RowConditionError(
                        f"rows {first} and {i} both reach {vec} but give it "
                        f"the b values {first_val} and {val}")
        return {vec: val for vec, (_, val) in seen.items()}

    def row_condition_violations(self) -> list[str]:
        """Rows whose span is not Z_d (its d multiples are not distinct), and
        row pairs with equal spans. Conditions on A alone: `row_lift` checks
        that b agrees where two spans share a vector."""
        d = self.modulus
        spans = [frozenset(mults) for mults in self.row_multiples]
        out = [f"row {i} does not generate Z_{d}"
               for i, span in enumerate(spans) if len(span) != d]
        out += [f"rows {i} and {j} have equal spans"
                for i, j in combinations(range(len(spans)), 2)
                if spans[i] == spans[j]]
        return out

    def check_row_conditions(self) -> None:
        bad = self.row_condition_violations()
        if bad:
            raise RowConditionError("; ".join(bad))


def make_system(rows: Sequence[Sequence[int]], rhs: Sequence[int], d: int,
                row_labels=None, col_labels=None) -> LinearSystem:
    ncols = len(rows[0]) if rows else (len(col_labels) if col_labels else 0)
    return LinearSystem(ZModMatrix(rows, d, num_cols=ncols), tuple(rhs),
                        tuple(row_labels) if row_labels is not None else None,
                        tuple(col_labels) if col_labels is not None else None)


# ------------------------------------------------------------------ .lcs I/O

def data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each line of text that holds data: `#`
    starts a comment, and blank lines are skipped. Every line format of the
    package reads its text through this."""
    return [(num, line) for num, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#")[0].strip())]


def parse_lcs(text: str) -> LinearSystem:
    """`.lcs`: line 1 `d r c`, then r matrix rows, final line b."""
    lines = data_lines(text)
    if not lines:
        raise ValueError("empty .lcs input")
    num, head = lines[0]
    try:
        d, r, c = map(int, head.split())
    except ValueError as exc:
        raise ValueError(f"line {num}: expected `d r c`") from exc
    if d < 2:
        raise ValueError(f"line {num}: modulus must be >= 2, got {d}")
    if r < 0 or c < 0:
        raise ValueError(f"line {num}: r and c must be nonnegative, "
                         f"got r = {r}, c = {c}")
    if c == 0 and len(lines) == 2:
        lines[1:1] = [(num, "")] * r    # with no columns, the rows are blank
    if r == 0 and len(lines) == 1:
        lines.append((num, ""))     # with no rows, the b line is blank
    if len(lines) != r + 2:
        raise ValueError(f"expected {r} matrix rows plus a b line, "
                         f"got {len(lines) - 1} data lines")
    rows = []
    for num, ln in lines[1:r + 1]:
        vals = ln.split()
        if len(vals) != c:
            raise ValueError(f"line {num}: expected {c} entries, got {len(vals)}")
        try:
            rows.append([int(v) for v in vals])
        except ValueError as exc:
            raise ValueError(f"line {num}: non-integer entry") from exc
    num, bline = lines[r + 1]
    bvals = bline.split()
    if len(bvals) != r:
        raise ValueError(f"line {num}: b needs {r} entries, got {len(bvals)}")
    try:
        rhs = [int(v) for v in bvals]
    except ValueError as exc:
        raise ValueError(f"line {num}: non-integer b entry") from exc
    return LinearSystem(ZModMatrix(rows, d, num_cols=c), tuple(rhs))


def write_lcs(sys_: LinearSystem) -> str:
    lines = [f"{sys_.modulus} {sys_.num_rows} {sys_.num_cols}"]
    lines += [" ".join(map(str, row)) for row in sys_.matrix.rows]
    lines.append(" ".join(map(str, sys_.rhs)))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- builtins

K33_COLUMNS = tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6))


def k33_system(b: Sequence[int], d: int = 2) -> LinearSystem:
    """Incidence system of the complete bipartite graph K_{3,3}.

    Columns are the nine edges (i, j), rows the six graph vertices; row v has
    ones on the edges at v.
    """
    b = tuple(b)
    if len(b) != 6:
        raise ValueError("K_{3,3} takes six b values")
    rows = []
    row_labels = []
    for v in (1, 2, 3, 4, 5, 6):
        rows.append([1 if v in edge else 0 for edge in K33_COLUMNS])
        row_labels.append(v)
    return make_system(rows, b, d, row_labels=row_labels, col_labels=K33_COLUMNS)


def two_vertex_system(b: Sequence[int], d: int = 2) -> LinearSystem:
    """The 2x2 system [[1,1],[1,0]] x = b."""
    b = tuple(b)
    if len(b) != 2:
        raise ValueError("this system takes two b values")
    return make_system([[1, 1], [1, 0]], b, d,
                       col_labels=("v1", "v2"))
