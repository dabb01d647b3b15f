import itertools
import random
from math import gcd

import numpy as np
import pytest

from simplcs.linsys import make_system
from simplcs.zmod import (ZModMatrix, howell_form, kernel_basis,
                          smith_normal_form, solve, stab_unit, xgcd)


# ---------------------------------------------------------------- oracles

def brute_solutions(rows, rhs, d):
    """All x with rows @ x = rhs mod d, by exhaustive enumeration."""
    c = len(rows[0]) if rows else 0
    out = []
    for x in itertools.product(range(d), repeat=c):
        if all(sum(a * e for a, e in zip(row, x)) % d == v % d
               for row, v in zip(rows, rhs)):
            out.append(x)
    return sorted(out)


def brute_span(rows, d):
    """Additive closure of the rows inside Z_d^c."""
    c = len(rows[0])
    seen = {tuple([0] * c)}
    frontier = list(seen)
    while frontier:
        new = []
        for v in frontier:
            for r in rows:
                w = tuple((a + b) % d for a, b in zip(v, r))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return seen


def random_matrix(rng, r, c, d):
    return [[rng.randrange(d) for _ in range(c)] for _ in range(r)]


# ---------------------------------------------------------------- ZModMatrix

def test_zmod_matrix_matmul_mixed_modulus_is_error():
    with pytest.raises(ValueError):
        ZModMatrix([[1]], 4).matmul(ZModMatrix([[1]], 6))


def test_zmod_matrix_reduces_entries_like_int():
    m = ZModMatrix([[-1, 7, True, False, np.int64(-4), np.int64(5)],
                    [3, -3, 2, -7, 0, 8]], 3)
    assert m.rows == ((2, 1, 1, 0, 2, 2), (0, 0, 2, 2, 0, 2))
    assert {type(x) for row in m.rows for x in row} == {int}
    assert ZModMatrix([[-6, 6, 13]], 6).rows == ((0, 0, 1),)


def test_zmod_matrix_from_array_keeps_it():
    rng = np.random.default_rng(5)
    for d, dtype in ((2, np.int8), (3, np.int8), (6, np.int16), (7, np.int64)):
        raw = rng.integers(-3, 4, size=(9, 5)).astype(dtype)
        m = ZModMatrix(raw, d)
        rows = ZModMatrix(raw.tolist(), d)
        kept = m.array()
        assert kept.dtype == dtype and not kept.flags.writeable
        assert m.array() is kept and "rows" not in vars(m)
        assert m.rows == rows.rows and m == rows
        assert {type(x) for row in m.rows for x in row} == {int}
        assert rows.array().tolist() == kept.tolist()
        assert m.nonzeros() == rows.nonzeros() == tuple(
            tuple((c, e) for c, e in enumerate(row) if e) for row in m.rows)
    empty = ZModMatrix([], 3, num_cols=4)
    assert empty.array().shape == (0, 4) and empty.nonzeros() == ()
    assert ZModMatrix([[0, 0], [0, 3]], 3).nonzeros() == ((), ())
    big = ZModMatrix([[2 ** 70 + 1, 0, -1]], 2 ** 65)
    assert big.nonzeros() == (((0, 1), (2, 2 ** 65 - 1)),)
    with pytest.raises(ValueError, match="must be 2-D"):
        ZModMatrix(np.zeros(3, dtype=np.int8), 3)
    with pytest.raises(ValueError, match="num_cols disagrees"):
        ZModMatrix(np.zeros((2, 3), dtype=np.int8), 3, num_cols=2)


def test_xgcd_and_stab_unit():
    rng = random.Random(0)
    for _ in range(300):
        a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b) >= 0
        assert a * x + b * y == g
    for n in (2, 3, 4, 6, 8, 12, 36):
        for a in range(n):
            u = stab_unit(a, n)
            assert gcd(u, n) == 1
            assert (u * a) % n == gcd(a, n) % n


# ---------------------------------------------------------------- Howell form

def test_howell_identity_fixed_point():
    m = ZModMatrix.identity(2, 4)
    h = howell_form(m)
    assert h.matrix == m


def test_howell_two_over_z4_span():
    h = howell_form(ZModMatrix([[2]], 4))
    assert h.matrix.rows == ((2,),)
    assert sorted(h.enumerate_span()) == [(0,), (2,)]  # oracle: {0, 2}


def test_howell_zero_matrix_empty_basis():
    h = howell_form(ZModMatrix([[0] * 3] * 3, 6))
    assert h.matrix.num_rows == 0


def test_howell_transform_records_row_ops():
    rng = random.Random(1)
    for _ in range(60):
        d = rng.choice([2, 3, 4, 6, 8])
        rows = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4), d)
        m = ZModMatrix(rows, d)
        h = howell_form(m)
        assert h.transform.matmul(m) == h.matrix


def test_howell_canonical_for_equal_spans():
    rng = random.Random(2)
    for _ in range(80):
        d = rng.choice([2, 3, 4, 6])
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = random_matrix(rng, r, c, d)
        # same span, different presentation: shuffle + add random combos
        rows2 = [list(r_) for r_ in rows]
        rng.shuffle(rows2)
        for _ in range(3):
            i, j = rng.randrange(r), rng.randrange(r)
            if i != j:
                f = rng.randrange(d)
                rows2[i] = [(a + f * b) % d for a, b in zip(rows2[i], rows2[j])]
        h1 = howell_form(ZModMatrix(rows, d))
        h2 = howell_form(ZModMatrix(rows2, d))
        if brute_span(rows, d) == brute_span(rows2, d):
            assert h1.matrix == h2.matrix


def test_howell_idempotent_and_span_preserving():
    rng = random.Random(3)
    for _ in range(60):
        d = rng.choice([2, 3, 4, 6])
        rows = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4), d)
        h = howell_form(ZModMatrix(rows, d))
        again = howell_form(h.matrix)
        assert again.matrix == h.matrix
        span = brute_span(rows, d)
        assert set(h.enumerate_span()) == span
        assert h.span_size() == len(span)
        for v in span:
            assert h.contains(v)
        for v in itertools.product(range(d), repeat=len(rows[0])):
            assert h.contains(v) == (v in span)


# ---------------------------------------------------------------- row predicates
# the span predicates on rows of Z_d^c, read from LinearSystem's row multiples

def generates_zd(row, d) -> bool:
    return make_system([row], [0], d).row_condition_violations() == []


def equal_spans(row_i, row_j, d) -> bool:
    bad = make_system([row_i, row_j], [0, 0], d).row_condition_violations()
    return "rows 0 and 1 have equal spans" in bad


def test_span_generates_zd_examples():
    assert generates_zd((1, 1, 0), 2)
    assert not generates_zd((2, 4), 6)   # order 3, oracle below
    assert not generates_zd((0, 0, 0), 5)
    # oracle: order of (2,4) in Z_6^2 by repeated addition
    v, order = (0, 0), 0
    while True:
        v = ((v[0] + 2) % 6, (v[1] + 4) % 6)
        order += 1
        if v == (0, 0):
            break
    assert order == 3


def test_spans_equal_examples():
    assert equal_spans((1, 1), (1, 1), 2)
    assert not equal_spans((1, 0), (1, 1), 2)
    assert equal_spans((1, 2), (2, 4), 5)  # 2*(1,2)=(2,4), 3*(2,4)=(1,2)


def test_spans_equal_equivalence_relation():
    rng = random.Random(4)
    d, c = 6, 2
    vecs = [tuple(rng.randrange(d) for _ in range(c)) for _ in range(12)]
    vecs = [v for v in vecs if any(v)]
    for a in vecs:
        assert equal_spans(a, a, d)
        for b in vecs:
            assert equal_spans(a, b, d) == equal_spans(b, a, d)
            for cvec in vecs:
                if equal_spans(a, b, d) and equal_spans(b, cvec, d):
                    assert equal_spans(a, cvec, d)


# ---------------------------------------------------------------- smith form

def test_smith_normal_form_properties():
    rng = random.Random(5)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        d, u, v = smith_normal_form(mat)
        # U*mat*V == D
        prod = [[sum(u[i][k] * mat[k][j] for k in range(r)) for j in range(c)]
                for i in range(r)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(c)) for j in range(c)]
                for i in range(r)]
        assert prod == d
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

        def det(m):
            n = len(m)
            if n == 1:
                return m[0][0]
            return sum((-1) ** j * m[0][j] *
                       det([row[:j] + row[j + 1:] for row in m[1:]])
                       for j in range(n))

        assert abs(det(u)) == 1
        assert abs(det(v)) == 1


# ---------------------------------------------------------------- solve

def test_solve_unique_2x2_over_z2():
    # A=[[1,1],[1,0]]: unique solution (b2, b1+b2), oracle over 4 candidates
    m = ZModMatrix([[1, 1], [1, 0]], 2)
    for b1 in range(2):
        for b2 in range(2):
            sol = solve(m, (b1, b2))
            assert sol is not None
            assert sol.count() == 1
            assert sol.particular == (b2, (b1 + b2) % 2)
            assert sol.enumerate() == brute_solutions([[1, 1], [1, 0]],
                                                      (b1, b2), 2)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(ZModMatrix([[1, 1]], 2), (1, 0))


def test_solve_matches_brute_force():
    rng = random.Random(6)
    for _ in range(150):
        d = rng.choice([2, 3, 4, 6])
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = random_matrix(rng, r, c, d)
        rhs = [rng.randrange(d) for _ in range(r)]
        oracle = brute_solutions(rows, rhs, d)
        sol = solve(ZModMatrix(rows, d), rhs)
        if not oracle:
            assert sol is None
        else:
            assert sol is not None
            assert sol.enumerate() == oracle
            assert sol.count() == len(oracle)


def test_kernel_basis_is_howell_of_kernel():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.choice([2, 3, 4, 6])
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = random_matrix(rng, r, c, d)
        kern = kernel_basis(ZModMatrix(rows, d))
        oracle = set(brute_solutions(rows, [0] * r, d))
        assert set(kern.enumerate_span()) == oracle
        # canonical: howell of the brute kernel gives the same matrix
        href = howell_form(ZModMatrix(sorted(oracle), d, num_cols=c))
        assert href.matrix == kern.matrix
