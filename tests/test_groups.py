import itertools
import random

import numpy as np
import pytest

from simplcs.groups import (MAX_ORDER, FinGroupJ, GroupCocycle, GroupTable,
                            GroupValidationError, MonomialElement, build_e1,
                            build_group, central_product, cyclic, dihedral,
                            direct_product, embed_e1, extraspecial,
                            find_isomorphism, find_torsion_pair, heisenberg,
                            load_cayley, monomial_split, power_map, quaternion,
                            quotient_by_j, wreath_cyclic)
from simplcs.linsys import k33_system, make_system
from simplcs.presentations import solution_group, todd_coxeter

CORPUS = [
    "cyclic:2", "cyclic:4:2", "cyclic:6", "dihedral:8", "quaternion",
    "heisenberg:3", "extraspecial:3:1:+",
    "central_product(dihedral:8,dihedral:8)",
]

SWEEP_PANEL = [
    "cyclic:2", "cyclic:4:2", "dihedral:8", "quaternion",
    "central_product(dihedral:8,dihedral:8)", "cyclic:3", "heisenberg:3",
    "e1:3:1", "wreath:3", "cyclic:6",
]


def relabelled(g: FinGroupJ, seed: int) -> FinGroupJ:
    """An isomorphic copy of g with its elements renamed by a permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    table = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return FinGroupJ(table, perm[g.identity], perm[g.j], g.d)


def bad_triples(table) -> int:
    """Brute force over all n^3 triples: how many have (ab)c != a(bc)."""
    arr = np.array(table)
    return sum(int((arr[arr[a]] != arr[a][arr]).sum())
               for a in range(len(arr)))


def swapped(table, row: int, i: int, j: int) -> list[list[int]]:
    """The table with entries i and j of one row exchanged."""
    out = [list(r) for r in table]
    out[row][i], out[row][j] = out[row][j], out[row][i]
    return out


# The smallest loop that is not a group: a Latin square with identity 0 and
# x x = 0, so it is not Z_5
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def times_loop5(g: FinGroupJ) -> list[list[int]]:
    """LOOP5 x g with the loop coordinate slowest: the first n elements,
    LOOP5's identity times g, pass Light's test and generate only g, so a
    check that stops early accepts this table."""
    n = g.n
    return [[LOOP5[l1][l2] * n + g.table[a][b] for l2 in range(5)
             for b in range(n)] for l1 in range(5) for a in range(n)]


def test_associativity_check_matches_brute_force():
    # LOOP5 products and single swaps away from the identity's row and
    # column keep the identity and inverse laws, so only associativity can
    # reject them
    rng = random.Random(17)
    rejected = 0
    for spec in SWEEP_PANEL:
        g = build_group(spec)
        for h in (g, relabelled(g, seed=3)):
            assert bad_triples(h.table) == 0
            GroupTable(h.table, h.identity)
            bad = times_loop5(h)
            assert bad_triples(bad)
            with pytest.raises(GroupValidationError, match="associativity"):
                GroupTable(bad, h.identity)
            others = [x for x in range(h.n) if x != h.identity]
            if len(others) < 2:
                continue
            for _ in range(8):
                bad = swapped(h.table, rng.choice(others),
                              *rng.sample(others, 2))
                if bad_triples(bad):
                    rejected += 1
                    with pytest.raises(GroupValidationError,
                                       match="associativity"):
                        GroupTable(bad, h.identity)
    assert rejected == 8 * 2 * (len(SWEEP_PANEL) - 1)


def test_associativity_checked_above_order_512():
    g = direct_product(build_group("central_product(dihedral:8,dihedral:8)"),
                       cyclic(18))
    assert g.n == 576
    bad = swapped(g.table, 5, 7, 11)
    assert bad_triples(bad) == 4594
    with pytest.raises(GroupValidationError, match="associativity"):
        FinGroupJ(bad, g.identity, g.j, g.d)


def test_centralizer_masks():
    groups = [build_group(s) for s in SWEEP_PANEL]
    groups.append(relabelled(groups[4], seed=5))
    for g in groups:
        masks = g.centralizer_masks()
        assert len(masks) == g.n
        for x in range(g.n):
            for y in range(g.n):
                assert (masks[x] >> y & 1) == g.commute(x, y)
        assert g.centralizer_masks() is masks


def test_search_tables():
    # every table the hom search reads, against its definition, and cached
    groups = [build_group(s) for s in SWEEP_PANEL]
    groups.append(relabelled(groups[4], seed=5))
    for g in groups:
        table = g.table_array()
        assert table.tolist() == [list(row) for row in g.table]
        cent = g.centralizer_matrix()
        for e in (-3, -1, 0, 1, 2, 3, 6):
            row = g.power_row(e)
            assert row == tuple(g.power(x, e) for x in range(g.n))
            assert g.power_array(e).tolist() == list(row)
            masks, roots = g.root_masks(e), g.root_matrix(e)
            for y in range(g.n):
                want = [x for x in range(g.n) if g.power(x, e) == y]
                assert [x for x in range(g.n) if masks[y] >> x & 1] == want
                assert np.flatnonzero(roots[y]).tolist() == want
            assert g.power_row(e) is row and g.root_masks(e) is masks
        for x in range(g.n):
            assert np.flatnonzero(cent[x]).tolist() == [
                y for y in range(g.n) if g.commute(x, y)]
        assert g.table_array() is table and g.centralizer_matrix() is cent


def test_build_group_examples():
    g = build_group("central_product(dihedral:8,dihedral:8)")
    assert g.n == 32
    h = build_group("extraspecial:3:1:+")
    assert h.n == 27  # p^(2n+1)
    z2 = build_group("cyclic:2")
    assert z2.n == 2 and z2.j == 1 and z2.d == 2


def test_group_axioms_hold_on_corpus():
    for spec in CORPUS:
        g = build_group(spec)
        e = g.identity
        assert all(g.mul(e, x) == x for x in range(g.n))
        assert all(g.mul(g.inv(x), x) == e for x in range(g.n))
        assert all(g.commute(g.j, x) for x in range(g.n))
        assert g.order(g.j) == g.d


def test_invalid_specs_rejected():
    with pytest.raises(GroupValidationError):
        build_group("nonsense:3")
    with pytest.raises(GroupValidationError):
        build_group("cyclic:6:4")  # 4 does not divide 6
    with pytest.raises(GroupValidationError):
        FinGroupJ([[0, 1], [1, 0]], 0, 0, 2)  # J=identity has order 1
    # broken associativity
    with pytest.raises(GroupValidationError):
        FinGroupJ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0, 1, 3)


@pytest.mark.parametrize("table, message", [
    ([], "empty table"),
    ([[0, 1], [1]], "malformed Cayley table"),            # ragged
    ([[0, 1], [1, -1]], "malformed Cayley table"),        # negative
    ([[0, 1], [1, 2]], "malformed Cayley table"),         # = n
    ([[0, 1], [1, 2 ** 40]], "malformed Cayley table"),   # beyond int32
    ([[0, 1], [1, 2 ** 70]], "malformed Cayley table"),   # beyond int64
    ([[0, 1, 2], [1, 0, 2], [1, 2, 0]], "identity law fails"),
    ([[0, 1, 2], [1, 1, 2], [2, 2, 0]], "element 1 has no inverse"),
])
def test_malformed_tables_rejected(table, message):
    with pytest.raises(GroupValidationError, match=f"^{message}$"):
        GroupTable(table, 0)
    if len({len(row) for row in table}) < 2:   # not ragged: as an array too
        with pytest.raises(GroupValidationError, match=f"^{message}$"):
            GroupTable(np.array(table), 0)


@pytest.mark.parametrize("table, message", [
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "malformed Cayley table"),
    (np.array([[False, True], [True, False]]), "malformed Cayley table"),
    (np.array([[0, 1], [1, 0]], dtype=object), "malformed Cayley table"),
    (np.array([0, 1]), "malformed Cayley table"),               # 1-D
    (np.array([[[0]]]), "malformed Cayley table"),              # 3-D
    (np.array(0), "malformed Cayley table"),                    # 0-D
    (np.zeros((2, 3), dtype=np.intp), "malformed Cayley table"),
    (np.array([[0, 1], [1, -1]], dtype=np.int8), "malformed Cayley table"),
    (np.array([[0, 1], [1, 2]], dtype=np.uint8), "malformed Cayley table"),
    (np.array([[0, 1], [1, 2 ** 40]]), "malformed Cayley table"),
    (np.zeros((0, 0), dtype=np.intp), "empty table"),
    (np.zeros((MAX_ORDER + 1, 1), dtype=np.int8),
     f"group too large \\({MAX_ORDER + 1} > {MAX_ORDER}\\)"),
    ([[0.0, 1.0], [1.0, 0.0]], "malformed Cayley table"),
    ([0, 1], "malformed Cayley table"),
])
def test_malformed_arrays_rejected(table, message):
    with pytest.raises(GroupValidationError, match=f"^{message}$"):
        GroupTable(table, 0)


def test_identity_and_j_must_be_elements():
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    for bad in (3, -1, 1.0, None):
        with pytest.raises(GroupValidationError,
                           match=f"^identity {bad!r} is not in range\\(3\\)$"):
            GroupTable(z3, bad)
        with pytest.raises(GroupValidationError,
                           match=f"^J {bad!r} is not in range\\(3\\)$"):
            FinGroupJ(np.array(z3), 0, bad, 3)
    assert FinGroupJ(z3, np.int64(0), np.int8(1), 3).order(1) == 3


def corruptions(table, rng, count):
    """Seeded corrupt copies of a table: swapped entries in one row, one
    entry replaced, one row copied over another, and two rows exchanged."""
    n = len(table)
    for _ in range(count):
        out = [list(row) for row in table]
        a, b, c = (rng.randrange(n) for _ in range(3))
        kind = rng.randrange(4)
        if kind == 0:
            out[a][b], out[a][c] = out[a][c], out[a][b]
        elif kind == 1:
            out[a][b] = c
        elif kind == 2:
            out[a] = list(out[b])
        else:
            out[a], out[b] = out[b], out[a]
        yield out


def verdict(build):
    try:
        return build().table
    except GroupValidationError as exc:
        return str(exc)


def test_array_and_tuple_built_groups_agree():
    # the same table as nested lists, as tuples, and as C- and F-ordered
    # arrays of several integer dtypes: one table, one verdict, one message
    rng = random.Random(41)
    groups = [build_group(s) for s in SWEEP_PANEL]
    groups.append(relabelled(groups[4], seed=7))
    groups.append(todd_coxeter(solution_group(
        k33_system([1, 1, 1, 0, 0, 0], d=3))).group)
    verdicts = set()
    for g in groups:
        tables = [g.table] + list(corruptions(g.table, rng, 12))
        for table in tables:
            want = verdict(lambda: GroupTable(table, g.identity))
            verdicts.add(want if isinstance(want, str) else "ok")
            for arr in (np.array(table), np.array(table, dtype=np.int16),
                        np.asfortranarray(table), np.array(table).T.T):
                assert verdict(lambda: GroupTable(arr, g.identity)) == want
        assert GroupTable(g.table_array(), g.identity).table == g.table
    assert len(verdicts) >= 3     # accepted, and at least two messages


def test_group_keeps_its_table_array():
    arr = np.array([[(a + b) % 4 for b in range(4)] for a in range(4)])
    g = GroupTable(arr, 0)
    kept = g.table_array()
    assert kept.base is arr and not kept.flags.writeable
    assert g.table == tuple(map(tuple, arr.tolist()))
    assert {type(x) for row in g.table for x in row} == {int}
    with pytest.raises(ValueError):
        kept[0, 0] = 1


def brute_is_abelian(g) -> bool:
    return all(g.mul(a, b) == g.mul(b, a) for a in range(g.n)
               for b in range(g.n))


def test_is_abelian_matches_brute_force():
    groups = [build_group(s) for s in SWEEP_PANEL]
    groups.append(relabelled(groups[4], seed=9))
    systems = [k33_system([1, 0, 0, 0, 0, 0]), k33_system([0] * 6),
               k33_system([1, 1, 1, 0, 0, 0], d=3),
               make_system([[0, 0, 0, 2], [3, 1, 5, 2]], [0, 3], 6),
               make_system([[1, 2]], [1], 3)]
    groups += [todd_coxeter(solution_group(s)).group for s in systems]
    verdicts = [g.is_abelian() for g in groups]
    assert verdicts == [brute_is_abelian(g) for g in groups]
    assert True in verdicts and False in verdicts


def test_table_entries_become_ints():
    g = GroupTable([[np.int64(0), True], [1, False]], 0)
    assert g.table == ((0, 1), (1, 0))
    assert {type(x) for row in g.table for x in row} == {int}
    assert [g.inv(x) for x in range(2)] == [0, 1]


def test_dihedral_and_quaternion_shapes():
    d8 = dihedral(8)
    assert d8.n == 8 and not d8.is_abelian()
    assert sorted(d8.order(x) for x in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]
    q8 = quaternion()
    assert q8.n == 8 and not q8.is_abelian()
    assert sorted(q8.order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(q8.torsion(2)) == 2  # {1, -1}


def test_central_product_order():
    d8 = dihedral(8)
    g = central_product(d8, d8)
    assert g.n == 8 * 8 // 2
    assert g.order(g.j) == 2
    # central product of quaternion with itself is extraspecial of order 32
    q8 = quaternion()
    assert central_product(q8, q8).n == 32


def test_extraspecial_families():
    assert extraspecial(2, 2, "+").n == 32
    assert extraspecial(2, 2, "-").n == 32
    assert extraspecial(2, 1, "0").n == 16
    assert extraspecial(3, 1, "+").n == 27
    assert extraspecial(3, 1, "-").n == 27
    e = extraspecial(3, 1, "-")
    # minus type for odd p is not generated by p-torsion
    assert len(e.torsion(3)) < e.n


def test_d8_q8_not_isomorphic_but_cp_orders_match():
    assert find_isomorphism(dihedral(8), quaternion()) is None
    assert find_isomorphism(dihedral(8), dihedral(8)) is not None
    # D8*D8 and Q8*Q8 are isomorphic (both 2^{1+4}_+)
    iso = find_isomorphism(central_product(dihedral(8), dihedral(8)),
                           central_product(quaternion(), quaternion()),
                           fix_j=True)
    assert iso is not None


def test_heisenberg_is_extraspecial_plus():
    h = heisenberg(3)
    e = extraspecial(3, 1, "+")
    assert find_isomorphism(h, e, fix_j=True) is not None


def test_quotient_by_j_examples():
    # D8 / <r^2> is Z2 x Z2: exponent 2 and order 4
    ext = quotient_by_j(dihedral(8))
    q = ext.quotient
    assert q.n == 4
    assert all(q.mul(x, x) == q.identity for x in range(4))
    # Heisenberg p=3 quotient is Z3^2
    ext3 = quotient_by_j(heisenberg(3))
    assert ext3.quotient.n == 9
    assert all(ext3.quotient.power(x, 3) == 0 for x in range(9))
    assert ext3.quotient.is_abelian()
    # Z2 with J its generator: trivial quotient
    assert quotient_by_j(cyclic(2)).quotient.n == 1


def test_section_properties():
    for spec in CORPUS:
        g = build_group(spec)
        ext = quotient_by_j(g)
        assert ext.section[ext.quotient.identity] == g.identity
        for x in range(ext.quotient.n):
            assert ext.projection[ext.section[x]] == x


def test_cocycle_from_section():
    ext = quotient_by_j(dihedral(8))
    gam = GroupCocycle(ext)
    assert gam.is_normalized()
    assert gam.cocycle_defects() == []
    # gamma(rbar, rbar) = 1: phi(rbar)^2 = r^2 = J
    d8 = ext.group
    rbar = next(x for x in range(ext.quotient.n)
                if d8.order(ext.section[x]) == 4)
    assert gam(rbar, rbar) == 1


def test_cocycle_trivial_for_split_extension():
    g = direct_product(cyclic(2), cyclic(2))
    ext = quotient_by_j(g)
    gam = GroupCocycle(ext)
    # the minimal-index section of Z2 x Z2 -> Z2 is a homomorphism
    assert all(v == 0 for v in gam.values.values())


def test_cocycle_identity_exhaustive_on_corpus():
    for spec in CORPUS:
        g = build_group(spec)
        if g.n // g.d <= 128:
            gam = GroupCocycle(quotient_by_j(g))
            assert gam.is_normalized()
            assert gam.cocycle_defects() == []


def test_power_map_examples():
    q8 = quaternion()
    w1 = power_map(q8, 1)
    assert all(w1(x) == x for x in q8.torsion(2))
    wm1 = power_map(q8, -1)
    assert all(wm1(x) == x for x in q8.torsion(2))  # both self-inverse
    z4 = cyclic(4)
    assert power_map(z4, 3)(1) == 3


def test_power_map_morphism_and_composition():
    for spec in ("dihedral:8", "quaternion", "cyclic:6", "heisenberg:3"):
        g = build_group(spec)
        for m in (-1, 0, 1, 2, 3, 5):
            assert power_map(g, m).defects() == []
        for m1, m2 in itertools.product((-1, 1, 2, 3), repeat=2):
            wa, wb, wc = power_map(g, m1), power_map(g, m2), power_map(g, m1 * m2)
            assert all(wa(wb(x)) == wc(x) for x in g.torsion(g.d))


def test_find_torsion_pair():
    got = find_torsion_pair(heisenberg(3), 3)
    assert got is not None
    g = heisenberg(3)
    a, b = got
    assert not g.commute(a, b)
    assert g.power(a, 3) == g.identity and g.power(b, 3) == g.identity
    assert g.power(g.mul(g.inv(a), b), 3) == g.identity
    # abelian: no pair
    assert find_torsion_pair(direct_product(cyclic(3), cyclic(3)), 3) is None


def test_find_torsion_pair_e19_and_wreath():
    assert find_torsion_pair(build_e1(3, 2), 3) is not None
    assert find_torsion_pair(wreath_cyclic(3), 3) is not None


def test_build_e1_orders():
    e = build_e1(3, 1)
    assert e.n == 27
    assert find_isomorphism(e, extraspecial(3, 1, "+"), fix_j=True) is not None
    big = build_e1(3, 2)
    assert big.n == 243  # 9^3/9 diag values x 3 shifts
    assert big.order(big.j) == 3
    with pytest.raises(GroupValidationError):
        build_e1(3, 3)
    with pytest.raises(GroupValidationError):
        build_e1(4, 1)


def test_monomial_identity_element():
    one = MonomialElement.one(3, 2)
    assert one.diag == (0, 0, 0) and one.shift == 0
    x = MonomialElement((1, 3, 5), 1, 3, 2)
    assert x.mul(one) == x and one.mul(x) == x
    assert x.mul(x.inverse()) == one


def test_monomial_split_examples():
    # pure shift X: all nu vanish -> X
    x = MonomialElement((0, 0, 0), 1, 3, 2)
    assert monomial_split(x) == MonomialElement((0, 0, 0), 1, 3, 1)
    # identity -> identity
    assert monomial_split(MonomialElement.one(3, 2)) == MonomialElement.one(3, 1)
    # restricts to the identity on the embedded copy of E_1(3)
    e1 = build_e1(3, 1)
    for el in e1.elements:
        assert monomial_split(embed_e1(el)) == el


def test_monomial_split_is_torsion_morphism():
    # multiplicative on every commuting pair of 3-torsion elements of E_1(9)
    big = build_e1(3, 2)
    tor = [el for el in big.elements
           if el.pow(3) == MonomialElement.one(3, 2)]
    assert len(tor) == 171  # 162 shifted + 9 diagonal
    for a in tor:
        fa = monomial_split(a)
        for b in tor:
            if a.mul(b) == b.mul(a):
                assert monomial_split(a.mul(b)) == fa.mul(monomial_split(b))


def test_wreath_structure():
    w = wreath_cyclic(3)
    assert w.n == 81
    assert w.order(w.j) == 3
    assert not w.is_abelian()


def test_cayley_file_roundtrip(tmp_path):
    g = dihedral(8)
    path = tmp_path / "d8.cayley"
    lines = [f"{g.n} {g.d} {g.identity} {g.j}"]
    lines += [" ".join(map(str, row)) for row in g.table]
    path.write_text("\n".join(lines) + "\n")
    h = load_cayley(str(path))
    assert h.table == g.table and h.j == g.j and h.d == g.d
    via_spec = build_group(f"cayley:{path}")
    assert via_spec.table == g.table
