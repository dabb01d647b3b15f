import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplcs import presentations
from simplcs.cohomology import cochain, extract_linear_system, gamma_b
from simplcs.groups import (build_group, central_product, cyclic, dihedral,
                            find_isomorphism, heisenberg, quaternion)
from simplcs.linsys import (LinearSystem, two_vertex_system, k33_system, make_system,
                            single_vertex_system)
from simplcs.presentations import (Hom, Presentation, _generator_order,
                                   abelian_order, abelianization,
                                   check_reduction_bijection, commutator_word,
                                   dump_presentation, elementarization,
                                   enumerate_homs, hom_of_solution, k_group,
                                   make_presentation, opposite_word_check,
                                   parse_presentation, pi1, pi1_commutative,
                                   reduction_maps, solution_group, solutions,
                                   theorem_iso_check, tietze_simplify,
                                   todd_coxeter, word_inverse, word_simplify)
from simplcs.simplicial import (comm_nerve, k33_torus_fixture, nerve,
                                random_truncated_sset, twisted_product)
from simplcs.zmod import ZModMatrix, solve


def fixture_cochain(fx, vals, d):
    data = {fx.triangles[lbl]: v for lbl, v in vals.items()}
    return cochain(fx.space, 2, d, values=data)


# ---------------------------------------------------------------- words

def test_word_simplify_and_inverse():
    w = word_simplify([(0, 1), (0, 1), (1, 0), (0, -2), (1, 3)])
    assert w == ((1, 3),)
    assert word_inverse(((0, 2), (1, -1))) == ((1, 1), (0, -2))


# ---------------------------------------------------------- todd-coxeter

def test_tc_cyclic():
    for d in (2, 3, 5, 6):
        p = make_presentation(["e"], [[("e", d)]])
        table = todd_coxeter(p)
        assert table is not None and table.order == d


def test_tc_s3_and_d8():
    s3 = make_presentation(["a", "b"], [[("a", 2)], [("b", 2)],
                                        [("a", 1), ("b", 1)] * 3])
    assert todd_coxeter(s3).order == 6
    d8 = make_presentation(["r", "s"], [[("r", 4)], [("s", 2)],
                                        [("s", 1), ("r", 1), ("s", 1), ("r", 1)]])
    table = todd_coxeter(d8)
    assert table.order == 8
    assert find_isomorphism(table.group, dihedral(8)) is not None


def test_tc_free_group_inconclusive():
    free = make_presentation(["a"], [])
    assert todd_coxeter(free, max_cosets=500) is None


def test_tc_q8():
    # i^4, i^2 = j^2, j i j^-1 = i^-1
    q8 = make_presentation(
        ["i", "j"],
        [[("i", 4)], [("i", 2), ("j", -2)],
         [("j", 1), ("i", 1), ("j", -1), ("i", 1)]])
    table = todd_coxeter(q8)
    assert table.order == 8
    assert find_isomorphism(table.group, quaternion()) is not None


def test_tc_tables_are_pinned():
    # sha256 prefixes of (Cayley table, generator images, J image): coset
    # numbering and how the table is filled must not drift
    e2 = build_group("extraspecial:2:2:+")
    cases = [
        (solution_group(k33_system([1, 0, 0, 0, 0, 0])), 32,
         "0d4f5e8188ecb2e3"),
        (solution_group(k33_system([0] * 6)), 32, "33bb4ce40f7b1479"),
        (solution_group(k33_system([1, 1, 1, 0, 0, 0], d=3)), 243,
         "5e5f9043364b8464"),
        (solution_group(make_system([[0, 0, 0, 2], [3, 1, 5, 2]], [0, 3], 6)),
         432, "d747066028a7c3ec"),
        (tietze_simplify(pi1(comm_nerve(e2, cap=2))[0]), 32,
         "53ee426b4b094dc7"),
    ]
    for pres, order, digest in cases:
        table = todd_coxeter(pres)
        assert table.order == order
        blob = repr((table.group.table, table.gen_images, table.j_image))
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
    # a generator that no relator touches leaves a free direction
    assert todd_coxeter(make_presentation(["a", "b"], [])) is None
    assert todd_coxeter(make_presentation(["a", "b"], [[("a", 2)]])) is None


def test_tc_above_max_order_is_inconclusive():
    # Z_65 x Z_65 enumerates in full, but 4225 > groups.MAX_ORDER
    z65sq = make_presentation(["a", "b"], [[("a", 65)], [("b", 65)],
                                           commutator_word(0, 1)])
    assert todd_coxeter(z65sq) is None


# ------------------------------------------------------------ solution group

def test_solution_group_j_commutes_with_zero_columns():
    # e0 = J, and e1, in no row, still commutes with J: Z_3 x Z_3, not a
    # free product
    pres = solution_group(make_system([[1, 0]], [1], 3))
    assert commutator_word(1, 2) in pres.relators
    assert todd_coxeter(pres).order == 9


def test_solution_group_single_vertex():
    p = solution_group(single_vertex_system(1, d=3))
    table = todd_coxeter(p)
    assert table.order == 3  # e = J collapses the rest


def test_solution_group_k33_shape():
    p = solution_group(k33_system([1, 0, 0, 0, 0, 0]))
    assert p.num_gens() == 10
    products = [r for r in p.relators
                if len(r) >= 3 and all(e > 0 for _, e in r[:-1])]
    assert len([r for r in p.relators if len(r) == 4
                and tuple(e for _, e in r) == (-1, -1, 1, 1)]) == 18 + 9


def test_k33_solution_group_orders():
    odd = todd_coxeter(solution_group(k33_system([1, 0, 0, 0, 0, 0])))
    assert odd is not None and odd.order == 32
    assert not odd.group.is_abelian()
    even = todd_coxeter(solution_group(k33_system([0, 1, 1, 0, 0, 0])))
    assert even is not None and even.order == 32
    assert even.group.is_abelian()


def test_k33_iso_identifications():
    odd = todd_coxeter(solution_group(k33_system([1, 0, 0, 0, 0, 0])))
    d8d8 = central_product(dihedral(8), dihedral(8))
    assert find_isomorphism(odd.group, d8d8) is not None
    even = todd_coxeter(solution_group(k33_system([0] * 6)))
    z25 = None
    g = cyclic(2)
    from simplcs.groups import direct_product
    z25 = g
    for _ in range(4):
        z25 = direct_product(z25, cyclic(2))
    assert find_isomorphism(even.group, z25) is not None


def test_diagonal_system_collapses_to_zd():
    # rows x = 0 and y = 0 force e_1 = e_2 = 1, leaving only <J>
    for d in (2, 3):
        sys_ = make_system([[1, 0], [0, 1]], [0, 0], d)
        p = solution_group(sys_)
        table = todd_coxeter(p)
        assert table.order == d
        assert abelian_order(p) == d
        # consistent with the Sol <-> Hom bijection: a unique solution
        assert len(solutions(sys_, cyclic(d))) == 1


# ------------------------------------------------------------- fundamental

def test_pi1_nerve_zd():
    for d in (2, 3, 4):
        p, idx = pi1(nerve(d, cap=2))
        table = todd_coxeter(p)
        assert table.order == d


def test_pi1_torus_fixture_abelianization():
    fx = k33_torus_fixture()
    p, idx = pi1(fx.space)
    torsion, rank = abelianization(p)
    assert torsion == [] and rank == 2


def test_pi1_comm_nerve_d8_group_law_relations():
    d8 = dihedral(8)
    x = comm_nerve(d8, cap=2)
    p, idx = pi1(x)
    # e_g e_h = e_{gh} for commuting 2-torsion pairs appears among relators
    tor = [g for g in d8.torsion(2)]
    g, h = next((a, b) for a in tor for b in tor
                if a != b and d8.commute(a, b) and a != d8.identity
                and b != d8.identity)
    gh = d8.mul(g, h)
    rel = word_simplify([(idx[(g,)], 1), (idx[(h,)], 1), (idx[(gh,)], -1)])
    assert rel in p.relators


def test_pi1_commutative_nerve_is_zd():
    for d in (2, 3):
        p, idx = pi1_commutative(nerve(d, cap=2), d)
        table = todd_coxeter(p)
        assert table.order == d


def test_pi1_commutative_k33_twisted_d2():
    fx = k33_torus_fixture()
    # [gamma] = 1: order 32 nonabelian, isomorphic to D8 * D8
    g1 = fixture_cochain(fx, {"sigma2": 1}, 2)
    xg = twisted_product(fx.space, g1, 2, cap=2)
    p, idx = pi1_commutative(xg, 2)
    table = todd_coxeter(p)
    assert table.order == 32 and not table.group.is_abelian()
    assert find_isomorphism(table.group,
                            central_product(dihedral(8), dihedral(8))) is not None
    # [gamma] = 0: Z_2^5
    g0 = fixture_cochain(fx, {}, 2)
    xg0 = twisted_product(fx.space, g0, 2, cap=2)
    p0, _ = pi1_commutative(xg0, 2)
    table0 = todd_coxeter(p0)
    assert table0.order == 32 and table0.group.is_abelian()
    assert abelianization(p0) == ([2, 2, 2, 2, 2], 0)


def test_pi1_commutative_k33_twisted_d3_abelian():
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma2": 1}, 3)
    xg = twisted_product(fx.space, g, 3, cap=2)
    p, _ = pi1_commutative(xg, 3)
    table = todd_coxeter(p)
    assert table is not None
    assert table.group.is_abelian()
    assert abelian_order(p) == table.order


# ------------------------------------------------------------------ K-group

def test_k_group_z2_trivial():
    data = k_group(cyclic(2))
    table = todd_coxeter(data.presentation)
    assert table.order == 1


def test_k_group_not_torsion_generated():
    with pytest.raises(ValueError):
        k_group(cyclic(4, 2))  # 2-torsion generates only half of Z_4


def test_k_group_d8d8_trivial():
    g = central_product(dihedral(8), dihedral(8))
    data = k_group(g)
    from simplcs.presentations import tietze_simplify
    simp = tietze_simplify(data.presentation)
    table = todd_coxeter(simp, max_cosets=200000)
    assert table is not None and table.order == 1


def test_k_group_heisenberg_nontrivial_certificate():
    g = heisenberg(3)
    data = k_group(g)
    pair = None
    from simplcs.groups import find_torsion_pair
    got = find_torsion_pair(g, 3)
    assert got is not None
    a, b = got
    assert (a, b) in data.pairs  # the generator e_{g,h} exists
    dim = elementarization(data.presentation, 3)
    assert dim > 0  # abelianization nonzero: K(Z_3, H) certified nontrivial
    # image word of e_{g,h} in pi1 N(Z_3, G) has the documented shape
    word = data.image_words[(a, b)]
    acc = g.identity
    for t in word:
        acc = g.mul(acc, t)
    assert acc == g.identity  # the loop closes


# ------------------------------------------------------------- hom counting

def test_enumerate_homs_cyclic():
    p = make_presentation(["e", "J"], [[("e", 3)], [("J", 3)],
                                       commutator_word(0, 1)], j_name="J")
    homs = enumerate_homs(p, cyclic(3), pin_j=True)
    assert len(homs) == 3


def test_k33_homs_into_z2():
    z2 = cyclic(2)
    odd = solution_group(k33_system([1, 0, 0, 0, 0, 0]))
    assert enumerate_homs(odd, z2, pin_j=True) == []
    even = solution_group(k33_system([0, 1, 1, 0, 0, 0]))
    homs = enumerate_homs(even, z2, pin_j=True)
    assert len(homs) == 16


def test_solutions_match_homs_and_solve():
    rng = random.Random(5)
    groups = [cyclic(2), cyclic(3), dihedral(8), quaternion()]
    for _ in range(25):
        d = rng.choice([2, 3])
        r, c = rng.randrange(1, 3), rng.randrange(1, 4)
        rows = [[rng.randrange(d) for _ in range(c)] for _ in range(r)]
        rhs = [rng.randrange(d) for _ in range(r)]
        sys_ = make_system(rows, rhs, d)
        p = solution_group(sys_)
        for g in groups:
            if g.d != d:
                continue
            sols = solutions(sys_, g)
            homs = enumerate_homs(p, g, pin_j=True)
            assert len(sols) == len(homs)
            assert {h.images for h in homs} == \
                {tuple(t) + (g.j,) for t in sols}
        # classical solutions agree with the exact solver
        zd = cyclic(d)
        sols_zd = solutions(sys_, zd)
        lin = solve(ZModMatrix(rows, d, num_cols=c), rhs)
        if lin is None:
            assert sols_zd == []
        else:
            assert sorted(lin.enumerate()) == sols_zd


def test_solutions_match_brute_force():
    """Sol(A,b;G) against every map columns -> G_(d), checked by is_solution."""
    from simplcs.simplicial import is_solution
    rng = random.Random(2305)
    panel = {2: ("cyclic:2", "cyclic:4:2", "dihedral:8", "quaternion"),
             3: ("cyclic:3", "heisenberg:3", "e1:3:1"),
             6: ("cyclic:6",)}
    panel = {d: [build_group(s) for s in specs] for d, specs in panel.items()}
    for trial in range(36):
        d = (2, 3, 6)[trial % 3]
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        sys_ = make_system([[rng.randrange(d) for _ in range(c)]
                            for _ in range(r)],
                           [rng.randrange(d) for _ in range(r)], d)
        for g in panel[d]:
            brute = [t for t in itertools.product(g.torsion(d), repeat=c)
                     if is_solution(t, sys_, g)]
            assert solutions(sys_, g) == brute


def test_solutions_k33_examples():
    d8d8 = central_product(dihedral(8), dihedral(8))
    odd = k33_system([1, 0, 0, 0, 0, 0])
    assert solutions(odd, cyclic(2)) == []
    sols = solutions(odd, d8d8)
    assert sols  # nonempty
    zero = k33_system([0] * 6)
    t0 = tuple([d8d8.identity] * 9)
    assert t0 in set(solutions(zero, d8d8))


def test_solution_sets_are_pinned():
    # sha256 prefixes of the sorted Sol lists: the search's output must not
    # drift with how it prunes
    d8d8 = "central_product(dihedral:8,dihedral:8)"
    cases = [
        ([1, 0, 0, 0, 0, 0], 2, d8d8, 1152, "b1eb3ef7c23a3eec"),
        ([0, 1, 1, 0, 0, 0], 2, d8d8, 22336, "0cc47df511a6c090"),
        ([1, 2, 0, 0, 0, 0], 3, "heisenberg:3", 26001, "0399f93355fa328f"),
        ([1, 2, 0, 0, 0, 0], 3, "e1:3:1", 26001, "1bd0b304c0af7887"),
    ]
    for b, d, spec, count, digest in cases:
        sols = solutions(k33_system(b, d=d), build_group(spec))
        assert len(sols) == count
        assert hashlib.sha256(repr(sols).encode()).hexdigest()[:16] == digest


def test_sol_nonempty_implies_j_order_d():
    sys_ = k33_system([1, 0, 0, 0, 0, 0])
    table = todd_coxeter(solution_group(sys_))
    jimg = table.j_image
    assert table.group.order(jimg) == 2


def test_abelian_gamma_implies_zd_solution():
    # abelian solution group with J of order d => classical solution exists
    for b in ([0] * 6, [0, 1, 1, 0, 0, 0], [1, 1, 0, 0, 1, 1]):
        sys_ = k33_system(b)
        p = solution_group(sys_)
        table = todd_coxeter(p)
        if table.group.is_abelian() and table.group.order(table.j_image) == 2:
            assert solutions(sys_, cyclic(2)) != []


# ---------------------------------------------------------------- reduction

def test_reduction_bijection_example_215():
    groups = [cyclic(2), cyclic(4, 2), dihedral(8), quaternion()]
    for b in itertools.product(range(2), repeat=2):
        sys_ = two_vertex_system(b)
        maps = reduction_maps(sys_)
        for g in groups:
            n1, n2 = check_reduction_bijection(sys_, g, maps)
            assert n1 == n2


def test_reduction_maps_send_delta_generators():
    sys_ = two_vertex_system((1, 0))
    maps = reduction_maps(sys_)
    # phi(e_{v2}) = e_{01}: the delta column of v2 is the function (0, 1)
    kind, idx = maps.delta_cols[1]
    assert kind == "col"
    assert maps.extracted.col_labels[idx] == ((0, 1),)
    # delta of v1 is the row A_2 = 10 itself: collapsed, pinned to J^{b_2}
    kind, val = maps.delta_cols[0]
    assert kind == "j" and val == 0  # b_2 = 0 here


# ---------------------------------------------------------- theorem instance

def test_theorem_iso_check_k33_fixture_d2():
    fx = k33_torus_fixture()
    for vals in ({}, {"sigma2": 1}):
        gam = fixture_cochain(fx, vals, 2)
        rep = theorem_iso_check(fx.space, gam, 2,
                                [cyclic(2), dihedral(8)])
        assert rep.passed
        assert rep.relator_results["product"] > 0


def test_theorem_iso_check_k33_fixture_d3():
    fx = k33_torus_fixture()
    gam = fixture_cochain(fx, {"sigma2": 1}, 3)
    rep = theorem_iso_check(fx.space, gam, 3, [cyclic(3)])
    assert rep.passed


def test_theorem_iso_check_checks_every_transported_hom(monkeypatch):
    # a hom of Gamma(A_X, b_gamma) breaking a relator, slipped past the
    # search's own check, is caught once transported, wherever it sits
    fx = k33_torus_fixture()
    gam = fixture_cochain(fx, {}, 2)
    g = dihedral(8)
    bad = next(x for x in range(g.n) if g.power(x, 2) != g.identity)
    real = presentations._hom_rows
    for at in (0, -1):
        def corrupt(pres, g, pin_j, at=at):
            rows = real(pres, g, pin_j)
            if pres.j_name == "J":  # the solution group's side
                rows = rows.copy()
                rows[at, 0] = bad
            return rows
        monkeypatch.setattr(presentations, "_hom_rows", corrupt)
        with pytest.raises(ValueError, match="do not satisfy"):
            theorem_iso_check(fx.space, gam, 2, [g])


def test_theorem_iso_check_random_2_truncated():
    rng = random.Random(7)
    for _ in range(6):
        x = random_truncated_sset(rng, 2)
        gam = cochain(x, 2, 2,
                      fn=lambda t: 0 if x.is_degenerate(2, t)
                      else rng.randrange(2))
        rep = theorem_iso_check(x, gam, 2, [cyclic(2)])
        assert rep.passed


# -------------------------------------------------------------- opposite word

def test_opposite_word_check_d3_no_violations():
    sys_ = k33_system([1, 1, 1, 0, 0, 0], d=3)
    table = todd_coxeter(solution_group(sys_))
    assert table is not None
    report = opposite_word_check(table, table.gen_images[:9],
                                 table.j_image, 3, 3)
    assert report["violations"] == []
    assert report["matches"] > 0


def test_opposite_word_check_d2_violations_exist():
    table = todd_coxeter(solution_group(k33_system([1, 0, 0, 0, 0, 0])))
    report = opposite_word_check(table, table.gen_images[:9],
                                 table.j_image, 2, 2)
    assert report["violations"] != []  # J-commutators at even d


def test_opposite_word_abelian_target():
    table = todd_coxeter(solution_group(k33_system([0] * 6)))
    report = opposite_word_check(table, table.gen_images[:9],
                                 table.j_image, 2, 3)
    assert report["violations"] == []
    assert report["matches"] == report["checked"]  # abelian: w = w^op always


def brute_homs(pres, g, pin_j):
    """Every image tuple that satisfies every relator, tried one by one."""
    k, jdx = pres.num_gens(), pres.j_index if pin_j else None
    free = [i for i in range(k) if i != jdx]
    powers = {e: [g.power(x, e) for x in range(g.n)]
              for rel in pres.relators for _, e in rel}
    out = []
    for vals in itertools.product(range(g.n), repeat=len(free)):
        images = [g.j] * k
        for i, x in zip(free, vals):
            images[i] = x
        ok = True
        for rel in pres.relators:
            acc = g.identity
            for gen, e in rel:
                acc = g.mul(acc, powers[e][images[gen]])
            if acc != g.identity:
                ok = False
                break
        if ok:
            out.append(tuple(images))
    return sorted(out)


def brute_force_cases():
    """Twelve seeded presentations on a, b and a pinned J, each with random
    words of exponents +-1 and +-2, over Z_2, Z_4 (J of order 2) and D_8."""
    rng = random.Random(12)
    targets = [cyclic(2), cyclic(4, 2), dihedral(8)]
    for trial in range(12):
        g = targets[trial % len(targets)]
        rels = [[("J", g.d)]]
        for _ in range(rng.randrange(1, 4)):
            word = [(rng.choice("abJ"), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randrange(1, 4))]
            rels.append(word)
        yield make_presentation(["a", "b", "J"], rels, j_name="J"), g


def test_enumerate_homs_matches_brute_force():
    for pres, g in brute_force_cases():
        got = {h.images for h in enumerate_homs(pres, g, pin_j=True)}
        assert got == set(brute_homs(pres, g, pin_j=True))


def run_executor(name, pres, g, pin_j):
    """The sorted image rows of one executor run on the compiled plan."""
    plan = presentations._compile_plan(pres, g, pin_j)
    if name == "rows":
        return sorted(presentations._run_rows(plan, g))
    return sorted(map(tuple, presentations._run_blocks(plan, g).tolist()))


@pytest.mark.parametrize("executor", ["rows", "blocks"])
def test_executors_match_brute_force(executor):
    for pres, g in brute_force_cases():
        assert (run_executor(executor, pres, g, True)
                == brute_homs(pres, g, pin_j=True))


def test_executors_force_between_noncommuting_letters():
    # relators a c^e b in non-abelian targets, c placed last: c is forced
    # between a and b, which need not commute, and with [a, c] the forced
    # image must also commute with its partner; then seeded three-letter
    # words with a commutator
    rng = random.Random(41)
    cases = [(spec, (((3, build_group(spec).d),), ((0, 1), (2, e), (1, 1)))
              + extra)
             for spec in ORACLE_TARGETS for e in (1, -1)
             for extra in ((), (commutator_word(0, 2),))]
    for trial in range(24):
        spec = ORACLE_TARGETS[trial % 3]
        rels = [((3, build_group(spec).d),),
                commutator_word(*rng.sample(range(3), 2))]
        for _ in range(rng.randrange(1, 3)):
            rels.append(tuple((gen, rng.choice((-1, 1)))
                              for gen in rng.sample(range(3), 3)))
        cases.append((spec, tuple(rels)))
    for spec, rels in cases:
        g = build_group(spec)
        pres = Presentation(("a", "b", "c", "J"), rels, "J")
        want = brute_homs(pres, g, pin_j=True)
        for executor in ("rows", "blocks"):
            assert run_executor(executor, pres, g, True) == want


def test_blocks_of_one_row_match_brute_force(monkeypatch):
    # one row per block: every level is split into single rows
    monkeypatch.setattr(presentations, "BLOCK_CELLS", 1)
    for pres, g in brute_force_cases():
        assert (run_executor("blocks", pres, g, True)
                == brute_homs(pres, g, pin_j=True))


def test_executors_agree_on_k33():
    d8d8 = central_product(dihedral(8), dihedral(8))
    cases = [([0, 1, 1, 0, 0, 0], 2, d8d8, 22336),
             ([1, 0, 0, 0, 0, 0], 2, d8d8, 1152),
             ([1, 2, 0, 0, 0, 0], 3, heisenberg(3), 26001)]
    for b, d, g, count in cases:
        pres = solution_group(k33_system(b, d=d))
        rows = run_executor("rows", pres, g, True)
        assert len(rows) == count
        assert run_executor("blocks", pres, g, True) == rows
        assert [h.images for h in enumerate_homs(pres, g)] == rows


def test_corrupted_result_row_raises(monkeypatch):
    # an executor that returns a row breaking a relator: the full check of
    # every result row must catch it, wherever the row sits
    pres = solution_group(k33_system([0] * 6))
    g = dihedral(8)
    bad = next(x for x in range(g.n) if g.power(x, 2) != g.identity)
    want = [h.images for h in enumerate_homs(pres, g)]
    assert len(want) > 100
    for name in ("_run_rows", "_run_blocks"):
        real = getattr(presentations, name)
        for at in (0, len(want) // 2, len(want) - 1):
            def corrupt(plan, g, real=real, at=at):
                rows = real(plan, g)
                row = list(rows[at])
                row[0] = bad  # e_0^2 = 1 fails
                rows[at] = tuple(row) if isinstance(rows, list) else row
                return rows
            monkeypatch.setattr(presentations, name, corrupt)
            monkeypatch.setattr(presentations, "NUMPY_LEAF_BOUND",
                                0 if name == "_run_blocks" else 1 << 60)
            with pytest.raises(ValueError, match="do not satisfy"):
                enumerate_homs(pres, g)
            with pytest.raises(ValueError, match="do not satisfy"):
                solutions(k33_system([0] * 6), g)
            monkeypatch.setattr(presentations, name, real)


def test_check_hom_rows_flags_each_bad_row():
    pres = solution_group(k33_system([1, 0, 0, 0, 0, 0]))
    g = central_product(dihedral(8), dihedral(8))
    rows = np.array([h.images for h in enumerate_homs(pres, g)])
    presentations.check_hom_rows(pres, g, rows)
    rng = random.Random(3)
    for _ in range(20):
        broken = rows.copy()
        r, c = rng.randrange(len(rows)), rng.randrange(pres.num_gens())
        broken[r, c] = rng.choice([x for x in range(g.n)
                                   if x != rows[r, c]])
        try:
            Hom(pres, g, tuple(broken[r].tolist()))
        except ValueError:
            with pytest.raises(ValueError, match=f"row {r} fails"):
                presentations.check_hom_rows(pres, g, broken)
        else:  # the change happened to give another hom
            presentations.check_hom_rows(pres, g, broken)


ORACLE_TARGETS = ("dihedral:8", "quaternion", "heisenberg:3")


def _case(spec, pin_j, rels):
    names = ("a", "b", "c", "J") if pin_j else ("a", "b", "J")
    return spec, Presentation(names, tuple(rels), "J"), pin_j


@st.composite
def commutator_presentations(draw):
    """A target and a presentation whose relators include exact commutators
    commutator_word(a, b) (repeated, reversed, [a, a], with J), mixed with
    torsion relators and short random words. Three generators are free:
    a, b, c and a pinned J, or a, b and an unpinned J."""
    spec = draw(st.sampled_from(ORACLE_TARGETS))
    pin_j = draw(st.booleans())
    gen = st.integers(0, 3 if pin_j else 2)
    rels = [commutator_word(a, b) for a, b in
            draw(st.lists(st.tuples(gen, gen), min_size=1, max_size=6))]
    rels += [((x, e),) for x, e in draw(st.lists(
        st.tuples(gen, st.sampled_from((2, 3, 4, 6))), max_size=2))]
    letter = st.tuples(gen, st.sampled_from((-2, -1, 1, 2)))
    rels += draw(st.lists(st.lists(letter, min_size=2, max_size=4)
                          .map(word_simplify), max_size=2))
    return _case(spec, pin_j, draw(st.permutations(rels)))


def commutator_cases(test):
    """test(case) over `commutator_presentations` and the pinned examples."""
    for case in (
            _case("dihedral:8", True, [commutator_word(0, 1),
                                        commutator_word(0, 1),
                                        commutator_word(1, 2)]),
            _case("quaternion", True, [commutator_word(0, 0),
                                        commutator_word(3, 0), ((1, 2),)]),
            _case("heisenberg:3", True, [commutator_word(0, 1),
                                          commutator_word(1, 0),
                                          commutator_word(2, 1)]),
            _case("dihedral:8", False, [commutator_word(0, 2),
                                         commutator_word(2, 1), ((2, 2),),
                                         ((0, 1), (1, 1), (2, -1))]),
            _case("heisenberg:3", False, [commutator_word(2, 0),
                                           commutator_word(1, 2),
                                           commutator_word(0, 1),
                                           ((2, 3),)])):
        test = example(case)(test)
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)(given(commutator_presentations())(test))


@commutator_cases
def test_enumerate_homs_commutators_match_brute_force(case):
    spec, pres, pin_j = case
    g = build_group(spec)
    got = [h.images for h in enumerate_homs(pres, g, pin_j=pin_j)]
    assert got == brute_homs(pres, g, pin_j)


@commutator_cases
def test_executors_commutators_match_brute_force(case):
    spec, pres, pin_j = case
    g = build_group(spec)
    want = brute_homs(pres, g, pin_j)
    for executor in ("rows", "blocks"):
        assert run_executor(executor, pres, g, pin_j) == want


def quadratic_generator_order(rel_gens, sizes):
    """The reference search order: each step rescores every unplaced
    generator over all of its relators and takes the least key."""
    k = len(sizes)
    rels_at = [[] for _ in range(k)]
    for r, gens in enumerate(rel_gens):
        for gen in gens:
            rels_at[gen].append(r)
    unplaced = [len(gens) for gens in rel_gens]

    def score(gen):
        done = touched = 0
        for r in rels_at[gen]:
            if unplaced[r] == 1:
                done += 1
            elif unplaced[r] < len(rel_gens[r]):
                touched += 1
        return (sizes[gen] > 1, -done, -touched, sizes[gen], gen)

    order, rest = [], list(range(k))
    while rest:
        nxt = min(rest, key=score)
        order.append(nxt)
        rest.remove(nxt)
        for r in rels_at[nxt]:
            unplaced[r] -= 1
    return order


def extracted(system):
    gam, host = gamma_b(system, cap=2)
    return extract_linear_system(host, gam)


def slot_shaped_system():
    """(A_X, b_gamma) for a 3 x 4 system over Z_3 whose complex is the full
    3-simplex: 6537 rows and 75 columns."""
    ext = extracted(make_system([[1, 2, 1, 1], [1, 1, 0, 0], [0, 1, 2, 0]],
                                [1, 0, 2], 3))
    assert (ext.num_rows, ext.num_cols) == (6537, 75)
    return ext


def slot_shaped_extraction():
    """The solution group of `slot_shaped_system()`."""
    return solution_group(slot_shaped_system())


def reference_solution_group(system):
    """Gamma(A, b) by the plain loop over the dense row tuples."""
    d = system.modulus
    gens = [f"e{v}" for v in range(system.num_cols)] + ["J"]
    jdx = len(gens) - 1
    relators = [word_simplify([(i, d)]) for i in range(len(gens))]
    pairs = {(v, jdx) for v in range(system.num_cols)}
    words, products = {}, []
    for key in zip(system.matrix.rows, system.rhs):
        if key not in words:
            row, bval = key
            supp = [v for v, e in enumerate(row) if e]
            pairs.update(itertools.combinations(supp, 2))
            words[key] = word_simplify([(v, row[v]) for v in supp]
                                       + [(jdx, -bval)])
        products.append(words[key])
    relators += [commutator_word(a, b) for a, b in sorted(pairs)]
    return Presentation(tuple(gens), tuple(relators + products), "J")


def test_solution_group_matches_reference_loop():
    # extracted systems keep their incidence array: sweep's slot shapes (the
    # full 3-simplex and a 2 x 4 system over Z_3), Z_6 with shared row spans
    # and K33. The K33 systems themselves and random small ones are built
    # from rows, and the random ones from arrays too
    systems = [slot_shaped_system(),
               extracted(make_system([[0, 1, 2, 1], [2, 0, 0, 0]], [1, 2], 3)),
               extracted(make_system([[1, 3, 0], [2, 3, 0], [0, 1, 5]],
                                     [1, 2, 3], 6)),
               extracted(k33_system([1, 0, 0, 0, 0, 0])),
               extracted(k33_system([1, 1, 1, 0, 0, 0], d=3)),
               k33_system([1, 0, 0, 0, 0, 0]), k33_system([0] * 6),
               k33_system([1, 1, 1, 0, 0, 0], d=3),
               make_system([[0, 0], [0, 0]], [1, 0], 2)]
    rng = random.Random(53)
    for _ in range(30):
        d = rng.choice((2, 3, 4, 6))
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randrange(-d, 2 * d) for _ in range(c)] for _ in range(r)]
        rhs = [rng.randrange(d) for _ in range(r)]
        systems.append(make_system(rows, rhs, d))
        systems.append(LinearSystem(ZModMatrix(np.array(rows), d), tuple(rhs)))
    for system in systems:
        assert presentations._solution_group(system) \
            == reference_solution_group(system)


def test_generator_order_matches_quadratic_reference():
    rng = random.Random(29)
    cases = [([], []), ([], [2, 1, 2]), ([{0}], [1]), ([{0, 1}], [3, 3])]
    for _ in range(400):
        k = rng.randrange(1, 9)
        rel_gens = [set(rng.sample(range(k), rng.randrange(1, k + 1)))
                    for _ in range(rng.randrange(0, 3 * k))]
        cases.append((rel_gens, [rng.randrange(1, 5) for _ in range(k)]))
    pres = slot_shaped_extraction()
    rel_gens = [gens for gens in ({g for g, _ in rel}
                                  for rel in dict.fromkeys(pres.relators))
                if len(gens) > 1]
    sizes = [3] * (pres.num_gens() - 1) + [1]
    cases.append((rel_gens, sizes))
    for rel_gens, sizes in cases:
        assert (_generator_order(rel_gens, sizes)
                == quadratic_generator_order(rel_gens, sizes))


def test_enumerate_homs_ignores_repeated_relators():
    """Every relator repeated one to three times, shuffled: the same homs."""
    rng = random.Random(31)
    cases = [(solution_group(k33_system([0] * 6)), "dihedral:8"),
             (solution_group(two_vertex_system([1, 0])), "quaternion"),
             (solution_group(make_system([[1, 2, 0], [0, 1, 1]], [1, 2], 3)),
              "heisenberg:3")]
    for trial in range(9):
        spec = ORACLE_TARGETS[trial % 3]
        rels = [((3, build_group(spec).d),)]
        for _ in range(rng.randrange(1, 4)):
            rels.append(word_simplify(
                [(rng.randrange(4), rng.choice((-2, -1, 1, 2)))
                 for _ in range(rng.randrange(1, 4))]))
        rels.append(commutator_word(*rng.sample(range(3), 2)))
        cases.append((Presentation(("a", "b", "c", "J"), tuple(rels), "J"),
                      spec))
    for pres, spec in cases:
        g = build_group(spec)
        rels = [rel for rel in pres.relators
                for _ in range(rng.randrange(1, 4))]
        rng.shuffle(rels)
        repeated = Presentation(pres.gens, tuple(rels), pres.j_name)
        want = [h.images for h in enumerate_homs(pres, g, pin_j=True)]
        assert [h.images for h in enumerate_homs(repeated, g, pin_j=True)] \
            == want
        if pres.num_gens() <= 4:
            assert want == brute_homs(pres, g, pin_j=True)


def test_tietze_preserves_group_order():
    rng = random.Random(13)
    trials = 0
    while trials < 10:
        k = rng.randrange(2, 4)
        gens = [f"x{i}" for i in range(k)]
        rels = [[(g, rng.randrange(2, 5))] for g in gens]
        for _ in range(rng.randrange(1, 4)):
            rels.append([(rng.choice(gens), rng.choice((-1, 1)))
                         for _ in range(rng.randrange(2, 5))])
        pres = make_presentation(gens, rels)
        table = todd_coxeter(pres, max_cosets=20000)
        if table is None:
            continue
        trials += 1
        simp = tietze_simplify(pres)
        table2 = todd_coxeter(simp, max_cosets=20000)
        assert table2 is not None and table2.order == table.order


# ------------------------------------------------------------- presentation IO

def test_presentation_file_roundtrip():
    text = "gens: a b J\nrel: a^2\nrel: [a,b]\nrel: a b J^-1\n"
    p = parse_presentation(text)
    assert p.gens == ("a", "b", "J")
    assert p.j_name == "J"
    assert commutator_word(0, 1) in p.relators
    blob = dump_presentation(p)
    p2 = parse_presentation(blob)
    assert p2.relators == p.relators


def test_abelianization_free_torsion():
    p = make_presentation(["a", "b", "c"], [[("a", 3)], [("b", 3)], [("c", 3)]])
    assert abelianization(p) == ([3, 3, 3], 0)
    assert abelian_order(p) == 27
    assert elementarization(p, 3) == 3
    free = make_presentation(["a", "b"], [])
    assert abelianization(free) == ([], 2)
    assert abelian_order(free) is None
