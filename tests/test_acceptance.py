"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated budget."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from simplcs import cohomology, contextuality, groups, linsys, presentations
from simplcs import simplicial
from simplcs.cohomology import cochain, cohomologous, gamma_phi_d, pullback
from simplcs.contextuality import (enumerate_deterministic, is_contextual,
                                   maximally_mixed, mermin_peres_solution,
                                   quantum_distribution, random_phase_state,
                                   theta, verify_verdict)
from simplcs.groups import (build_e1, build_group, cyclic, dihedral,
                            embed_e1, find_isomorphism, find_torsion_pair,
                            heisenberg, monomial_split, quaternion, quotient_by_j,
                            wreath_cyclic, MonomialElement)
from simplcs.linsys import two_vertex_system, k33_system, make_system
from simplcs.presentations import (abelian_order, abelianization,
                                   check_reduction_bijection, enumerate_homs,
                                   hom_of_solution, k_group,
                                   opposite_word_check, pi1, reduction_maps,
                                   solution_group, solutions,
                                   theorem_iso_check, tietze_simplify,
                                   todd_coxeter)
from simplcs.simplicial import (comm_nerve, complex_of_system,
                                k33_commutator_replay, k33_torus_fixture,
                                nzd_sigma, power_map_s, random_truncated_sset,
                                SMap)
from simplcs.zmod import solve


class Criterion:
    def __init__(self, number, budget):
        self.number = number
        self.budget = budget
        self.start = time.time()

    def finish(self, ok=True):
        elapsed = time.time() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.1f}s, "
              f"budget {self.budget}s)")
        assert ok
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget")


D8D8 = "central_product(dihedral:8,dihedral:8)"


def test_criterion_01_k33_solvability():
    crit = Criterion(1, budget=1)
    for bits in range(64):
        b = [(bits >> k) & 1 for k in range(6)]
        sys_ = k33_system(b)
        lin = solve(sys_.matrix, sys_.rhs)
        assert (lin is not None) == (sum(b) % 2 == 0)
        if lin is not None:
            assert lin.count() == 16
            assert len(lin.enumerate()) == 16
    crit.finish()


def test_criterion_02_k33_solution_group():
    crit = Criterion(2, budget=10)
    odd = todd_coxeter(solution_group(k33_system([0, 0, 0, 0, 0, 1])))
    assert odd is not None and odd.order == 32
    assert not odd.group.is_abelian()
    assert find_isomorphism(odd.group, build_group(D8D8)) is not None
    even_pres = solution_group(k33_system([0] * 6))
    even = todd_coxeter(even_pres)
    assert even is not None and even.order == 32
    assert even.group.is_abelian()
    assert abelianization(even_pres) == ([2, 2, 2, 2, 2], 0)
    z25 = cyclic(2)
    for _ in range(4):
        z25 = groups.direct_product(z25, cyclic(2))
    assert find_isomorphism(even.group, z25) is not None
    crit.finish()


def test_criterion_03_odd_d_k33():
    crit = Criterion(3, budget=60)
    pres = solution_group(k33_system([1, 1, 1, 0, 0, 0], d=3))
    table = todd_coxeter(pres)
    assert table is not None
    assert table.group.is_abelian()
    assert abelian_order(pres) == table.order
    assert solutions(k33_system([1, 1, 1, 0, 0, 0], d=3), cyclic(3)) != []
    report = opposite_word_check(table, table.gen_images[:9],
                                 table.j_image, 3, 4)
    assert report["violations"] == []
    # abelianness holds for every parity vector, not just solvable ones
    for b in ([1, 0, 0, 0, 0, 0], [2, 1, 0, 1, 0, 0]):
        t2 = todd_coxeter(solution_group(k33_system(b, d=3)))
        assert t2 is not None and t2.group.is_abelian()
    crit.finish()


def test_criterion_04_contextuality_certificates():
    crit = Criterion(4, budget=10)
    sys_ = k33_system([0, 0, 0, 0, 0, 1])
    host = nzd_sigma(complex_of_system(sys_), 2, cap=2)
    dets = enumerate_deterministic(host, 2)
    q = quantum_distribution(sys_, mermin_peres_solution(),
                             maximally_mixed(4), host=host)
    verdict = is_contextual(q, dets)
    assert verdict.contextual and verdict.farkas
    verify_verdict(q, verdict, dets)

    host0 = nzd_sigma(complex_of_system(k33_system([0] * 6)), 2, cap=2)
    dets0 = enumerate_deterministic(host0, 2)
    uniform = theta({f: Fraction(1, len(dets0)) for f in dets0})
    verdict0 = is_contextual(uniform, dets0)
    assert not verdict0.contextual
    verify_verdict(uniform, verdict0, dets0)
    crit.finish()


def test_criterion_05_reduction_instances():
    crit = Criterion(5, budget=60)
    test_groups = [build_group(s) for s in
                   ("cyclic:2", "cyclic:4:2", "dihedral:8", "quaternion", D8D8)]
    for b in itertools.product(range(2), repeat=2):
        sys_ = two_vertex_system(list(b))
        maps = reduction_maps(sys_)
        for g in test_groups:
            n1, n2 = check_reduction_bijection(sys_, g, maps)
            assert n1 == n2
    k33 = k33_system([0, 0, 0, 0, 0, 1])
    maps = reduction_maps(k33)
    for g in test_groups:
        n1, n2 = check_reduction_bijection(k33, g, maps)
        assert n1 == n2
        if g.name == D8D8:
            assert n1 == 1152  # Aut_J of the extraspecial group 2^{1+4}_+
        else:
            assert n1 == 0     # odd parity admits no solution in these
    crit.finish()


def test_criterion_06_theorem_instances():
    crit = Criterion(6, budget=120)
    fx = k33_torus_fixture()

    def fixture_gamma(vals, d):
        return cochain(fx.space, 2, d,
                       values={fx.triangles[k]: v for k, v in vals.items()})

    for vals in ({}, {"sigma2": 1}):
        rep = theorem_iso_check(fx.space, fixture_gamma(vals, 2), 2,
                                [cyclic(2), dihedral(8)])
        assert rep.passed and rep.relator_results["product"] > 0
    rep = theorem_iso_check(fx.space, fixture_gamma({}, 3), 3,
                            [cyclic(3), heisenberg(3)])
    assert rep.passed
    assert rep.hom_counts["heisenberg:3"][0] == rep.hom_counts["heisenberg:3"][1] > 0
    rep = theorem_iso_check(fx.space, fixture_gamma({"sigma2": 1}, 3), 3,
                            [cyclic(3)])
    assert rep.passed

    gam, host = cohomology.gamma_b(two_vertex_system((1, 0)), cap=3)
    rep = theorem_iso_check(host, gam, 2, [cyclic(2), dihedral(8)])
    assert rep.passed

    rng = random.Random(2026)
    for _ in range(4):
        x = random_truncated_sset(rng)
        gam = cochain(x, 2, 2, fn=lambda t: 0 if x.is_degenerate(2, t)
                      else rng.randrange(2))
        rep = theorem_iso_check(x, gam, 2, [cyclic(2), dihedral(8)])
        assert rep.passed
    crit.finish()


def test_criterion_07_extraspecial_d2():
    crit = Criterion(7, budget=120)
    e2 = build_group("extraspecial:2:2:+")
    x = comm_nerve(e2, cap=2)
    pres, _ = pi1(x)
    table = todd_coxeter(tietze_simplify(pres), max_cosets=300000)
    assert table is not None and table.order == 32
    assert find_isomorphism(table.group, e2) is not None
    kdata = k_group(e2)
    ktable = todd_coxeter(tietze_simplify(kdata.presentation),
                          max_cosets=300000)
    assert ktable is not None and ktable.order == 1
    crit.finish()


def test_criterion_08_odd_p_suite():
    crit = Criterion(8, budget=120)
    for g in (heisenberg(3), build_e1(3, 2), wreath_cyclic(3)):
        pair = find_torsion_pair(g, 3)
        assert pair is not None
        a, b = pair
        assert not g.commute(a, b)
        assert g.power(g.mul(g.inv(a), b), 3) == g.identity
    e1 = build_e1(3, 1)
    z3 = cyclic(3)
    rng = random.Random(8)
    for _ in range(200):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        rows = [[rng.randrange(3) for _ in range(c)] for _ in range(r)]
        b = [rng.randrange(3) for _ in range(r)]
        sys_ = make_system(rows, b, 3)
        if solutions(sys_, e1):
            assert solutions(sys_, z3) != []
    crit.finish()


def test_criterion_09_monomial_splitting():
    crit = Criterion(9, budget=60)
    big = build_e1(3, 2)
    one = MonomialElement.one(3, 2)
    tor = [el for el in big.elements if el.pow(3) == one]
    for a in tor:
        fa = monomial_split(a)
        for b in tor:
            if a.mul(b) == b.mul(a):
                assert monomial_split(a.mul(b)) == fa.mul(monomial_split(b))
    small = build_e1(3, 1)
    for el in small.elements:
        assert monomial_split(embed_e1(el)) == el
    crit.finish()


def test_criterion_10_power_map_suite():
    crit = Criterion(10, budget=120)
    for spec, d in (("dihedral:8", 2), ("cyclic:4", 4), ("cyclic:6", 6)):
        g = build_group(spec)
        for m1, m2 in itertools.product((-1, 1, 2, 3), repeat=2):
            w1 = power_map_s(g, d, m1, cap=2)
            w2 = power_map_s(g, d, m2, cap=2)
            w12 = power_map_s(g, d, m1 * m2, cap=2)
            for n in range(3):
                for tok in w12.source.simplices[n]:
                    assert w1(n, w2(n, tok)) == w12(n, tok)
    for spec in ("dihedral:8", "quaternion"):
        g = build_group(spec)
        ext = quotient_by_j(g)
        gam, host, _ = gamma_phi_d(ext, cap=3)
        q = ext.quotient
        for m in (-1, 3):
            mapping = {n: {tok: tuple(q.power(x, m) for x in tok)
                           for tok in host.simplices[n]}
                       for n in range(host.cap + 1)}
            pulled = pullback(gam, SMap(host, host, mapping))
            assert cohomologous(gam.scale(m), pulled) is not None
    z6 = cyclic(6)
    rng = random.Random(10)
    for _ in range(20):
        r, c = rng.randrange(1, 3), rng.randrange(1, 4)
        sys_ = make_system([[rng.randrange(6) for _ in range(c)]
                            for _ in range(r)],
                           [rng.randrange(6) for _ in range(r)], 6)
        seen = set()
        for t in solutions(sys_, z6):
            image = (tuple(z6.power(x, 3) for x in t),
                     tuple(z6.power(x, 4) for x in t))
            assert image not in seen
            seen.add(image)
    crit.finish()


def test_criterion_11_structural_property_suite():
    crit = Criterion(11, budget=300)
    rng = random.Random(11)

    # simplicial identities: constructors validate; touch a cross-section
    fx = k33_torus_fixture()
    fx.space.validate()
    comm_nerve(dihedral(8), cap=3).validate()
    coeff, _ = k33_commutator_replay()
    assert coeff == simplicial.K33_FUNDAMENTAL_CYCLE

    # d(d f) = 0 and cocycle conditions on random cochains
    for d in (2, 3, 6):
        f = cochain(fx.space, 1, d, fn=lambda t: rng.randrange(d))
        assert cohomology.coboundary(cohomology.coboundary(f)).is_zero()
    for spec in ("dihedral:8", "quaternion", "e1:3:1"):
        ext = quotient_by_j(build_group(spec))
        gam, host, gc = gamma_phi_d(ext, cap=3)
        assert cohomology.is_cocycle(gam)
        assert cohomology.is_normalized(gam)
        assert gc.cocycle_defects() == []

    # Sol <-> Hom_J bijection and solve() agreement on a random corpus
    gs = [cyclic(2), cyclic(3), dihedral(8), quaternion()]
    for _ in range(15):
        d = rng.choice([2, 3])
        r, c = rng.randrange(1, 3), rng.randrange(1, 4)
        sys_ = make_system([[rng.randrange(d) for _ in range(c)]
                            for _ in range(r)],
                           [rng.randrange(d) for _ in range(r)], d)
        pres = solution_group(sys_)
        for g in gs:
            if g.d != d:
                continue
            sols = solutions(sys_, g)
            homs = enumerate_homs(pres, g, pin_j=True)
            assert {h.images for h in homs} == \
                {hom_of_solution(pres, g, t).images for t in sols}
        lin = solve(sys_.matrix, sys_.rhs)
        zd_sols = solutions(sys_, cyclic(d))
        assert (lin is not None) == bool(zd_sols)
        if lin is not None:
            assert sorted(lin.enumerate()) == zd_sols
        # Sol nonempty for some tested G => J has order d in the coset table
        if any(solutions(sys_, g) for g in gs if g.d == d):
            table = todd_coxeter(pres, max_cosets=100000)
            if table is not None:
                assert table.group.order(table.j_image) == d
        # abelian Gamma with J of order d => classical solution exists
        table = todd_coxeter(pres, max_cosets=100000)
        if table is not None and table.group.is_abelian() \
                and table.group.order(table.j_image) == d:
            assert zd_sols

    # Theta on point masses is the delta distribution; LP verdicts re-verify
    host = nzd_sigma(complex_of_system(two_vertex_system((0, 0))), 2, cap=2)
    dets = enumerate_deterministic(host, 2)
    for f in dets:
        assert theta({f: 1}).dists == contextuality.delta_distribution(f).dists
    p = theta({f: Fraction(1, len(dets)) for f in dets})
    verdict = is_contextual(p, dets)  # is_contextual re-verifies internally
    assert not verdict.contextual
    crit.finish()
