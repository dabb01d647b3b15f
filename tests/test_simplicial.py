import hashlib
import itertools
import random

import pytest

from simplcs.groups import (build_group, cyclic, dihedral, quaternion,
                            quotient_by_j)
from simplcs.linsys import (RowConditionError, two_vertex_system, k33_system,
                            make_system, single_vertex_system)
from simplcs.simplicial import (BASEPOINT, K33_EDGE_LABELS,
                                K33_FUNDAMENTAL_CYCLE, K33_TRIANGLES,
                                SimplicialValidationError, TruncatedSSet,
                                bar_comm_nerve,
                                bar_nzd_sigma, cells_sset, comm_nerve,
                                complex_of_system, dump_sset, e_space,
                                e_space_projection, is_solution,
                                k33_commutator_replay, k33_torus_fixture,
                                load_sset, map_from_solution, nerve,
                                nzd_sigma, power_map_s, quotient_by_subset,
                                random_truncated_sset, twisted_iso,
                                twisted_product, wedge_nzd,
                                wedge_subset_of_nzd)


# ------------------------------------------------------------- complexes

def test_complex_of_example_215_is_power_set():
    sigma = complex_of_system(two_vertex_system((0, 0)))
    assert len(sigma.facets) == 1
    assert sigma.facets[0] == frozenset({0, 1})
    assert sigma.contains({0}) and sigma.contains({0, 1}) and sigma.contains(())


def test_complex_of_k33_is_torus_dual():
    sigma = complex_of_system(k33_system([1, 0, 0, 0, 0, 0]))
    assert len(sigma.facets) == 6
    assert all(len(f) == 3 for f in sigma.facets)
    # every vertex (graph edge) lies in exactly two facets
    for v in range(9):
        assert sum(1 for f in sigma.facets if v in f) == 2


def test_complex_single_vertex():
    sigma = complex_of_system(single_vertex_system(0))
    assert sigma.facets == (frozenset({0}),)


def test_row_condition_errors_are_diagnostic():
    bad = make_system([[2, 4]], [0], 6)  # span has order 3
    with pytest.raises(RowConditionError, match="row 0"):
        complex_of_system(bad)
    dup = make_system([[1, 1], [1, 1]], [0, 0], 2)
    with pytest.raises(RowConditionError, match="rows 0 and 1"):
        complex_of_system(dup)


# ------------------------------------------------------------- nerves

def test_nerve_sizes_and_faces():
    n2 = nerve(2, cap=3)
    assert n2.size(2) == 4  # Z_2^2
    d8 = dihedral(8)
    nd8 = nerve(d8, cap=2)
    g, h = 3, 5
    assert nd8.face(2, 1, (g, h)) == (d8.mul(g, h),)
    # nondegenerate 1-simplices of NZ_d: d - 1
    for d in (2, 3, 4):
        assert len(nerve(d, cap=2).nondegenerate(1)) == d - 1


def test_comm_nerve_degree1_counts():
    assert comm_nerve(dihedral(8), cap=1).size(1) == 6   # 1 + five involutions
    assert comm_nerve(quaternion(), cap=1).size(1) == 2  # {1, -1}
    z3 = cyclic(3)
    x = comm_nerve(z3, cap=3)
    for n in range(4):
        assert x.size(n) == 3 ** n  # abelian, all d-torsion


def test_comm_nerve_closed_subset_of_nerve():
    d8 = dihedral(8)
    x = comm_nerve(d8, cap=3)
    full = set(nerve(d8, cap=3).simplices[2])
    assert set(x.simplices[2]) <= full
    for tok in x.simplices[2]:
        for i in range(3):
            assert x.face(2, i, tok) in set(x.simplices[1])


def test_nzd_sigma_example_215():
    sigma = complex_of_system(two_vertex_system((0, 0)))
    x = nzd_sigma(sigma, 2, cap=3)
    assert sorted(x.simplices[1]) == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    # no further restrictions: n-simplices are all tuples
    assert x.size(2) == 16


def test_nzd_sigma_single_vertex_d3():
    sigma = complex_of_system(single_vertex_system(0, d=3))
    x = nzd_sigma(sigma, 3, cap=2)
    assert x.size(1) == 3


def test_nzd_sigma_k33_counts():
    sigma = complex_of_system(k33_system([0] * 6))
    x = nzd_sigma(sigma, 2, cap=2)
    # inclusion-exclusion: 1 zero + 6 facets * 7 nonzero - 9 shared deltas
    assert x.size(1) == 1 + 6 * 7 - 9 == 34
    assert x.size(1) == len(set(x.simplices[1]))
    # simplex count equals functions-with-support-in-Sigma, cross-checked
    direct = 0
    for vals in itertools.product(range(2), repeat=9):
        supp = {v for v, a in enumerate(vals) if a}
        if sigma.contains(supp):
            direct += 1
    assert direct == 34


def test_validation_catches_broken_faces():
    x = nerve(2, cap=2)
    faces = dict(x.faces)
    bad = dict(faces[(2, 0)])
    # corrupt d_0 of s_0(1): the d_0 s_0 = id identity must catch it
    tok = x.degeneracy(1, 0, (1,))
    bad[tok] = (1,) if bad[tok] == (0,) else (0,)
    faces[(2, 0)] = bad
    with pytest.raises(SimplicialValidationError):
        x.__class__(2, x.simplices, faces, x.degeneracies)


def reference_identity_failure(cap, simplices, faces, degs):
    """The first simplicial identity that fails, in the order and the words
    of the plain triple loops over (simplex, j, i), or None."""
    for n in range(2, cap + 1):
        for tok in simplices[n]:
            for j in range(n + 1):
                for i in range(j):
                    if (faces[(n - 1, i)][faces[(n, j)][tok]]
                            != faces[(n - 1, j - 1)][faces[(n, i)][tok]]):
                        return f"d_{i} d_{j} identity fails at {tok!r} (deg {n})"
    for n in range(cap - 1):
        for tok in simplices[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    if (degs[(n + 1, i)][degs[(n, j)][tok]]
                            != degs[(n + 1, j + 1)][degs[(n, i)][tok]]):
                        return f"s_{i} s_{j} identity fails at {tok!r}"
    for n in range(cap):
        for tok in simplices[n]:
            for j in range(n + 1):
                for i in range(n + 2):
                    if i < j:
                        want = degs[(n - 1, j - 1)][faces[(n, i)][tok]]
                    elif i in (j, j + 1):
                        want = tok
                    else:
                        want = degs[(n - 1, j)][faces[(n, i - 1)][tok]]
                    if faces[(n + 1, i)][degs[(n, j)][tok]] != want:
                        return f"d_{i} s_{j} identity fails at {tok!r}"
    return None


def test_validation_reports_first_failing_identity():
    """Every single-entry corruption of the maps of N(Z_2) up to degree 3
    and of N(Z_3) up to degree 2, within the simplices of the right degree,
    is rejected exactly when the reference finds a failing identity, with
    the reference's message."""
    seen = set()
    for x in (nerve(2, cap=3), nerve(3, cap=2)):
        corruptions = [(0, key, key[0] - 1) for key in x.faces]
        corruptions += [(1, key, key[0] + 1) for key in x.degeneracies]
        for which, key, target in corruptions:
            for tok, old in (x.faces, x.degeneracies)[which][key].items():
                for new in x.simplices[target]:
                    if new == old:
                        continue
                    maps = [{k: dict(v) for k, v in x.faces.items()},
                            {k: dict(v) for k, v in x.degeneracies.items()}]
                    maps[which][key][tok] = new
                    want = reference_identity_failure(x.cap, x.simplices,
                                                      *maps)
                    if want is None:
                        TruncatedSSet(x.cap, x.simplices, *maps)
                        continue
                    with pytest.raises(SimplicialValidationError) as err:
                        TruncatedSSet(x.cap, x.simplices, *maps)
                    assert str(err.value) == want
                    seen.add(want.split(" identity")[0])
    # every kind of identity, d_i s_j with i < j, i in (j, j + 1) and
    # i > j + 1 included, is the first failure of some corruption
    assert sorted(seen) == [
        "d_0 d_1", "d_0 d_2", "d_0 d_3", "d_0 s_0", "d_0 s_1", "d_0 s_2",
        "d_1 d_2", "d_1 d_3", "d_1 s_0", "d_1 s_1", "d_1 s_2", "d_2 s_0",
        "d_2 s_1", "s_0 s_0", "s_0 s_1", "s_1 s_1"]


# ------------------------------------------------------- wedge / alpha / beta

def test_wedge_single_row_is_nzd():
    sys_ = single_vertex_system(1)
    wedge, alpha, beta = wedge_nzd(sys_, cap=2)
    assert wedge.size(1) == 2  # basepoint + the nontrivial loop
    assert alpha(1, (0, (1,))) == ((1,),)


def test_wedge_alpha_beta_on_example_215():
    sys_ = two_vertex_system((1, 0))
    wedge, alpha, beta = wedge_nzd(sys_, cap=2)
    # A_1 as 11 and A_2 as 10
    assert alpha(1, (0, (1,))) == ((1, 1),)
    assert alpha(1, (1, (1,))) == ((1, 0),)
    assert beta(1, (0, (1,))) == (1,)
    assert beta(1, (1, (1,))) == (0,)


def test_wedge_beta_on_k33():
    sys_ = k33_system([1, 0, 0, 0, 0, 0])
    wedge, alpha, beta = wedge_nzd(sys_, cap=2)
    assert beta(1, (0, (1,))) == (1,)
    for fac in range(1, 6):
        assert beta(1, (fac, (1,))) == (0,)


# ------------------------------------------------------------- quotients

def test_bar_nzd_sigma_example_215_degree1_and_2():
    q = bar_nzd_sigma(two_vertex_system((0, 0)), cap=2)
    assert q.size(1) == 2  # {0bar, 01}
    assert BASEPOINT in q.simplices[1]
    assert ((0, 1),) in q.simplices[1]
    assert q.size(2) == 10  # the ten listed elements
    listed = {BASEPOINT,
              ((0, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 1), (0, 1)),
              ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 1)),
              ((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (1, 1))}
    assert set(q.simplices[2]) == listed


def test_quotient_of_x_by_x_is_point():
    x = nerve(2, cap=2)
    q = quotient_by_subset(x, {n: x.simplices[n] for n in range(3)})
    for n in range(3):
        assert q.simplices[n] == (BASEPOINT,)


def test_quotient_partitions_simplices():
    sys_ = two_vertex_system((0, 0))
    x = nzd_sigma(complex_of_system(sys_), 2, cap=2)
    sub = wedge_subset_of_nzd(sys_, x)
    q = quotient_by_subset(x, sub)
    for n in range(3):
        assert x.size(n) == len(sub[n]) + (q.size(n) - 1)


def test_gamma_b_sorts_each_token_once(monkeypatch):
    # the quotient keeps the parent's sorted order, BASEPOINT first, and
    # computes no sort key beyond one per degree
    from simplcs import cohomology, simplicial
    calls = []

    def counted(tok):
        calls.append(tok)
        return repr(tok)

    monkeypatch.setattr(simplicial, "_token_key", counted)
    system = make_system([[1, 2, 1, 1], [1, 1, 0, 0], [0, 1, 2, 0]],
                         [1, 0, 2], 3)
    x = nzd_sigma(complex_of_system(system), 3, cap=2)
    built = len(calls)
    _, q = cohomology.gamma_b(system, cap=2)
    assert len(calls) == 2 * built + 3   # N(Z_d, Sigma) again, then 3 keys
    for n in range(3):
        assert q.simplices[n][0] == BASEPOINT
        assert q.simplices[n] == tuple(sorted(q.simplices[n], key=repr))
        assert q.simplices[n][1:] == tuple(
            t for t in x.simplices[n] if t in set(q.simplices[n]))


def test_quotient_sorts_when_basepoint_is_not_least():
    # a vertex whose repr sorts before BASEPOINT's: the quotient sorts
    x = TruncatedSSet(1, {0: ["!", "a"], 1: [("!", "!"), ("a", "a")]},
                      {(1, 0): {("!", "!"): "!", ("a", "a"): "a"},
                       (1, 1): {("!", "!"): "!", ("a", "a"): "a"}},
                      {(0, 0): {"!": ("!", "!"), "a": ("a", "a")}})
    q = quotient_by_subset(x, {0: ["a"], 1: [("a", "a")]})
    assert q.simplices[0] == ("!", BASEPOINT)
    assert q.simplices[1] == (BASEPOINT, ("!", "!"))


def test_quotient_rejects_non_closed_subset():
    x = nerve(2, cap=2)
    with pytest.raises(SimplicialValidationError):
        quotient_by_subset(x, {1: [(1,)]})  # no degeneracies included


def test_bar_comm_nerve_d8():
    ext = quotient_by_j(dihedral(8))
    q = bar_comm_nerve(ext, cap=2)
    # images of {1, five involutions}: three classes out of four in Z2xZ2
    assert q.size(1) == 3


def test_constructor_structure_maps_are_pinned():
    # sha256 prefixes of dump_sset: every simplex, face and degeneracy
    fx = k33_torus_fixture()
    sig2 = fx.triangles["sigma2"]
    k33 = k33_system([1, 0, 0, 0, 0, 0])
    cases = [
        (nerve(3, cap=3), "7b23bf70c3493953"),
        (nerve(dihedral(8), cap=2), "c0ee4b940e2a0ddb"),
        (comm_nerve(quaternion(), cap=3), "e3e11c9324a85bd3"),
        (nzd_sigma(complex_of_system(k33), 2, cap=2), "059241d996ed202f"),
        (bar_comm_nerve(quotient_by_j(dihedral(8))), "bdab29db8059925e"),
        (bar_nzd_sigma(two_vertex_system((1, 0)), cap=3), "51a9714041c6e841"),
        (wedge_nzd(k33, cap=2)[0], "423c15bbb01551b7"),
        (twisted_product(fx.space, lambda t: int(t == sig2), 2, cap=2),
         "e5056ce4b0141992"),
        (e_space(dihedral(8)), "37f0ef0a2d5da45e"),
    ]
    for x, digest in cases:
        assert hashlib.sha256(dump_sset(x).encode()).hexdigest()[:16] == digest


# ------------------------------------------------------- twisted products

def test_twisted_product_zero_cocycle_is_cartesian():
    x = nerve(2, cap=3)
    xg = twisted_product(x, lambda t: 0, 2, cap=2)
    for (alpha, tau) in xg.simplices[2]:
        got = xg.face(2, 0, (alpha, tau))
        assert got == ((alpha[1],), x.face(2, 0, tau))


def test_twisted_product_face_law():
    fx = k33_torus_fixture()
    gamma = {fx.triangles["sigma2"]: 1}

    def g(tok):
        return gamma.get(tok, 0)

    xg = twisted_product(fx.space, g, 2, cap=2)
    sig2 = fx.triangles["sigma2"]
    for (a, b) in itertools.product(range(2), repeat=2):
        got = xg.face(2, 0, ((a, b), sig2))
        assert got == (((1 + b) % 2,), fx.space.face(2, 0, sig2))


def test_twisted_product_rejects_bad_cochains():
    x = nerve(2, cap=3)
    with pytest.raises(SimplicialValidationError):
        twisted_product(x, lambda t: 1, 2, cap=2)  # not normalized


def test_twisted_iso_d8_and_sizes():
    ext = quotient_by_j(dihedral(8))
    smap, xg, gc = twisted_iso(ext, cap=2)
    target = smap.target
    assert smap.is_bijective()
    for n in range(3):
        assert xg.size(n) == target.size(n)
    # degree 0: basepoint to basepoint
    assert smap(0, ((), ())) == ()


@pytest.mark.parametrize("spec", ["dihedral:8", "quaternion",
                                  "central_product(dihedral:8,dihedral:8)",
                                  "e1:3:1"])
def test_twisted_iso_structure_maps_commute(spec):
    g = build_group(spec)
    ext = quotient_by_j(g)
    smap, xg, gc = twisted_iso(ext, cap=2)
    assert smap.is_bijective()  # SMap() already validated commutation


# ------------------------------------------------------------- E-space

def test_e_space_sizes():
    d8d8 = build_group("central_product(dihedral:8,dihedral:8)")
    e = e_space(d8d8, cap=1)
    assert e.size(1) == 32 * 20  # |G| x |N(Z_2,G)_1|, 20 involutions incl 1
    z2 = cyclic(2)
    ez2 = e_space(z2, cap=3)
    for n in range(4):
        assert ez2.size(n) == 2 * 2 ** n


def test_e_space_last_face_projects():
    z2 = cyclic(2)
    e = e_space(z2, cap=2)
    assert e.face(1, 1, (1, 1)) == (1,)
    proj = e_space_projection(e, comm_nerve(z2, cap=2))
    assert proj(1, (1, 1)) == (1,)


# ------------------------------------------------- maps from solutions

def test_map_from_zero_solution_is_constant():
    sys_ = two_vertex_system((0, 0))
    g = cyclic(2)
    t = [0, 0]
    f, alpha, beta, iota = map_from_solution(t, sys_, g, cap=2)
    for tok in f.source.simplices[1]:
        assert f(1, tok) == (0,)


def test_map_from_solution_sends_rows_to_j_powers():
    sys_ = k33_system([1, 0, 0, 0, 0, 0])
    g = cyclic(2)
    with pytest.raises(ValueError):
        map_from_solution([0] * 9, sys_, g, cap=2)  # not a solution
    solvable = k33_system([0] * 6)
    f, alpha, beta, iota = map_from_solution([0] * 9, solvable, g, cap=2)
    for i in range(6):
        from simplcs.simplicial import row_function
        row_tok = (row_function(solvable, i),)
        assert f(1, row_tok) == (g.j_power(solvable.rhs[i]),)


def test_single_vertex_solution_map():
    sys_ = single_vertex_system(1)
    g = cyclic(2)
    f, *_ = map_from_solution([1], sys_, g, cap=2)
    delta = (tuple([1]),)
    assert f(1, delta) == (1,)


# ------------------------------------------------------------- power maps

def test_power_map_s_identity_and_z4():
    d8 = dihedral(8)
    w1 = power_map_s(d8, 2, 1, cap=2)
    for tok in w1.source.simplices[2]:
        assert w1(2, tok) == tok
    z4 = cyclic(4)
    w2 = power_map_s(z4, 4, 2, cap=2)
    assert w2(2, (1, 3)) == (2, 2)


def test_power_map_s_mod_reduction_z6():
    z6 = cyclic(6)
    w3 = power_map_s(z6, 6, 3, d_target=2, cap=2)
    w1 = power_map_s(z6, 2, 1, cap=2)  # identity on the 2-torsion nerve
    composite = {}
    for n in range(3):
        for tok in w3.source.simplices[n]:
            composite[(n, tok)] = w1(n, w3(n, tok))
    # mod-2 reduction under the identification {0,3} = Z_2 via 3 -> 1
    for (n, tok), img in composite.items():
        assert img == tuple((x % 2) * 3 for x in tok)


# ------------------------------------------------------------- fixture

def test_k33_fixture_cell_counts_and_euler():
    fx = k33_torus_fixture()
    sp = fx.space
    assert len(sp.nondegenerate(0)) == 3
    assert len(sp.nondegenerate(1)) == 9
    assert len(sp.nondegenerate(2)) == 6
    assert len(sp.nondegenerate(3)) == 0
    assert sp.euler_characteristic() == 0
    assert sp.is_connected()


def test_k33_fixture_each_edge_in_two_triangles():
    fx = k33_torus_fixture()
    sp = fx.space
    count = {lbl: 0 for lbl in K33_EDGE_LABELS}
    for tri in K33_TRIANGLES:
        for i in range(3):
            lbl = fx.edge_of_token(sp.face(2, i, fx.triangles[tri]))
            count[lbl] += 1
    assert all(v == 2 for v in count.values())


def test_k33_fixture_dual_graph_is_k33():
    fx = k33_torus_fixture()
    sp = fx.space
    shared = {}
    for tri in K33_TRIANGLES:
        for i in range(3):
            lbl = fx.edge_of_token(sp.face(2, i, fx.triangles[tri]))
            shared.setdefault(lbl, []).append(tri)
    pairs = {frozenset(v) for v in shared.values()}
    assert len(pairs) == 9
    part_a = {"sigma1", "sigma3", "sigma5"}
    part_b = {"sigma2", "sigma4", "sigma6"}
    for p in pairs:
        assert len(p & part_a) == 1 and len(p & part_b) == 1


def test_k33_fundamental_cycle_is_a_cycle():
    fx = k33_torus_fixture()
    sp = fx.space
    boundary = {}
    for tri, sign in K33_FUNDAMENTAL_CYCLE.items():
        for i in range(3):
            lbl = fx.edge_of_token(sp.face(2, i, fx.triangles[tri]))
            boundary[lbl] = boundary.get(lbl, 0) + sign * (-1) ** i
    assert all(v == 0 for v in boundary.values())


def test_k33_fixture_sigma1_has_d0_t1():
    fx = k33_torus_fixture()
    assert fx.edge_of_token(fx.space.face(2, 0, fx.triangles["sigma1"])) == "t1"


def test_k33_commutator_replay():
    coeff, trace = k33_commutator_replay()
    assert coeff == K33_FUNDAMENTAL_CYCLE
    assert any("sigma1" in step for step in trace)


# ------------------------------------------------- generated and loaded ssets

def test_cells_sset_circle():
    circle = cells_sset(3, {0: {"v": ()}, 1: {"e": ("v", "v")}})
    assert len(circle.nondegenerate(1)) == 1
    assert circle.size(1) == 2  # e and s_0 v
    assert circle.size(2) == 3  # s_0 e, s_1 e, s_1 s_0 v (the one normal form)
    assert {t for t in circle.simplices[2] if t[1] == "e"} == {((0,), "e"),
                                                               ((1,), "e")}


def test_random_truncated_ssets_validate():
    rng = random.Random(11)
    for _ in range(25):
        x = random_truncated_sset(rng, 2)
        total = sum(len(x.nondegenerate(n)) for n in range(3))
        assert total <= 12
        assert x.size(0) == 1


def test_sset_json_roundtrip():
    x = cells_sset(2, {0: {"v": ()}, 1: {"e": ("v", "v")}})
    blob = dump_sset(x)
    y = load_sset(blob)
    for n in range(3):
        assert y.size(n) == x.size(n)


def test_load_sset_rejects_bad_identities():
    import json
    blob = {
        "cap": 1,
        "simplices": {"0": ["p", "q"], "1": ["e", "sp"]},
        "faces": {"1,0": {"e": "p", "sp": "p"}, "1,1": {"e": "q", "sp": "p"}},
        "degeneracies": {"0,0": {"p": "sp", "q": "sp"}},  # s0(q) wrong
    }
    with pytest.raises(SimplicialValidationError):
        load_sset(json.dumps(blob))
