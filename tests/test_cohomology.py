import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from simplcs.cohomology import (CochainError, Cochain, coboundary,
                                coboundary_matrix, cochain, cohomologous,
                                cohomology_size, dump_cochain,
                                extract_linear_system, gamma_b, gamma_phi_d,
                                is_cocycle, is_normalized,
                                parse_cochain, pullback, tilde_b)
from simplcs.contextuality import enumerate_deterministic
from simplcs.groups import build_group, cyclic, dihedral, quaternion, quotient_by_j
from simplcs.linsys import (RowConditionError, k33_system, make_system,
                            two_vertex_system, write_lcs)
from simplcs.presentations import (commutator_word, pi1, pi1_commutative,
                                   reduction_maps, word_simplify)
from simplcs.simplicial import (BASEPOINT, K33_FUNDAMENTAL_CYCLE, SMap,
                                _face_incidence, _face_sum, bar_comm_nerve,
                                bar_nzd_sigma, build_sset, cells_sset,
                                comm_nerve, complex_of_system, dump_sset,
                                k33_torus_fixture, nerve, nzd_sigma,
                                power_map_s, random_truncated_sset,
                                twisted_iso, wedge_nzd, wedge_subset_of_nzd)
from simplcs.zmod import ZModMatrix, howell_form, kernel_basis


def fixture_cochain(fx, vals, d):
    data = {fx.triangles[lbl]: v for lbl, v in vals.items()}
    return cochain(fx.space, 2, d, values=data)


# ------------------------------------------------------------- coboundary

def test_zero_cochain_coboundary():
    x = nerve(2, cap=3)
    f = cochain(x, 1, 2)
    assert coboundary(f).is_zero()


def test_dd_zero_random():
    rng = random.Random(0)
    fx = k33_torus_fixture()
    for d in (2, 3, 6):
        for _ in range(10):
            f = cochain(fx.space, 1, d, fn=lambda t: rng.randrange(d))
            assert coboundary(coboundary(f)).is_zero()


def test_coboundary_zero_cochain_on_point_nerve():
    x = nerve(2, cap=2)
    f = cochain(x, 0, 2, fn=lambda t: 1)  # single vertex valued 1
    df = coboundary(f)
    assert df.is_zero()  # f(d0 x) - f(d1 x) with one vertex


def test_coboundary_cap_error():
    x = nerve(2, cap=2)
    g = cochain(x, 2, 2)
    with pytest.raises(CochainError):
        coboundary(g)
    with pytest.raises(CochainError):
        is_cocycle(g)
    with pytest.raises(CochainError):
        coboundary_matrix(x, x.cap, 2)
    with pytest.raises(CochainError):
        cohomology_size(x, x.cap, 2)


# The signed face sum and the other structure-map readers work on position
# lists; the token-loop definitions they replaced are kept here as references.

def reference_coboundary(f):
    n = f.degree + 1
    vals = {}
    for tok in f.host.simplices[n]:
        acc = 0
        for i in range(n + 1):
            acc += (-1) ** i * f(f.host.face(n, i, tok))
        vals[tok] = acc
    return cochain(f.host, n, f.modulus, values=vals)


def reference_coboundary_matrix(host, degree, modulus):
    cols = list(host.simplices[degree])
    rows = list(host.simplices[degree + 1])
    col_index = {tok: k for k, tok in enumerate(cols)}
    mat = []
    for sigma in rows:
        entries = [0] * len(cols)
        for i in range(degree + 2):
            entries[col_index[host.face(degree + 1, i, sigma)]] += (-1) ** i
        mat.append([e % modulus for e in entries])
    return ZModMatrix(mat, modulus, num_cols=len(cols)), rows, cols


def reference_edge_rows(host, d):
    """The additive edge condition f(d_1) - f(d_2) - f(d_0) per 2-simplex."""
    edges = list(host.simplices[1])
    pos = {tok: k for k, tok in enumerate(edges)}
    rows = []
    for sig in host.simplices[2]:
        row = [0] * len(edges)
        row[pos[host.face(2, 1, sig)]] += 1
        row[pos[host.face(2, 2, sig)]] -= 1
        row[pos[host.face(2, 0, sig)]] -= 1
        rows.append([e % d for e in row])
    return rows


def reference_pi1_relators(x):
    idx = {tok: k for k, tok in enumerate(x.simplices[1])}
    relators = []
    for sig in x.simplices[2]:
        d0 = idx[x.face(2, 0, sig)]
        d1 = idx[x.face(2, 1, sig)]
        d2 = idx[x.face(2, 2, sig)]
        relators.append(word_simplify([(d2, 1), (d0, 1), (d1, -1)]))
    for v in x.simplices[0]:
        relators.append(((idx[x.degeneracy(0, 0, v)], 1),))
    verts = list(x.simplices[0])
    if len(verts) > 1:
        seen = {verts[0]}
        frontier = [verts[0]]
        while frontier:
            nxt = []
            for e in x.simplices[1]:
                src, tgt = x.face(1, 1, e), x.face(1, 0, e)
                for a, b in ((src, tgt), (tgt, src)):
                    if a in seen and b not in seen:
                        seen.add(b)
                        nxt.append(b)
                        relators.append(((idx[e], 1),))
            frontier = nxt
    return tuple(relators)


def reference_commutative_relators(x, d):
    idx = {tok: k for k, tok in enumerate(x.simplices[1])}
    relators = [((k, d),) for k in range(len(idx))]
    for sig in x.simplices[2]:
        faces = [idx[x.face(2, i, sig)] for i in range(3)]
        d0, d1, d2 = faces
        for a, b in itertools.combinations(sorted(set(faces)), 2):
            relators.append(commutator_word(a, b))
        relators.append(word_simplify([(d2, 1), (d0, 1), (d1, -1)]))
    return tuple(relators)


def reference_is_connected(x):
    verts = list(x.simplices[0])
    adj = {v: set() for v in verts}
    for e in x.simplices[1]:
        a, b = x.face(1, 1, e), x.face(1, 0, e)
        adj[a].add(b)
        adj[b].add(a)
    seen = set(verts[:1])
    frontier = list(seen)
    while frontier:
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    return len(seen) == len(verts)


def _position_hosts():
    """N(Z_3, Sigma), its quotient (collapsed simplices with repeated
    faces), N(Z_2, D8), the K33 torus and random reduced cell sets, all at
    cap 3."""
    sys_ = two_vertex_system((1, 2), d=3)
    rng = random.Random(1717)
    return ([nzd_sigma(complex_of_system(sys_), 3, cap=3),
             bar_nzd_sigma(sys_, cap=3),
             comm_nerve(build_group("dihedral:8"), cap=3),
             k33_torus_fixture(cap=3).space]
            + [random_truncated_sset(rng, max_nondeg=12)
               for _ in range(8)])


def test_face_sums_match_the_token_loops():
    rng = random.Random(1718)
    for host in _position_hosts():
        for n in range(1, host.cap + 1):
            raw = [rng.randrange(-5, 6) for _ in host.simplices[n - 1]]
            assert _face_sum(host, n, raw) \
                == (_face_incidence(host, n) @ np.array(raw)).tolist()
            # 251: residues that do not fit the incidence's int8
            for d in (2, 3, 5, 251):
                f = cochain(host, n - 1, d, fn=lambda t: rng.randrange(d))
                assert coboundary(f) == reference_coboundary(f)
                assert coboundary_matrix(host, n - 1, d) \
                    == reference_coboundary_matrix(host, n - 1, d)


def test_edge_conditions_match_the_token_loop():
    for host in _position_hosts():
        for d in (2, 3):
            rows = reference_edge_rows(host, d)
            assert (-_face_incidence(host, 2) % d).tolist() == rows
            # the same matrix, so the same kernel basis and span order
            kern = kernel_basis(ZModMatrix(rows, d, num_cols=host.size(1)))
            assert [f.values for f in enumerate_deterministic(host, d)] \
                == list(kern.enumerate_span())


def test_pi1_relators_match_the_token_loop():
    for host in _position_hosts():
        assert host.is_connected() == reference_is_connected(host)
        assert pi1(host)[0].relators == reference_pi1_relators(host)
        for d in (2, 3):
            assert pi1_commutative(host, d)[0].relators \
                == reference_commutative_relators(host, d)
    apart = cells_sset(2, {0: {"a": (), "b": (), "c": ()},
                           1: {"e": ("b", "a")}})
    assert not apart.is_connected() and not reference_is_connected(apart)


def test_cochain_must_be_total():
    x = nerve(2, cap=2)
    with pytest.raises(CochainError):
        Cochain(x, 1, 2, {})


def test_cochain_values_are_positions():
    x = nerve(2, cap=2)
    f = Cochain(x, 1, 2, [3, -1])
    assert f.values == (1, 1) and f((0,)) == 1
    with pytest.raises(CochainError, match="1 values for 2 simplices"):
        Cochain(x, 1, 2, [1])
    with pytest.raises(CochainError, match=r"cochain\(\) takes them keyed"):
        Cochain(x, 1, 2, {(0,): 1, (1,): 0})


def test_cochain_rejects_stray_keys():
    x = nerve(2, cap=2)
    with pytest.raises(CochainError, match=r"\('not', 'a', 'simplex'\) is "
                       "not a degree-2 simplex"):
        cochain(x, 2, 2, values={("not", "a", "simplex"): 1})
    # a simplex of another degree is a stray too
    with pytest.raises(CochainError, match=r"\(1,\) is not a degree-2"):
        cochain(x, 2, 2, values={(1, 1): 1, (1,): 1})


# Cochains and simplicial maps are held by position; the definitions on
# token dictionaries that they replaced are kept here as references.

def token_values(f):
    """f as a {simplex: value} dictionary."""
    return dict(zip(f.host.simplices[f.degree], f.values))


def reference_combine(f, g, m):
    """f + m g, by simplex."""
    a, b = token_values(f), token_values(g)
    return {tok: (a[tok] + m * b[tok]) % f.modulus for tok in a}


def token_degenerate(host, n, tok):
    return any(host.degeneracy(n - 1, j, host.face(n, j + 1, tok)) == tok
               for j in range(n))


def reference_is_normalized(gamma):
    host, n = gamma.host, gamma.degree
    return all(gamma(tok) == 0 for tok in host.simplices[n]
               if token_degenerate(host, n, tok))


def reference_pullback(gamma, f):
    n = gamma.degree
    return {tok: gamma(f(n, tok)) for tok in f.source.simplices[n]}


def reference_is_bijective(f):
    for n in range(f.cap + 1):
        imgs = [f(n, t) for t in f.source.simplices[n]]
        if len(set(imgs)) != len(imgs) or len(imgs) != f.target.size(n):
            return False
    return True


def test_cochain_arithmetic_matches_the_token_dicts():
    rng = random.Random(2020)
    normal = set()
    for host in _position_hosts():
        for n in range(host.cap + 1):
            for d in (2, 3, 6):
                f, g = (cochain(host, n, d,
                                fn=lambda t: rng.randrange(-d, 2 * d))
                        for _ in range(2))
                assert token_values(f.add(g)) == reference_combine(f, g, 1)
                assert token_values(f.sub(g)) == reference_combine(f, g, -1)
                zero = cochain(host, n, d)
                for m in (-1, 0, 2, 5):
                    assert token_values(f.scale(m)) \
                        == reference_combine(zero, f, m)
                assert f.sub(f).is_zero() and zero.is_zero()
                assert f.is_zero() == (not any(token_values(f).values()))
                # f with its degenerate values dropped, and with the last
                # of them put back
                degenerate = [tok for tok in host.simplices[n]
                              if token_degenerate(host, n, tok)]
                kept = {tok: v for tok, v in token_values(f).items()
                        if tok not in degenerate}
                cases = [f, cochain(host, n, d, values=kept)]
                if degenerate:
                    cases.append(cochain(host, n, d,
                                         values={**kept, degenerate[-1]: 1}))
                for h in cases:
                    assert is_normalized(h) == reference_is_normalized(h)
                    normal.add(is_normalized(h))
    assert normal == {True, False}


def _smaps():
    """Power maps of commutative nerves (omega_2 of D8 is not bijective,
    and omega_3 of Z_6 changes d), power maps of Nbar(Z_2, G) (squaring
    is not bijective there either), and twisted_iso."""
    out = [power_map_s(dihedral(8), 2, m, cap=2) for m in (1, 2, 3)]
    out.append(power_map_s(cyclic(6), 6, 3, d_target=2, cap=2))
    for spec in ("dihedral:8", "quaternion"):
        ext = quotient_by_j(build_group(spec))
        _, host, _ = gamma_phi_d(ext, cap=3)
        q = ext.quotient
        for m in (-1, 2):
            out.append(SMap(host, host, {
                n: {tok: tuple(q.power(x, m) for x in tok)
                    for tok in host.simplices[n]}
                for n in range(host.cap + 1)}))
    out.append(twisted_iso(quotient_by_j(dihedral(8)), cap=2)[0])
    return out


def test_pullback_and_bijectivity_match_the_token_dicts():
    rng = random.Random(2021)
    bijective = set()
    for f in _smaps():
        assert f.is_bijective() == reference_is_bijective(f)
        bijective.add(f.is_bijective())
        for n in range(f.cap + 1):
            for d in (2, 3):
                gamma = cochain(f.target, n, d, fn=lambda t: rng.randrange(d))
                assert token_values(pullback(gamma, f)) \
                    == reference_pullback(gamma, f)
    assert bijective == {True, False}


# ------------------------------------------------------- cocycle predicates

def test_coboundaries_are_cocycles():
    rng = random.Random(1)
    fx = k33_torus_fixture()
    for d in (2, 3):
        f = cochain(fx.space, 1, d, fn=lambda t: rng.randrange(d))
        assert is_cocycle(coboundary(f))


def test_k33_single_triangle_cocycle():
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma2": 1}, 2)
    assert is_cocycle(g)
    assert is_normalized(g)


def test_gamma_phi_is_normalized_cocycle():
    for spec in ("dihedral:8", "quaternion", "e1:3:1"):
        ext = quotient_by_j(build_group(spec))
        g, host, gc = gamma_phi_d(ext, cap=3)
        assert is_normalized(g)
        assert is_cocycle(g)
        # degenerate 2-simplices carry 0
        for tok in host.simplices[2]:
            if host.is_degenerate(2, tok):
                assert g(tok) == 0


# ------------------------------------------------------------ cohomologous

def test_cohomologous_self_gives_zero_witness():
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma2": 1}, 2)
    u = cohomologous(g, g)
    assert u is not None and all(v == 0 for v in u.values)


def test_k33_fixture_classes_by_pairing():
    fx = k33_torus_fixture()
    zero = fixture_cochain(fx, {}, 2)
    # even parity sum: cohomologous to zero
    even = fixture_cochain(fx, {"sigma1": 1, "sigma2": 1}, 2)
    w = cohomologous(zero, even)
    assert w is not None
    assert even.sub(coboundary(w)).is_zero()
    # odd parity: not cohomologous to zero
    odd = fixture_cochain(fx, {"sigma2": 1}, 2)
    assert cohomologous(zero, odd) is None


def test_k33_fixture_pairing_detects_class_odd_d():
    fx = k33_torus_fixture()
    rng = random.Random(2)
    for d in (2, 3):
        for _ in range(8):
            vals = {lbl: rng.randrange(d) for lbl in K33_FUNDAMENTAL_CYCLE}
            g = fixture_cochain(fx, vals, d)
            pairing = sum(K33_FUNDAMENTAL_CYCLE[lbl] * v
                          for lbl, v in vals.items()) % d
            w = cohomologous(fixture_cochain(fx, {}, d), g)
            assert (w is not None) == (pairing == 0)


# ---------------------------------------------------------------- gamma_b

def test_tilde_b_values():
    sys_ = two_vertex_system((1, 1))
    assert tilde_b(sys_, (1, 1)) == 1  # A_1, b_1 = 1
    assert tilde_b(sys_, (1, 0)) == 1  # A_2, b_2 = 1
    assert tilde_b(sys_, (0, 1)) == 0
    assert tilde_b(sys_, (0, 0)) == 0


def _span_graph(row, b, d) -> set:
    """Brute force: the cyclic span of the augmented row (A_i | b_i), built
    by repeated addition; its pairs (a*A_i, a*b_i) are the graph of the lift."""
    pairs, vec, val = set(), tuple([0] * len(row)), 0
    while (vec, val) not in pairs:
        pairs.add((vec, val))
        vec = tuple((x + e) % d for x, e in zip(vec, row))
        val = (val + b) % d
    return pairs


def test_row_table_matches_span_oracle():
    # the fixed span cases (order of (2, 4) in Z_6^2, equal spans over Z_5)
    # are in tests/test_zmod.py's row predicates; the exact messages here
    for row, d in (((2, 4), 6), ((0, 0, 0), 5)):
        bad = make_system([row], [0], d).row_condition_violations()
        assert bad == [f"row 0 does not generate Z_{d}"]
    assert len(_span_graph((2, 4), 0, 6)) == 3
    # random systems against spans built as sets
    rng = random.Random(7)
    outcomes = set()
    for d in (2, 3, 4, 6):
        for _ in range(150):
            r, c = rng.randrange(1, 4), rng.randrange(1, 4)
            rows = [[rng.randrange(d) for _ in range(c)] for _ in range(r)]
            b = [rng.randrange(d) for _ in range(r)]
            sys_ = make_system(rows, b, d)
            graphs = [_span_graph(rows[i], b[i], d) for i in range(r)]
            spans = [{vec for vec, _ in g} for g in graphs]
            expected = [f"row {i} does not generate Z_{d}"
                        for i in range(r) if len(spans[i]) != d]
            expected += [f"rows {i} and {j} have equal spans"
                         for i in range(r) for j in range(i + 1, r)
                         if spans[i] == spans[j]]
            assert sys_.row_condition_violations() == expected
            graph = {(vec, val) for g in graphs for vec, val in g if any(vec)}
            lift = dict(graph)
            probes = [tuple(rng.randrange(d) for _ in range(c))
                      for _ in range(4)] + sorted(lift)
            if len(lift) < len(graph):      # some vector gets two b values
                outcomes.add("conflict")
                with pytest.raises(RowConditionError, match="both reach"):
                    sys_.row_lift
                with pytest.raises(RowConditionError):
                    tilde_b(sys_, probes[0])
                continue
            outcomes.add("lift")
            assert sys_.row_lift == lift
            for vec in probes:
                assert tilde_b(sys_, vec) == lift.get(vec, 0)
    assert outcomes == {"conflict", "lift"}


def test_row_lift_conflict_is_a_row_condition_error():
    # (3, 0) = 3*(5, 2) = 3*(3, 4) over Z_6, but 3*4 = 0 and 3*1 = 3: the row
    # conditions on A hold, yet tilde b is not well defined
    bad = make_system([[5, 2], [3, 4]], [4, 1], 6)
    assert bad.row_condition_violations() == []
    msg = r"rows 0 and 1 both reach \(3, 0\) but give it the b values 0 and 3"
    with pytest.raises(RowConditionError, match=msg):
        gamma_b(bad, cap=2)
    with pytest.raises(RowConditionError, match=msg):
        tilde_b(bad, (3, 0))
    with pytest.raises(RowConditionError, match=msg):
        reduction_maps(bad)
    # with b agreeing at (3, 0) the same rows realize
    good = make_system([[5, 2], [3, 4]], [3, 3], 6)
    assert tilde_b(good, (3, 0)) == 3


def test_gamma_b_example_215_block_array():
    for b1, b2 in itertools.product(range(2), repeat=2):
        g, q = gamma_b(two_vertex_system((b1, b2)), cap=3)
        assert is_cocycle(g)
        assert is_normalized(g)
        assert g(((0, 1), (1, 0))) == (b1 + b2) % 2
        assert g(((0, 1), (0, 1))) == 0
        assert g(((1, 1), (1, 0))) == (b1 + b2) % 2


def test_gamma_b_checks_the_collapsed_simplices():
    # a lift that is not a*b_i on the row circle {a (1, 1)} has a nonzero
    # coboundary on the collapsed 2-simplex ((1, 1), (1, 1))
    sys_ = two_vertex_system((1, 2), d=3)
    vars(sys_)["row_lift"] = {**sys_.row_lift, (2, 2): 0}
    with pytest.raises(CochainError, match="collapsed simplex"):
        gamma_b(sys_, cap=2)


def test_gamma_b_zero_b_is_zero():
    g, q = gamma_b(two_vertex_system((0, 0)), cap=2)
    assert g.is_zero()


def test_gamma_b_k33_is_cocycle():
    g, q = gamma_b(k33_system([1, 0, 0, 0, 0, 0]), cap=3)
    assert is_cocycle(g)
    assert is_normalized(g)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


Z3_FULL = make_system([[1, 2, 1, 1], [1, 0, 2, 1], [2, 1, 0, 1]],
                      [1, 2, 0], 3)
Z6_SHARED = make_system([[1, 3, 0], [2, 3, 0], [0, 1, 5]], [1, 2, 3], 6)


def test_reduction_digests_are_pinned():
    # sha256 prefixes of gamma_b's values and of the extracted .lcs text; the
    # Z_4 and Z_6 systems have row spans that share a vector, with b agreeing
    cases = [
        (k33_system([1, 0, 0, 0, 0, 0]), "e5e40aecc222e799", "d010fe3e0f02bc84"),
        (k33_system([1, 1, 0, 0, 0, 0]), "6fb801474d769300", "c0beba1a83bae7bb"),
        (k33_system([1, 1, 1, 0, 0, 0], d=3),
         "60d999b172051639", "e426d28fe8a4b38f"),
        (two_vertex_system((1, 0)), "f0899a56e04327fb", "9dc7f31d4d3c9ecb"),
        (two_vertex_system((1, 2), d=3), "683567ae31d519fe", "24da3a10ffcdfe03"),
        (make_system([[1, 1], [1, 3]], [1, 3], 4),
         "330cfaed4e2a2437", "9b583a87a23825cc"),
        (make_system([[5, 2], [3, 4]], [3, 3], 6),
         "2914e73637c90d8b", "2eabfd2d0b091dac"),
        # Z_3, one row of full support: the host holds N(Z_3) of the whole
        # 3-simplex, 6 537 2-simplices after the collapse
        (Z3_FULL, "df2e4fcb2198818e", "3384145747a4d61b"),
        # Z_6 with two row spans that share (2, 0, 0) and (4, 0, 0)
        (Z6_SHARED, "7f629cbe76d4f2f3", "59455d0fd509618b"),
    ]
    for sys_, gamma_digest, lcs_digest in cases:
        g, q = gamma_b(sys_, cap=2)
        assert _digest([(tok, g(tok)) for tok in q.simplices[2]]) == gamma_digest
        assert _digest(write_lcs(extract_linear_system(q, g))) == lcs_digest
    # every simplex, face and degeneracy of the two new hosts
    for sys_, host_digest in ((Z3_FULL, "23b398ea21ad4b21"),
                              (Z6_SHARED, "f04efce38c28b9bf")):
        _, q = gamma_b(sys_, cap=2)
        assert hashlib.sha256(dump_sset(q).encode()).hexdigest()[:16] \
            == host_digest
    # the collapsed subset and the delta columns of the reduction
    for (sys_, *_), subset_digest, delta_digest in (
            (cases[3], "ec771c20c882c6d5", "a4ec645407ab09ab"),
            (cases[6], "d411164ef45736c7", "5eeb30efee32067a")):
        x = nzd_sigma(complex_of_system(sys_), sys_.modulus, 2)
        assert _digest(wedge_subset_of_nzd(sys_, x)) == subset_digest
        delta_cols = sorted(reduction_maps(sys_).delta_cols.items())
        assert _digest(delta_cols) == delta_digest


# -------------------------------------------------- extract linear system

def reference_extract(x, gamma, nondegenerate_only=False):
    """(A_X, b_gamma) by the plain loop: one dense row per 2-simplex, each
    face's signed incidence added to its column."""
    d = gamma.modulus
    if nondegenerate_only:
        rows_idx, cols_idx = list(x.nondegenerate(2)), list(x.nondegenerate(1))
    else:
        rows_idx, cols_idx = list(x.simplices[2]), list(x.simplices[1])
    col_pos = {tok: k for k, tok in enumerate(cols_idx)}
    rows = []
    for sigma in rows_idx:
        entries = [0] * len(cols_idx)
        for i in range(3):
            k = col_pos.get(x.face(2, i, sigma))
            if k is not None:
                entries[k] += (-1) ** i
        rows.append(entries)
    return make_system(rows, [-gamma(sigma) for sigma in rows_idx], d,
                       row_labels=rows_idx, col_labels=cols_idx)


def _random_realizable(rng):
    """A seeded system over Z_2, Z_3, Z_4 or Z_6 that gamma_b realizes."""
    while True:
        d = rng.choice((2, 3, 4, 6))
        r, c = rng.randint(1, 3), rng.randint(1, 3 if d < 4 else 2)
        rows = [[rng.randrange(d) for _ in range(c)] for _ in range(r)]
        sys_ = make_system(rows, [rng.randrange(d) for _ in range(r)], d)
        try:
            return sys_, gamma_b(sys_, cap=2)
        except (RowConditionError, CochainError):
            continue


def test_extract_matches_reference_loop():
    for sys_ in (Z3_FULL, Z6_SHARED):
        g, q = gamma_b(sys_, cap=2)
        assert extract_linear_system(q, g) == reference_extract(q, g)
    rng = random.Random(2215)
    for _ in range(40):
        _, (g, q) = _random_realizable(rng)
        for nondeg in (False, True):
            assert extract_linear_system(q, g, nondeg) \
                == reference_extract(q, g, nondeg)
    # hosts with repeated faces: random reduced cell sets, random cochains
    for d in (2, 3, 5):
        x = random_truncated_sset(rng, max_nondeg=10)
        g = cochain(x, 2, d, fn=lambda tok: rng.randrange(d))
        for nondeg in (False, True):
            assert extract_linear_system(x, g, nondeg) \
                == reference_extract(x, g, nondeg)
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma1": 1, "sigma4": 1}, 2)
    assert extract_linear_system(fx.space, g, nondegenerate_only=True) \
        == reference_extract(fx.space, g, nondegenerate_only=True)


def test_extract_example_215_displayed_system():
    b1, b2 = 1, 0
    g, q = gamma_b(two_vertex_system((b1, b2)), cap=3)
    sys_ = extract_linear_system(q, g)
    assert sys_.num_rows == 10 and sys_.num_cols == 2
    cols = {lab: k for k, lab in enumerate(sys_.col_labels)}
    c0, c01 = cols[BASEPOINT], cols[((0, 1),)]
    expected_zero_b = {BASEPOINT, ((0, 0), (0, 1)), ((0, 1), (0, 0)),
                       ((0, 1), (0, 1))}
    for row, lab, bval in zip(sys_.matrix.rows, sys_.row_labels, sys_.rhs):
        if lab in expected_zero_b:
            assert row[c0] == 1 and row[c01] == 0
            assert bval == 0
        else:
            assert row[c0] == 0 and row[c01] == 1
            assert bval == (b1 + b2) % 2


def test_extract_zero_cochain_zero_b():
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {}, 2)
    sys_ = extract_linear_system(fx.space, g, nondegenerate_only=True)
    assert all(v == 0 for v in sys_.rhs)


def test_extract_k33_fixture_row_equivalent_to_incidence():
    fx = k33_torus_fixture()
    b = [1, 0, 1, 0, 0, 0]
    labels = ["sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "sigma6"]
    g = fixture_cochain(fx, dict(zip(labels, b)), 2)
    sys_ = extract_linear_system(fx.space, g, nondegenerate_only=True)
    assert sys_.num_rows == 6 and sys_.num_cols == 9
    # over Z_2 the signed boundary matrix is the K33 incidence matrix
    h1 = howell_form(sys_.matrix)
    # edge -> (pair of incident triangles) gives the column bijection
    edge_cols = {}
    sp = fx.space
    for tri in labels:
        for i in range(3):
            lbl = fx.edge_of_token(sp.face(2, i, fx.triangles[tri]))
            edge_cols.setdefault(lbl, set()).add(tri)
    inc_rows = []
    for tri in labels:
        inc_rows.append([1 if tri in edge_cols[fx.edge_of_token(col)] else 0
                         for col in sys_.col_labels])
    h2 = howell_form(ZModMatrix(inc_rows, 2, num_cols=9))
    assert h1.matrix == h2.matrix


# ------------------------------------------------------------- H^1 sizes

def test_h1_of_wedge_is_zdr():
    for b, d in (((1, 0), 2), ((1, 2), 3)):
        sys_ = two_vertex_system(b, d=d)
        wedge, alpha, beta = wedge_nzd(sys_, cap=3)
        assert cohomology_size(wedge, 1, d) == d ** 2
    sys_ = k33_system([0] * 6)
    wedge, alpha, beta = wedge_nzd(sys_, cap=2)
    # cap 2 suffices: H^1 uses degrees <= 2
    assert cohomology_size(wedge, 1, 2) == 2 ** 6


def test_h2_of_k33_torus():
    fx = k33_torus_fixture()
    for d in (2, 3):
        assert cohomology_size(fx.space, 2, d) == d  # closed orientable surface


# --------------------------------------------- power-map pullback (Lemma)

@pytest.mark.parametrize("spec,m", [("dihedral:8", -1), ("dihedral:8", 3),
                                    ("quaternion", -1), ("quaternion", 3)])
def test_pullback_power_map_cohomologous(spec, m):
    g = build_group(spec)
    ext = quotient_by_j(g)
    gam, host, gc = gamma_phi_d(ext, cap=3)
    q = ext.quotient
    mapping = {n: {tok: tuple(q.power(x, m) for x in tok)
                   for tok in host.simplices[n]} for n in range(host.cap + 1)}
    omega_bar = SMap(host, host, mapping)
    pulled = pullback(gam, omega_bar)
    w = cohomologous(gam.scale(m), pulled)
    assert w is not None
    assert pulled.sub(gam.scale(m)).sub(coboundary(w)).is_zero()


def test_scaled_classes_differ_on_fixture_odd_d():
    # m*gamma vs gamma has teeth at odd d: pairing with the fundamental cycle
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma1": 1}, 3)
    assert cohomologous(g, g.scale(1)) is not None
    assert cohomologous(g, g.scale(2)) is None
    assert cohomologous(g.scale(3), fixture_cochain(fx, {}, 3)) is not None


# ------------------------------------------------------------- file I/O

def test_cochain_file_roundtrip():
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma2": 1, "sigma5": 1}, 2)
    blob = dump_cochain(g)
    assert f"{fx.triangles['sigma2']!r} 1" in blob
    back = parse_cochain(fx.space, 2, 2, blob)
    assert back.values == g.values


def test_parse_cochain_unknown_id():
    fx = k33_torus_fixture()
    with pytest.raises(CochainError):
        parse_cochain(fx.space, 2, 2, "nonsense 1\n")


def test_parse_cochain_repeated_simplex_names_both_lines():
    fx = k33_torus_fixture()
    tok = fx.triangles["sigma2"]
    text = f"{tok!r} 1\n# the same simplex again\n{tok!r} 0\n"
    with pytest.raises(CochainError, match=re.escape(
            f"line 3: simplex {tok!r} already has a value, on line 1")):
        parse_cochain(fx.space, 2, 2, text)
    # a string simplex written bare and as its repr is one simplex
    point = build_sset(2, {0: ["v"], 1: ["e"], 2: ["t"]},
                       lambda n, i, t: "ve"[n - 1], lambda n, j, t: "et"[n])
    with pytest.raises(CochainError, match=re.escape(
            "line 2: simplex 't' already has a value, on line 1")):
        parse_cochain(point, 2, 2, "t 1\n't' 1\n")
