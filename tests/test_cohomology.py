import hashlib
import itertools
import random

import pytest

from simplcs.cohomology import (CochainError, Cochain, coboundary, cochain,
                                cohomologous, cohomology_size, dump_cochain,
                                extract_linear_system, gamma_b, gamma_phi_d,
                                is_cocycle, is_normalized, normalize_cocycle,
                                parse_cochain, pullback, tilde_b)
from simplcs.groups import build_group, cyclic, dihedral, quaternion, quotient_by_j
from simplcs.linsys import (RowConditionError, k33_system, make_system,
                            two_vertex_system, write_lcs)
from simplcs.presentations import reduction_maps
from simplcs.simplicial import (BASEPOINT, K33_FUNDAMENTAL_CYCLE, SMap,
                                bar_comm_nerve, comm_nerve, complex_of_system,
                                k33_torus_fixture, nerve, nzd_sigma, wedge_nzd,
                                wedge_subset_of_nzd)
from simplcs.zmod import ZModMatrix, howell_form


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
    f = cochain(x, 0, 2, default=1)  # single vertex valued 1
    df = coboundary(f)
    assert df.is_zero()  # f(d0 x) - f(d1 x) with one vertex


def test_coboundary_cap_error():
    x = nerve(2, cap=2)
    g = cochain(x, 2, 2)
    with pytest.raises(CochainError):
        coboundary(g)


def test_cochain_must_be_total():
    x = nerve(2, cap=2)
    with pytest.raises(CochainError):
        Cochain(x, 1, 2, {})


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
    assert u is not None and all(v == 0 for v in u.values.values())


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


def test_normalize_cocycle():
    fx = k33_torus_fixture()
    g = fixture_cochain(fx, {"sigma2": 1}, 2)
    # shift by a coboundary that breaks normalization, then restore it
    u = cochain(fx.space, 1, 2,
                values={fx.space.degeneracy(0, 0, ((), "A")): 1})
    shifted = g.add(coboundary(u))
    assert not is_normalized(shifted)
    fixed = normalize_cocycle(shifted)
    assert is_normalized(fixed)
    assert cohomologous(fixed, g) is not None


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


def test_gamma_b_zero_b_is_zero():
    g, q = gamma_b(two_vertex_system((0, 0)), cap=2)
    assert g.is_zero()


def test_gamma_b_k33_is_cocycle():
    g, q = gamma_b(k33_system([1, 0, 0, 0, 0, 0]), cap=3)
    assert is_cocycle(g)
    assert is_normalized(g)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


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
    ]
    for sys_, gamma_digest, lcs_digest in cases:
        g, q = gamma_b(sys_, cap=2)
        assert _digest([(tok, g(tok)) for tok in q.simplices[2]]) == gamma_digest
        assert _digest(write_lcs(extract_linear_system(q, g))) == lcs_digest
    # the collapsed subset and the delta columns of the reduction
    for (sys_, *_), subset_digest, delta_digest in (
            (cases[3], "ec771c20c882c6d5", "a4ec645407ab09ab"),
            (cases[6], "d411164ef45736c7", "5eeb30efee32067a")):
        x = nzd_sigma(complex_of_system(sys_), sys_.modulus, 2)
        assert _digest(wedge_subset_of_nzd(sys_, x)) == subset_digest
        delta_cols = sorted(reduction_maps(sys_).delta_cols.items())
        assert _digest(delta_cols) == delta_digest


# -------------------------------------------------- extract linear system

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
    omega_bar = SMap(host, host, mapping, name=f"omega_{m}bar")
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
    names = {lbl: tok for lbl, tok in fx.triangles.items()}
    blob = dump_cochain(g, names=names)
    assert "sigma2 1" in blob
    back = parse_cochain(fx.space, 2, 2, blob, resolve=names)
    assert back.values == g.values


def test_parse_cochain_unknown_id():
    fx = k33_torus_fixture()
    with pytest.raises(CochainError):
        parse_cochain(fx.space, 2, 2, "nonsense 1\n")
