import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from simplcs.contextuality import (DistributionError, PAULI_X, PAULI_Z,
                                   RationalDist, Verdict, _marginal_rows,
                                   _phase1_simplex,
                                   delta_distribution, dump_distribution,
                                   enumerate_deterministic, is_contextual,
                                   is_matrix_solution, maximally_mixed,
                                   mermin_peres_solution, parse_distribution,
                                   quantum_distribution, random_phase_state,
                                   snap_probability, spectral_measurement,
                                   theta, verdict_report, verify_verdict)
from simplcs.linsys import two_vertex_system, k33_system, single_vertex_system
from simplcs.simplicial import complex_of_system, nerve, nzd_sigma


def host_of(sys_, cap=2):
    return nzd_sigma(complex_of_system(sys_), sys_.modulus, cap=cap)


# ------------------------------------------------------------ rational dist

def test_rational_dist_validation():
    RationalDist.from_dict({(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    with pytest.raises(DistributionError):
        RationalDist.from_dict({(0,): Fraction(1, 2)})
    with pytest.raises(DistributionError):
        RationalDist.from_dict({(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


# ------------------------------------------------------------- deterministic

def test_enumerate_deterministic_counts():
    assert len(enumerate_deterministic(nerve(2, cap=2), 2)) == 2
    assert len(enumerate_deterministic(host_of(two_vertex_system((0, 0))), 2)) == 4
    assert len(enumerate_deterministic(host_of(k33_system([0] * 6)), 2)) == 512


def test_deterministic_vanish_on_degenerate_edges():
    host = host_of(two_vertex_system((0, 0)))
    zero_edge = host.degeneracy(0, 0, ())
    for f in enumerate_deterministic(host, 2):
        assert f.value(zero_edge) == 0


def test_theta_point_mass_is_delta():
    host = host_of(two_vertex_system((0, 0)))
    for f in enumerate_deterministic(host, 2):
        p = theta({f: 1})
        q = delta_distribution(f)
        assert p.dists == q.dists


def test_theta_empty_support_error():
    with pytest.raises(DistributionError):
        theta({})


def test_theta_output_validates():
    host = host_of(two_vertex_system((0, 0)))
    dets = enumerate_deterministic(host, 2)
    w = Fraction(1, len(dets))
    p = theta({f: w for f in dets})  # validation runs in constructor
    # uniform mixture has uniform 1-simplex marginals off the basepoint
    nonzero = [t for t in host.simplices[1] if any(any(f) for f in t)]
    for tok in nonzero:
        vals = set(p(1, tok).weights)
        assert all(v == Fraction(1, 2) for _, v in vals)


# ---------------------------------------------------------------- exact LP

def test_delta_is_noncontextual():
    host = host_of(two_vertex_system((0, 0)))
    dets = enumerate_deterministic(host, 2)
    for f in dets[:2]:
        verdict = is_contextual(delta_distribution(f), dets)
        assert not verdict.contextual
        assert verdict.weights == {f: Fraction(1)}


def test_uniform_mixture_noncontextual():
    host = host_of(k33_system([0] * 6))
    dets = enumerate_deterministic(host, 2)
    p = theta({f: Fraction(1, len(dets)) for f in dets})
    verdict = is_contextual(p, dets)
    assert not verdict.contextual


def test_infeasible_has_farkas():
    # a hand-made face-compatible but nonclassical distribution: PR-box style
    # on the single-facet system [[1,1],[1,0]] there is no contextuality,
    # so instead check the quantum K33 case in acceptance; here, feed a
    # doctored distribution that is not a mixture: copy a delta and break one
    # 2-simplex marginal consistently with its faces.
    host = host_of(two_vertex_system((0, 0)))
    dets = enumerate_deterministic(host, 2)
    f = dets[0]
    p = delta_distribution(f)
    # swap a joint distribution on one nondegenerate 2-simplex: keep both
    # edge marginals but anti-correlate: for the deterministic all-zero map
    # this is impossible classically ONLY if edges force correlations; on a
    # single facet every no-signalling box is classical, so is_contextual
    # must return noncontextual for any face-compatible tweak. Verify that.
    verdict = is_contextual(p, dets)
    assert not verdict.contextual


def test_lp_flags_pr_box_on_k33():
    # a PR-box-flavoured distribution: uniform marginals everywhere, but the
    # parity of each facet's 2-simplices biased to violate Sum b = 0
    sys_ = k33_system([1, 0, 0, 0, 0, 0])
    host = host_of(sys_)
    d = 2
    dists = {}
    from simplcs.contextuality import SimplicialDistribution, RationalDist
    from simplcs.simplicial import row_function
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)

    def func_value(func, x):
        return sum(a * b for a, b in zip(func, x)) % 2

    # deterministic-looking on row functions: p_{A_i} = delta^{b_i}; sample
    # outcomes x uniformly over the 16 classical solutions of the EVEN system
    # then flip... instead: define p via the quantum construction later; here
    # just check that the uniform-over-solutions of a DIFFERENT parity is
    # caught as incompatible (fails validation) or contextual.
    sols = []
    for bits in range(2 ** 9):
        x = [(bits >> k) & 1 for k in range(9)]
        ok = True
        for row, bv in zip(sys_.matrix.rows, (0, 0, 0, 0, 0, 0)):
            if sum(r * v for r, v in zip(row, x)) % 2 != bv:
                ok = False
                break
        if ok:
            sols.append(tuple(x))
    assert len(sols) == 16
    for n in range(3):
        for tok in host.simplices[n]:
            acc = {}
            for x in sols:
                th = tuple(func_value(f, x) for f in tok)
                acc[th] = acc.get(th, Fraction(0)) + Fraction(1, len(sols))
            dists[(n, tok)] = RationalDist.from_dict(acc)
    p = SimplicialDistribution(host, d, dists)
    verdict = is_contextual(p)
    # this distribution is the classical mixture for b = 0: noncontextual
    assert not verdict.contextual


# ------------------------------------------------------------- quantum side

def test_spectral_measurement_single_z():
    projs = spectral_measurement([PAULI_Z], 2)
    assert np.allclose(projs[(0,)], np.diag([1, 0]))
    assert np.allclose(projs[(1,)], np.diag([0, 1]))


def test_spectral_measurement_two_qubit_diagonal():
    eye = np.eye(2)
    zz1 = np.kron(PAULI_Z, eye)
    z1z = np.kron(eye, PAULI_Z)
    projs = spectral_measurement([zz1, z1z], 2)
    assert len(projs) == 4
    for a, proj in projs.items():
        assert np.allclose(proj, np.diag(np.diag(proj)))
        assert abs(np.trace(proj) - 1) < 1e-9  # rank one each


def test_spectral_measurement_identity():
    projs = spectral_measurement([np.eye(3)], 2)
    assert np.allclose(projs[(0,)], np.eye(3))
    assert np.allclose(projs[(1,)], 0)


def test_spectral_rejects_noncommuting():
    with pytest.raises(DistributionError):
        spectral_measurement([PAULI_X, PAULI_Z], 2)


def test_snap_probability():
    assert snap_probability(0.25) == Fraction(1, 4)
    assert snap_probability(1 / 3 + 1e-12) == Fraction(1, 3)
    with pytest.raises(DistributionError):
        snap_probability(0.1234567891234)  # needs a huge denominator


def test_mermin_peres_is_matrix_solution():
    sys_ = k33_system([0, 0, 0, 0, 0, 1])
    assert is_matrix_solution(mermin_peres_solution(), sys_)
    wrong = k33_system([0] * 6)
    assert not is_matrix_solution(mermin_peres_solution(), wrong)


def test_quantum_distribution_rows_are_deltas():
    sys_ = k33_system([0, 0, 0, 0, 0, 1])
    host = host_of(sys_)
    p = quantum_distribution(sys_, mermin_peres_solution(),
                             maximally_mixed(4), host=host)
    from simplcs.simplicial import row_function
    for i in range(6):
        tok = (row_function(sys_, i),)
        assert p(1, tok)((sys_.rhs[i],)) == 1


def test_quantum_z_measurement_pure_state():
    # x + y = 0 admits T = (Z, Z); on |0><0| the delta-edge outcome is 0
    from simplcs.linsys import make_system
    sys_ = make_system([[1, 1]], [0], 2)
    host = host_of(sys_)
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    p = quantum_distribution(sys_, [PAULI_Z, PAULI_Z], rho, host=host)
    tok = ((1, 0),)
    assert p(1, tok)((0,)) == 1


def test_quantum_maximally_mixed_trace_formula():
    from simplcs.linsys import make_system
    sys_ = make_system([[1, 1]], [0], 2)
    host = host_of(sys_)
    p = quantum_distribution(sys_, [PAULI_Z, PAULI_Z], maximally_mixed(2),
                             host=host)
    tok = ((1, 0),)
    assert p(1, tok)((0,)) == Fraction(1, 2)  # rank-1 projector in dimension 2


def test_quantum_contextual_for_state_panel():
    # the certified-contextual verdict holds beyond the maximally mixed state
    rng = random.Random(4)
    sys_ = k33_system([0, 0, 0, 0, 0, 1])
    host = host_of(sys_)
    dets = enumerate_deterministic(host, 2)
    t_mats = mermin_peres_solution()
    for _ in range(3):
        rho = random_phase_state(4, rng)
        p = quantum_distribution(sys_, t_mats, rho, host=host)
        verdict = is_contextual(p, dets)
        assert verdict.contextual and verdict.farkas


def test_quantum_identity_solution_single_vertex():
    # the only operator solutions of x = 0 are trivial: p is delta^0 exactly
    sys_ = single_vertex_system(0)
    host = host_of(sys_)
    p = quantum_distribution(sys_, [np.eye(2)], maximally_mixed(2), host=host)
    assert p(1, ((1,),))((0,)) == 1
    # Z does not satisfy the product relation of x = 0
    with pytest.raises(DistributionError):
        quantum_distribution(sys_, [PAULI_Z], maximally_mixed(2), host=host)


# --------------------------------------------------------------- file formats

def test_distribution_roundtrip():
    host = host_of(two_vertex_system((0, 0)))
    dets = enumerate_deterministic(host, 2)
    p = theta({f: Fraction(1, len(dets)) for f in dets})
    blob = dump_distribution(p)
    q = parse_distribution(host, 2, blob)
    assert q.dists == p.dists


def test_verdict_report_shapes():
    host = host_of(two_vertex_system((0, 0)))
    dets = enumerate_deterministic(host, 2)
    verdict = is_contextual(delta_distribution(dets[0]), dets)
    blob = verdict_report(verdict)
    assert '"verdict": "noncontextual"' in blob


def _random_lp(rng):
    """A small system Ax = c with dependent and duplicated rows."""
    m, n = rng.randint(1, 5), rng.randint(1, 8)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        kind = rng.random()
        if kind < 0.2:
            rows[i] = list(rows[rng.randrange(i)])
        elif kind < 0.4:
            j, k = rng.randrange(i), rng.randrange(i)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[i] = [a * u + b * v for u, v in zip(rows[j], rows[k])]
    if rng.random() < 0.5:
        # c = A x0 for some x0 >= 0, so the system is feasible
        x0 = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        c = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in rows]
    return rows, c


def test_phase1_simplex_oracle():
    rng = random.Random(20231)
    feasible = infeasible = 0
    for _ in range(400):
        rows, c = _random_lp(rng)
        x, y = _phase1_simplex(rows, c)
        assert (x is None) != (y is None)
        if x is not None:
            feasible += 1
            assert len(x) == len(rows[0])
            assert all(isinstance(v, Fraction) and v >= 0 for v in x)
            for row, rhs in zip(rows, c):
                assert sum(a * v for a, v in zip(row, x)) == rhs
        else:
            infeasible += 1
            assert len(y) == len(rows)
            assert all(isinstance(v, Fraction) for v in y)
            for j in range(len(rows[0])):
                assert sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
            assert sum(yi * ci for yi, ci in zip(y, c)) > 0
    assert feasible >= 50 and infeasible >= 50


def test_criterion_verdict_reports_are_pinned():
    # sha256 prefixes of the two criterion-4 verdict reports: the
    # certificates, not only the verdicts, must not drift with the LP's
    # arithmetic
    def digest(verdict):
        blob = verdict_report(verdict).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    sys_ = k33_system([0, 0, 0, 0, 0, 1])
    host = host_of(sys_)
    q = quantum_distribution(sys_, mermin_peres_solution(), maximally_mixed(4),
                             host=host)
    assert digest(is_contextual(q, enumerate_deterministic(host, 2))) \
        == "ee23858a82678f6d"
    dets0 = enumerate_deterministic(host_of(k33_system([0] * 6)), 2)
    uniform = theta({f: Fraction(1, len(dets0)) for f in dets0})
    assert digest(is_contextual(uniform, dets0)) == "76880e12cc145382"


def negative_uniform_witness():
    """The uniform K33 (b = 0) distribution and a convex-looking witness for
    it that is not convex: the uniform weights plus a kernel vector of the
    marginal rows, scaled so that some weights are negative. The weights
    still sum to 1 and satisfy every marginal row."""
    dets = enumerate_deterministic(host_of(k33_system([0] * 6)), 2)
    n = len(dets)
    uniform = theta({f: Fraction(1, n) for f in dets})
    rows = _marginal_rows(uniform, dets)
    # the first column that depends on the earlier ones gives the kernel
    # vector: reduce each column against an echelon basis of the earlier
    # ones, tracking which combination of columns each basis vector is
    basis = []  # (pivot, vector, {column: coefficient})
    for col in range(n):
        vec = [Fraction(int(col in support)) for support, _, _ in rows]
        combo = {col: Fraction(1)}
        for piv, bvec, bcombo in basis:
            if vec[piv]:
                f = vec[piv] / bvec[piv]
                vec = [a - f * b for a, b in zip(vec, bvec)]
                for c, v in bcombo.items():
                    combo[c] = combo.get(c, 0) - f * v
        if not any(vec):
            break
        basis.append((next(i for i, v in enumerate(vec) if v), vec, combo))
    kernel = [combo.get(k, Fraction(0)) for k in range(n)]
    big = max(kernel, key=abs)
    weights = [Fraction(1, n) - 2 * v / (n * big) for v in kernel]
    witness = {f: w for f, w in zip(dets, weights) if w}
    return uniform, Verdict(False, weights=witness), dets


def test_verify_verdict_rejects_negative_witness():
    uniform, verdict, dets = negative_uniform_witness()
    assert min(verdict.weights.values()) < 0
    assert sum(verdict.weights.values()) == 1
    pos = {id(f): k for k, f in enumerate(dets)}
    for support, rhs, _ in _marginal_rows(uniform, dets):
        assert sum(v for f, v in verdict.weights.items()
                   if pos[id(f)] in support) == rhs
    with pytest.raises(AssertionError, match="not positive"):
        verify_verdict(uniform, verdict, dets)
    # the same check must hold where `assert` statements are stripped
    script = (
        "import sys\n"
        "from test_contextuality import negative_uniform_witness\n"
        "from simplcs.contextuality import verify_verdict\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    verify_verdict(*negative_uniform_witness())\n"
        "except AssertionError:\n"
        "    sys.exit(0)\n"
        "sys.exit('negative witness accepted')\n")
    src = os.path.dirname(os.path.dirname(sys.modules["simplcs"].__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(__file__), src]))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
