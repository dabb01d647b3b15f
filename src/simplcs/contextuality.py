"""Simplicial distributions and contextuality certification.

Deterministic distributions are enumerated exactly (kernel of the additive
edge condition over Z_d); the noncontextuality decision is an exact LP
feasibility problem, so every verdict carries a machine-checkable certificate:
a convex decomposition, or a Farkas vector against the marginal constraints.
Probabilities stay exact rationals; the phase-1 simplex (Dantzig pricing,
then Bland's rule) runs on an integer-preserving tableau over one common
denominator, and its answer is converted back to `Fraction`s.

The quantum side (commuting d-torsion unitaries, projective measurements,
density operators) lives in floating complex arithmetic and is snapped to
exact rationals before the LP sees it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

import numpy as np

from .linsys import LinearSystem
from .simplicial import TruncatedSSet, complex_of_system, nzd_sigma
from .zmod import ZModMatrix, kernel_basis

SNAP_DENOMINATOR = 2 ** 16
TOL = 1e-9


class DistributionError(ValueError):
    pass


# ------------------------------------------------------------- distributions

@dataclass(frozen=True)
class RationalDist:
    """Finite-support distribution with exact nonnegative rational weights."""

    weights: tuple  # ((outcome, Fraction), ...) sorted

    @staticmethod
    def from_dict(d: dict) -> "RationalDist":
        items = []
        total = Fraction(0)
        for k, v in d.items():
            v = Fraction(v)
            if v < 0:
                raise DistributionError(f"negative weight at {k!r}")
            if v:
                items.append((k, v))
                total += v
        if total != 1:
            raise DistributionError(f"weights sum to {total}, not 1")
        return RationalDist(tuple(sorted(items, key=lambda kv: repr(kv[0]))))

    def __call__(self, outcome) -> Fraction:
        for k, v in self.weights:
            if k == outcome:
                return v
        return Fraction(0)

    def support(self):
        return [k for k, _ in self.weights]

    def push(self, fn: Callable) -> "RationalDist":
        out: dict = {}
        for k, v in self.weights:
            kk = fn(k)
            out[kk] = out.get(kk, Fraction(0)) + v
        return RationalDist.from_dict(out)


def _outcome_face(i: int, theta: tuple, d: int) -> tuple:
    if i == 0:
        return theta[1:]
    if i == len(theta):
        return theta[:-1]
    return theta[:i - 1] + ((theta[i - 1] + theta[i]) % d,) + theta[i + 1:]


def _outcome_deg(j: int, theta: tuple) -> tuple:
    return theta[:j] + (0,) + theta[j:]


class SimplicialDistribution:
    """Exact outcome distributions per simplex (degrees <= 2), compatible with
    the structure maps of the host and of N(Z_d)."""

    def __init__(self, host: TruncatedSSet, d: int, dists: dict,
                 validate: bool = True):
        self.host = host
        self.d = d
        self.dists = dists
        if validate:
            self.validate()

    def __call__(self, n: int, tok) -> RationalDist:
        return self.dists[(n, tok)]

    def validate(self) -> None:
        host, d = self.host, self.d
        cap = min(host.cap, 2)
        for n in range(cap + 1):
            for tok in host.simplices[n]:
                if (n, tok) not in self.dists:
                    raise DistributionError(f"missing distribution at {tok!r}")
                for theta, _ in self.dists[(n, tok)].weights:
                    if len(theta) != n or any(not 0 <= a < d for a in theta):
                        raise DistributionError(f"bad outcome {theta!r}")
        for n in range(1, cap + 1):
            for tok in host.simplices[n]:
                p = self.dists[(n, tok)]
                for i in range(n + 1):
                    want = self.dists[(n - 1, host.face(n, i, tok))]
                    got = p.push(lambda th: _outcome_face(i, th, d))
                    if got != want:
                        raise DistributionError(
                            f"face compatibility fails at {tok!r} (d_{i})")
        for n in range(cap):
            for tok in host.simplices[n]:
                p = self.dists[(n, tok)]
                for j in range(n + 1):
                    want = self.dists[(n + 1, host.degeneracy(n, j, tok))]
                    got = p.push(lambda th: _outcome_deg(j, th))
                    if got != want:
                        raise DistributionError(
                            f"degeneracy compatibility fails at {tok!r} (s_{j})")


# --------------------------------------------------------- deterministic maps

def _edge_positions(host: TruncatedSSet) -> dict:
    cache = getattr(host, "_edge_pos", None)
    if cache is None:
        cache = {tok: k for k, tok in enumerate(host.simplices[1])}
        host._edge_pos = cache
    return cache


@dataclass(frozen=True)
class DeterministicDist:
    """A 1-cochain f with f(d_1 sigma) = f(d_2 sigma) + f(d_0 sigma)."""

    host: TruncatedSSet
    d: int
    values: tuple  # value per host.simplices[1] in order

    def value(self, tok) -> int:
        return self.values[_edge_positions(self.host)[tok]]

    def on_simplex(self, n: int, tok) -> tuple:
        if n == 0:
            return ()
        if n == 1:
            return (self.value(tok),)
        return (self.value(self.host.face(2, 2, tok)),
                self.value(self.host.face(2, 0, tok)))


def enumerate_deterministic(host: TruncatedSSet, d: int
                            ) -> list[DeterministicDist]:
    """All solutions of the additive edge condition, via kernel enumeration."""
    edges = list(host.simplices[1])
    pos = {tok: k for k, tok in enumerate(edges)}
    rows = []
    for sig in host.simplices[2]:
        row = [0] * len(edges)
        row[pos[host.face(2, 1, sig)]] += 1
        row[pos[host.face(2, 2, sig)]] -= 1
        row[pos[host.face(2, 0, sig)]] -= 1
        rows.append([e % d for e in row])
    if not rows:
        rows = [[0] * len(edges)]
    kern = kernel_basis(ZModMatrix(rows, d, num_cols=len(edges)))
    return [DeterministicDist(host, d, vec) for vec in kern.enumerate_span()]


def delta_distribution(f: DeterministicDist) -> SimplicialDistribution:
    dists = {}
    for n in range(min(f.host.cap, 2) + 1):
        for tok in f.host.simplices[n]:
            dists[(n, tok)] = RationalDist.from_dict({f.on_simplex(n, tok): 1})
    return SimplicialDistribution(f.host, f.d, dists)


def theta(weights: dict) -> SimplicialDistribution:
    """Mix deterministic distributions: Theta(sum l_f delta^f)."""
    if not weights:
        raise DistributionError("empty support is not a distribution")
    lam = {f: Fraction(v) for f, v in weights.items()}
    if any(v < 0 for v in lam.values()) or sum(lam.values()) != 1:
        raise DistributionError("weights must be a rational distribution")
    some = next(iter(lam))
    host, d = some.host, some.d
    # integer numerators over one common denominator; one Fraction per outcome
    den = lcm(*(v.denominator for v in lam.values()))
    nums = [v.numerator * (den // v.denominator) for v in lam.values()]
    vals = _value_array(host, lam)
    dists = {}
    for n in range(min(host.cap, 2) + 1):
        for tok in host.simplices[n]:
            acc: dict = {}
            codes = _outcome_codes(vals, host, n, tok, d)
            for o, v in zip(codes.tolist(), nums):
                acc[o] = acc.get(o, 0) + v
            dists[(n, tok)] = RationalDist.from_dict(
                {_decode_outcome(o, n, d): Fraction(v, den)
                 for o, v in acc.items()})
    return SimplicialDistribution(host, d, dists)


def _value_array(host: TruncatedSSet, dets) -> np.ndarray:
    """The values of deterministic distributions, one int row per member."""
    return np.array([f.values for f in dets], dtype=np.int64
                    ).reshape(len(dets), len(host.simplices[1]))


def _outcome_codes(vals: np.ndarray, host: TruncatedSSet, n: int, tok,
                   d: int) -> np.ndarray:
    """Each row's outcome on the n-simplex tok (as `on_simplex` reads it),
    encoded as the base-d number that `_decode_outcome` inverts."""
    pos = _edge_positions(host)
    if n == 0:
        return np.zeros(len(vals), dtype=np.int64)
    if n == 1:
        return vals[:, pos[tok]]
    return (vals[:, pos[host.face(2, 2, tok)]] * d
            + vals[:, pos[host.face(2, 0, tok)]])


def _decode_outcome(code: int, n: int, d: int) -> tuple:
    """The outcome tuple of length n whose base-d digits form `code`."""
    return tuple(code // d ** (n - 1 - j) % d for j in range(n))


# ------------------------------------------------------------ exact LP core

@dataclass
class Verdict:
    contextual: bool
    weights: Optional[dict] = None          # DeterministicDist -> Fraction
    farkas: Optional[list] = None           # (row label, Fraction) pairs
    row_labels: Optional[list] = None


def _marginal_rows(p: SimplicialDistribution,
                   dets: Sequence[DeterministicDist]):
    """One 0/1 row per (nondegenerate 2-simplex, outcome), plus normalization.

    Rows are returned as (support frozenset over det indices, rhs, label).
    """
    host, d = p.host, p.d
    vals = _value_array(host, dets)
    rows = [(frozenset(range(len(dets))), Fraction(1), ("norm",))]
    for sig in host.nondegenerate(2):
        codes = _outcome_codes(vals, host, 2, sig, d)
        pdist = p(2, sig)
        for o in range(d * d):
            theta_out = _decode_outcome(o, 2, d)
            rows.append((frozenset(np.flatnonzero(codes == o).tolist()),
                         pdist(theta_out), (sig, theta_out)))
    return rows


def _eliminate(rows, nf):
    """Exact integer Gaussian elimination with provenance over the input rows.

    Returns (basis, contradiction): basis entries are (int vector, Fraction
    rhs, provenance dict); a contradiction is a provenance dict y with
    y'A = 0 and y'c != 0.
    """
    basis: list[tuple[list[int], Fraction, dict]] = []
    pivots: list[int] = []
    for ridx, (support, rhs, _) in enumerate(rows):
        vec = [0] * nf
        for k in support:
            vec[k] = 1
        rhs = Fraction(rhs)
        prov = {ridx: Fraction(1)}
        for (bvec, brhs, bprov), pcol in zip(basis, pivots):
            if vec[pcol]:
                q, pval = vec[pcol], bvec[pcol]
                vec = [pval * a - q * b for a, b in zip(vec, bvec)]
                rhs = pval * rhs - q * brhs
                prov = {k: pval * v for k, v in prov.items()}
                for k, v in bprov.items():
                    prov[k] = prov.get(k, Fraction(0)) - q * v
        from math import gcd
        g = 0
        for a in vec:
            g = gcd(g, a)
        if g > 1:
            vec = [a // g for a in vec]
            rhs = rhs / g
            prov = {k: v / g for k, v in prov.items()}
        if any(vec):
            pcol = next(k for k, a in enumerate(vec) if a)
            if vec[pcol] < 0:
                vec = [-a for a in vec]
                rhs = -rhs
                prov = {k: -v for k, v in prov.items()}
            basis.append((vec, rhs, prov))
            pivots.append(pcol)
        elif rhs != 0:
            return basis, prov
    return basis, None


def _phase1_simplex(a_rows: list[list[int]], c: list[Fraction]
                    ) -> tuple[Optional[list[Fraction]],
                               Optional[list[Fraction]]]:
    """Feasibility of Ax = c, x >= 0, for an integer matrix A.

    Returns (x, None) when feasible, (None, y) with y'A <= 0, y'c > 0 when not.

    The tableau is integer-preserving (Bareiss 1968; Edmonds 1967): every
    entry is the rational phase-1 tableau entry times `den`, the last pivot
    (the basis determinant, always > 0), so each pivot decision is the one
    the rational tableau would make, and after each pivot the division by
    the previous `den` is exact.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    c = [Fraction(v) for v in c]
    scale = lcm(*(v.denominator for v in c))
    sign = []
    tab = []
    for row, rhs in zip(a_rows, c):
        rhs = rhs.numerator * (scale // rhs.denominator)
        if rhs < 0:
            sign.append(-1)
            row = [-v for v in row]
            rhs = -rhs
        else:
            sign.append(1)
        tab.append(list(row) + [1 if j == len(tab) else 0 for j in range(m)]
                   + [rhs])
    basis = [n + i for i in range(m)]
    total = n + m
    zrow = [sum(tab[i][j] for i in range(m)) for j in range(total + 1)]
    for j in range(n, total):
        zrow[j] -= 1
    den = 1

    iterations = 0
    bland_after = 20 * (m + 2)  # Dantzig first; Bland guarantees termination
    while True:
        iterations += 1
        if iterations > bland_after:
            enter = next((j for j in range(total) if zrow[j] > 0), None)
        else:
            enter = None
            best_z = 0
            for j in range(total):
                if zrow[j] > best_z:
                    best_z = zrow[j]
                    enter = j
        if enter is None:
            break
        piv = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:  # ratio test, cross-multiplied since a, a_piv > 0
                if piv is None:
                    piv = i
                    continue
                lhs = tab[i][total] * tab[piv][enter]
                rhs = tab[piv][total] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[piv]):
                    piv = i
        if piv is None:
            raise ArithmeticError("phase-1 unbounded (cannot happen)")
        prow = tab[piv]
        pv = prow[enter]
        for i in range(m):
            if i == piv:
                continue
            row = tab[i]
            f = row[enter]
            if f:
                tab[i] = [(pv * v - f * w) // den for v, w in zip(row, prow)]
            elif pv != den:
                tab[i] = [pv * v // den for v in row]
        f = zrow[enter]
        if f:
            zrow = [(pv * v - f * w) // den for v, w in zip(zrow, prow)]
        elif pv != den:
            zrow = [pv * v // den for v in zrow]
        den = pv
        basis[piv] = enter

    if zrow[total] == 0:
        x = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = Fraction(tab[i][total], den * scale)
        return x, None
    y = [(Fraction(zrow[n + i], den) + 1) * sign[i] for i in range(m)]
    return None, y


def is_contextual(p: SimplicialDistribution,
                  dets: Optional[Sequence[DeterministicDist]] = None
                  ) -> Verdict:
    """Exact LP: is p a convex mixture of deterministic distributions?

    The defining constraints are the marginal equalities on nondegenerate
    2-simplices (plus normalization); presolve reduces them to an equivalent
    independent system with provenance so certificates refer back to the
    original rows.
    """
    if dets is None:
        dets = enumerate_deterministic(p.host, p.d)
    rows = _marginal_rows(p, dets)
    nf = len(dets)
    # dedupe identical supports; contradictions are immediate certificates
    seen: dict = {}
    dedup = []
    for idx, (support, rhs, label) in enumerate(rows):
        if support in seen:
            j, other = seen[support]
            if other != rhs:
                hi, lo = (idx, j) if rhs > other else (j, idx)
                verdict = Verdict(True, farkas=[(rows[hi][2], Fraction(1)),
                                                (rows[lo][2], Fraction(-1))],
                                  row_labels=[r[2] for r in rows])
                verify_verdict(p, verdict, dets)
                return verdict
        else:
            seen[support] = (idx, rhs)
            dedup.append((support, rhs, label))

    basis, contradiction = _eliminate(dedup, nf)
    if contradiction is not None:
        y = contradiction
        if sum(v * dedup[k][1] for k, v in y.items()) < 0:
            y = {k: -v for k, v in y.items()}
        verdict = Verdict(True,
                          farkas=[(dedup[k][2], v) for k, v in sorted(y.items())
                                  if v],
                          row_labels=[r[2] for r in rows])
        verify_verdict(p, verdict, dets)
        return verdict

    a_rows = [vec for vec, _, _ in basis]
    rhs = [r for _, r, _ in basis]
    x, y_red = _phase1_simplex(a_rows, rhs)
    if x is not None:
        weights = {dets[k]: v for k, v in enumerate(x) if v}
        verdict = Verdict(False, weights=weights,
                          row_labels=[r[2] for r in rows])
        verify_verdict(p, verdict, dets)
        return verdict
    y: dict = {}
    for i, (_, _, prov) in enumerate(basis):
        if y_red[i]:
            for k, v in prov.items():
                y[k] = y.get(k, Fraction(0)) + y_red[i] * v
    farkas = [(dedup[k][2], v) for k, v in sorted(y.items()) if v]
    verdict = Verdict(True, farkas=farkas, row_labels=[r[2] for r in rows])
    verify_verdict(p, verdict, dets)
    return verdict


def verify_verdict(p: SimplicialDistribution, verdict: Verdict,
                   dets: Optional[Sequence[DeterministicDist]] = None) -> None:
    """Re-check the certificate by substitution into the original constraints."""
    if dets is None:
        dets = enumerate_deterministic(p.host, p.d)
    rows = _marginal_rows(p, dets)
    by_label = {label: (support, rhs) for support, rhs, label in rows}
    if not verdict.contextual:
        lam = verdict.weights
        if not all(v > 0 for v in lam.values()):
            raise AssertionError("witness has a weight that is not positive")
        if sum(lam.values()) != 1:
            raise AssertionError("witness weights do not sum to 1")
        pos = {id(f): k for k, f in enumerate(dets)}
        sparse = {pos[id(f)]: v for f, v in lam.items()}
        for support, rhs, label in rows:
            got = sum(v for k, v in sparse.items() if k in support)
            if got != rhs:
                raise AssertionError(f"witness violates constraint {label!r}")
    else:
        dot_c = Fraction(0)
        col_sums: dict = {}
        for label, coeff in verdict.farkas:
            support, rhs = by_label[label]
            dot_c += coeff * rhs
            for k in support:
                col_sums[k] = col_sums.get(k, Fraction(0)) + coeff
        if not all(s <= 0 for s in col_sums.values()) or not dot_c > 0:
            raise AssertionError("Farkas certificate fails verification")


# ------------------------------------------------------------- quantum side

def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def spectral_measurement(unitaries: Sequence[np.ndarray], d: int
                         ) -> dict[tuple, np.ndarray]:
    """Joint eigenspace projectors of commuting d-torsion unitaries.

    Pi(a) = prod_i (1/d) sum_k w^{-a_i k} U_i^k; validated Hermitian,
    idempotent, pairwise orthogonal, summing to the identity (tol 1e-9).
    """
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if not us:
        return {(): np.eye(1, dtype=complex)}
    dim = us[0].shape[0]
    ident = np.eye(dim, dtype=complex)
    for u in us:
        if u.shape != (dim, dim):
            raise DistributionError("dimension mismatch")
        if np.linalg.norm(np.linalg.matrix_power(u, d) - ident) > TOL:
            raise DistributionError("unitary is not d-torsion")
    for u, v in itertools.combinations(us, 2):
        if np.linalg.norm(u @ v - v @ u) > TOL:
            raise DistributionError("unitaries do not commute")
    w = omega(d)
    powers = []
    for u in us:
        pows = [ident]
        for _ in range(d - 1):
            pows.append(pows[-1] @ u)
        powers.append(pows)
    out = {}
    for a in itertools.product(range(d), repeat=len(us)):
        proj = ident
        for i, ai in enumerate(a):
            comp = sum(w ** (-ai * k) * powers[i][k] for k in range(d)) / d
            proj = proj @ comp
        out[a] = proj
    total = sum(out.values())
    if np.linalg.norm(total - ident) > TOL:
        raise DistributionError("projectors do not sum to the identity")
    for a, proj in out.items():
        if np.linalg.norm(proj @ proj - proj) > TOL or \
                np.linalg.norm(proj - proj.conj().T) > TOL:
            raise DistributionError("projector validation failed")
    return out


def snap_probability(value: float) -> Fraction:
    frac = Fraction(value).limit_denominator(SNAP_DENOMINATOR)
    if abs(float(frac) - value) > TOL:
        raise DistributionError(
            f"probability {value!r} does not snap to a bounded rational")
    return frac


def is_matrix_solution(t_mats: Sequence[np.ndarray], system: LinearSystem
                       ) -> bool:
    """Torsion, per-row commutation, and row products = omega^{b} * identity."""
    d = system.modulus
    dim = t_mats[0].shape[0]
    ident = np.eye(dim, dtype=complex)
    w = omega(d)
    for u in t_mats:
        if np.linalg.norm(np.linalg.matrix_power(u, d) - ident) > TOL:
            return False
    for row in system.matrix.rows:
        supp = [v for v, e in enumerate(row) if e]
        for a, b in itertools.combinations(supp, 2):
            if np.linalg.norm(t_mats[a] @ t_mats[b]
                              - t_mats[b] @ t_mats[a]) > TOL:
                return False
    for row, bval in zip(system.matrix.rows, system.rhs):
        acc = ident
        for v, e in enumerate(row):
            if e:
                acc = acc @ np.linalg.matrix_power(t_mats[v], e)
        if np.linalg.norm(acc - (w ** bval) * ident) > TOL:
            return False
    return True


def quantum_distribution(system: LinearSystem, t_mats: Sequence[np.ndarray],
                         rho: np.ndarray, cap: int = 2,
                         host: Optional[TruncatedSSet] = None
                         ) -> SimplicialDistribution:
    """p_sigma(a) = Tr(rho Pi_sigma(a)) on N(Z_d, Sigma), snapped to rationals."""
    d = system.modulus
    if not is_matrix_solution(t_mats, system):
        raise DistributionError("T is not an operator solution of the system")
    rho = np.asarray(rho, dtype=complex)
    if np.linalg.norm(rho - rho.conj().T) > TOL or \
            abs(np.trace(rho) - 1) > TOL or \
            min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -TOL:
        raise DistributionError("rho is not a density operator")
    if host is None:
        host = nzd_sigma(complex_of_system(system), d, cap=cap)

    def u_of(func) -> np.ndarray:
        dim = t_mats[0].shape[0]
        acc = np.eye(dim, dtype=complex)
        for v, a in enumerate(func):
            if a:
                acc = acc @ np.linalg.matrix_power(t_mats[v], a)
        return acc

    dists = {}
    for n in range(min(host.cap, 2) + 1):
        for tok in host.simplices[n]:
            if n == 0:
                dists[(n, tok)] = RationalDist.from_dict({(): Fraction(1)})
                continue
            projs = spectral_measurement([u_of(f) for f in tok], d)
            vals = {}
            for a, proj in projs.items():
                tr = np.trace(rho @ proj)
                if abs(tr.imag) > TOL:
                    raise DistributionError("complex probability")
                vals[a] = snap_probability(max(tr.real, 0.0))
            total = sum(vals.values())
            if total != 1:
                raise DistributionError(f"snapped weights sum to {total}")
            dists[(n, tok)] = RationalDist.from_dict(vals)
    return SimplicialDistribution(host, d, dists)


# ----------------------------------------------------- two-qubit Pauli fixture

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def mermin_peres_solution() -> list[np.ndarray]:
    """Two-qubit real Pauli solution of the K_{3,3} system with b=(0,...,0,1).

    Cell (i, j) of the magic square is assigned to the K_{3,3} edge (i, j+3);
    rows multiply to +1 and columns to (+1, +1, -1).
    """
    eye = np.eye(2, dtype=complex)
    xz = PAULI_X @ PAULI_Z
    zx = PAULI_Z @ PAULI_X
    square = {
        (1, 4): np.kron(PAULI_X, eye),
        (1, 5): np.kron(eye, PAULI_X),
        (1, 6): np.kron(PAULI_X, PAULI_X),
        (2, 4): np.kron(eye, PAULI_Z),
        (2, 5): np.kron(PAULI_Z, eye),
        (2, 6): np.kron(PAULI_Z, PAULI_Z),
        (3, 4): np.kron(PAULI_X, PAULI_Z),
        (3, 5): np.kron(PAULI_Z, PAULI_X),
        (3, 6): np.kron(xz, zx),
    }
    from .linsys import K33_COLUMNS
    return [square[edge] for edge in K33_COLUMNS]


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def random_phase_state(dim: int, rng) -> np.ndarray:
    """A random pure state with fourth-root-of-unity amplitudes.

    Outcome statistics against Pauli-type projectors stay dyadic, so the
    exact-rational snapping accepts these states (a Haar-random state would
    produce irrational probabilities and be rejected).
    """
    vec = np.array([rng.choice((1, -1, 1j, -1j)) for _ in range(dim)],
                   dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


# ------------------------------------------------------------------ file I/O

def dump_distribution(p: SimplicialDistribution) -> str:
    """Lines `simplex-id outcome(csv) numerator/denominator`."""
    lines = []
    for n in range(min(p.host.cap, 2) + 1):
        for tok in p.host.simplices[n]:
            for theta_out, v in p(n, tok).weights:
                csv = ",".join(map(str, theta_out)) if theta_out else "-"
                lines.append(f"{tok!r} {csv} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


def parse_distribution(host: TruncatedSSet, d: int, text: str
                       ) -> SimplicialDistribution:
    by_repr = {}
    for n in range(min(host.cap, 2) + 1):
        for tok in host.simplices[n]:
            by_repr[repr(tok)] = (n, tok)
    acc: dict = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        head, _, frac = line.rpartition(" ")
        ident, _, csv = head.rpartition(" ")
        if ident not in by_repr:
            raise DistributionError(f"line {num}: unknown simplex {ident!r}")
        n, tok = by_repr[ident]
        theta_out = () if csv == "-" else tuple(int(x) for x in csv.split(","))
        numden = frac.split("/")
        value = Fraction(int(numden[0]), int(numden[1]) if len(numden) > 1 else 1)
        acc.setdefault((n, tok), {})[theta_out] = value
    dists = {key: RationalDist.from_dict(v) for key, v in acc.items()}
    return SimplicialDistribution(host, d, dists)


def verdict_report(verdict: Verdict) -> str:
    def enc_frac(v: Fraction) -> str:
        return f"{v.numerator}/{v.denominator}"

    if verdict.contextual:
        body = {"verdict": "contextual",
                "farkas": [[repr(label), enc_frac(coeff)]
                           for label, coeff in verdict.farkas]}
    else:
        body = {"verdict": "noncontextual",
                "witness": {repr(tuple(f.values)): enc_frac(v)
                            for f, v in sorted(verdict.weights.items(),
                                               key=lambda kv: kv[0].values)}}
    return json.dumps(body, sort_keys=True, indent=1)
