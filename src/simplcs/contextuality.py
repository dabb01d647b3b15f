"""Simplicial distributions and contextuality certification.

A simplicial distribution holds its exact weights as one integer numerator
array per degree n <= 2, one row per n-simplex of the host and one column
per outcome (an n-tuple over Z_d, in base-d code order), over one positive
common denominator: int64 while the denominator and every numerator are
below `INT64_EXACT`, Python ints (`dtype=object`) otherwise. Validation runs
on these arrays: rows are nonnegative and sum to the denominator, and each
face or degeneracy of N(Z_d) pushed along the outcomes is one 0/1 matmul,
compared with the rows of the host's face or degeneracy, read through index
arrays kept on the host. `Theta` fills the arrays with one exact scatter-add
of its integer numerators; distributions given as dicts of `RationalDist`s
are converted once, and array-built ones make their dicts only when asked.

Deterministic distributions are enumerated exactly (kernel of the additive
edge condition over Z_d), once per (host, d), and kept on the host; the
noncontextuality decision is an exact LP feasibility problem, so every
verdict carries a machine-checkable certificate: a convex decomposition, or
a Farkas vector against the marginal constraints.
Only the LP's right-hand side depends on the distribution: its presolve
(repeated supports, exact elimination with integer provenance) and, apart
from it, the marginal supports that `verify_verdict` reads are computed once
per (host, deterministic distributions) and cached on the host. The
right-hand sides are integer numerators read from the degree-2 array. The
phase-1 simplex (Dantzig pricing, then Bland's rule) runs on an
integer-preserving numpy tableau over one common denominator: int64 while
every entry stays below 2^30, Python ints (`dtype=object`) once one does
not. `Fraction`s are made only for the certificate returned and for the
`RationalDist` view of a distribution.

The quantum side (commuting d-torsion unitaries, projective measurements,
density operators) lives in floating complex arithmetic and is snapped to
exact rationals before the LP sees it. `quantum_distribution` builds U(f)
and its d spectral components once per distinct function f, then the joint
projectors of all simplices of one degree as one array; every simplex's
measurement is checked (torsion, commutation, sum to the identity,
idempotence, Hermiticity, real traces) within `TOL`, by the same kernel
that `spectral_measurement` runs on a single simplex. Each distinct
probability is snapped once, and the snapped numerators fill the arrays.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .linsys import LinearSystem
from .simplicial import TruncatedSSet, complex_of_system, nerve, nzd_sigma
from .zmod import ZModMatrix, kernel_basis

SNAP_DENOMINATOR = 2 ** 16
TOL = 1e-9
INT64_EXACT = 2 ** 30  # int64 tableau bound: pv * v and f * w stay < 2^60


class DistributionError(ValueError):
    pass


# ------------------------------------------------------------- distributions

@dataclass(frozen=True)
class RationalDist:
    """Finite-support distribution with exact nonnegative rational weights."""

    weights: tuple  # ((outcome, Fraction), ...) sorted

    @staticmethod
    def from_dict(d: dict) -> "RationalDist":
        items = [(k, Fraction(v)) for k, v in d.items()]
        _check_weights(items)
        return RationalDist(tuple(sorted(((k, v) for k, v in items if v),
                                         key=lambda kv: repr(kv[0]))))

    def __call__(self, outcome) -> Fraction:
        for k, v in self.weights:
            if k == outcome:
                return v
        return Fraction(0)

    def support(self):
        return [k for k, _ in self.weights]


def _check_weights(items) -> None:
    """Raise unless the (outcome, Fraction) pairs are nonnegative and sum
    to 1."""
    total = Fraction(0)
    for k, v in items:
        if v < 0:
            raise DistributionError(f"negative weight at {k!r}")
        total += v
    if total != 1:
        raise DistributionError(f"weights sum to {total}, not 1")


def _exact_dtype(biggest: int):
    """int64 while `biggest` (a denominator or the largest numerator in
    magnitude) is below INT64_EXACT, Python ints (`object`) otherwise."""
    return object if biggest >= INT64_EXACT else np.int64


class SimplicialDistribution:
    """Exact outcome distributions per simplex (degrees <= 2), compatible with
    the structure maps of the host and of N(Z_d).

    The weights are integer numerators over one positive denominator `den`:
    `arrays[n]` has one row per simplex of `host.simplices[n]` and one column
    per outcome, in the base-d code order of `_outcome_codes`. It is int64
    while `den` and every numerator are below `INT64_EXACT`, Python ints
    (`dtype=object`) otherwise. A distribution built from a dict of
    `RationalDist`s converts it once; one built from arrays (`theta`,
    `quantum_distribution`) makes its `dists` dict on first access.
    """

    def __init__(self, host: TruncatedSSet, d: int, dists: dict,
                 validate: bool = True):
        self.host = host
        self.d = d
        self._dists = dists
        self.den, self.arrays, self._defect = _arrays_of_dists(host, d, dists)
        if validate:
            self.validate()

    @classmethod
    def _of_arrays(cls, host: TruncatedSSet, d: int, den: int,
                   arrays: dict) -> "SimplicialDistribution":
        p = cls.__new__(cls)
        p.host, p.d, p.den, p.arrays = host, d, den, arrays
        p._dists, p._defect = None, None
        p.validate()
        return p

    @property
    def dists(self) -> dict:
        """{(n, simplex): RationalDist}, outcomes in repr order, zero weights
        left out (as `RationalDist.from_dict` gives them)."""
        if self._dists is None:
            self._dists = _dists_of_arrays(self)
        return self._dists

    def __call__(self, n: int, tok) -> RationalDist:
        return self.dists[(n, tok)]

    def validate(self) -> None:
        """Raise the first failure in host order: per simplex (degrees 0 to
        2), a missing distribution, a bad outcome, a negative weight or a
        sum other than 1; then each face d_i and each degeneracy s_j, as the
        push of the outcome distribution along N(Z_d)'s map."""
        host, d, den = self.host, self.d, self.den
        top = min(host.cap, 2)
        lay = _layout(host, d)
        failure = self._defect
        for n in range(top + 1):
            arr = self.arrays[n]
            bad = np.flatnonzero((arr < 0).any(axis=1)
                                 | (arr.sum(axis=1) != den))
            if len(bad):
                row = int(bad[0])
                if failure is None or (n, row) < failure[:2]:
                    failure = (n, row, self._weight_error(n, row))
                break
        if failure is not None:
            raise DistributionError(failure[2])
        links = ([("face", "d", n, n - 1) for n in range(1, top + 1)]
                 + [("degeneracy", "s", n, n + 1) for n in range(top)])
        for name, sym, n, m in links:
            got = self.arrays[n]
            wrong = np.stack(
                [(got @ lay.maps[(sym, n, i)]
                  != self.arrays[m][lay.rows[(sym, n, i)]]).any(axis=1)
                 for i in range(n + 1)], axis=1)
            rows = np.flatnonzero(wrong.any(axis=1))
            if len(rows):
                i = int(np.argmax(wrong[rows[0]]))
                raise DistributionError(
                    f"{name} compatibility fails at "
                    f"{host.simplices[n][rows[0]]!r} ({sym}_{i})")

    def _weight_error(self, n: int, row: int) -> str:
        """The message for a row with a negative weight (the first outcome
        in repr order) or a sum other than `den`."""
        nums = self.arrays[n][row].tolist()
        for code in _layout(self.host, self.d).repr_order[n]:
            if nums[code] < 0:
                return (f"negative weight at "
                        f"{_decode_outcome(code, n, self.d)!r}")
        total = sum(nums)
        g = gcd(total, self.den)
        ratio = (f"{total // g}" if g == self.den
                 else f"{total // g}/{self.den // g}")
        return f"weights sum to {ratio}, not 1"


def _arrays_of_dists(host: TruncatedSSet, d: int, dists: dict) -> tuple:
    """(den, arrays, defect) for a dict of `RationalDist`s: the numerators
    over the lcm of every denominator, and the (degree, row, message) of the
    first simplex in host order whose distribution is missing or has an
    outcome that is not an n-tuple over Z_d (None if there is none); that
    simplex's row is left incomplete."""
    top = min(host.cap, 2)
    present = [dists[(n, tok)].weights for n in range(top + 1)
               for tok in host.simplices[n] if (n, tok) in dists]
    den = lcm(*(v.denominator for weights in present for _, v in weights))
    defect = None
    blocks = {}
    for n in range(top + 1):
        block = blocks[n] = [[0] * d ** n for _ in host.simplices[n]]
        for row, tok in enumerate(host.simplices[n]):
            p = dists.get((n, tok))
            if p is None:
                defect = defect or (n, row, f"missing distribution at {tok!r}")
                continue
            for outcome, v in p.weights:
                if len(outcome) != n or any(not 0 <= a < d for a in outcome):
                    defect = defect or (n, row, f"bad outcome {outcome!r}")
                    break
                code = 0
                for a in outcome:
                    code = code * d + a
                block[row][code] += v.numerator * (den // v.denominator)
    biggest = max([den] + [abs(v) for block in blocks.values()
                           for line in block for v in line])
    arrays = {n: np.array(block, dtype=_exact_dtype(biggest)
                          ).reshape(len(block), d ** n)
              for n, block in blocks.items()}
    return den, arrays, defect


def _dists_of_arrays(p: SimplicialDistribution) -> dict:
    """The `RationalDist` of every simplex; one Fraction per distinct
    numerator."""
    host, d = p.host, p.d
    fracs: dict = {}
    dists = {}
    for n in range(min(host.cap, 2) + 1):
        order = _layout(host, d).repr_order[n]
        outcomes = [_decode_outcome(code, n, d) for code in order]
        for tok, row in zip(host.simplices[n],
                            p.arrays[n][:, order].tolist()):
            weights = []
            for outcome, v in zip(outcomes, row):
                if v:
                    if v not in fracs:
                        fracs[v] = Fraction(v, p.den)
                    weights.append((outcome, fracs[v]))
            dists[(n, tok)] = RationalDist(tuple(weights))
    return dists


@dataclass(frozen=True)
class _Layout:
    """How a host's simplices and N(Z_d)'s outcomes index the arrays of a
    `SimplicialDistribution`, built once per (host, d) and kept on the host.
    The structure maps are keyed ("d", n, i) for the face d_i and ("s", n, j)
    for the degeneracy s_j of degree n."""
    rows: dict          # map -> the row of its image, per n-simplex row
    maps: dict          # map -> its 0/1 matrix on N(Z_d)'s outcome codes
    repr_order: dict    # n -> outcome codes in repr order of their tuples
    marginal_rows: np.ndarray   # the degree-2 row and outcome code of each
    marginal_codes: np.ndarray  # LP row after normalization, in order


def _layout(host: TruncatedSSet, d: int) -> _Layout:
    return _cached_on(host, "_dist_layout", d, lambda: _build_layout(host, d))


def _build_layout(host: TruncatedSSet, d: int) -> _Layout:
    top = min(host.cap, 2)
    position = [{tok: k for k, tok in enumerate(host.simplices[n])}
                for n in range(top + 1)]
    nzd = nerve(d, top)
    codes = [{t: k for k, t in enumerate(itertools.product(range(d),
                                                            repeat=n))}
             for n in range(top + 1)]
    rows, maps = {}, {}
    for sym, n, i, m, host_map, nzd_map in (
            [("d", n, i, n - 1, host.faces, nzd.faces)
             for n in range(1, top + 1) for i in range(n + 1)]
            + [("s", n, j, n + 1, host.degeneracies, nzd.degeneracies)
               for n in range(top) for j in range(n + 1)]):
        rows[(sym, n, i)] = np.array(
            [position[m][host_map[(n, i)][t]] for t in host.simplices[n]],
            dtype=np.intp)
        maps[(sym, n, i)] = out = np.zeros((d ** n, d ** m), dtype=np.int64)
        for t, k in codes[n].items():
            out[k, codes[m][nzd_map[(n, i)][t]]] = 1
    nondeg = np.array([position[2][t] for t in host.nondegenerate(2)]
                      if top == 2 else [], dtype=np.intp)
    return _Layout(rows, maps,
                   {n: [codes[n][t] for t in nzd.simplices[n]]
                    for n in range(top + 1)},
                   np.repeat(nondeg, d * d),
                   np.tile(np.arange(d * d), len(nondeg)))


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
    """All solutions of the additive edge condition, via kernel enumeration.

    The members are computed once per (host, d) and kept on the host; each
    call returns a new list of them."""
    return list(_cached_on(host, "_dets", d,
                           lambda: tuple(_kernel_dets(host, d))))


def _kernel_dets(host: TruncatedSSet, d: int) -> list[DeterministicDist]:
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
    # integer numerators over one common denominator
    den = lcm(*(v.denominator for v in lam.values()))
    nums = [v.numerator * (den // v.denominator) for v in lam.values()]
    if any(v < 0 for v in nums) or sum(nums) != den:
        raise DistributionError("weights must be a rational distribution")
    some = next(iter(lam))
    host, d = some.host, some.d
    vals = _value_array(host, lam)
    nums = np.array(nums, dtype=_exact_dtype(den))
    arrays = {}
    for n in range(min(host.cap, 2) + 1):
        codes = _outcome_codes(vals, host, n, d)
        arr = arrays[n] = np.zeros((len(codes), d ** n), dtype=nums.dtype)
        np.add.at(arr, (np.arange(len(codes))[:, None], codes), nums)
    return SimplicialDistribution._of_arrays(host, d, den, arrays)


def _value_array(host: TruncatedSSet, dets) -> np.ndarray:
    """The values of deterministic distributions, one int row per member."""
    return np.array([f.values for f in dets], dtype=np.int64
                    ).reshape(len(dets), len(host.simplices[1]))


def _outcome_codes(vals: np.ndarray, host: TruncatedSSet, n: int, d: int
                   ) -> np.ndarray:
    """Each member's outcome on each n-simplex (as `on_simplex` reads it),
    one row per simplex and one column per row of vals, encoded as the
    base-d number that `_decode_outcome` inverts."""
    if n == 0:
        return np.zeros((len(host.simplices[0]), len(vals)), dtype=np.int64)
    if n == 1:
        return vals.T
    lay = _layout(host, d)
    return vals.T[lay.rows[("d", 2, 2)]] * d + vals.T[lay.rows[("d", 2, 0)]]


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


def _cached_on(host: TruncatedSSet, attr: str, key, build):
    """The value that `build()` gives for `key`, kept on the host under
    `attr`: one entry, rebuilt when the key changes."""
    cached = getattr(host, attr, None)
    if cached is None or cached[0] != key:
        cached = (key, build())
        setattr(host, attr, cached)
    return cached[1]


def _content_key(d: int, dets: Sequence[DeterministicDist]) -> tuple:
    """(d, dets) by content, so equal det lists built anew share an entry."""
    return (d, tuple(f.values for f in dets))


def _marginal_supports(host: TruncatedSSet, d: int,
                       dets: Sequence[DeterministicDist]) -> tuple:
    """The marginal rows without their right-hand sides: (support frozenset
    over det indices, label) for normalization first, then one 0/1 row per
    (nondegenerate 2-simplex, outcome).

    Built once per (host, dets) and cached on the host apart from the
    presolve, since `verify_verdict` reads these and never the presolve."""
    return _cached_on(host, "_lp_supports", _content_key(d, dets),
                      lambda: _build_supports(host, d, dets))


def _build_supports(host: TruncatedSSet, d: int,
                    dets: Sequence[DeterministicDist]) -> tuple:
    lay = _layout(host, d)
    codes = _outcome_codes(_value_array(host, dets), host, 2, d)
    rows = [(frozenset(range(len(dets))), ("norm",))]
    for row, code in zip(lay.marginal_rows.tolist(),
                         lay.marginal_codes.tolist()):
        rows.append((frozenset(np.flatnonzero(codes[row] == code).tolist()),
                     (host.simplices[2][row], _decode_outcome(code, 2, d))))
    return tuple(rows)


def _marginal_rhs(p: SimplicialDistribution) -> list:
    """The right-hand sides of the rows of `_marginal_supports`, as integer
    numerators over p.den: p.den for normalization (the first row), then
    p_sigma(outcome), read from the degree-2 array through the layout's
    (row, code) index arrays."""
    lay = _layout(p.host, p.d)
    return [p.den] + p.arrays[2][lay.marginal_rows,
                                 lay.marginal_codes].tolist()


@dataclass(frozen=True)
class _Presolve:
    """The part of the LP that does not depend on p.

    A provenance is integer numerators {row index: int} over one positive
    denominator; a row built from the input rows with provenance y has
    right-hand side y . c for every p.
    """
    labels: tuple      # row labels, normalization first
    duplicates: tuple  # (row index, index of the first row with its support)
    basis: tuple       # (int vector, numerators over basis_den) per
    #                    independent row
    basis_den: int     # the one denominator of every basis provenance
    dependent: tuple   # (numerators, denominator) per row that reduces to
    #                    zero, in order


def _presolve(host: TruncatedSSet, d: int,
              dets: Sequence[DeterministicDist]) -> _Presolve:
    """The presolve for (host, dets), cached on the host: one entry, keyed by
    content, so equal det lists built anew reuse it."""
    return _cached_on(host, "_lp_presolve", _content_key(d, dets),
                      lambda: _build_presolve(host, d, dets))


def _build_presolve(host: TruncatedSSet, d: int,
                    dets: Sequence[DeterministicDist]) -> _Presolve:
    """Drop repeated supports, then exact integer Gaussian elimination with
    provenance over the remaining rows, in order."""
    rows = _marginal_supports(host, d, dets)
    first: dict = {}
    duplicates = []
    basis: list[tuple[list[int], dict, int]] = []
    pivots: list[int] = []
    dependent = []
    for ridx, (support, _) in enumerate(rows):
        j = first.setdefault(support, ridx)
        if j != ridx:
            duplicates.append((ridx, j))
            continue
        vec = [0] * len(dets)
        for k in support:
            vec[k] = 1
        prov, den = {ridx: 1}, 1
        for (bvec, bprov, bden), pcol in zip(basis, pivots):
            if vec[pcol]:
                q, pval = vec[pcol], bvec[pcol]
                vec = [pval * a - q * b for a, b in zip(vec, bvec)]
                # pval * prov / den - q * bprov / bden over lcm(den, bden)
                both = lcm(den, bden)
                mine, theirs = pval * (both // den), q * (both // bden)
                prov = {k: mine * v for k, v in prov.items()}
                for k, v in bprov.items():
                    prov[k] = prov.get(k, 0) - theirs * v
                den = both
        g = gcd(*vec)
        if g > 1:
            vec = [a // g for a in vec]
            den *= g
        g = gcd(den, *prov.values())
        prov, den = {k: v // g for k, v in prov.items()}, den // g
        if any(vec):
            pcol = next(k for k, a in enumerate(vec) if a)
            if vec[pcol] < 0:
                vec = [-a for a in vec]
                prov = {k: -v for k, v in prov.items()}
            basis.append((vec, prov, den))
            pivots.append(pcol)
        else:
            dependent.append((prov, den))
    basis_den = lcm(*(den for _, _, den in basis))
    return _Presolve(tuple(label for _, label in rows), tuple(duplicates),
                     tuple((vec, {k: v * (basis_den // den)
                                  for k, v in prov.items()})
                           for vec, prov, den in basis),
                     basis_den, tuple(dependent))


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

    The tableau is one numpy array, the objective row last, and each pivot
    is one rank-1 update of it. It is int64 while every entry is below
    `INT64_EXACT` (2^30) in magnitude, checked on the initial tableau and
    after every pivot: then no product in the next update reaches 2^60, so
    none overflows. Once the bound fails, the same array is converted to
    Python ints (`dtype=object`) and the same statements run on it, so the
    pivots and the answer do not depend on the dtype.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    c = [Fraction(v) for v in c]
    scale = lcm(*(v.denominator for v in c))
    sign = []
    rows = []
    for i, (row, rhs) in enumerate(zip(a_rows, c)):
        rhs = rhs.numerator * (scale // rhs.denominator)
        sign.append(-1 if rhs < 0 else 1)
        rows.append([sign[i] * v for v in row]
                    + [int(j == i) for j in range(m)] + [sign[i] * rhs])
    total = n + m
    # the objective row sums the rows; its artificial columns are 0
    zrow = [sum(col) for col in zip([0] * (total + 1), *rows)]
    zrow[n:total] = [0] * m
    biggest = max(map(abs, itertools.chain(zrow, *rows)))
    tab = np.array(rows + [zrow], dtype=object if biggest >= INT64_EXACT
                   else np.int64).reshape(m + 1, total + 1)
    basis = [n + i for i in range(m)]
    den = 1

    iterations = 0
    bland_after = 20 * (m + 2)  # Dantzig first; Bland guarantees termination
    while True:
        iterations += 1
        z = tab[m, :total]
        positive = np.flatnonzero(z > 0)
        if not len(positive):
            break
        # Dantzig: the first largest entry; Bland: the first positive one
        enter = int(positive[0] if iterations > bland_after else np.argmax(z))
        col = tab[:m, enter].tolist()
        rhs_col = tab[:m, total].tolist()
        piv = None
        for i, a in enumerate(col):
            if a > 0:  # ratio test, cross-multiplied since a, a_piv > 0
                if piv is None:
                    piv = i
                    continue
                lhs = rhs_col[i] * col[piv]
                rhs = rhs_col[piv] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[piv]):
                    piv = i
        if piv is None:
            raise ArithmeticError("phase-1 unbounded (cannot happen)")
        pv = col[piv]
        prow = tab[piv].copy()
        # tab = (pv * tab - outer(f, prow)) // den, f the entering column,
        # in place; the pivot row stays
        update = np.outer(tab[:, enter], prow)
        tab *= pv
        tab -= update
        tab //= den
        tab[piv] = prow
        if tab.dtype != object and np.abs(tab).max() >= INT64_EXACT:
            tab = tab.astype(object)
        den = pv
        basis[piv] = enter

    zrow = tab[m].tolist()
    if zrow[total] == 0:
        x = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = Fraction(int(tab[i, total]), den * scale)
        return x, None
    y = [(Fraction(zrow[n + i], den) + 1) * sign[i] for i in range(m)]
    return None, y


def is_contextual(p: SimplicialDistribution,
                  dets: Optional[Sequence[DeterministicDist]] = None
                  ) -> Verdict:
    """Exact LP: is p a convex mixture of deterministic distributions?

    The defining constraints are the marginal equalities on nondegenerate
    2-simplices (plus normalization). Only their right-hand side c depends
    on p: the presolve (repeated supports, and an equivalent independent
    system with provenance, so certificates refer back to the original rows)
    is computed once per (host, dets).
    """
    if dets is None:
        dets = enumerate_deterministic(p.host, p.d)
    pre = _presolve(p.host, p.d, dets)
    verdict = _solve(pre, _marginal_rhs(p), dets)
    verdict.row_labels = list(pre.labels)
    verify_verdict(p, verdict, dets)
    return verdict


def _solve(pre: _Presolve, c: list, dets: Sequence[DeterministicDist]
           ) -> Verdict:
    """The verdict of the presolved LP for the right-hand side c, integer
    numerators over c[0] (the normalization row's rhs, 1)."""
    labels = pre.labels
    # c in lowest terms, over `scale` (the lcm of its reduced denominators):
    # every test below is on ints, and Fractions are made only for the
    # certificate returned
    g = gcd(*c)
    scale = c[0] // g
    c = [v // g for v in c]
    # identical supports with different rhs: an immediate certificate
    for idx, j in pre.duplicates:
        if c[idx] != c[j]:
            hi, lo = (idx, j) if c[idx] > c[j] else (j, idx)
            return Verdict(True, farkas=[(labels[hi], Fraction(1)),
                                         (labels[lo], Fraction(-1))])
    # a row in the span of earlier rows whose rhs disagrees with theirs
    for y, den in pre.dependent:
        dot = sum(v * c[k] for k, v in y.items())
        if dot:
            sign = 1 if dot > 0 else -1
            return Verdict(True, farkas=[(labels[k], Fraction(sign * v, den))
                                         for k, v in sorted(y.items()) if v])

    # the basis rows' rhs times scale * basis_den: a positive multiple of
    # the rhs leaves the pivots and y as they are and multiplies x by it
    x, y_red = _phase1_simplex(
        [vec for vec, _ in pre.basis],
        [sum(v * c[k] for k, v in prov.items()) for _, prov in pre.basis])
    if x is not None:
        return Verdict(False, weights={dets[k]: v / (scale * pre.basis_den)
                                       for k, v in enumerate(x) if v})
    y_den = lcm(*(yi.denominator for yi in y_red))
    y: dict = {}
    for yi, (_, prov) in zip(y_red, pre.basis):
        if yi:
            yi = yi.numerator * (y_den // yi.denominator)
            for k, v in prov.items():
                y[k] = y.get(k, 0) + yi * v
    den = y_den * pre.basis_den
    return Verdict(True, farkas=[(labels[k], Fraction(v, den))
                                 for k, v in sorted(y.items()) if v])


def verify_verdict(p: SimplicialDistribution, verdict: Verdict,
                   dets: Optional[Sequence[DeterministicDist]] = None) -> None:
    """Re-check the certificate by substitution into the original constraints."""
    if dets is None:
        dets = enumerate_deterministic(p.host, p.d)
    rows = _marginal_supports(p.host, p.d, dets)
    rhs = _marginal_rhs(p)  # numerators over p.den
    if not verdict.contextual:
        lam = verdict.weights
        if not all(v > 0 for v in lam.values()):
            raise AssertionError("witness has a weight that is not positive")
        if sum(lam.values()) != 1:
            raise AssertionError("witness weights do not sum to 1")
        pos = {f: k for k, f in enumerate(dets)}
        if any(f not in pos for f in lam):
            raise AssertionError(
                "witness uses a deterministic distribution outside dets")
        # the weights as integer numerators over their lcm denominator
        den = lcm(*(v.denominator for v in lam.values()))
        sparse = {pos[f]: v.numerator * (den // v.denominator)
                  for f, v in lam.items()}
        for (support, label), c in zip(rows, rhs):
            got = sum(v for k, v in sparse.items() if k in support)
            if got * p.den != c * den:
                raise AssertionError(f"witness violates constraint {label!r}")
    else:
        # column sums and y . c scaled by the coefficients' positive lcm
        # denominator (and p.den), which keeps their signs
        by_label = {label: (support, c)
                    for (support, label), c in zip(rows, rhs)}
        den = lcm(*(coeff.denominator for _, coeff in verdict.farkas))
        dot_c = 0
        col_sums: dict = {}
        for label, coeff in verdict.farkas:
            support, c = by_label[label]
            num = coeff.numerator * (den // coeff.denominator)
            dot_c += num * c
            for k in support:
                col_sums[k] = col_sums.get(k, 0) + num
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
    if any(u.shape != (dim, dim) for u in us):
        raise DistributionError("dimension mismatch")
    stacked = np.stack(us)
    projs = _joint_projectors(stacked, _spectral_components(stacked, d),
                              np.arange(len(us))[None, :], d)
    return dict(zip(itertools.product(range(d), repeat=len(us)), projs[0]))


def _spectral_components(us: np.ndarray, d: int) -> np.ndarray:
    """The (F, d, dim, dim) array of (1/d) sum_k w^{-ak} U_f^k for a stack
    of F unitaries, after checking that each one is d-torsion."""
    ident = np.eye(us.shape[-1], dtype=complex)
    powers = [np.broadcast_to(ident, us.shape)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ us)
    if (_frobenius(powers[-1] @ us - ident) > TOL).any():
        raise DistributionError("unitary is not d-torsion")
    w = omega(d)
    phases = np.array([[w ** (-a * k) for k in range(d)] for a in range(d)])
    return np.einsum("ak,kfij->faij", phases, np.stack(powers)) / d


def _joint_projectors(us: np.ndarray, comps: np.ndarray, funcs: np.ndarray,
                      d: int) -> np.ndarray:
    """The (S, d^n, dim, dim) joint projectors of S simplices of degree n,
    outcomes in `itertools.product` order.

    funcs is an (S, n) array of indices into `us` (the unitaries) and
    `comps` (their spectral components). Every simplex is checked: its
    unitaries commute pairwise, and its projectors sum to the identity and
    are idempotent and Hermitian, each within TOL in the Frobenius norm.
    """
    num, n = funcs.shape
    dim = us.shape[-1]
    ident = np.eye(dim, dtype=complex)
    for i, j in itertools.combinations(range(n), 2):
        u, v = us[funcs[:, i]], us[funcs[:, j]]
        if (_frobenius(u @ v - v @ u) > TOL).any():
            raise DistributionError("unitaries do not commute")
    projs = np.broadcast_to(ident, (num, 1, dim, dim))
    for i in range(n):
        projs = np.einsum("spij,sajk->spaik", projs, comps[funcs[:, i]]
                          ).reshape(num, -1, dim, dim)
    if (_frobenius(projs.sum(axis=1) - ident) > TOL).any():
        raise DistributionError("projectors do not sum to the identity")
    err = projs @ projs
    err -= projs
    idempotence = _frobenius(err)
    np.conjugate(np.swapaxes(projs, -2, -1), out=err)
    err -= projs
    if (idempotence > TOL).any() or (_frobenius(err) > TOL).any():
        raise DistributionError("projector validation failed")
    return projs


def _frobenius(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix in a stack; unlike
    `np.linalg.norm`, it makes no complex temporary of the stack's size."""
    return np.sqrt(np.einsum("...ij,...ij->...", x.real, x.real)
                   + np.einsum("...ij,...ij->...", x.imag, x.imag))


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

    dim = t_mats[0].shape[0]

    def u_of(func) -> np.ndarray:
        acc = np.eye(dim, dtype=complex)
        for v, a in enumerate(func):
            if a:
                acc = acc @ np.linalg.matrix_power(t_mats[v], a)
        return acc

    top = min(host.cap, 2)
    index: dict = {}  # each distinct function, numbered in first-seen order
    for n in range(1, top + 1):
        for tok in host.simplices[n]:
            for f in tok:
                index.setdefault(f, len(index))
    us = np.array([u_of(f) for f in index], dtype=complex
                  ).reshape(len(index), dim, dim)
    comps = _spectral_components(us, d)
    snapped: dict = {}  # each distinct probability, snapped once
    parts = {}  # degree -> (numerators, their denominator)
    for n in range(1, top + 1):
        toks = host.simplices[n]
        idx = np.array([[index[f] for f in tok] for tok in toks],
                       dtype=np.intp).reshape(len(toks), n)
        traces = np.einsum("ij,spji->sp", rho,
                           _joint_projectors(us, comps, idx, d))
        if (np.abs(traces.imag) > TOL).any():
            raise DistributionError("complex probability")
        probs = np.maximum(traces.real, 0.0)
        values, inverse = np.unique(probs, return_inverse=True)
        values = values.tolist()
        try:
            for x in values:
                if x not in snapped:
                    snapped[x] = snap_probability(x)
        except DistributionError:
            _raise_first_snap_error(probs)
        fracs = [snapped[x] for x in values]
        den = lcm(*(f.denominator for f in fracs))
        nums = np.array([f.numerator * (den // f.denominator) for f in fracs],
                        dtype=_exact_dtype(den))[inverse.reshape(probs.shape)]
        if (nums.sum(axis=1) != den).any():
            _raise_first_snap_error(probs)
        parts[n] = (nums, den)
    den = lcm(*(part_den for _, part_den in parts.values()))
    dtype = _exact_dtype(den)
    arrays = {0: np.full((len(host.simplices[0]), 1), den, dtype=dtype)}
    for n, (nums, part_den) in parts.items():
        arrays[n] = nums.astype(dtype) * (den // part_den)
    return SimplicialDistribution._of_arrays(host, d, den, arrays)


def _raise_first_snap_error(probs: np.ndarray) -> None:
    """Raise the error that snapping the rows of probs one by one, outcome
    by outcome, meets first: a value that does not snap, or a row whose
    snapped values do not sum to 1."""
    for row in probs.tolist():
        total = sum(snap_probability(x) for x in row)
        if total != 1:
            raise DistributionError(f"snapped weights sum to {total}")


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
