"""Truncated simplicial sets: nerves, commutative nerves, realizations of
linear systems, quotients, twisted products, and the simplicial maps between
them.

Simplex universes are materialized eagerly per degree (desk scale throughout)
as hashable tokens, sorted by their repr. Face and degeneracy maps are held
only as per-(degree, index) lists of positions in the next degree's
universe, and the simplicial identities are validated on those lists on
construction. Tokens are resolved to positions once, when `build_sset`
materializes a set given by formulas; the token readers (`face`,
`degeneracy`, `SMap.__call__`, `dump_sset`) go through the positions.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .groups import CentralExtensionData, FinGroupJ, GroupCocycle, GroupTable
from .linsys import LinearSystem

BASEPOINT = "*"


def _token_key(tok):
    return repr(tok)


class SimplicialValidationError(ValueError):
    pass


class CochainError(ValueError):
    pass


# ===================================================================== complex

class SimplicialComplex:
    """Vertices plus pairwise non-contained facets; simplices are subsets."""

    def __init__(self, num_vertices: int, facets: Iterable[Iterable[int]]):
        self.num_vertices = num_vertices
        fs = {frozenset(f) for f in facets}
        maximal = [f for f in fs
                   if not any(f < g for g in fs)]
        self.facets = tuple(sorted(maximal, key=lambda f: sorted(f)))
        for f in self.facets:
            if any(not 0 <= v < num_vertices for v in f):
                raise ValueError("facet vertex out of range")

    def contains(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return any(s <= f for f in self.facets)

    def simplices(self) -> list[frozenset]:
        """Every subset of a facet, the empty set included."""
        out = set()
        for f in self.facets:
            members = sorted(f)
            for r in range(len(members) + 1):
                out.update(frozenset(c) for c in itertools.combinations(members, r))
        return sorted(out, key=lambda s: (len(s), sorted(s)))


def complex_of_system(system: LinearSystem) -> SimplicialComplex:
    """Facets are the row supports; the row conditions are enforced here."""
    system.check_row_conditions()
    facets = [frozenset(j for j, e in enumerate(row) if e)
              for row in system.matrix.rows]
    return SimplicialComplex(system.num_cols, facets)


# ================================================================ truncated sset

class TruncatedSSet:
    """Simplicial set up to a dimension cap, with explicit structure maps.

    Every map is held as a list of positions: `face_pos[n][i][k]` is the
    position in `simplices[n - 1]` of the i-th face of `simplices[n][k]`,
    and `deg_pos[n][j][k]` the position in `simplices[n + 1]` of its j-th
    degeneracy. Each degree of simplices is distinct and sorted by
    `_token_key`; `build_sset` makes a set in this form from tokens and
    formulas. The lists are checked to be complete and in range, and every
    simplicial identity is checked on them, on construction.
    """

    def __init__(self, cap: int, simplices: dict[int, Sequence],
                 face_pos: dict[int, list], deg_pos: dict[int, list]):
        self.cap = cap
        self.simplices = {n: tuple(simplices[n]) for n in range(cap + 1)}
        self.face_pos, self.deg_pos = face_pos, deg_pos
        self._nondeg: dict[int, tuple] = {}
        self._index: dict[int, dict] = {}
        self.validate()

    # -- structure maps -----------------------------------------------

    def index(self, n: int) -> dict:
        """Degree-n token -> its position in `simplices[n]`."""
        if n not in self._index:
            toks = self.simplices[n]
            self._index[n] = dict(zip(toks, range(len(toks))))
        return self._index[n]

    def face(self, n: int, i: int, tok):
        return self.simplices[n - 1][self.face_pos[n][i][self.index(n)[tok]]]

    def degeneracy(self, n: int, j: int, tok):
        return self.simplices[n + 1][self.deg_pos[n][j][self.index(n)[tok]]]

    def size(self, n: int) -> int:
        return len(self.simplices[n])

    def is_degenerate(self, n: int, tok) -> bool:
        # tok in im(s_j) iff s_j(d_{j+1} tok) == tok
        k = self.index(n)[tok]
        return any(self.deg_pos[n - 1][j][self.face_pos[n][j + 1][k]] == k
                   for j in range(n))

    def nondegenerate_positions(self, n: int) -> list[int]:
        """Positions of the degree-n simplices in the image of no s_j."""
        degenerate = set()
        for j in range(n):
            back = map(self.deg_pos[n - 1][j].__getitem__,
                       self.face_pos[n][j + 1])
            degenerate.update(k for k, b in enumerate(back) if b == k)
        return [k for k in range(self.size(n)) if k not in degenerate]

    def nondegenerate(self, n: int) -> tuple:
        if n not in self._nondeg:
            self._nondeg[n] = tuple(map(self.simplices[n].__getitem__,
                                        self.nondegenerate_positions(n)))
        return self._nondeg[n]

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Every position list complete and in range, then every simplicial
        identity; the first failure is reported in the order of the loops
        over (kind, degree, simplex, indices)."""
        self._check_ranges()
        failure = _identity_failure(self.cap, self.simplices, self.face_pos,
                                    self.deg_pos)
        if failure is not None:
            raise SimplicialValidationError(failure)

    def _check_ranges(self) -> None:
        for kind, pos, step, degrees in (
                ("face", self.face_pos, -1, range(1, self.cap + 1)),
                ("degeneracy", self.deg_pos, 1, range(self.cap))):
            for n in degrees:
                rows, size = pos.get(n, ()), self.size(n + step)
                if len(rows) != n + 1:
                    raise SimplicialValidationError(
                        f"missing {kind} maps of degree {n}")
                for i, row in enumerate(rows):
                    if len(row) != self.size(n):
                        raise SimplicialValidationError(
                            f"{kind} ({n},{i}) has {len(row)} entries for "
                            f"{self.size(n)} simplices")
                    if row and (min(row) < 0 or max(row) >= size):
                        bad = next(k for k, v in enumerate(row)
                                   if not 0 <= v < size)
                        raise SimplicialValidationError(
                            f"{kind} ({n},{i}) incomplete at "
                            f"{self.simplices[n][bad]!r}")

    def is_connected(self) -> bool:
        if self.size(0) <= 1:
            return True
        adj = [set() for _ in range(self.size(0))]
        for a, b in zip(self.face_pos[1][1], self.face_pos[1][0]):
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in seen]
            seen.update(frontier)
        return len(seen) == self.size(0)


# The coboundary d = sum_i (-1)^i d_i^*, written only here: on value lists
# and as an incidence matrix.

def _faces_into(x: TruncatedSSet, n: int) -> list:
    """x's face lists of degree n, which exist for 1 <= n <= cap."""
    if not 1 <= n <= x.cap:
        raise CochainError(f"the coboundary into degree {n} exceeds the "
                           f"host's dimension cap {x.cap}")
    return x.face_pos[n]


def _face_sum(x: TruncatedSSet, n: int, values: Sequence[int]) -> list[int]:
    """(dv)[k] = sum_i (-1)^i v[face_pos[n][i][k]] for every degree-n
    simplex k, v given per degree-(n - 1) simplex; one list gather per
    face map."""
    rows = _faces_into(x, n)
    total = list(map(values.__getitem__, rows[0]))
    for i in range(1, n + 1):
        total = list(map(operator.sub if i % 2 else operator.add, total,
                         map(values.__getitem__, rows[i])))
    return total


def _face_incidence(x: TruncatedSSet, n: int) -> np.ndarray:
    """The size(n) x size(n - 1) matrix of d into degree n: entry (k, c) is
    the sum of (-1)^i over the faces d_i of the k-th n-simplex at place c
    (so repeated faces add up), by one `np.add.at` over x's face lists."""
    rows = _faces_into(x, n)
    size, width = x.size(n), x.size(n - 1)
    # entries lie in [-n - 1, n + 1]
    out = np.zeros(size * width, dtype=np.int8 if n < 127 else np.int64)
    faces = np.array(rows, dtype=np.intp).reshape(n + 1, size)
    signs = np.array([[(-1) ** i] for i in range(n + 1)], dtype=out.dtype)
    np.add.at(out, faces + width * np.arange(size), signs)
    return out.reshape(size, width)


@functools.cache
def _identities(cap: int) -> tuple:
    """Every simplicial identity up to cap, in blocks (degree, identities):
    dd, ss and ds blocks of each degree, in the order of the loops over
    (kind, degree, simplex, indices) whose first failure `validate`
    reports, so within a block the simplex comes first. An identity is
    (message, left, right), each side a pair (outer, inner) of places in
    `_map_rows`'s list of maps, or None for the identity map."""
    at = {}
    for kind, degrees in (("d", range(1, cap + 1)), ("s", range(cap))):
        for n in degrees:
            for i in range(n + 1):
                at[(kind, n, i)] = len(at)

    def side(outer, inner):
        return at[outer], at[inner]

    blocks = []
    for n in range(2, cap + 1):
        blocks.append((n, [(f"d_{i} d_{j} identity fails at {{}} (deg {n})",
                            side(("d", n - 1, i), ("d", n, j)),
                            side(("d", n - 1, j - 1), ("d", n, i)))
                           for j in range(n + 1) for i in range(j)]))
    for n in range(cap - 1):
        blocks.append((n, [(f"s_{i} s_{j} identity fails at {{}}",
                            side(("s", n + 1, i), ("s", n, j)),
                            side(("s", n + 1, j + 1), ("s", n, i)))
                           for j in range(n + 1) for i in range(j + 1)]))
    for n in range(cap):
        block = []
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    want = side(("s", n - 1, j - 1), ("d", n, i))
                elif i in (j, j + 1):
                    want = None
                else:
                    want = side(("s", n - 1, j), ("d", n, i - 1))
                block.append((f"d_{i} s_{j} identity fails at {{}}",
                              side(("d", n + 1, i), ("s", n, j)), want))
        blocks.append((n, block))
    return tuple(blocks)


def _map_rows(cap: int, face_pos: dict, deg_pos: dict) -> list[list[int]]:
    """Every face map, then every degeneracy, by degree and index."""
    return ([row for n in range(1, cap + 1) for row in face_pos[n]]
            + [row for n in range(cap) for row in deg_pos[n]])


def _identity_failure(cap: int, simplices: dict, face_pos: dict,
                      deg_pos: dict) -> Optional[str]:
    """The first failing simplicial identity's message, or None. Each side
    of an identity is composed over a whole degree by list gathers."""
    rows = _map_rows(cap, face_pos, deg_pos)
    for n, idents in _identities(cap):
        here = list(range(len(simplices[n])))
        first = _first_mismatch(
            (list(map(rows[lo].__getitem__, rows[li])), here if right is None
             else list(map(rows[right[0]].__getitem__, rows[right[1]])))
            for _, (lo, li), right in idents)
        if first is not None:
            return idents[first[1]][0].format(repr(simplices[n][first[0]]))
    return None


def _first_mismatch(pairs: Iterable[tuple[list, list]]
                    ) -> Optional[tuple[int, int]]:
    """The least (place, order) at which a pair's two lists differ."""
    first = None
    for order, (a, b) in enumerate(pairs):
        if a != b:
            k = next(k for k, (u, v) in enumerate(zip(a, b)) if u != v)
            first = min(first or (k, order), (k, order))
    return first


def build_sset(cap: int, degrees: dict[int, Sequence],
               face_fn: Callable[[int, int, object], object],
               deg_fn: Callable[[int, int, object], object]) -> TruncatedSSet:
    """Materialize a formula-defined simplicial set: each degree of tokens
    is sorted by `_token_key` (repeats dropped), and each face and
    degeneracy of each token, given by `face_fn(n, i, tok)` and
    `deg_fn(n, j, tok)`, is written as its position in the next degree. The
    first map, in (kind, degree, index) order, with an image that is not a
    simplex raises, naming the first such token."""
    simplices = {n: tuple(sorted(set(degrees.get(n, ())), key=_token_key))
                 for n in range(cap + 1)}
    index = {n: dict(zip(toks, range(len(toks))))
             for n, toks in simplices.items()}

    def positions(kind: str, fn: Callable, step: int, span: range) -> dict:
        out = {}
        for n in span:
            toks, where = simplices[n], index[n + step]
            out[n] = rows = []
            for i in range(n + 1):
                try:
                    rows.append([where[fn(n, i, t)] for t in toks])
                except KeyError:
                    bad = next(t for t in toks if fn(n, i, t) not in where)
                    raise SimplicialValidationError(
                        f"{kind} ({n},{i}) incomplete at {bad!r}") from None
        return out

    x = TruncatedSSet(cap, simplices,
                      positions("face", face_fn, -1, range(1, cap + 1)),
                      positions("degeneracy", deg_fn, 1, range(cap)))
    x._index.update(index)
    return x


# ===================================================================== smap

class SMap:
    """Simplicial map: per-degree functions commuting with the structure maps.

    Given as token dictionaries, `mapping[n][tok]` the image of a degree-n
    source token, which are read into position lists once and not kept:
    `positions[n][k]` is the position in the target's degree n of the image
    of the source's k-th degree-n simplex, for n up to `cap`."""

    def __init__(self, source: TruncatedSSet, target: TruncatedSSet,
                 mapping: dict[int, dict]):
        self.source = source
        self.target = target
        self.cap = min(source.cap, target.cap)
        self.positions = pos = {}
        for n in range(self.cap + 1):
            fmap = mapping.get(n)
            if fmap is None:
                raise SimplicialValidationError(f"missing degree-{n} mapping")
            index = target.index(n)
            try:
                pos[n] = [index[fmap[tok]] for tok in source.simplices[n]]
            except KeyError:
                bad = next(t for t in source.simplices[n]
                           if t not in fmap or fmap[t] not in index)
                raise SimplicialValidationError(
                    f"map incomplete at degree {n}: {bad!r}") from None
        self.validate()

    def __call__(self, n: int, tok):
        return self.target.simplices[n][
            self.positions[n][self.source.index(n)[tok]]]

    def validate(self) -> None:
        """Commutation with every face and degeneracy, checked on positions
        by list gathers; the first failure in (degree, simplex, index)
        order is reported."""
        src, tgt, pos = self.source, self.target, self.positions
        for kind, sym, degrees, step, src_pos, tgt_pos in (
                ("face", "d", range(1, self.cap + 1), -1, src.face_pos,
                 tgt.face_pos),
                ("degeneracy", "s", range(self.cap), 1, src.deg_pos,
                 tgt.deg_pos)):
            for n in degrees:
                first = _first_mismatch(
                    (list(map(pos[n + step].__getitem__, src_pos[n][i])),
                     list(map(tgt_pos[n][i].__getitem__, pos[n])))
                    for i in range(n + 1))
                if first is not None:
                    raise SimplicialValidationError(
                        f"{kind} commutation fails at "
                        f"{src.simplices[n][first[0]]!r} ({sym}_{first[1]})")

    def is_bijective(self) -> bool:
        return all(len(set(pos)) == len(pos) == self.target.size(n)
                   for n, pos in self.positions.items())


# ================================================================= nerve spaces

def _nerve_face(mul, n: int, i: int, tok: tuple) -> tuple:
    """The face law of nerve-shaped simplicial sets: d_i multiplies entries
    i and i + 1, and d_0 and d_n drop an end."""
    if i == 0:
        return tok[1:]
    if i == n:
        return tok[:-1]
    return tok[:i - 1] + (mul(tok[i - 1], tok[i]),) + tok[i + 1:]


def _nerve_deg(identity, n: int, j: int, tok: tuple) -> tuple:
    """s_j inserts the identity."""
    return tok[:j] + (identity,) + tok[j:]


def nerve(group_or_d, cap: int = 3) -> TruncatedSSet:
    """Nerve NG: n-simplices are n-tuples, faces multiply adjacent entries."""
    if isinstance(group_or_d, int):
        d = group_or_d
        els = tuple(range(d))

        def mul(a, b):
            return (a + b) % d

        identity = 0
    else:
        g: GroupTable = group_or_d
        els = tuple(range(g.n))
        mul = g.mul
        identity = g.identity
    degrees = {n: [tuple(t) for t in itertools.product(els, repeat=n)]
               for n in range(cap + 1)}
    return build_sset(cap, degrees, functools.partial(_nerve_face, mul),
                      functools.partial(_nerve_deg, identity))


def comm_nerve(g: FinGroupJ, d: Optional[int] = None, cap: int = 3) -> TruncatedSSet:
    """Mod-d commutative nerve: pairwise-commuting d-torsion tuples."""
    if d is None:
        d = g.d
    tor = g.torsion(d)
    degrees: dict[int, list] = {0: [()]}
    for n in range(1, cap + 1):
        prev = degrees[n - 1]
        cur = []
        for t in prev:
            for x in tor:
                if all(g.commute(x, y) for y in t):
                    cur.append(t + (x,))
        degrees[n] = cur
    return build_sset(cap, degrees, functools.partial(_nerve_face, g.mul),
                      functools.partial(_nerve_deg, g.identity))


def nzd_sigma(sigma: SimplicialComplex, d: int, cap: int = 3) -> TruncatedSSet:
    """N(Z_d, Sigma): tuples of Z_d-valued functions with joint support in Sigma.

    Built on integer codes: a function's code is its place among the
    degree-1 tokens (by `_token_key`), and an n-simplex's key is its codes
    read as a base-F number (F functions). Simplices are generated in
    lexicographic order of their codes, which is the order of their
    tokens, from each support's list of the functions that keep the joint
    support in Sigma. Faces and degeneracies are found by key arithmetic
    and one position table per degree; the sum of two functions, for the
    inner faces, by the functions' base-d values in one array pass."""
    nv = sigma.num_vertices
    simplices = sigma.simplices()
    in_sigma = {sum(1 << v for v in simp) for simp in simplices}
    funcs = []
    for simp in simplices:
        members = sorted(simp)
        for vals in itertools.product(range(1, d), repeat=len(members)):
            f = [0] * nv
            for v, a in zip(members, vals):
                f[v] = a
            funcs.append(tuple(f))
    funcs.sort(key=_token_key)
    nf = len(funcs)
    supports = [sum(1 << v for v, a in enumerate(f) if a) for f in funcs]
    # per support in Sigma: (code, joint support) of each compatible function
    joins = {m: [(f, m | s) for f, s in enumerate(supports)
                 if m | s in in_sigma] for m in in_sigma}

    tokens, keys, faces_last = {0: [()]}, {0: [0]}, {}
    level = [((), 0, 0)]                # (token, key, support)
    for n in range(1, cap + 1):
        # the parent of a new simplex is its last face
        faces_last[n] = [p for p, (_, _, m) in enumerate(level)
                         for _ in joins.get(m, ())]
        level = [(t + (funcs[f],), key * nf + f, u)
                 for t, key, m in level for f, u in joins.get(m, ())]
        tokens[n] = [t for t, _, _ in level]
        keys[n] = [key for _, key, _ in level]
    position = {n: dict(zip(k, range(len(k)))) for n, k in keys.items()}
    power = [nf ** k for k in range(cap + 2)]
    # d_0 drops the first code, d_n the last
    firsts = {n: [position[n - 1][k % power[n - 1]] for k in keys[n]]
              for n in range(1, cap + 1)}
    # a degree-2 simplex (f, g) has d_2 = f and d_0 = g, degree-1
    # positions being codes; d_1 = f + g
    sums = (_sum_codes(funcs, nv, faces_last[2], firsts[2], d) if cap >= 2
            else [])
    face_pos, deg_pos = {}, {}
    for n in range(1, cap + 1):
        # d_i, 0 < i < n, replaces codes i - 1 and i by their sum
        pos, pairs = position[n - 1], position.get(2)
        middle = []
        for i in range(1, n):
            low, high = power[n - i - 1], power[n - i + 1]
            middle.append([pos[(k // high * nf + sums[pairs[k // low % power[2]]])
                               * low + k % low] for k in keys[n]])
        face_pos[n] = [firsts[n], *middle, faces_last[n]]
    for n in range(cap):
        # s_j puts the code 0 of the zero function at place j; with no
        # simplex in Sigma there is none, and validation reports it
        pos = position[n + 1]
        deg_pos[n] = [[pos.get(k // power[n - j] * power[n - j + 1]
                               + k % power[n - j], -1) for k in keys[n]]
                      for j in range(n + 1)]
    return TruncatedSSet(cap, tokens, face_pos, deg_pos)


def _sum_codes(funcs: list[tuple], nv: int, f: list[int], g: list[int],
               d: int) -> list[int]:
    """The code of funcs[a] + funcs[b] mod d for each pair (a, b) of codes
    in zip(f, g), found by its base-d value (Python ints where int64 could
    overflow)."""
    exact = object if d ** nv >= 2 ** 63 else np.int64
    weights = np.array([d ** (nv - 1 - v) for v in range(nv)], dtype=exact)
    vecs = np.array(funcs, dtype=np.int64).reshape(len(funcs), nv)
    code = {value: c for c, value in enumerate((vecs @ weights).tolist())}
    pairs = vecs[np.array([f, g], dtype=np.intp).reshape(2, -1)]
    return list(map(code.__getitem__,
                    (pairs.sum(axis=0) % d @ weights).tolist()))


# ================================================== wedge, alpha, beta, iota

def wedge_nzd(system: LinearSystem, cap: int = 3
              ) -> tuple[TruncatedSSet, SMap, SMap]:
    """Wedge of one NZ_d circle per row, with alpha into N(Z_d,Sigma) and beta
    into NZ_d."""
    system.check_row_conditions()
    d = system.modulus
    r = system.num_rows
    nzd = nerve(d, cap)

    def canon(i, t):
        return BASEPOINT if all(a == 0 for a in t) else (i, t)

    degrees: dict[int, list] = {}
    for n in range(cap + 1):
        toks = {canon(i, t) for i in range(r) for t in nzd.simplices[n]}
        degrees[n] = list(toks)

    def circle_map(nzd_map):
        # each circle is a copy of NZ_d with its zero tuples at the basepoint
        return lambda n, k, tok: (BASEPOINT if tok == BASEPOINT
                                  else canon(tok[0], nzd_map(n, k, tok[1])))

    wedge = build_sset(cap, degrees, circle_map(nzd.face),
                       circle_map(nzd.degeneracy))

    target = nzd_sigma(complex_of_system(system), d, cap)
    mults = system.row_multiples

    def alpha_of(n, tok):
        if tok == BASEPOINT:
            return (mults[0][0],) * n
        fac, t = tok
        return tuple(mults[fac][a] for a in t)

    def beta_of(n, tok):
        if tok == BASEPOINT:
            return tuple([0] * n)
        fac, t = tok
        return tuple((a * system.rhs[fac]) % d for a in t)

    alpha = SMap(wedge, target,
                 {n: {tok: alpha_of(n, tok) for tok in degrees[n]}
                  for n in range(cap + 1)})
    beta = SMap(wedge, nzd,
                {n: {tok: beta_of(n, tok) for tok in degrees[n]}
                 for n in range(cap + 1)})
    # alpha must embed the wedge: factors meet only at the basepoint
    if any(len(set(pos)) != len(pos) for pos in alpha.positions.values()):
        raise SimplicialValidationError(
            "alpha is not injective (row conditions violated)")
    return wedge, alpha, beta


def iota_map(d: int, g: FinGroupJ, cap: int = 3,
             target: Optional[TruncatedSSet] = None) -> SMap:
    """NZ_d -> N(Z_d,G) induced by 1 -> J."""
    source = nerve(d, cap)
    if target is None:
        target = comm_nerve(g, d, cap)
    mapping = {n: {tok: tuple(g.j_power(a) for a in tok)
                   for tok in source.simplices[n]}
               for n in range(min(source.cap, target.cap) + 1)}
    return SMap(source, target, mapping)


# ========================================================== quotient spaces

def quotient_by_subset(x: TruncatedSSet, subset: dict[int, Iterable]
                       ) -> TruncatedSSet:
    """Collapse a simplicial subset to a basepoint (one per degree).

    Works on x's position lists. The quotient keeps the map it came from:
    `parent` is x, `projection[n][k]` the position in the quotient of x's
    k-th degree-n simplex, and `base_pos[n]` the basepoint's position."""
    inside = {}
    for n in range(x.cap + 1):
        toks, listed = x.simplices[n], list(subset.get(n, ()))
        members = set(listed)
        inside[n] = {k for k, tok in enumerate(toks) if tok in members}
        missing = members.difference(map(toks.__getitem__, inside[n]))
        for tok in listed:
            if tok in missing:
                raise SimplicialValidationError(
                    f"subset member {tok!r} not a degree-{n} simplex")
    for n in range(1, x.cap + 1):
        if not {row[k] for row in x.face_pos[n]
                for k in inside[n]} <= inside[n - 1]:
            raise SimplicialValidationError("subset not closed under face maps")
    for n in range(x.cap):
        if not {row[k] for row in x.deg_pos[n]
                for k in inside[n]} <= inside[n + 1]:
            raise SimplicialValidationError(
                "subset not closed under degeneracy maps")

    # the kept simplices are a subsequence of x's sorted degrees, so they
    # stay sorted; BASEPOINT then sorts first if its key is below theirs,
    # and otherwise that degree is sorted again
    first = _token_key(BASEPOINT)
    degrees, kept, order, base, projection = {}, {}, {}, {}, {}
    for n in range(x.cap + 1):
        kept[n] = [k for k in range(x.size(n)) if k not in inside[n]]
        toks = [BASEPOINT, *map(x.simplices[n].__getitem__, kept[n])]
        rank = range(len(toks))
        order[n] = None                     # the listed order is sorted
        if len(toks) > 1 and not first < _token_key(toks[1]):
            order[n] = sorted(rank, key=lambda k: _token_key(toks[k]))
            toks = [toks[k] for k in order[n]]
            rank = [0] * len(toks)
            for r, k in enumerate(order[n]):
                rank[k] = r
        degrees[n], base[n] = toks, rank[0]
        projection[n] = [base[n]] * x.size(n)
        for k, r in zip(kept[n], rank[1:]):
            projection[n][k] = r

    def collapse(pos: dict, step: int) -> dict:
        """x's maps on the kept simplices, through the projection, with the
        basepoint sent to the basepoint, in the quotient's order."""
        out = {}
        for n, rows in pos.items():
            image = projection[n + step]
            out[n] = []
            for row in rows:
                listed = [base[n + step]] + [image[row[k]] for k in kept[n]]
                if order[n] is not None:
                    listed = [listed[k] for k in order[n]]
                out[n].append(listed)
        return out

    q = TruncatedSSet(x.cap, degrees, collapse(x.face_pos, -1),
                      collapse(x.deg_pos, 1))
    q.parent, q.projection, q.base_pos = x, projection, base
    return q


def wedge_subset_of_nzd(system: LinearSystem, x: TruncatedSSet
                        ) -> dict[int, list]:
    """The simplicial subset of N(Z_d,Sigma) swept out by the row circles."""
    return {n: sorted({t for mults in system.row_multiples
                       for t in itertools.product(mults, repeat=n)})
            for n in range(x.cap + 1)}


def bar_nzd_sigma(system: LinearSystem, cap: int = 3) -> TruncatedSSet:
    """The reduced realization: N(Z_d,Sigma) with the row circles collapsed."""
    x = nzd_sigma(complex_of_system(system), system.modulus, cap)
    return quotient_by_subset(x, wedge_subset_of_nzd(system, x))


def bar_comm_nerve(ext: CentralExtensionData, cap: int = 3) -> TruncatedSSet:
    """Orbit space of the commutative nerve under the degreewise <J>-action."""
    g = ext.group
    pi = ext.projection
    src = comm_nerve(g, g.d, cap)
    q = ext.quotient
    degrees = {n: sorted({tuple(pi[y] for y in tok) for tok in src.simplices[n]})
               for n in range(cap + 1)}
    return build_sset(cap, degrees, functools.partial(_nerve_face, q.mul),
                      functools.partial(_nerve_deg, q.identity))


# ============================================================ twisted products

def check_normalized_cocycle(x: TruncatedSSet, gamma: Callable, d: int) -> None:
    """Normalization on degenerate 2-simplices plus the cocycle identity in
    degree 3 (requires the host cap to reach 3)."""
    values = list(map(gamma, x.simplices[2]))
    for k, edge in enumerate(x.simplices[1]):
        for j in (0, 1):
            if values[x.deg_pos[1][j][k]] % d:
                raise SimplicialValidationError(
                    f"cochain not normalized at s_{j} of {edge!r}")
    if x.cap < 3:
        raise SimplicialValidationError(
            "cocycle check needs degree-3 simplices (cap >= 3)")
    for tok, total in zip(x.simplices[3], _face_sum(x, 3, values)):
        if total % d:
            raise SimplicialValidationError(
                f"2-cochain is not a cocycle at {tok!r}")


def twisted_product(x: TruncatedSSet, gamma: Callable, d: int,
                    cap: int = 2) -> TruncatedSSet:
    """X_gamma: simplices Z_d^n x X_n, d_0 twisted by the cocycle in degree 2."""
    check_normalized_cocycle(x, gamma, d)
    nzd = nerve(d, cap)
    degrees = {n: [(t, tok) for t in itertools.product(range(d), repeat=n)
                   for tok in x.simplices[n]]
               for n in range(cap + 1)}

    def face(n, i, tok):
        alpha, tau = tok
        if i == 0 and n == 2:
            alpha = (alpha[0], (gamma(tau) + alpha[1]) % d)
        elif i == 0 and n > 2:
            raise SimplicialValidationError(
                "twisted product is capped at degree 2")
        return (nzd.face(n, i, alpha), x.face(n, i, tau))

    def deg(n, j, tok):
        alpha, tau = tok
        return (nzd.degeneracy(n, j, alpha), x.degeneracy(n, j, tau))

    return build_sset(cap, degrees, face, deg)


def twisted_iso(ext: CentralExtensionData, cap: int = 2
                ) -> tuple[SMap, TruncatedSSet, GroupCocycle]:
    """The isomorphism X_gamma -> N(Z_d,G) for X = Nbar(Z_d,G), gamma = gamma_phi.

    Degreewise (a_1,..;gbar_1,..)  ->  (J^{-a_1} phi(gbar_1), ...) with a
    -gamma_phi correction in the last slot of degree 2; commutes with the
    twisted d_0 face law exactly, for every d.
    """
    g = ext.group
    d = g.d
    gc = GroupCocycle(ext)
    base = bar_comm_nerve(ext, cap=max(3, cap + 1))
    xg = twisted_product(base, lambda t: gc(t[0], t[1]), d, cap=cap)
    target = comm_nerve(g, d, cap=cap)
    phi = ext.section

    def image(n, tok):
        alpha, tau = tok
        if n == 0:
            return ()
        if n == 1:
            return (g.mul(g.j_power(-alpha[0]), phi[tau[0]]),)
        if n == 2:
            first = g.mul(g.j_power(-alpha[0]), phi[tau[0]])
            corr = (-alpha[1] - gc(tau[0], tau[1])) % d
            second = g.mul(g.j_power(corr), phi[tau[1]])
            return (first, second)
        raise SimplicialValidationError("twisted_iso capped at degree 2")

    mapping = {n: {tok: image(n, tok) for tok in xg.simplices[n]}
               for n in range(cap + 1)}
    smap = SMap(xg, target, mapping)
    if not smap.is_bijective():
        raise SimplicialValidationError("twisted_iso failed bijectivity")
    return smap, xg, gc


# ======================================================== solution-induced maps

def is_solution(t_map: Sequence[int], system: LinearSystem, g: FinGroupJ) -> bool:
    """Torsion, per-facet commutativity, and the product relations for T."""
    d = system.modulus
    if g.d != d:
        return False
    for v in range(system.num_cols):
        if g.power(t_map[v], d) != g.identity:
            return False
    for row in system.matrix.rows:
        supp = [v for v, e in enumerate(row) if e]
        for a, b in itertools.combinations(supp, 2):
            if not g.commute(t_map[a], t_map[b]):
                return False
    for row, bval in zip(system.matrix.rows, system.rhs):
        acc = g.identity
        for v, e in enumerate(row):
            if e:
                acc = g.mul(acc, g.power(t_map[v], e))
        if acc != g.j_power(bval):
            return False
    return True


def map_from_solution(t_map: Sequence[int], system: LinearSystem,
                      g: FinGroupJ, cap: int = 3
                      ) -> tuple[SMap, SMap, SMap, SMap]:
    """The simplicial map f sending a function s to prod_v T(v)^{s(v)}.

    Returns (f, alpha, beta, iota); the square f∘alpha = iota∘beta is verified.
    """
    if not is_solution(t_map, system, g):
        raise ValueError("T is not a solution of the system")
    d = system.modulus
    wedge, alpha, beta = wedge_nzd(system, cap)
    source = alpha.target
    target = comm_nerve(g, d, cap)

    def f1(func):
        acc = g.identity
        for v, a in enumerate(func):
            if a:
                acc = g.mul(acc, g.power(t_map[v], a))
        return acc

    mapping = {n: {tok: tuple(f1(s) for s in tok) for tok in source.simplices[n]}
               for n in range(cap + 1)}
    f = SMap(source, target, mapping)
    iota = iota_map(d, g, cap, target=target)
    for n in range(cap + 1):
        for tok in wedge.simplices[n]:
            if f(n, alpha(n, tok)) != iota(n, beta(n, tok)):
                raise SimplicialValidationError(
                    "solution square f∘alpha = iota∘beta fails")
    return f, alpha, beta, iota


def power_map_s(g: FinGroupJ, d: int, m: int, d_target: Optional[int] = None,
                cap: int = 2) -> SMap:
    """omega_m: N(Z_d,G) -> N(Z_{d'},G), entrywise m-th powers."""
    if d_target is None:
        d_target = d
    source = comm_nerve(g, d, cap)
    target = comm_nerve(g, d_target, cap) if d_target != d else source
    for x in g.torsion(d):
        if g.power(g.power(x, m), d_target) != g.identity:
            raise ValueError(f"m-th powers are not {d_target}-torsion")
    mapping = {n: {tok: tuple(g.power(x, m) for x in tok)
                   for tok in source.simplices[n]}
               for n in range(cap + 1)}
    return SMap(source, target, mapping)


# ========================================================== generated ssets

def cells_sset(cap: int, cells: dict[int, dict[str, tuple]]) -> TruncatedSSet:
    """Simplicial set generated by nondegenerate cells with prescribed faces.

    ``cells[m]`` maps cell names to their (d_0..d_m) faces; a face is either a
    cell name (one dimension down) or an explicit token ``(word, base)`` whose
    strictly-decreasing word of degeneracy indices hits a lower cell. Tokens of
    the resulting space are exactly these normal forms (Eilenberg-Zilber).
    """
    dims = {cname: m for m, entry in cells.items() for cname in entry}

    def wrap(face, m):
        if isinstance(face, tuple) and len(face) == 2 and isinstance(face[0], tuple):
            return face
        if face not in dims:
            raise SimplicialValidationError(f"unknown cell {face!r}")
        return ((), face)

    stored_faces = {}
    for m, entry in cells.items():
        for cname, facelist in entry.items():
            if m == 0:
                if facelist:
                    raise SimplicialValidationError("0-cells have no faces")
                continue
            if len(facelist) != m + 1:
                raise SimplicialValidationError(
                    f"cell {cname} needs {m + 1} faces")
            stored_faces[cname] = tuple(wrap(f, m - 1) for f in facelist)

    def apply_deg(j, tok):
        word, base = tok
        merged = sorted([j] + [(k + 1 if k >= j else k) for k in word],
                        reverse=True)
        return (tuple(merged), base)

    def apply_face(i, tok):
        word, base = tok
        if not word:
            return stored_faces[base][i]
        j, rest = word[0], (word[1:], base)
        if i < j:
            return apply_deg(j - 1, apply_face(i, rest))
        if i in (j, j + 1):
            return rest
        return apply_deg(j, apply_face(i - 1, rest))

    degrees: dict[int, list] = {}
    for n in range(cap + 1):
        toks = []
        for cname, m in dims.items():
            if m <= n:
                for combo in itertools.combinations(range(n), n - m):
                    toks.append((tuple(sorted(combo, reverse=True)), cname))
        degrees[n] = toks

    return build_sset(cap, degrees,
                      lambda n, i, t: apply_face(i, t),
                      lambda n, j, t: apply_deg(j, t))


def load_sset(text: str) -> TruncatedSSet:
    """Load the explicit JSON schema; identities are validated.

    Simplex ids are JSON strings, like the table keys that look them up. A
    missing key, a key not of its form, a value of the wrong JSON type, a
    negative cap, a repeated object key or simplex id and text nested too
    deeply to decode raise ValueError naming what is wrong. Every face and
    degeneracy table up to the cap is looked for before any degree is
    built, so the first one missing is reported whatever the cap."""
    try:
        data = json.loads(text, object_pairs_hook=lambda pairs: _unique(
            pairs, "a JSON object has the key"))
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None
    _json_shape(data, "object", "the top level")
    for key in ("cap", "simplices"):
        if key not in data:
            raise ValueError(f"the top level has no {key!r} key")
    cap = _json_shape(data["cap"], "integer", "'cap'")
    if cap < 0:
        raise ValueError(f"'cap' must be at least 0, got {cap}")
    degrees = {}
    for k, toks in _json_shape(data["simplices"], "object",
                               "'simplices'").items():
        where = f"'simplices'[{k!r}]"
        ids = [_json_shape(t, "string", f"an entry of {where}")
               for t in _json_shape(toks, "array", where)]
        degrees[_int_key(k, "n", "'simplices'")[0]] = list(
            _unique(zip(ids, ids), f"{where} lists"))
    tables: dict = {"faces": {}, "degeneracies": {}}
    for name, out in tables.items():
        for key, table in _json_shape(data.get(name, {}), "object",
                                      repr(name)).items():
            where = f"{name!r}[{key!r}]"
            table = _json_shape(table, "object", where)
            out[_int_key(key, "n,i", repr(name))] = {
                tok: _json_shape(v, "string", f"a value of {where}")
                for tok, v in table.items()}
    for kind, name, span in (("face", "faces", range(1, cap + 1)),
                             ("degeneracy", "degeneracies", range(cap))):
        for n in span:
            for i in range(n + 1):
                if (n, i) not in tables[name]:
                    raise SimplicialValidationError(
                        f"missing {kind} map ({n},{i})")
    no_image = object()

    def lookup(name):
        return lambda n, i, tok: tables[name][(n, i)].get(tok, no_image)

    return build_sset(cap, degrees, lookup("faces"), lookup("degeneracies"))


def _unique(pairs: Iterable[tuple], what: str) -> dict:
    """dict(pairs); a key given twice raises ValueError `<what> <key> twice`."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what} {key!r} twice")
        out[key] = value
    return out


def _int_key(key: str, form: str, where: str) -> tuple[int, ...]:
    """The integers of a JSON key of the form `form` ("n" or "n,i"), written
    as `str` writes them, so that no two keys name one degree or map."""
    try:
        values = tuple(map(int, key.split(",")))
    except ValueError:
        values = ()
    if len(values) != form.count(",") + 1 or ",".join(map(str, values)) != key:
        raise ValueError(f"{where} key {key!r} is not of the form {form}")
    return values


def _json_shape(value, want: str, where: str):
    """value, after checking that its JSON type is `want`."""
    kind = ("object" if isinstance(value, dict) else
            "array" if isinstance(value, list) else
            "string" if isinstance(value, str) else
            "boolean" if isinstance(value, bool) else
            "integer" if isinstance(value, int) else
            "number" if isinstance(value, float) else "null")
    if kind != want:
        raise ValueError(f"{where} must be a JSON {want}, "
                         f"got {'an' if kind[0] in 'aeiou' else 'a'} {kind}")
    return value


def dump_sset(x: TruncatedSSet) -> str:
    def tables(pos: dict, step: int) -> dict:
        return {f"{n},{i}": {repr(t): repr(x.simplices[n + step][k])
                             for t, k in zip(x.simplices[n], row)}
                for n, rows in pos.items() for i, row in enumerate(rows)}

    data = {
        "cap": x.cap,
        "simplices": {str(n): [repr(t) for t in x.simplices[n]]
                      for n in range(x.cap + 1)},
        "faces": tables(x.face_pos, -1),
        "degeneracies": tables(x.deg_pos, 1),
    }
    return json.dumps(data, indent=1, sort_keys=True)


def random_truncated_sset(rng, max_nondeg: int = 12) -> TruncatedSSet:
    """A random reduced 2-truncated simplicial set (single vertex)."""
    n_edges = rng.randrange(1, max(2, (max_nondeg - 1) // 2))
    n_tris = rng.randrange(0, max_nondeg - n_edges)
    edges = [f"e{k}" for k in range(n_edges)]
    cells = {0: {"v": ()}, 1: {e: ("v", "v") for e in edges}, 2: {}}
    choices = [((), e) for e in edges] + [((0,), "v")]
    for t in range(n_tris):
        cells[2][f"t{t}"] = tuple(rng.choice(choices) for _ in range(3))
    return cells_sset(3, cells)


# ============================================================= K33 fixture

K33_EDGE_LABELS = ("x", "y", "z1", "z2", "z3", "t1", "t2", "s1", "s2")
K33_TRIANGLES = ("sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "sigma6")

# orientation classes of the fundamental cycle (checked by test and replay)
K33_FUNDAMENTAL_CYCLE = {"sigma1": 1, "sigma2": -1, "sigma3": 1,
                         "sigma4": -1, "sigma5": 1, "sigma6": -1}


@dataclass(frozen=True)
class K33Fixture:
    space: TruncatedSSet
    edges: dict        # label -> degree-1 token
    triangles: dict    # label -> degree-2 token

    def edge_of_token(self, tok):
        for lbl, t in self.edges.items():
            if t == tok:
                return lbl
        return None


def k33_torus_fixture(cap: int = 3) -> K33Fixture:
    """Triangulated torus dual to K_{3,3}: 3 vertices, 9 edges, 6 triangles.

    Edge directions: x, y loops at A; z1: A->B, z2: B->C, z3: C->A;
    t1, s1: B->A; t2, s2: A->C. Triangle faces (d0, d1, d2):
    sigma1 (t1, x, z1), sigma2 (t2, z2, t1), sigma3 (z3, y, t2),
    sigma4 (s1, y, z1), sigma5 (s2, z2, s1), sigma6 (z3, x, s2).
    Each edge lies in exactly two triangles and the triangle adjacency graph
    is K_{3,3} with parts {sigma1, sigma3, sigma5} and {sigma2, sigma4, sigma6}.
    """
    cells = {
        0: {"A": (), "B": (), "C": ()},
        1: {
            "x": ("A", "A"), "y": ("A", "A"),
            "z1": ("B", "A"), "z2": ("C", "B"), "z3": ("A", "C"),
            "t1": ("A", "B"), "t2": ("C", "A"),
            "s1": ("A", "B"), "s2": ("C", "A"),
        },
        2: {
            "sigma1": ("t1", "x", "z1"),
            "sigma2": ("t2", "z2", "t1"),
            "sigma3": ("z3", "y", "t2"),
            "sigma4": ("s1", "y", "z1"),
            "sigma5": ("s2", "z2", "s1"),
            "sigma6": ("z3", "x", "s2"),
        },
    }
    space = cells_sset(cap, cells)
    edges = {lbl: ((), lbl) for lbl in K33_EDGE_LABELS}
    tris = {lbl: ((), lbl) for lbl in K33_TRIANGLES}
    return K33Fixture(space, edges, tris)


def k33_commutator_replay() -> tuple[dict[str, int], list[str]]:
    """Mechanically replay the commutator computation in the fixture.

    Starting from e_x e_y e_x^-1 e_y^-1, each step rewrites via one triangle's
    relation e_{d1} = e_{d2} e_{d0} e_1^{gamma} (checked against the fixture's
    face data) or cancels adjacent inverse letters. Returns the accumulated
    e_1-exponent as a coefficient vector over the six triangles, plus a trace.
    """
    fx = k33_torus_fixture()
    sp = fx.space

    def tri_faces(lbl):
        tok = fx.triangles[lbl]
        return tuple(fx.edge_of_token(sp.face(2, i, tok)) for i in range(3))

    word: list[tuple[str, int]] = [("x", 1), ("y", 1), ("x", -1), ("y", -1)]
    coeff = {lbl: 0 for lbl in K33_TRIANGLES}
    trace = []

    def substitute_letter(pos, tri):
        """Replace e_{d1 tri}^±1 at word[pos] using the triangle relation."""
        d0, d1, d2 = tri_faces(tri)
        letter, exp = word[pos]
        if letter != d1:
            raise SimplicialValidationError(
                f"{tri} cannot rewrite {letter} (d1 is {d1})")
        if exp == 1:
            word[pos:pos + 1] = [(d2, 1), (d0, 1)]
            coeff[tri] += 1
        else:
            word[pos:pos + 1] = [(d0, -1), (d2, -1)]
            coeff[tri] -= 1
        trace.append(f"{letter}^{exp} -> via {tri}: {word}")

    def substitute_pair(pos, tri):
        """Replace e_{d2}e_{d0} (or its inverse) at word[pos:pos+2] by e_{d1}."""
        d0, d1, d2 = tri_faces(tri)
        (l1, e1), (l2, e2) = word[pos], word[pos + 1]
        if (l1, e1, l2, e2) == (d2, 1, d0, 1):
            word[pos:pos + 2] = [(d1, 1)]
            coeff[tri] -= 1
        elif (l1, e1, l2, e2) == (d0, -1, d2, -1):
            word[pos:pos + 2] = [(d1, -1)]
            coeff[tri] += 1
        else:
            raise SimplicialValidationError(
                f"{tri} cannot rewrite pair {word[pos:pos + 2]}")
        trace.append(f"pair via {tri}: {word}")

    def cancel():
        changed = True
        while changed:
            changed = False
            for k in range(len(word) - 1):
                if word[k][0] == word[k + 1][0] and word[k][1] == -word[k + 1][1]:
                    del word[k:k + 2]
                    changed = True
                    break
        trace.append(f"cancel: {word}")

    substitute_letter(0, "sigma1")   # e_x = e_z1 e_t1 e1^{g1}
    substitute_letter(2, "sigma3")   # e_y = e_t2 e_z3 e1^{g3}
    substitute_letter(4, "sigma6")   # e_x^-1 via sigma6
    substitute_letter(6, "sigma4")   # e_y^-1 via sigma4
    cancel()                         # the z3 pair
    substitute_pair(1, "sigma2")     # e_t1 e_t2 = e_z2 e1^{-g2}
    substitute_pair(2, "sigma5")     # (e_s1 e_s2)^-1 = e_z2^-1 e1^{+g5}
    cancel()
    if word:
        raise SimplicialValidationError(f"replay did not close: {word}")
    return coeff, trace
