"""Truncated simplicial sets: nerves, commutative nerves, realizations of
linear systems, quotients, twisted products, and the simplicial maps between
them.

Simplex universes are materialized eagerly per degree (desk scale throughout)
as hashable tokens; face and degeneracy maps are stored as per-(degree, index)
dictionaries and the simplicial identities are validated on construction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .groups import CentralExtensionData, FinGroupJ, GroupCocycle, GroupTable
from .linsys import LinearSystem

BASEPOINT = "*"


def _token_key(tok):
    return repr(tok)


class SimplicialValidationError(ValueError):
    pass


# ===================================================================== complex

class SimplicialComplex:
    """Vertices plus pairwise non-contained facets; simplices are subsets."""

    def __init__(self, num_vertices: int, facets: Iterable[Iterable[int]],
                 vertex_labels: Optional[Sequence] = None):
        self.num_vertices = num_vertices
        self.vertex_labels = (tuple(vertex_labels) if vertex_labels is not None
                              else tuple(range(num_vertices)))
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
    return SimplicialComplex(system.num_cols, facets,
                             vertex_labels=system.col_labels)


# ================================================================ truncated sset

class TruncatedSSet:
    """Simplicial set up to a dimension cap, with explicit structure maps."""

    def __init__(self, cap: int, simplices: dict[int, Sequence],
                 faces: dict[tuple[int, int], dict],
                 degeneracies: dict[tuple[int, int], dict],
                 name: str = "", basepoint=None, ordered: bool = False):
        """With ordered, each degree of simplices is already distinct and
        sorted by `_token_key`, and is kept as given."""
        self.cap = cap
        self.simplices = {n: tuple(simplices.get(n, ())) if ordered else
                          tuple(sorted(set(simplices.get(n, ())),
                                       key=_token_key))
                          for n in range(cap + 1)}
        self.faces = faces
        self.degeneracies = degeneracies
        self.name = name or "sset"
        self.basepoint = basepoint
        self._nondeg: dict[int, tuple] = {}
        self.validate()

    # -- structure maps -----------------------------------------------

    def face(self, n: int, i: int, tok):
        return self.faces[(n, i)][tok]

    def degeneracy(self, n: int, j: int, tok):
        return self.degeneracies[(n, j)][tok]

    def size(self, n: int) -> int:
        return len(self.simplices[n])

    def is_degenerate(self, n: int, tok) -> bool:
        # tok in im(s_j) iff s_j(d_{j+1} tok) == tok
        if n == 0:
            return False
        for j in range(n):
            if self.degeneracy(n - 1, j, self.face(n, j + 1, tok)) == tok:
                return True
        return False

    def nondegenerate(self, n: int) -> tuple:
        if n not in self._nondeg:
            self._nondeg[n] = tuple(t for t in self.simplices[n]
                                    if not self.is_degenerate(n, t))
        return self._nondeg[n]

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * len(self.nondegenerate(n))
                   for n in range(self.cap + 1))

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        for n in range(1, self.cap + 1):
            members = set(self.simplices[n - 1])
            for i in range(n + 1):
                fmap = self.faces.get((n, i))
                if fmap is None:
                    raise SimplicialValidationError(f"missing face map ({n},{i})")
                for tok in self.simplices[n]:
                    if tok not in fmap or fmap[tok] not in members:
                        raise SimplicialValidationError(
                            f"face ({n},{i}) incomplete at {tok!r}")
        for n in range(self.cap):
            members = set(self.simplices[n + 1])
            for j in range(n + 1):
                smap = self.degeneracies.get((n, j))
                if smap is None:
                    raise SimplicialValidationError(
                        f"missing degeneracy map ({n},{j})")
                for tok in self.simplices[n]:
                    if tok not in smap or smap[tok] not in members:
                        raise SimplicialValidationError(
                            f"degeneracy ({n},{j}) incomplete at {tok!r}")
        # simplicial identities, on the maps bound once per degree
        face, deg = self.faces, self.degeneracies
        for n in range(2, self.cap + 1):
            pairs = [(i, j, face[(n, j)], face[(n - 1, i)], face[(n, i)],
                      face[(n - 1, j - 1)])
                     for j in range(n + 1) for i in range(j)]
            for tok in self.simplices[n]:
                for i, j, d_j, d_i_low, d_i, d_j1_low in pairs:
                    if d_i_low[d_j[tok]] != d_j1_low[d_i[tok]]:
                        raise SimplicialValidationError(
                            f"d_{i} d_{j} identity fails at {tok!r} (deg {n})")
        for n in range(self.cap - 1):
            pairs = [(i, j, deg[(n, j)], deg[(n + 1, i)], deg[(n, i)],
                      deg[(n + 1, j + 1)])
                     for j in range(n + 1) for i in range(j + 1)]
            for tok in self.simplices[n]:
                for i, j, s_j, s_i_up, s_i, s_j1_up in pairs:
                    if s_i_up[s_j[tok]] != s_j1_up[s_i[tok]]:
                        raise SimplicialValidationError(
                            f"s_{i} s_{j} identity fails at {tok!r}")
        for n in range(self.cap):
            # d_i s_j = s_{j-1} d_i (i < j), identity (i = j, j + 1),
            # s_j d_{i-1} (i > j + 1): the wanted side as outer(inner(tok))
            checks = []
            for j in range(n + 1):
                for i in range(n + 2):
                    if i < j:
                        outer, inner = deg[(n - 1, j - 1)], face[(n, i)]
                    elif i in (j, j + 1):
                        outer = inner = None
                    else:
                        outer, inner = deg[(n - 1, j)], face[(n, i - 1)]
                    checks.append((i, j, deg[(n, j)], face[(n + 1, i)],
                                   outer, inner))
            for tok in self.simplices[n]:
                for i, j, s_j, d_i, outer, inner in checks:
                    want = tok if outer is None else outer[inner[tok]]
                    if d_i[s_j[tok]] != want:
                        raise SimplicialValidationError(
                            f"d_{i} s_{j} identity fails at {tok!r}")

    def is_connected(self) -> bool:
        verts = list(self.simplices[0])
        if len(verts) <= 1:
            return True
        adj = {v: set() for v in verts}
        for e in self.simplices[1]:
            a, b = self.face(1, 1, e), self.face(1, 0, e)
            adj[a].add(b)
            adj[b].add(a)
        seen = {verts[0]}
        frontier = [verts[0]]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in seen]
            seen.update(frontier)
        return len(seen) == len(verts)


def build_sset(cap: int, degrees: dict[int, Sequence],
               face_fn: Callable[[int, int, object], object],
               deg_fn: Callable[[int, int, object], object],
               name: str = "", basepoint=None) -> TruncatedSSet:
    """Materialize a formula-defined simplicial set into explicit dictionaries."""
    faces = {}
    degeneracies = {}
    for n in range(1, cap + 1):
        for i in range(n + 1):
            faces[(n, i)] = {tok: face_fn(n, i, tok) for tok in degrees[n]}
    for n in range(cap):
        for j in range(n + 1):
            degeneracies[(n, j)] = {tok: deg_fn(n, j, tok) for tok in degrees[n]}
    return TruncatedSSet(cap, degrees, faces, degeneracies, name=name,
                         basepoint=basepoint)


# ===================================================================== smap

class SMap:
    """Simplicial map: per-degree functions commuting with the structure maps."""

    def __init__(self, source: TruncatedSSet, target: TruncatedSSet,
                 mapping: dict[int, dict], name: str = ""):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.name = name or "smap"
        self.cap = min(source.cap, target.cap)
        self.validate()

    def __call__(self, n: int, tok):
        return self.mapping[n][tok]

    def validate(self) -> None:
        for n in range(self.cap + 1):
            fmap = self.mapping.get(n)
            if fmap is None:
                raise SimplicialValidationError(f"missing degree-{n} mapping")
            members = set(self.target.simplices[n])
            for tok in self.source.simplices[n]:
                if tok not in fmap or fmap[tok] not in members:
                    raise SimplicialValidationError(
                        f"map incomplete at degree {n}: {tok!r}")
        for n in range(1, self.cap + 1):
            for tok in self.source.simplices[n]:
                img = self.mapping[n][tok]
                for i in range(n + 1):
                    if self.mapping[n - 1][self.source.face(n, i, tok)] != \
                            self.target.face(n, i, img):
                        raise SimplicialValidationError(
                            f"face commutation fails at {tok!r} (d_{i})")
        for n in range(self.cap):
            for tok in self.source.simplices[n]:
                img = self.mapping[n][tok]
                for j in range(n + 1):
                    if self.mapping[n + 1][self.source.degeneracy(n, j, tok)] != \
                            self.target.degeneracy(n, j, img):
                        raise SimplicialValidationError(
                            f"degeneracy commutation fails at {tok!r} (s_{j})")

    def is_bijective(self) -> bool:
        for n in range(self.cap + 1):
            imgs = [self.mapping[n][t] for t in self.source.simplices[n]]
            if len(set(imgs)) != len(imgs) or len(imgs) != self.target.size(n):
                return False
        return True


# ================================================================= nerve spaces

def _nerve_face(mul, n: int, i: int, tok: tuple) -> tuple:
    if i == 0:
        return tok[1:]
    if i == n:
        return tok[:-1]
    return tok[:i - 1] + (mul(tok[i - 1], tok[i]),) + tok[i + 1:]


def _nerve_deg(identity, n: int, j: int, tok: tuple) -> tuple:
    return tok[:j] + (identity,) + tok[j:]


def _nerve_sset(cap: int, degrees: dict[int, Sequence], mul, identity,
                name: str) -> TruncatedSSet:
    """A nerve-shaped simplicial set: d_i multiplies entries i and i + 1
    (d_0 and d_n drop an end), s_j inserts the identity."""
    faces = {(n, i): {t: _nerve_face(mul, n, i, t) for t in degrees[n]}
             for n in range(1, cap + 1) for i in range(n + 1)}
    degeneracies = {(n, j): {t: _nerve_deg(identity, n, j, t)
                             for t in degrees[n]}
                    for n in range(cap) for j in range(n + 1)}
    return TruncatedSSet(cap, degrees, faces, degeneracies, name=name,
                         basepoint=())


def nerve(group_or_d, cap: int = 3) -> TruncatedSSet:
    """Nerve NG: n-simplices are n-tuples, faces multiply adjacent entries."""
    if isinstance(group_or_d, int):
        d = group_or_d
        els = tuple(range(d))

        def mul(a, b):
            return (a + b) % d

        identity = 0
        name = f"N(Z_{d})"
    else:
        g: GroupTable = group_or_d
        els = tuple(range(g.n))
        mul = g.mul
        identity = g.identity
        name = f"N({g.name})"
    degrees = {n: [tuple(t) for t in itertools.product(els, repeat=n)]
               for n in range(cap + 1)}
    return _nerve_sset(cap, degrees, mul, identity, name)


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
    return _nerve_sset(cap, degrees, g.mul, g.identity, f"N(Z_{d},{g.name})")


def nzd_sigma(sigma: SimplicialComplex, d: int, cap: int = 3) -> TruncatedSSet:
    """N(Z_d, Sigma): tuples of Z_d-valued functions with joint support in Sigma."""
    nv = sigma.num_vertices
    simplices = sigma.simplices()
    funcs = []
    for simp in simplices:
        members = sorted(simp)
        for vals in itertools.product(range(1, d), repeat=len(members)):
            f = [0] * nv
            for v, a in zip(members, vals):
                f[v] = a
            funcs.append(tuple(f))
    funcs = sorted(set(funcs))
    zero = tuple([0] * nv)
    supports = [(f, frozenset(itertools.compress(itertools.count(), f)))
                for f in funcs]

    in_sigma = set(simplices)
    degrees: dict[int, list] = {0: [()]}
    # grow tuples tracking the union support
    level: list[tuple[tuple, frozenset]] = [((), frozenset())]
    for n in range(1, cap + 1):
        nxt = []
        for t, supp in level:
            for f, f_supp in supports:
                u = supp | f_supp
                if u in in_sigma:
                    nxt.append((t + (f,), u))
        level = nxt
        degrees[n] = [t for t, _ in level]

    def mul(a, b):
        return tuple((x + y) % d for x, y in zip(a, b))

    return _nerve_sset(cap, degrees, mul, zero, f"N(Z_{d},Sigma)")


# ================================================== wedge, alpha, beta, iota

def row_function(system: LinearSystem, i: int, a: int = 1) -> tuple:
    """The function a*A_i on the vertex set."""
    return system.row_multiples[i][a % system.modulus]


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

    def circle_map(maps):
        # each circle is a copy of NZ_d with its zero tuples at the basepoint
        return lambda n, k, tok: (BASEPOINT if tok == BASEPOINT
                                  else canon(tok[0], maps[(n, k)][tok[1]]))

    wedge = build_sset(cap, degrees, circle_map(nzd.faces),
                       circle_map(nzd.degeneracies),
                       name=f"wedge_{r}(NZ_{d})", basepoint=BASEPOINT)

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
                  for n in range(cap + 1)}, name="alpha")
    beta = SMap(wedge, nzd,
                {n: {tok: beta_of(n, tok) for tok in degrees[n]}
                 for n in range(cap + 1)}, name="beta")
    # alpha must embed the wedge: factors meet only at the basepoint
    for n in range(cap + 1):
        imgs = [alpha(n, t) for t in degrees[n]]
        if len(set(imgs)) != len(imgs):
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
    return SMap(source, target, mapping, name="iota")


# ========================================================== quotient spaces

def quotient_by_subset(x: TruncatedSSet, subset: dict[int, Iterable]
                       ) -> TruncatedSSet:
    """Collapse a simplicial subset to a basepoint (one per degree)."""
    sub = {n: set(subset.get(n, ())) for n in range(x.cap + 1)}
    for n in range(x.cap + 1):
        for tok in sub[n] - set(x.simplices[n]):
            raise SimplicialValidationError(
                    f"subset member {tok!r} not a degree-{n} simplex")
    for n in range(1, x.cap + 1):
        for tok in sub[n]:
            for i in range(n + 1):
                if x.face(n, i, tok) not in sub[n - 1]:
                    raise SimplicialValidationError(
                        "subset not closed under face maps")
    for n in range(x.cap):
        for tok in sub[n]:
            for j in range(n + 1):
                if x.degeneracy(n, j, tok) not in sub[n + 1]:
                    raise SimplicialValidationError(
                        "subset not closed under degeneracy maps")

    degrees = {n: [BASEPOINT] + [t for t in x.simplices[n] if t not in sub[n]]
               for n in range(x.cap + 1)}
    # the kept simplices are a subsequence of x's sorted degrees, so they
    # stay sorted; BASEPOINT then sorts first if its key is below theirs
    first = _token_key(BASEPOINT)
    ordered = all(len(deg) == 1 or first < _token_key(deg[1])
                  for deg in degrees.values())
    faces = {(n, i): {BASEPOINT: BASEPOINT,
                      **{t: BASEPOINT if v in sub[n - 1] else v
                         for t, v in x.faces[(n, i)].items() if t not in sub[n]}}
             for n in range(1, x.cap + 1) for i in range(n + 1)}
    # no value needs collapsing: s_j t in the subset puts t = d_j s_j t there
    degeneracies = {(n, j): {BASEPOINT: BASEPOINT,
                             **{t: v for t, v in x.degeneracies[(n, j)].items()
                                if t not in sub[n]}}
                    for n in range(x.cap) for j in range(n + 1)}
    return TruncatedSSet(x.cap, degrees, faces, degeneracies,
                         name=f"{x.name}/subset", basepoint=BASEPOINT,
                         ordered=ordered)


def wedge_subset_of_nzd(system: LinearSystem, x: TruncatedSSet
                        ) -> dict[int, list]:
    """The simplicial subset of N(Z_d,Sigma) swept out by the row circles."""
    return {n: sorted({t for mults in system.row_multiples
                       for t in itertools.product(mults, repeat=n)})
            for n in range(x.cap + 1)}


def bar_nzd_sigma(system: LinearSystem, cap: int = 3) -> TruncatedSSet:
    """The reduced realization: N(Z_d,Sigma) with the row circles collapsed."""
    x = nzd_sigma(complex_of_system(system), system.modulus, cap)
    q = quotient_by_subset(x, wedge_subset_of_nzd(system, x))
    q.name = f"Nbar(Z_{system.modulus},Sigma)"
    return q


def bar_comm_nerve(ext: CentralExtensionData, cap: int = 3) -> TruncatedSSet:
    """Orbit space of the commutative nerve under the degreewise <J>-action."""
    g = ext.group
    pi = ext.projection
    src = comm_nerve(g, g.d, cap)
    q = ext.quotient
    degrees = {n: sorted({tuple(pi[y] for y in tok) for tok in src.simplices[n]})
               for n in range(cap + 1)}
    return _nerve_sset(cap, degrees, q.mul, q.identity,
                       f"Nbar(Z_{g.d},{g.name})")


# ============================================================ twisted products

def check_normalized_cocycle(x: TruncatedSSet, gamma: Callable, d: int) -> None:
    """Normalization on degenerate 2-simplices plus the cocycle identity in
    degree 3 (requires the host cap to reach 3)."""
    for edge in x.simplices[1]:
        for j in (0, 1):
            if gamma(x.degeneracy(1, j, edge)) % d:
                raise SimplicialValidationError(
                    f"cochain not normalized at s_{j} of {edge!r}")
    if x.cap < 3:
        raise SimplicialValidationError(
            "cocycle check needs degree-3 simplices (cap >= 3)")
    for tok in x.simplices[3]:
        total = 0
        for i in range(4):
            total += (-1) ** i * gamma(x.face(3, i, tok))
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

    return build_sset(cap, degrees, face, deg,
                      name=f"({x.name})_gamma",
                      basepoint=((), x.basepoint) if x.basepoint is not None else None)


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
    smap = SMap(xg, target, mapping, name="twisted_iso")
    if not smap.is_bijective():
        raise SimplicialValidationError("twisted_iso failed bijectivity")
    return smap, xg, gc


# ================================================================== E-space

def e_space(g: FinGroupJ, d: Optional[int] = None, cap: int = 2) -> TruncatedSSet:
    """E(Z_d,G): simplices G x N(Z_d,G)_n; the free-coordinate absorbs d_i."""
    if d is None:
        d = g.d
    nerve_part = comm_nerve(g, d, cap)
    degrees = {n: [(g0,) + tok for g0 in range(g.n)
                   for tok in nerve_part.simplices[n]]
               for n in range(cap + 1)}
    # the décalage: d_i and s_j in degree n are d_{i+1} and s_{j+1} in n + 1
    return build_sset(cap, degrees,
                      lambda n, i, t: _nerve_face(g.mul, n + 1, i + 1, t),
                      lambda n, j, t: _nerve_deg(g.identity, n + 1, j + 1, t),
                      name=f"E(Z_{d},{g.name})")


def e_space_projection(e: TruncatedSSet, n_target: TruncatedSSet) -> SMap:
    mapping = {n: {tok: tok[1:] for tok in e.simplices[n]}
               for n in range(min(e.cap, n_target.cap) + 1)}
    return SMap(e, n_target, mapping, name="p_d")


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
    f = SMap(source, target, mapping, name="f_T")
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
    return SMap(source, target, mapping, name=f"omega_{m}")


# ========================================================== generated ssets

def cells_sset(cap: int, cells: dict[int, dict[str, tuple]],
               name: str = "") -> TruncatedSSet:
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
                      lambda n, j, t: apply_deg(j, t),
                      name=name or "cells")


def load_sset(data) -> TruncatedSSet:
    """Load the explicit JSON schema; identities are validated.

    A value of the wrong JSON type raises ValueError naming its key."""
    if isinstance(data, str):
        data = json.loads(data)
    _json_shape(data, ("object",), "the top level")
    cap = _json_shape(data["cap"], ("integer",), "'cap'")
    degrees = {}
    for k, toks in _json_shape(data["simplices"], ("object",),
                               "'simplices'").items():
        where = f"'simplices'[{k!r}]"
        degrees[int(k)] = [_json_shape(t, _TOKEN_KINDS, f"an entry of {where}")
                           for t in _json_shape(toks, ("array",), where)]
    for n in range(cap + 1):
        degrees.setdefault(n, [])
    maps: dict = {"faces": {}, "degeneracies": {}}
    for name, out in maps.items():
        for key, table in _json_shape(data.get(name, {}), ("object",),
                                      repr(name)).items():
            where = f"{name!r}[{key!r}]"
            n, i = (int(p) for p in key.split(","))
            table = _json_shape(table, ("object",), where)
            out[(n, i)] = {tok: _json_shape(v, _TOKEN_KINDS,
                                            f"a value of {where}")
                           for tok, v in table.items()}
    return TruncatedSSet(cap, degrees, maps["faces"], maps["degeneracies"],
                         name="loaded")


# JSON values that can name a simplex (hashable once loaded)
_TOKEN_KINDS = ("string", "integer", "number", "boolean", "null")


def _json_shape(value, kinds: tuple, where: str):
    """value, after checking that its JSON type is one of `kinds`."""
    kind = ("object" if isinstance(value, dict) else
            "array" if isinstance(value, list) else
            "string" if isinstance(value, str) else
            "boolean" if isinstance(value, bool) else
            "integer" if isinstance(value, int) else
            "number" if isinstance(value, float) else "null")
    if kind not in kinds:
        raise ValueError(f"{where} must be a JSON {' or '.join(kinds)}, "
                         f"got {'an' if kind[0] in 'aeiou' else 'a'} {kind}")
    return value


def dump_sset(x: TruncatedSSet) -> str:
    data = {
        "cap": x.cap,
        "simplices": {str(n): [repr(t) for t in x.simplices[n]]
                      for n in range(x.cap + 1)},
        "faces": {f"{n},{i}": {repr(t): repr(v) for t, v in x.faces[(n, i)].items()}
                  for (n, i) in sorted(x.faces)},
        "degeneracies": {f"{n},{j}": {repr(t): repr(v)
                                      for t, v in x.degeneracies[(n, j)].items()}
                         for (n, j) in sorted(x.degeneracies)},
    }
    return json.dumps(data, indent=1, sort_keys=True)


def random_truncated_sset(rng, d: int, max_nondeg: int = 12,
                          cap: int = 3) -> TruncatedSSet:
    """A random reduced 2-truncated simplicial set (single vertex)."""
    n_edges = rng.randrange(1, max(2, (max_nondeg - 1) // 2))
    n_tris = rng.randrange(0, max_nondeg - n_edges)
    edges = [f"e{k}" for k in range(n_edges)]
    cells = {0: {"v": ()}, 1: {e: ("v", "v") for e in edges}, 2: {}}
    choices = [((), e) for e in edges] + [((0,), "v")]
    for t in range(n_tris):
        cells[2][f"t{t}"] = tuple(rng.choice(choices) for _ in range(3))
    return cells_sset(cap, cells, name="random2")


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
    space = cells_sset(cap, cells, name="K33 torus")
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
