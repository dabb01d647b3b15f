"""Finitely presented groups for linear systems and simplicial sets.

Solution groups, (commutative) fundamental groups, the K-group of the E-space,
bounded Todd-Coxeter coset enumeration, hom-set enumeration, abelianization
via integer Smith form, and the word-level reduction maps.

Solution sets are hom sets: Sol(A,b;G) is computed as Hom_J(Gamma(A,b), G),
the homomorphisms of the solution group that send J to J_G, so
`enumerate_homs` is the one search engine behind both. Commutator relators
narrow bitmask domains through cached centralizer masks, and it forces the
image of another relator's last unknown generator through per-exponent root
tables, for any exponent, not only +-1.

Isomorphism claims are always settled by completed coset tables or hom-set
bijections, never by free-group rewriting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import FinGroupJ, GroupTable
from .linsys import LinearSystem
from .simplicial import BASEPOINT, TruncatedSSet, twisted_product
from .zmod import smith_normal_form

Word = tuple[tuple[int, int], ...]  # ((generator index, exponent), ...)


def word_simplify(word: Sequence[tuple[int, int]]) -> Word:
    out: list[tuple[int, int]] = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            g0, e0 = out.pop()
            if e0 + e:
                out.append((g0, e0 + e))
        else:
            out.append((g, e))
    return tuple(out)


def word_inverse(word: Word) -> Word:
    return word_simplify([(g, -e) for g, e in reversed(word)])


@dataclass(frozen=True)
class Presentation:
    gens: tuple[str, ...]
    relators: tuple[Word, ...]
    j_name: Optional[str] = None

    def __post_init__(self):
        k = len(self.gens)
        if len(set(self.gens)) != k:
            raise ValueError("duplicate generator names")
        for rel in self.relators:
            for g, _ in rel:
                if not 0 <= g < k:
                    raise ValueError("relator uses unknown generator")
        if self.j_name is not None and self.j_name not in self.gens:
            raise ValueError("distinguished generator not declared")

    @property
    def j_index(self) -> Optional[int]:
        return self.gens.index(self.j_name) if self.j_name else None

    def gen_index(self, name: str) -> int:
        return self.gens.index(name)

    def num_gens(self) -> int:
        return len(self.gens)


def make_presentation(gens: Sequence[str],
                      relators: Sequence[Sequence[tuple]],
                      j_name: Optional[str] = None) -> Presentation:
    name_to_idx = {g: i for i, g in enumerate(gens)}

    def conv(rel):
        out = []
        for item in rel:
            g, e = item
            if isinstance(g, str):
                g = name_to_idx[g]
            out.append((g, e))
        return word_simplify(out)

    return Presentation(tuple(gens), tuple(conv(r) for r in relators), j_name)


def commutator_word(a: int, b: int) -> Word:
    return ((a, -1), (b, -1), (a, 1), (b, 1))


# ------------------------------------------------------------ solution group

def solution_group(system: LinearSystem) -> Presentation:
    """Generators e_v and J; torsion, per-facet commutativity, row products."""
    d = system.modulus
    gens = [f"e{v}" for v in range(system.num_cols)] + ["J"]
    jdx = len(gens) - 1
    relators: list[Word] = [word_simplify([(i, d)]) for i in range(len(gens))]
    # commutativity: pairs inside each row support, and J with every e_v
    pairs = set()
    for row in system.matrix.rows:
        supp = [v for v, e in enumerate(row) if e]
        pairs.update(itertools.combinations(sorted(supp), 2))
        pairs.update((v, jdx) for v in supp)
    for a, b in sorted(pairs):
        relators.append(commutator_word(a, b))
    # products: prod e_v^{A_iv} J^{-b_i}
    for row, bval in zip(system.matrix.rows, system.rhs):
        word = [(v, e) for v, e in enumerate(row) if e]
        word.append((jdx, -bval))
        relators.append(word_simplify(word))
    return Presentation(tuple(gens), tuple(relators), "J")


# ---------------------------------------------------------- fundamental groups

def _edge_gen_names(x: TruncatedSSet) -> tuple[dict, list[str]]:
    toks = list(x.simplices[1])
    names = [f"e{k}" for k in range(len(toks))]
    return {tok: k for k, tok in enumerate(toks)}, names


def pi1(x: TruncatedSSet) -> tuple[Presentation, dict]:
    """Algebraic fundamental group of the realization (spanning tree collapsed).

    Generators are the 1-simplices; relators come from all 2-simplices, the
    degenerate edges, and (for multi-vertex X) a spanning tree of the
    1-skeleton. X must be connected.
    """
    if not x.is_connected():
        raise ValueError("pi1 needs a connected simplicial set")
    idx, names = _edge_gen_names(x)
    relators: list[Word] = []
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
    return Presentation(tuple(names), tuple(relators)), idx


def pi1_commutative(x: TruncatedSSet, d: int) -> tuple[Presentation, dict]:
    """Commutative d-torsion fundamental group: generators e_x for x in X_1."""
    idx, names = _edge_gen_names(x)
    relators: list[Word] = [((k, d),) for k in range(len(names))]
    for sig in x.simplices[2]:
        faces = [idx[x.face(2, i, sig)] for i in range(3)]
        d0, d1, d2 = faces
        for a, b in itertools.combinations(sorted(set(faces)), 2):
            relators.append(commutator_word(a, b))
        relators.append(word_simplify([(d2, 1), (d0, 1), (d1, -1)]))
    return Presentation(tuple(names), tuple(relators)), idx


# ----------------------------------------------------------------- K-group

@dataclass(frozen=True)
class KGroupData:
    presentation: Presentation
    pairs: tuple              # generator order: pairs (g, h)
    paths: dict               # g -> factorization tuple of torsion elements
    image_words: dict         # (g, h) -> word over d-torsion elements of G


def k_group(g: FinGroupJ, d: Optional[int] = None) -> KGroupData:
    """pi_1 of E(Z_d, G): loop generators e_{g,h} with BFS-chosen base paths.

    Relators: units e_{g,1} = e_{1,g} = 1, triangle fillers over commuting
    d-torsion pairs, and the loops of the chosen maximal tree (freely trivial,
    since the tree is the union of the base paths).
    """
    if d is None:
        d = g.d
    tor = [t for t in g.torsion(d) if t != g.identity]
    reach = {g.identity: ()}
    tree_edges: list[tuple[int, int]] = []
    frontier = [g.identity]
    while frontier:
        nxt = []
        for a in sorted(frontier):
            for t in tor:
                b = g.mul(a, t)
                if b not in reach:
                    reach[b] = reach[a] + (t,)
                    tree_edges.append((a, b))
                    nxt.append(b)
        frontier = nxt
    if len(reach) != g.n:
        raise ValueError("group is not generated by its d-torsion elements")

    tor_set = set(tor)
    pairs = [(a, b) for a in range(g.n) for b in range(g.n)
             if a != b and a != g.identity and b != g.identity
             and g.mul(g.inv(a), b) in tor_set]
    pair_idx = {p: k for k, p in enumerate(pairs)}
    names = [f"k{a}_{b}" for a, b in pairs]

    def gen_word(a, b):
        """e_{a,b} after the unit relators e_{1,x} = e_{x,1} = e_{x,x} = 1."""
        if a == b or a == g.identity or b == g.identity:
            return ()
        return ((pair_idx[(a, b)], 1),)

    relators: list[Word] = []
    for a, b in tree_edges:
        word = gen_word(a, b)
        if word:
            relators.append(word)
    for a in range(g.n):
        for t in tor:
            for u in tor:
                if g.commute(t, u):
                    h = g.mul(a, t)
                    k = g.mul(h, u)
                    word = word_simplify(gen_word(a, h) + gen_word(h, k)
                                         + word_inverse(gen_word(a, k)))
                    if word:
                        relators.append(word)
    pres = Presentation(tuple(names), tuple(dict.fromkeys(relators)))
    image_words = {}
    for a, b in pairs:
        step = g.mul(g.inv(a), b)
        image_words[(a, b)] = (reach[a] + (step,)
                               + tuple(g.inv(t) for t in reversed(reach[b])))
    return KGroupData(pres, tuple(pairs), dict(reach), image_words)


# ------------------------------------------------------- Tietze simplification

def _cyclic_simplify(word: Word) -> Word:
    w = list(word_simplify(word))
    while len(w) >= 2 and w[0][0] == w[-1][0]:
        g, a = w[0]
        _, b = w[-1]
        w = ([(g, a + b)] if a + b else []) + w[1:-1]
        w = list(word_simplify(w))
    return tuple(w)


def _canonical_cyclic(word: Word) -> Word:
    best = None
    for cand in (word, word_inverse(word)):
        cw = list(cand)
        for r in range(max(len(cw), 1)):
            rot = tuple(cw[r:] + cw[:r])
            if best is None or rot < best:
                best = rot
    return best if best is not None else ()


def tietze_simplify(pres: Presentation, max_word: int = 400) -> Presentation:
    """Shrink a presentation by unit kills, pair merges, and bounded greedy
    generator elimination. The presented group is unchanged (generator names
    are not preserved)."""
    words = [list(w) for w in pres.relators]
    k = pres.num_gens()
    alive = [True] * k

    def substitute(gen: int, repl: Word) -> None:
        alive[gen] = False
        for idx, w in enumerate(words):
            if all(g != gen for g, _ in w):
                continue
            out: list[tuple[int, int]] = []
            for g, e in w:
                if g != gen:
                    out.append((g, e))
                    continue
                piece = repl if e > 0 else word_inverse(repl)
                out.extend(list(piece) * abs(e))
            words[idx] = list(_cyclic_simplify(out))

    def normalize() -> None:
        seen = set()
        out = []
        for w in words:
            cw = _cyclic_simplify(tuple(w))
            if not cw:
                continue
            canon = _canonical_cyclic(cw)
            if canon not in seen:
                seen.add(canon)
                out.append(list(cw))
        words[:] = out

    while True:
        normalize()
        acted = False
        # unit relators g^{+-1} = 1
        for w in words:
            if len(w) == 1 and abs(w[0][1]) == 1:
                substitute(w[0][0], ())
                acted = True
                break
        if acted:
            continue
        # pair relators g^{+-1} h^{+-1} = 1 merge two generators
        for w in words:
            if (len(w) == 2 and abs(w[0][1]) == 1 and abs(w[1][1]) == 1
                    and w[0][0] != w[1][0]):
                (g, a), (h, b) = w
                repl: Word = ((h, -b if a == 1 else b),)
                substitute(g, repl)
                acted = True
                break
        if acted:
            continue
        # greedy elimination: a generator occurring once (exp +-1) in a relator
        occ: dict[int, int] = {}
        for w in words:
            for g, e in w:
                occ[g] = occ.get(g, 0) + abs(e)
        best = None
        for ridx, w in enumerate(words):
            counts: dict[int, int] = {}
            for g, e in w:
                counts[g] = counts.get(g, 0) + abs(e)
            for pos, (g, e) in enumerate(w):
                if abs(e) == 1 and counts[g] == 1:
                    cost = (occ[g] - 1) * (len(w) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, ridx, pos, g, e)
        if best is None:
            break
        _, ridx, pos, g, e = best
        w = words[ridx]
        rest = w[pos + 1:] + w[:pos]       # relator = g^e * rest (cyclically)
        repl = word_inverse(tuple(rest)) if e == 1 else tuple(rest)
        if occ[g] > 1 and (len(repl) - 1) * (occ[g] - 1) + max(
                (len(x) for x in words), default=0) > max_word:
            break
        del words[ridx]
        substitute(g, repl)

    normalize()
    remap = {}
    names = []
    for g in range(k):
        if alive[g]:
            remap[g] = len(names)
            names.append(f"g{len(names)}")
    rels = tuple(tuple((remap[g], e) for g, e in w) for w in words)
    if not names:
        names = ["g0"]
        rels = rels + (((0, 1),),)
    return Presentation(tuple(names), rels)


# ------------------------------------------------------------- Todd-Coxeter

class TC:
    """HLT coset enumeration: forward/backward relator scans with deduction,
    union-find coincidence handling, and periodic deduction-only lookahead
    passes so that collapsing presentations stay small."""

    def __init__(self, num_gens: int, relator_paths: Sequence[Sequence[int]],
                 max_cosets: int):
        self.k = num_gens            # columns: 2k (gen, then inverse)
        self.rels = [tuple(r) for r in relator_paths]
        self.max = max_cosets
        self.labels: list[int] = []
        self.neigh: list[dict[int, int]] = []
        self.num_live = 0
        self.add_coset()

    def add_coset(self) -> int:
        c = len(self.labels)
        self.labels.append(c)
        self.neigh.append({})
        self.num_live += 1
        return c

    def find(self, c: int) -> int:
        while self.labels[c] != c:
            self.labels[c] = self.labels[self.labels[c]]
            c = self.labels[c]
        return c

    def _flip(self, col: int) -> int:
        return col + self.k if col < self.k else col - self.k

    def set_edge(self, a: int, col: int, b: int) -> None:
        self.neigh[a][col] = b
        self.neigh[b][self._flip(col)] = a

    def unify(self, a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.labels[b] = a
            self.num_live -= 1
            moved = self.neigh[b]
            self.neigh[b] = {}
            for col, nb in moved.items():
                na = self.neigh[a].get(col, -1)
                if na == -1:
                    nb_live = self.find(nb)
                    self.neigh[a][col] = nb_live
                    self.neigh[nb_live][self._flip(col)] = a
                else:
                    stack.append((na, nb))

    def scan(self, c: int, rel: tuple, fill: bool) -> None:
        """Trace a relator loop at c; deduce across a gap of one, optionally
        bridge longer gaps with new cosets (HLT filling)."""
        c = self.find(c)
        f = c
        i = 0
        n = len(rel)
        while i < n:
            nxt = self.neigh[f].get(rel[i], -1)
            if nxt == -1:
                break
            f = self.find(nxt)
            i += 1
        if i == n:
            self.unify(f, c)
            return
        b = c
        j = n
        while j > i:
            prev = self.neigh[b].get(self._flip(rel[j - 1]), -1)
            if prev == -1:
                break
            b = self.find(prev)
            j -= 1
        if i == j:
            self.unify(f, b)
            return
        if i == j - 1:
            self.set_edge(f, rel[i], b)
            return
        if not fill:
            return
        while i < j - 1:
            new = self.add_coset()
            self.set_edge(f, rel[i], new)
            f = new
            i += 1
        self.set_edge(f, rel[i], b)

    def lookahead(self) -> None:
        for c in range(len(self.labels)):
            if self.find(c) == c:
                for rel in self.rels:
                    self.scan(c, rel, fill=False)
                    if self.find(c) != c:
                        break

    def run(self) -> bool:
        checkpoint = max(4 * self.num_live, 256)
        scan_at = 0
        while scan_at < len(self.labels):
            if self.find(scan_at) == scan_at:
                for rel in self.rels:
                    self.scan(scan_at, rel, fill=True)
                    if len(self.labels) > self.max:
                        return False
                    if self.find(scan_at) != scan_at:
                        break
                if self.num_live > checkpoint:
                    self.lookahead()
                    checkpoint = max(2 * self.num_live, 256)
            scan_at += 1
        return True

    def live(self) -> list[int]:
        return [c for c in range(len(self.labels)) if self.find(c) == c]


@dataclass
class CosetTable:
    """A completed enumeration: the regular representation as a Cayley table."""

    group: GroupTable
    gen_images: tuple[int, ...]      # presentation generator -> element index
    j_image: Optional[int] = None

    @property
    def order(self) -> int:
        return self.group.n

    def word_image(self, word: Word) -> int:
        acc = self.group.identity
        for g, e in word:
            acc = self.group.mul(acc, self.group.power(self.gen_images[g], e))
        return acc


def relator_to_path(word: Word, k: int) -> list[int]:
    path = []
    for g, e in word:
        col = g if e > 0 else g + k
        path.extend([col] * abs(e))
    return path


def todd_coxeter(pres: Presentation, max_cosets: int = 10 ** 6
                 ) -> Optional[CosetTable]:
    """Enumerate cosets of the trivial subgroup; None means inconclusive."""
    k = pres.num_gens()
    paths = [relator_to_path(w, k) for w in pres.relators if w]
    tc = TC(k, paths, max_cosets)
    if not tc.run():
        return None
    live = tc.live()
    index = {c: i for i, c in enumerate(live)}
    n = len(live)

    def move(i: int, col: int) -> int:
        dest = tc.neigh[live[i]].get(col, -1)
        if dest == -1:
            # free direction never touched by a relator: group is infinite
            raise _FreeDirection()
        return index[tc.find(dest)]

    class _FreeDirection(Exception):
        pass

    try:
        # words for each coset by BFS over generator columns
        words: dict[int, tuple[int, ...]] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for col in range(2 * k):
                    dest = tc.neigh[live[c]].get(col, -1)
                    if dest == -1:
                        continue
                    dest = index[tc.find(dest)]
                    if dest not in words:
                        words[dest] = words[c] + (col,)
                        nxt.append(dest)
            frontier = nxt
        if len(words) != n:
            return None
        table = []
        for c1 in range(n):
            row = []
            for c2 in range(n):
                c = c1
                for col in words[c2]:
                    c = move(c, col)
                row.append(c)
            table.append(row)
        gen_images = tuple(move(0, g) for g in range(k))
    except _FreeDirection:
        return None
    group = GroupTable(table, 0, name="coset-group")
    j_image = (gen_images[pres.j_index]
               if pres.j_index is not None else None)
    return CosetTable(group, gen_images, j_image)


# --------------------------------------------------------------- abelianization

def relator_matrix(pres: Presentation) -> list[list[int]]:
    rows = []
    for rel in pres.relators:
        row = [0] * pres.num_gens()
        for g, e in rel:
            row[g] += e
        rows.append(row)
    return rows or [[0] * pres.num_gens()]


def abelianization(pres: Presentation) -> tuple[list[int], int]:
    """(nontrivial invariant factors, free rank) of the abelian quotient."""
    mat = relator_matrix(pres)
    d, _, _ = smith_normal_form(mat)
    k = pres.num_gens()
    diag = [d[i][i] for i in range(min(len(mat), k))]
    torsion = [abs(x) for x in diag if abs(x) not in (0, 1)]
    rank = k - sum(1 for x in diag if x != 0)
    return sorted(torsion), rank


def abelian_order(pres: Presentation) -> Optional[int]:
    torsion, rank = abelianization(pres)
    if rank:
        return None
    out = 1
    for t in torsion:
        out *= t
    return out


def elementarization(pres: Presentation, p: int) -> int:
    """Dimension of the largest elementary abelian p-quotient."""
    mat = np.array(relator_matrix(pres), dtype=np.int64) % p
    rows, cols = mat.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(mat[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + nz[0]
        mat[[r, pivot]] = mat[[pivot, r]]
        inv = pow(int(mat[r, c]), -1, p)
        mat[r] = (mat[r] * inv) % p
        hits = np.nonzero(mat[r + 1:, c])[0]
        if hits.size:
            mat[r + 1 + hits] = (mat[r + 1 + hits]
                                 - np.outer(mat[r + 1 + hits, c], mat[r])) % p
        r += 1
        if r == rows:
            break
    return cols - r


# ---------------------------------------------------------- hom enumeration

@dataclass(frozen=True)
class Hom:
    source: Presentation
    target: FinGroupJ
    images: tuple[int, ...]

    def __post_init__(self):
        g = self.target
        for rel in self.source.relators:
            acc = g.identity
            for gen, e in rel:
                acc = g.mul(acc, g.power(self.images[gen], e))
            if acc != g.identity:
                raise ValueError("images do not satisfy the relators")

    @classmethod
    def unchecked(cls, source, target, images) -> "Hom":
        """For hom families whose validity is already certified elsewhere."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "images", tuple(images))
        return obj

    def __call__(self, gen: int) -> int:
        return self.images[gen]


def enumerate_homs(pres: Presentation, g: FinGroupJ,
                   pin_j: bool = True) -> list[Hom]:
    """All homomorphisms pres -> g, sorted by their image tuples.

    With pin_j the distinguished generator maps to g.j, so the result is
    Hom_J(pres, g); `solutions` is this search run on the solution group.

    Backtracking with forward checking and relator propagation. Each
    generator's candidates are the elements that satisfy its
    single-generator relators (for the pinned generator: g.j, if it does),
    so those relators hold by construction, and so do commutators with the
    pinned generator, g.j being central. Every other commutator [a, b] is a
    domain filter: each generator keeps its candidates as an int bitmask,
    and assigning a := x ANDs x's centralizer mask (`centralizer_masks`)
    into the domain of each unassigned commutator partner of a. Saved
    domains are restored on backtrack and an emptied domain fails the
    branch, so branching tries only values that commute with the assigned
    partners. The other relators are compiled once per call into
    (generator, row of x^e, e) letters, with one power row per exponent
    that occurs. Whenever a generator is assigned, each such relator
    through it is evaluated in one pass: with no unknown left it must give
    the identity; when its only unknown x occurs once, with exponent e, it
    reads pre x^e post = 1, and the roots of pre^-1 post^-1 (the x with
    x^e equal to it, from a root table built per exponent on first use)
    within x's domain decide: none fails the branch, one is forced and
    propagated, several are left to branching. Every relator is checked by
    the time its last generator is assigned, and the first 20 homs are
    re-validated in full.
    """
    k = pres.num_gens()
    n, table, ident = g.n, g.table, g.identity
    inv = [g.inv(x) for x in range(n)]
    pinned = pres.j_index if pin_j else None
    powers: dict[int, list[int]] = {}       # e -> [x^e for x in g]
    for e in {e for rel in pres.relators for _, e in rel}:
        # x -> x^e for every x at once, by squaring whole rows
        base, row, m = inv if e < 0 else range(n), None, abs(e)
        while m:
            if m & 1:
                row = base if row is None else [
                    table[a][b] for a, b in zip(row, base)]
            m >>= 1
            if m:
                base = [table[b][b] for b in base]
        powers[e] = [ident] * n if row is None else row
    roots: dict[int, list[list[int]]] = {}  # e -> y -> [x with x^e = y]

    def root_table(e: int) -> list[list[int]]:
        roots[e] = [[] for _ in range(n)]
        for x, y in enumerate(powers[e]):
            roots[e][y].append(x)
        return roots[e]

    # candidates satisfy every relator on their generator alone
    allowed: dict[tuple, set[int]] = {}  # exponents of x^a x^b ... -> {x}
    cand_sets: list[Optional[set[int]]] = [None] * k
    if pinned is not None:
        cand_sets[pinned] = {g.j}
    live: list[Word] = []   # propagated
    comms: list[Word] = []  # domain filters
    for rel in pres.relators:
        gens = {gen for gen, _ in rel}
        if len(gens) == 1:
            shape = tuple(e for _, e in rel)
            if shape not in allowed:
                acc = [ident] * n
                for e in shape:
                    acc = [table[a][b] for a, b in zip(acc, powers[e])]
                allowed[shape] = {x for x in range(n) if acc[x] == ident}
            gen, = gens
            cand_sets[gen] = (allowed[shape] if cand_sets[gen] is None
                              else cand_sets[gen] & allowed[shape])
        elif len(rel) == 4 and tuple(rel) == commutator_word(rel[0][0],
                                                            rel[1][0]):
            if pinned not in gens:
                comms.append(rel)
        elif gens:
            live.append(rel)
    cand_sets = [set(range(n)) if c is None else c for c in cand_sets]
    dom = [sum(1 << x for x in c) for c in cand_sets]  # bitmask domains
    partners: list[set[int]] = [set() for _ in range(k)]
    for (a, _), (b, _), _, _ in comms:
        partners[a].add(b)
        partners[b].add(a)
    cent = g.centralizer_masks() if comms else ()
    rel_gens = [{gen for gen, _ in rel} for rel in live + comms]
    rels_at: list[list[int]] = [[] for _ in range(k)]
    for r, gens in enumerate(rel_gens):
        for gen in gens:
            rels_at[gen].append(r)
    rel_of_gen: list[list[list]] = [[] for _ in range(k)]
    for rel, gens in zip(live, rel_gens):
        crel = [(gen, powers[e], e) for gen, e in rel]
        for gen in gens:
            rel_of_gen[gen].append(crel)

    # order generators so relators (commutators too) close, and start
    # forcing, early
    order: list[int] = []
    unplaced = [len(gens) for gens in rel_gens]  # per relator

    def score(gen: int):
        done = touched = 0
        for r in rels_at[gen]:
            if unplaced[r] == 1:
                done += 1
            elif unplaced[r] < len(rel_gens[r]):
                touched += 1
        return (-done, -touched, len(cand_sets[gen]), gen)

    rest = list(range(k))
    while rest:
        nxt = min(rest, key=score)
        order.append(nxt)
        rest.remove(nxt)
        for r in rels_at[nxt]:
            unplaced[r] -= 1
    images: list[Optional[int]] = [None] * k
    out: list[tuple[int, ...]] = []

    def assign(h: int, x: int, trail: list[int], saved: list) -> bool:
        """h := x, and x's centralizer filters h's unassigned partners."""
        images[h] = x
        trail.append(h)
        for p in partners[h]:
            if images[p] is None:
                old = dom[p]
                new = old & cent[x]
                if new != old:
                    if not new:
                        return False
                    saved.append((p, old))
                    dom[p] = new
        return True

    def propagate(gen: int, trail: list[int], saved: list) -> bool:
        queue = [gen]
        while queue:
            for crel in rel_of_gen[queue.pop()]:
                acc, free = ident, None
                for h, row, e in crel:
                    x = images[h]
                    if x is not None:
                        acc = table[acc][row[x]]
                    elif free is None:
                        free, pre, acc = (h, e), acc, ident
                    else:
                        break  # two unknown occurrences: nothing to deduce
                else:
                    if free is None:
                        if acc != ident:
                            return False
                        continue
                    h, e = free
                    rts = roots.get(e) or root_table(e)
                    mask = dom[h]
                    vals = [x for x in rts[table[inv[pre]][inv[acc]]]
                            if mask >> x & 1]
                    if not vals:
                        return False
                    if len(vals) == 1:
                        if not assign(h, vals[0], trail, saved):
                            return False
                        queue.append(h)
        return True

    def search(pos: int) -> None:
        while pos < k and images[order[pos]] is not None:
            pos += 1
        if pos == k:
            out.append(tuple(images))  # all relators checked on the way
            return
        gen = order[pos]
        m = dom[gen]
        while m:
            low = m & -m
            m ^= low
            trail: list[int] = []
            saved: list = []
            if (assign(gen, low.bit_length() - 1, trail, saved)
                    and propagate(gen, trail, saved)):
                search(pos + 1)
            for t in trail:
                images[t] = None
            for p, old in reversed(saved):
                dom[p] = old

    search(0)
    out.sort()
    # filtering and propagation checked every relator by its last generator
    homs = [Hom.unchecked(pres, g, tup) for tup in out]
    for h in homs[:20]:
        Hom(pres, g, h.images)  # spot re-validation
    return homs


# -------------------------------------------------------------- solution sets

def solutions(system: LinearSystem, g: FinGroupJ) -> list[tuple[int, ...]]:
    """Sol(A,b;G), sorted: all T: columns -> G with T(v)^d = 1, T(v) and T(w)
    commuting whenever v and w share a row, and prod_v T(v)^{A_iv} = J^{b_i}.

    Computed as Hom_J(Gamma(A,b), G): e_v -> T(v), J -> J_G is a bijection
    onto the J-pinned homs of the solution group, and J is its last
    generator, so dropping J's image from each sorted hom gives T.
    """
    d = system.modulus
    if g.d != d:
        raise ValueError(f"group J-order {g.d} != system modulus {d}")
    return [h.images[:-1]
            for h in enumerate_homs(solution_group(system), g, pin_j=True)]


def hom_of_solution(pres: Presentation, g: FinGroupJ,
                    t_map: Sequence[int]) -> Hom:
    """The Grp_J morphism corresponding to a solution (e_v -> T(v), J -> J_G)."""
    return Hom(pres, g, tuple(t_map) + (g.j,))


# ------------------------------------------------------------ reduction maps

@dataclass(frozen=True)
class ReductionMaps:
    """Generator-level maps between Gamma(A,b) and Gamma(A_X, b_gamma).

    phi sends e_v to e_{delta^v}; when delta^v is itself a row multiple a*A_i
    (hence collapsed to the basepoint), phi(e_v) is the forced power J^{a b_i}.
    """

    system: LinearSystem
    extracted: LinearSystem           # (A_X, b_gamma) over Nbar(Z_d, Sigma)
    delta_cols: dict                  # v -> ("col", index) or ("j", exponent)

    def push_solution(self, g: FinGroupJ, t_map: Sequence[int]) -> tuple:
        """Sol(A,b;G) -> Sol(A_X,b_gamma;G): e_s -> prod e_v^{s(v)}."""
        out = []
        for lab in self.extracted.col_labels:
            if lab == BASEPOINT:
                out.append(g.identity)
                continue
            func = lab[0]
            acc = g.identity
            for v, a in enumerate(func):
                if a:
                    acc = g.mul(acc, g.power(t_map[v], a))
            out.append(acc)
        return tuple(out)

    def pull_solution(self, t_ext: Sequence[int], g: FinGroupJ) -> tuple:
        """Sol(A_X,b_gamma;G) -> Sol(A,b;G): read off the delta columns."""
        out = []
        for v in range(self.system.num_cols):
            kind, val = self.delta_cols[v]
            out.append(t_ext[val] if kind == "col" else g.j_power(val))
        return tuple(out)


def reduction_maps(system: LinearSystem, cap: int = 2) -> ReductionMaps:
    from .cohomology import extract_linear_system, gamma_b, tilde_b
    gam, q = gamma_b(system, cap=cap)
    extracted = extract_linear_system(q, gam)
    delta_cols: dict = {}
    for v in range(system.num_cols):
        delta = tuple(1 if w == v else 0 for w in range(system.num_cols))
        tok = (delta,)
        if tok in extracted.col_labels:
            delta_cols[v] = ("col", extracted.col_labels.index(tok))
        else:
            # delta^v was a row circle: its class is pinned to a J power
            delta_cols[v] = ("j", tilde_b(system, delta))
    return ReductionMaps(system, extracted, delta_cols)


def check_reduction_bijection(system: LinearSystem, g: FinGroupJ,
                              maps: Optional[ReductionMaps] = None
                              ) -> tuple[int, int]:
    """Verify the solution-set bijection along the reduction; returns counts."""
    from .simplicial import is_solution
    maps = maps or reduction_maps(system)
    sols = solutions(system, g)
    sols_ext = solutions(maps.extracted, g)
    pushed = [maps.push_solution(g, t) for t in sols]
    if sorted(pushed) != sols_ext:
        raise AssertionError("pushforward is not onto the extracted solutions")
    for t, p in zip(sols, pushed):
        if maps.pull_solution(p, g) != t:
            raise AssertionError("pull after push is not the identity")
    for s in sols_ext:
        t = maps.pull_solution(s, g)
        if not is_solution(t, system, g):
            raise AssertionError("pulled map is not a solution")
        if maps.push_solution(g, t) != s:
            raise AssertionError("push after pull is not the identity")
    return len(sols), len(sols_ext)


# ---------------------------------------------------- theorem 3.4 instance check

@dataclass
class IsoCheckReport:
    relator_results: dict
    hom_counts: dict
    passed: bool


def theorem_iso_check(x: TruncatedSSet, gamma, d: int,
                      test_groups: Sequence[FinGroupJ],
                      cap: int = 2) -> IsoCheckReport:
    """Check e_{a,x} -> J^a e_x against Gamma(A_X, b_gamma) on instances.

    Relator images are reduced against the matching row data (syntactic
    certificate); hom sets into each test group are enumerated on both sides
    and matched through the assignment.
    """
    from .cohomology import Cochain, extract_linear_system

    if isinstance(gamma, Cochain):
        gamma_fn = gamma
        host = gamma.host
    else:
        raise TypeError("gamma must be a Cochain on x")
    if host is not x:
        raise ValueError("cochain host mismatch")

    xg = twisted_product(x, gamma_fn, d, cap=cap)
    p1, edge_idx = pi1_commutative(xg, d)
    system = extract_linear_system(x, gamma_fn)
    p2 = solution_group(system)
    col_pos = {lab: k for k, lab in enumerate(system.col_labels)}
    jdx2 = p2.j_index

    def theta_image(gen1: int) -> Word:
        """Image of a pi1(Z_d, X_gamma) generator e_{(a, tau)} in p2."""
        (a_vec, tau) = xg_tokens[gen1]
        a = a_vec[0]
        return word_simplify([(jdx2, a), (col_pos[tau], 1)])

    xg_tokens = {k: tok for tok, k in edge_idx.items()}

    from math import gcd

    def commuting_justified(a: int, b: int) -> bool:
        """[e_a, e_b] = 1 must follow from a row: shared support, or a
        singleton-support row with unit entry pinning one of them to <J>."""
        if a == b:
            return True
        for row in system.matrix.rows:
            supp = {v: e for v, e in enumerate(row) if e}
            if a in supp and b in supp:
                return True
            if len(supp) == 1:
                (v, e), = supp.items()
                if v in (a, b) and gcd(e, d) == 1:
                    return True
        return False

    relator_results = {"trivial": 0, "commutation": 0, "product": 0}
    for rel in p1.relators:
        # expand the image word; J is central in p2, so collect its exponent
        j_exp = 0
        letters: list[tuple[int, int]] = []
        for gen, e in rel:
            img = theta_image(gen)
            seq = img if e > 0 else word_inverse(img)
            for _ in range(abs(e)):
                for gg, ee in seq:
                    if gg == jdx2:
                        j_exp += ee
                    else:
                        letters.append((gg, ee))
        counts: dict[int, int] = {}
        for gg, ee in letters:
            counts[gg] = counts.get(gg, 0) + ee
        counts = {gg: v % d for gg, v in counts.items() if v % d}
        if not counts:
            if j_exp % d:
                raise AssertionError(f"relator image is J^{j_exp % d} != 1")
            # letters cancel; reordering needs pairwise commutation
            toks = sorted({gg for gg, _ in letters})
            for a, b in itertools.combinations(toks, 2):
                if not commuting_justified(a, b):
                    raise AssertionError(
                        "commutation not justified by any row")
            bucket = "commutation" if letters else "trivial"
            relator_results[bucket] += 1
            continue
        # nonzero exponent pattern: must be exactly a row relation
        matched = False
        for row, bval in zip(system.matrix.rows, system.rhs):
            entries = {v: e % d for v, e in enumerate(row) if e % d}
            if entries == counts and (j_exp + bval) % d == 0:
                matched = True
                break
        if not matched:
            raise AssertionError("product relator image matches no row")
        for a, b in itertools.combinations(sorted(counts), 2):
            if not commuting_justified(a, b):
                raise AssertionError("row reordering not justified")
        relator_results["product"] += 1

    hom_counts = {}
    passed = True
    # pin: e_1 = e_{(1, s0 basepoint)} on the p1 side
    e1_tok = ((1,), x.degeneracy(0, 0, x.simplices[0][0]))
    e1_gen = edge_idx[e1_tok]
    for g in test_groups:
        homs2 = enumerate_homs(p2, g, pin_j=True)
        images1 = set()
        for idx, h in enumerate(homs2):
            imgs = []
            for k in range(p1.num_gens()):
                (a_vec, tau) = xg_tokens[k]
                imgs.append(g.mul(g.j_power(a_vec[0]), h(col_pos[tau])))
            if idx < 20:
                hom1 = Hom(p1, g, tuple(imgs))  # re-validate a sample fully
            else:
                hom1 = Hom.unchecked(p1, g, tuple(imgs))
            if hom1(e1_gen) != g.j:
                raise AssertionError("transported hom does not pin e_1")
            images1.add(tuple(imgs))
        if len(images1) != len(homs2):
            passed = False
        # Hom_J(p1, g) with e_1 in the role of J
        homs1 = enumerate_homs(Presentation(p1.gens, p1.relators,
                                            p1.gens[e1_gen]), g, pin_j=True)
        hom_counts[g.name] = (len(homs1), len(homs2))
        if len(homs1) != len(homs2) or images1 != {h.images for h in homs1}:
            passed = False
    return IsoCheckReport(relator_results, hom_counts, passed)


# --------------------------------------------------------- opposite word check

def opposite_word_check(table: CosetTable, gen_elements: Sequence[int],
                        j_element: int, d: int, max_len: int) -> dict:
    """Scan words w over the generator images: whenever w = J^a w^op, record a.

    For odd d the report must contain no violations (a != 0 forces w != J^a w^op).
    """
    g = table.group
    j_pows = {}
    acc = g.identity
    for a in range(d):
        j_pows[acc] = a
        acc = g.mul(acc, j_element)
    checked = 0
    matches = 0
    violations = []
    gens = list(gen_elements)
    for length in range(1, max_len + 1):
        for word in itertools.product(range(len(gens)), repeat=length):
            w = g.identity
            for idx in word:
                w = g.mul(w, gens[idx])
            wop = g.identity
            for idx in reversed(word):
                wop = g.mul(wop, gens[idx])
            checked += 1
            diff = g.mul(w, g.inv(wop))
            if diff in j_pows:
                matches += 1
                a = j_pows[diff]
                if a % d:
                    violations.append((word, a))
    return {"checked": checked, "matches": matches, "violations": violations}


# --------------------------------------------------------- presentation files

def parse_presentation(text: str) -> Presentation:
    """`gens: a b J` then `rel:` lines (`a^2`, `[a,b]`, `a b J^-1`)."""
    gens: list[str] = []
    rels: list[Word] = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            gens = line[len("gens:"):].split()
            continue
        if not line.startswith("rel:"):
            raise ValueError(f"line {num}: expected `gens:` or `rel:`")
        body = line[len("rel:"):].strip()
        idx = {g: i for i, g in enumerate(gens)}
        if body.startswith("[") and body.endswith("]"):
            a, b = (s.strip() for s in body[1:-1].split(","))
            rels.append(commutator_word(idx[a], idx[b]))
            continue
        word = []
        for tokstr in body.split():
            if "^" in tokstr:
                name, e = tokstr.split("^")
                word.append((idx[name], int(e)))
            else:
                word.append((idx[tokstr], 1))
        rels.append(word_simplify(word))
    j_name = "J" if "J" in gens else None
    return Presentation(tuple(gens), tuple(rels), j_name)


def dump_presentation(pres: Presentation) -> str:
    lines = ["gens: " + " ".join(pres.gens)]
    for rel in pres.relators:
        parts = []
        for g, e in rel:
            parts.append(pres.gens[g] if e == 1 else f"{pres.gens[g]}^{e}")
        lines.append("rel: " + " ".join(parts))
    return "\n".join(lines) + "\n"
