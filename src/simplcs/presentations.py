"""Finitely presented groups for linear systems and simplicial sets.

Solution groups, (commutative) fundamental groups, the K-group of the E-space,
bounded Todd-Coxeter coset enumeration, hom-set enumeration, abelianization
via integer Smith form, and the word-level reduction maps.

Solution sets are hom sets: Sol(A,b;G) is computed as Hom_J(Gamma(A,b), G),
the homomorphisms of the solution group that send J to J_G, so
`enumerate_homs` is the one search engine behind both. Each call compiles
one static plan, a step per generator in a fixed order: the step's domain,
the commutator partners placed before it (their images' centralizers filter
its candidates), at most one forcing relator (the generator occurs in it
once and closes it, so its image is a root of a known element, through a
per-exponent root table) and the other relators that close there, as
checks. A depth-first search over Python bitmasks runs small plans; plans
whose leaf bound (the product of the domain sizes of the unforced steps)
exceeds NUMPY_LEAF_BOUND run on numpy blocks of partial rows of at most
BLOCK_CELLS (rows x group order) cells, depth first, so memory stays
bounded. Every result row is then checked against every relator by
`check_hom_rows`, which shares no code with the plan.

Isomorphism claims are always settled by completed coset tables or hom-set
bijections, never by free-group rewriting.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .groups import MAX_ORDER, FinGroupJ, GroupTable
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
    """Generators e_v and J; torsion, per-facet commutativity, row products.

    Built once per system and kept on it (as `row_lift` is), so solving one
    system in several groups shares one presentation."""
    cached = vars(system).get("_solution_group")
    if cached is None:
        cached = vars(system)["_solution_group"] = _solution_group(system)
    return cached


def _solution_group(system: LinearSystem) -> Presentation:
    d = system.modulus
    gens = [f"e{v}" for v in range(system.num_cols)] + ["J"]
    jdx = len(gens) - 1
    relators: list[Word] = [word_simplify([(i, d)]) for i in range(len(gens))]
    # commutativity: pairs inside each row support, and J with every e_v
    pairs = {(v, jdx) for v in range(system.num_cols)}
    products = []
    for row, bval in zip(system.matrix.rows, system.rhs):
        supp = list(itertools.compress(itertools.count(), row))  # ascending
        pairs.update(itertools.combinations(supp, 2))
        # prod e_v^{A_iv} J^{-b_i}
        products.append(word_simplify([(v, row[v]) for v in supp]
                                      + [(jdx, -bval)]))
    relators += [commutator_word(a, b) for a, b in sorted(pairs)]
    return Presentation(tuple(gens), tuple(relators + products), "J")


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

TIETZE_MAX_WORD = 400  # longest relator a greedy elimination may leave


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


def tietze_simplify(pres: Presentation) -> Presentation:
    """Shrink a presentation by unit kills, pair merges, and bounded greedy
    generator elimination. The presented group is unchanged (generator names
    are not preserved)."""
    words = [list(w) for w in pres.relators]
    k = pres.num_gens()
    alive = [True] * k
    # canonical form of every cyclically reduced relator seen: most relators
    # survive a pass unchanged, so each is canonicalized once
    forms: dict[Word, Word] = {}

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
            cw = tuple(w)
            canon = forms.get(cw)
            if canon is None:
                cw = _cyclic_simplify(cw)
                if not cw:
                    continue
                canon = forms[cw] = _canonical_cyclic(cw)
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
                (len(x) for x in words), default=0) > TIETZE_MAX_WORD:
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


def relator_to_path(word: Word, k: int) -> list[int]:
    path = []
    for g, e in word:
        col = g if e > 0 else g + k
        path.extend([col] * abs(e))
    return path


def todd_coxeter(pres: Presentation, max_cosets: int = 10 ** 6
                 ) -> Optional[CosetTable]:
    """Enumerate cosets of the trivial subgroup; None means inconclusive.

    The completed table is the regular action: one permutation of the cosets
    per generator column. Coset c2 is reached from coset 0 along the word of
    a BFS tree over the columns, so the Cayley table's column c2 (c1 times
    c2) follows that word from every coset at once, one tree edge at a time.
    """
    k = pres.num_gens()
    paths = [relator_to_path(w, k) for w in pres.relators if w]
    tc = TC(k, paths, max_cosets)
    if not tc.run():
        return None
    live = tc.live()
    n = len(live)
    if n > MAX_ORDER:
        return None
    index = {c: i for i, c in enumerate(live)}
    # perm[col][i]: coset i times col; n marks a free direction, never
    # touched by a relator (the group is infinite), and is absorbing
    perm = np.full((2 * k, n + 1), n, dtype=np.intp)
    for i, c in enumerate(live):
        for col, dest in tc.neigh[c].items():
            perm[col, i] = index[tc.find(dest)]
    # BFS tree over generator columns from coset 0, columns in order
    step = perm.tolist()
    seen = [False] * n
    seen[0] = True
    edges: list[tuple[int, int, int]] = []   # (coset, column, new coset)
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for col, row in enumerate(step):
                dest = row[c]
                if dest < n and not seen[dest]:
                    seen[dest] = True
                    edges.append((c, col, dest))
                    nxt.append(dest)
        frontier = nxt
    if len(edges) != n - 1:
        return None
    # columns[c2][c1] = c1 c2 (the transposed Cayley table)
    columns = np.empty((n, n), dtype=np.intp)
    columns[0] = np.arange(n)
    for c, col, dest in edges:
        columns[dest] = perm[col][columns[c]]
    gen_images = tuple(row[0] for row in step[:k])
    if n in gen_images or columns.max() == n:
        return None
    ids = list(range(n))  # one int object per element, shared by all rows
    table = [tuple(map(ids.__getitem__, row.tolist())) for row in columns.T]
    del columns  # before GroupTable makes its own n x n arrays
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

NUMPY_LEAF_BOUND = 1 << 8   # plans with more leaves run on numpy blocks
BLOCK_CELLS = 1 << 13       # (rows x group order) cells of one numpy block
CHECK_CELLS = 1 << 16       # (rows x relators) cells of one check chunk


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
    def _of_checked_rows(cls, source, target, rows) -> list["Hom"]:
        """One Hom per image row of a batch `check_hom_rows` has passed."""
        out = []
        for images in rows:
            obj = object.__new__(cls)
            object.__setattr__(obj, "source", source)
            object.__setattr__(obj, "target", target)
            object.__setattr__(obj, "images", tuple(images))
            out.append(obj)
        return out

    def __call__(self, gen: int) -> int:
        return self.images[gen]


def check_hom_rows(pres: Presentation, g: GroupTable,
                   rows: np.ndarray) -> None:
    """Raise ValueError unless every row (one image per generator) satisfies
    every relator of pres.

    Independent of the search: each distinct relator is multiplied out over
    all rows at once by gathers in g's flattened table. Relators are grouped
    by length rounded up to a power of two and padded with exponent-0
    letters; power rows come from square-and-multiply over whole rows."""
    if not len(rows):
        return
    compiled = vars(pres).get("_check_letters")
    if compiled is None:
        by_len: dict[int, list[Word]] = {}
        for rel in dict.fromkeys(pres.relators):
            if rel:
                by_len.setdefault(1 << (len(rel) - 1).bit_length(),
                                  []).append(rel)
        exps = tuple(sorted({0, 1} | {e for rel in pres.relators
                                      for _, e in rel}))
        slot = {e: i for i, e in enumerate(exps)}
        buckets = []
        for width, rels in by_len.items():
            pad = ((0, 0),) * width
            letters = np.array(
                [[(gen, slot[e]) for gen, e in (rel + pad)[:width]]
                 for rel in rels], dtype=np.intp).transpose(1, 2, 0)
            # per letter: generators, power slots, and whether all are x^1
            buckets.append((rels, [(gens, slots, (slots == slot[1]).all())
                                   for gens, slots in letters]))
        compiled = vars(pres)["_check_letters"] = (exps, buckets)
    exps, buckets = compiled
    n, ident = g.n, g.identity
    table = g.table_array().ravel()

    def power_rows():
        inv = np.array([g.inv(x) for x in range(n)], dtype=np.intp)
        out = np.empty((len(exps), n), dtype=np.intp)
        for i, e in enumerate(exps):
            acc, base, m = np.full(n, ident), (
                inv if e < 0 else np.arange(n)), abs(e)
            while m:
                if m & 1:
                    acc = table[acc * n + base]
                m >>= 1
                if m:
                    base = table[base * n + base]
            out[i] = acc
        return out.ravel()

    powers = g.memo(("check_powers", exps), power_rows)
    for rels, letters in buckets:
        step = max(1, CHECK_CELLS // len(rels))
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            acc = None
            for gens, slots, plain in letters:
                x = chunk.take(gens, axis=1)
                if not plain:
                    x = powers.take(x + slots * n)
                acc = x if acc is None else table.take(acc * n + x)
            bad = acc != ident
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise ValueError(f"images do not satisfy the relators: row "
                                 f"{lo + r} fails {rels[c]}")


def _generator_order(rel_gens: Sequence[set[int]],
                     sizes: Sequence[int]) -> list[int]:
    """The search order of `enumerate_homs`: each step places the unplaced
    generator with the least key (sizes[gen] > 1, -done, -touched,
    sizes[gen], gen), where done counts its relators whose other generators
    are all placed and touched its relators with some but not all of those
    placed. Generators with at most one candidate come first: they cost no
    branching, and the relators through them start forcing sooner.

    The counters change only for the generators of the relators through the
    placed generator, and only when such a relator gets its first placed
    generator or its last unplaced one but one, so each relator costs
    O(len) over the whole order. A key only ever decreases, so a heap pops
    a generator's current key before any stale one, and entries of placed
    generators are skipped.
    """
    k = len(sizes)
    rels_at: list[list[int]] = [[] for _ in range(k)]
    done, touched = [0] * k, [0] * k
    for r, gens in enumerate(rel_gens):
        for gen in gens:
            rels_at[gen].append(r)
        if len(gens) == 1:
            done[gen] += 1
    unplaced = [len(gens) for gens in rel_gens]  # per relator
    placed = [False] * k
    heap = [(sizes[gen] > 1, -done[gen], 0, sizes[gen], gen)
            for gen in range(k)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        gen = heapq.heappop(heap)[4]
        if placed[gen]:
            continue
        placed[gen] = True
        order.append(gen)
        changed = set()
        for r in rels_at[gen]:
            left = unplaced[r]
            unplaced[r] = left - 1
            first = left == len(rel_gens[r])
            if left != 2 and not first:
                continue
            for h in rel_gens[r]:
                if placed[h]:
                    continue
                if left == 2:       # h is now the relator's last unknown
                    done[h] += 1
                    if not first:
                        touched[h] -= 1
                else:               # the relator's first placed generator
                    touched[h] += 1
                changed.add(h)
        for h in changed:
            heapq.heappush(heap, (sizes[h] > 1, -done[h], -touched[h],
                                  sizes[h], h))
    return order


class _Step(NamedTuple):
    """One generator of the search order and what decides its image."""

    gen: int
    dom: int                      # bitmask of the images that satisfy its
                                  # own relators
    partners: tuple[int, ...]     # commutator partners placed before it
    force: Optional[tuple]        # (pre, e, post): pre x^e post = 1, or None
    checks: tuple[Word, ...]      # the other relators that close here


def _relator_kinds(pres: Presentation) -> tuple[list, list, list]:
    """The distinct relators of pres by kind, sorted out once per
    presentation: (generator, exponent sum) of each one-generator relator
    (x^a x^b ... = x^(a + b + ...)), the generator pairs of exact
    commutators, and every other relator with its generator set."""
    kinds = vars(pres).get("_relator_kinds")
    if kinds is None:
        singles, comms, live = [], [], []
        for rel in dict.fromkeys(pres.relators):
            gens = {gen for gen, _ in rel}
            if len(gens) == 1:
                singles.append((rel[0][0], sum(e for _, e in rel)))
            elif len(rel) == 4 and rel == commutator_word(rel[0][0],
                                                          rel[1][0]):
                comms.append((rel[0][0], rel[1][0]))
            elif gens:
                live.append((rel, gens))
        kinds = vars(pres)["_relator_kinds"] = (singles, comms, live)
    return kinds


def _compile_plan(pres: Presentation, g: FinGroupJ,
                  pin_j: bool) -> list[_Step]:
    """The static search plan of `enumerate_homs`, one step per generator
    in `_generator_order`."""
    singles, comms, live = _relator_kinds(pres)
    k = pres.num_gens()
    pinned = pres.j_index if pin_j else None
    # candidates satisfy every relator on their generator alone
    doms = [(1 << g.n) - 1] * k
    if pinned is not None:
        doms[pinned] = 1 << g.j
    for gen, m in singles:
        doms[gen] &= g.root_masks(m)[g.identity]
    # commutators with the pinned generator hold: g.j is central
    pairs = [(a, b) for a, b in comms if pinned != a and pinned != b]
    rel_gens = [gens for _, gens in live] + [{a, b} for a, b in pairs]
    # relators (commutators too) close, and start forcing, early
    order = _generator_order(rel_gens, [m.bit_count() for m in doms])
    pos = [0] * k
    for i, gen in enumerate(order):
        pos[gen] = i
    partners: list[set[int]] = [set() for _ in range(k)]
    for a, b in pairs:
        if pos[a] < pos[b]:
            partners[b].add(a)
        else:
            partners[a].add(b)
    closing: list[list[Word]] = [[] for _ in range(k)]
    for rel, gens in live:
        closing[max(gens, key=pos.__getitem__)].append(rel)
    plan = []
    for gen in order:
        force, checks = None, []
        for rel in closing[gen]:
            at = [i for i, (h, _) in enumerate(rel) if h == gen]
            # one occurrence forces; exponent +-1 (one root) is preferred
            if len(at) == 1 and (force is None or abs(force[1]) != 1
                                 and abs(rel[at[0]][1]) == 1):
                if force is not None:  # the displaced relator, whole
                    checks.append(force[0] + ((gen, force[1]),) + force[2])
                i = at[0]
                force = (rel[:i], rel[i][1], rel[i + 1:])
            else:
                checks.append(rel)
        plan.append(_Step(gen, doms[gen], tuple(sorted(partners[gen])),
                          force, tuple(checks)))
    return plan


def _run_rows(plan: list[_Step], g: FinGroupJ) -> list[tuple[int, ...]]:
    """Run the plan depth first over Python ints: a step's candidates are a
    bitmask, ANDed with the centralizer masks of its placed partners'
    images and with the root mask of its forced value."""
    table, ident = g.table, g.identity
    inv, cent = g.power_row(-1), g.centralizer_masks()
    images = [ident] * len(plan)
    out: list[tuple[int, ...]] = []
    steps: list = [None] * len(plan)  # made when the search first gets there

    def letters(word):
        return tuple((h, g.power_row(e)) for h, e in word)

    def make_step(i: int) -> tuple:
        gen, dom, partners, force, checks = plan[i]
        if force is not None:
            pre, e, post = force
            force = (letters(pre), letters(post), g.root_masks(e))
        steps[i] = (gen, dom, partners, force, tuple(map(letters, checks)))
        return steps[i]

    def candidates(i: int) -> int:
        _, m, partners, force, _ = steps[i] or make_step(i)
        for p in partners:
            m &= cent[images[p]]
        if force is not None and m:
            pre, post, roots = force
            a = b = ident
            for h, row in pre:
                a = table[a][row[images[h]]]
            for h, row in post:
                b = table[b][row[images[h]]]
            m &= roots[inv[table[b][a]]]   # x^e = (post pre)^-1
        return m

    last = len(steps) - 1
    masks = [0] * len(steps)
    masks[0] = candidates(0)
    i = 0
    while i >= 0:
        m = masks[i]
        if not m:
            i -= 1
            continue
        low = m & -m
        masks[i] = m ^ low
        gen, _, _, _, checks = steps[i]
        images[gen] = low.bit_length() - 1
        for word in checks:
            a = ident
            for h, row in word:
                a = table[a][row[images[h]]]
            if a != ident:
                break
        else:
            if i == last:
                out.append(tuple(images))
            else:
                i += 1
                masks[i] = candidates(i)
    return out


def _run_blocks(plan: list[_Step], g: FinGroupJ) -> np.ndarray:
    """Run the plan on numpy blocks of partial rows, one column per placed
    step, depth first, at most BLOCK_CELLS // g.n rows per block. A step's
    candidates are one boolean row product (its domain, the centralizer
    rows of its placed partners' images and the root row of its forced
    value), expanded by np.nonzero; its checks are table gathers. A step
    forced with exponent +-1 has one candidate per row, so it gathers that
    candidate's domain and centralizer entries instead."""
    n, ident = g.n, g.identity
    table, cent, inv = (g.table_array(), g.centralizer_matrix(),
                        g.power_array(-1))
    k = len(plan)
    pos = {st.gen: i for i, st in enumerate(plan)}
    steps: list = [None] * k  # made when the search first gets there

    def letters(word):
        return [(pos[h], None if e == 1 else g.power_array(e))
                for h, e in word]

    def make_step(i: int) -> tuple:
        _, dom, partners, force, checks = plan[i]
        mask = (dom >> np.arange(n, dtype=object) & 1).astype(bool)
        if force is not None:
            pre, e, post = force
            force = (letters(pre), e, letters(post),
                     None if abs(e) == 1 else g.root_matrix(e))
        steps[i] = (mask, np.flatnonzero(mask),
                    [pos[p] for p in partners], force,
                    [letters(w) for w in checks])
        return steps[i]

    def product(rows, word):
        acc = None
        for col, power in word:
            x = rows[:, col] if power is None else power[rows[:, col]]
            acc = x if acc is None else table[acc, x]
        return acc

    block = max(1, BLOCK_CELLS // n)
    done = []
    stack = [(0, np.empty((1, 0), dtype=np.intp))]
    while stack:
        i, rows = stack.pop()
        if len(rows) > block:
            stack.append((i, rows[block:]))
            rows = rows[:block]
        mask, values, partners, force, checks = steps[i] or make_step(i)
        if force is not None:
            pre, e, post, roots = force
            a, b = product(rows, pre), product(rows, post)
            z = a if b is None else b if a is None else table[b, a]
        if force is not None and roots is None:
            # one root: x = (post pre)^-1 for e = 1, post pre for e = -1
            xs = inv[z] if e == 1 else z
            keep = mask[xs]
            for col in partners:
                keep &= cent[rows[:, col], xs]
            src = np.flatnonzero(keep)
            xs = xs[src]
        elif partners or force is not None:
            cand = mask
            for col in partners:
                cand = cand & cent[rows[:, col]]
            if force is not None:
                cand = cand & roots[inv[z]]   # x^e = (post pre)^-1
            src, xs = np.nonzero(cand)
        else:
            src = np.repeat(np.arange(len(rows)), len(values))
            xs = np.tile(values, len(rows))
        new = np.empty((len(src), i + 1), dtype=np.intp)
        new[:, :i] = rows[src]
        new[:, i] = xs
        for word in checks:
            new = new[product(new, word) == ident]
        if not len(new):
            continue
        if i + 1 < k:
            stack.append((i + 1, new))
        else:
            done.append(new)
    found = np.concatenate(done) if done else np.empty((0, k), np.intp)
    out = np.empty_like(found)
    out[:, [st.gen for st in plan]] = found
    return out


def _hom_rows(pres: Presentation, g: FinGroupJ, pin_j: bool) -> np.ndarray:
    """The image tuples of `enumerate_homs` as the rows of one sorted array,
    every row checked by `check_hom_rows`."""
    plan = _compile_plan(pres, g, pin_j)
    leaves = 1
    for st in plan:
        if st.force is None:
            leaves *= st.dom.bit_count()
    if not plan:
        rows = np.empty((1, 0), dtype=np.intp)
    elif leaves > NUMPY_LEAF_BOUND:
        rows = _run_blocks(plan, g)
        rows = rows[np.lexsort(rows.T[::-1])]
    else:
        rows = np.array(sorted(_run_rows(plan, g)),
                        dtype=np.intp).reshape(-1, len(plan))
    check_hom_rows(pres, g, rows)
    return rows


def enumerate_homs(pres: Presentation, g: FinGroupJ,
                   pin_j: bool = True) -> list[Hom]:
    """All homomorphisms pres -> g, sorted by their image tuples.

    With pin_j the distinguished generator maps to g.j, so the result is
    Hom_J(pres, g); `solutions` is this search run on the solution group.

    Each call compiles one static plan over the distinct relators, a step
    per generator in `_generator_order`. A step's domain is the elements
    that satisfy its single-generator relators (for the pinned generator:
    g.j, if it does), so those relators hold by construction, and so do
    commutators with the pinned generator, g.j being central. A step also
    holds the commutator partners placed before it, whose images'
    centralizers filter its candidates; at most one forcing relator, one
    whose last generator in the order is this one and which contains it
    exactly once, read as x^e = (pre^-1 post^-1) through the group's root
    table for e (exponent +-1 preferred); and the other relators that close
    at this step, as checks on its image. Every relator is therefore
    checked by the time its last generator is placed.

    Two executors run the plan. `_run_rows` is a depth-first search over
    Python ints and bitmasks; `_run_blocks` expands numpy blocks of partial
    rows depth first, with at most BLOCK_CELLS (rows x group order) cells
    per block, so live memory stays bounded however wide a level gets. The
    plan's leaf bound, the product of the domain sizes of its steps without
    a forcing relator, selects: above NUMPY_LEAF_BOUND the blocks run, so
    small searches keep the low per-call cost of Python and large ones the
    per-row speed of numpy. Either way every result row then passes
    `check_hom_rows`, which shares no code with the plan.
    """
    rows = _hom_rows(pres, g, pin_j)
    return Hom._of_checked_rows(pres, g, rows.tolist())


# -------------------------------------------------------------- solution sets

def solutions(system: LinearSystem, g: FinGroupJ) -> list[tuple[int, ...]]:
    """Sol(A,b;G), sorted: all T: columns -> G with T(v)^d = 1, T(v) and T(w)
    commuting whenever v and w share a row, and prod_v T(v)^{A_iv} = J^{b_i}.

    Computed as Hom_J(Gamma(A,b), G): e_v -> T(v), J -> J_G is a bijection
    onto the J-pinned homs of the solution group, and J is its last
    generator, so dropping J's column from the sorted hom rows gives T.
    """
    d = system.modulus
    if g.d != d:
        raise ValueError(f"group J-order {g.d} != system modulus {d}")
    rows = _hom_rows(solution_group(system), g, pin_j=True)
    return list(map(tuple, rows[:, :-1].tolist()))


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

    # the pairs of columns that share a row's support, and the columns that
    # a singleton-support row with a unit entry pins to <J>
    shared: set = set()
    pinned: set = set()
    for row in system.matrix.rows:
        supp = [v for v, e in enumerate(row) if e]
        shared.update(itertools.combinations(supp, 2))
        if len(supp) == 1 and gcd(row[supp[0]], d) == 1:
            pinned.add(supp[0])

    def commuting_justified(a: int, b: int) -> bool:
        """[e_a, e_b] = 1 must follow from a row: shared support, or a
        singleton-support row with unit entry pinning one of them to <J>."""
        return (a == b or a in pinned or b in pinned
                or (min(a, b), max(a, b)) in shared)

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
        rows2 = _hom_rows(p2, g, pin_j=True)
        # generator k of p1 goes to J^a h(e_tau), with (a, tau) its token
        jpow, cols = [], []
        for k in range(p1.num_gens()):
            a_vec, tau = xg_tokens[k]
            jpow.append(g.j_power(a_vec[0] % g.d))
            cols.append(col_pos[tau])
        rows1 = g.table_array()[jpow, rows2[:, cols]]
        check_hom_rows(p1, g, rows1)  # every transported hom, in full
        if (rows1[:, e1_gen] != g.j).any():
            raise AssertionError("transported hom does not pin e_1")
        images1 = set(map(tuple, rows1.tolist()))
        if len(images1) != len(rows2):
            passed = False
        # Hom_J(p1, g) with e_1 in the role of J
        rows1_direct = _hom_rows(Presentation(p1.gens, p1.relators,
                                              p1.gens[e1_gen]), g, pin_j=True)
        hom_counts[g.name] = (len(rows1_direct), len(rows2))
        if (len(rows1_direct) != len(rows2)
                or images1 != set(map(tuple, rows1_direct.tolist()))):
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
