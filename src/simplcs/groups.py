"""Finite groups presented by Cayley tables, with a designated central J of order d.

All group families used anywhere in the package are constructed here, either
directly (cyclic, dihedral, quaternion, Heisenberg, monomial E_1(p^m), wreath)
or by closure operations (direct and central products). Tables are validated on
construction: identity, inverses, associativity (Light's test, exact at every
order and vectorized with numpy), centrality and exact order of J.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

MAX_ORDER = 4096


class GroupValidationError(ValueError):
    pass


class GroupTable:
    """A finite group as an n x n multiplication table of element indices."""

    def __init__(self, table: Sequence[Sequence[int]], identity: int,
                 name: str = ""):
        self.table = tuple(tuple(map(int, row)) for row in table)
        self.n = len(self.table)
        self.identity = identity
        self.name = name or f"group{self.n}"
        if self.n > MAX_ORDER:
            raise GroupValidationError(f"group too large ({self.n} > {MAX_ORDER})")
        self._inv: Optional[tuple[int, ...]] = None
        self._orders: Optional[tuple[int, ...]] = None
        self._tables: dict = {}
        self._validate()

    # -- structure -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        if self._inv is None:
            inv = []
            for g, row in enumerate(self.table):
                try:
                    inv.append(row.index(self.identity))
                except ValueError:
                    raise GroupValidationError(
                        f"element {g} has no inverse") from None
            self._inv = tuple(inv)
        return self._inv[a]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        out = self.identity
        base = g
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def order(self, g: int) -> int:
        if self._orders is None:
            orders = []
            for x in range(self.n):
                k, y = 1, x
                while y != self.identity:
                    y = self.mul(y, x)
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[g]

    def commute(self, a: int, b: int) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    # The tables below serve the hom search and its check; each is computed
    # on first use and cached per group (and per exponent e).

    def memo(self, key, build: Callable):
        """build(), computed once per group and key."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def centralizer_masks(self) -> tuple[int, ...]:
        """Per element x, the bitmask of its centralizer: bit y is set iff
        xy = yx."""
        def build():
            t = self.table
            return tuple(
                sum(1 << y for y, (a, b) in enumerate(zip(row, col)) if a == b)
                for row, col in zip(t, zip(*t)))
        return self.memo("centralizer_masks", build)

    def power_row(self, e: int) -> tuple[int, ...]:
        """x -> x^e for every x at once, by squaring whole rows."""
        def build():
            t = self.table
            self.inv(0)
            base, row, m = self._inv if e < 0 else range(self.n), None, abs(e)
            while m:
                if m & 1:
                    row = base if row is None else [
                        t[a][b] for a, b in zip(row, base)]
                m >>= 1
                if m:
                    base = [t[b][b] for b in base]
            return (self.identity,) * self.n if row is None else tuple(row)
        return self.memo(("power", e), build)

    def root_masks(self, e: int) -> tuple[int, ...]:
        """y -> the bitmask of the x with x^e = y."""
        def build():
            masks = [0] * self.n
            for x, y in enumerate(self.power_row(e)):
                masks[y] |= 1 << x
            return tuple(masks)
        return self.memo(("roots", e), build)

    def table_array(self) -> np.ndarray:
        """The Cayley table as an n x n intp array."""
        return self.memo("table", lambda: np.array(self.table, dtype=np.intp))

    def power_array(self, e: int) -> np.ndarray:
        return self.memo(("power_array", e),
                         lambda: np.array(self.power_row(e), dtype=np.intp))

    def centralizer_matrix(self) -> np.ndarray:
        """Boolean n x n: entry (x, y) is xy = yx."""
        def build():
            t = self.table_array()
            return t == t.T
        return self.memo("centralizer", build)

    def root_matrix(self, e: int) -> np.ndarray:
        """Boolean n x n: entry (y, x) is x^e = y."""
        def build():
            out = np.zeros((self.n, self.n), dtype=bool)
            out[self.power_array(e), np.arange(self.n)] = True
            return out
        return self.memo(("root_matrix", e), build)

    def torsion(self, d: int) -> tuple[int, ...]:
        return tuple(g for g in range(self.n) if self.power(g, d) == self.identity)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a))

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        n, e = self.n, self.identity
        if n == 0:
            raise GroupValidationError("empty table")
        if any(len(row) != n for row in self.table):
            raise GroupValidationError("malformed Cayley table")
        try:
            arr = np.array(self.table, dtype=np.int32)  # n <= MAX_ORDER
        except OverflowError:  # an entry beyond int32 is out of range too
            arr = None
        if arr is None or arr.min() < 0 or arr.max() >= n:
            raise GroupValidationError("malformed Cayley table")
        for g in range(n):
            if self.table[e][g] != g or self.table[g][e] != g:
                raise GroupValidationError("identity law fails")
        self.inv(0)  # forces inverse existence check
        # Light's test: the b with (xb)y = x(by) for all x, y include e and
        # are closed under products, so it suffices to check b in a set S
        # whose products reach every element. S is built greedily: the next
        # b is the first element not yet reached, and the reached set is
        # closed under right multiplication by S after each check. The
        # n x n comparisons go into buffers made once: a fresh temporary per
        # b is a fresh mmap (and its page faults) whenever it is above
        # malloc's mmap threshold
        left = np.empty((n, n), dtype=np.int32)
        right = np.empty((n, n), dtype=np.int32)
        same = np.empty((n, n), dtype=bool)
        reached = np.zeros(n, dtype=bool)
        reached[e] = True
        gens: list[int] = []
        for b in range(n):
            if reached[b]:
                continue
            # mode="clip" writes into `out` directly (entries are in range,
            # checked above); "raise" would buffer it
            np.take(arr, arr[:, b], axis=0, out=left, mode="clip")
            np.take(arr, arr[b], axis=1, out=right, mode="clip")
            if not np.equal(left, right, out=same).all():
                raise GroupValidationError(f"associativity fails at {b}")
            gens.append(b)
            frontier, cols = np.flatnonzero(reached), [b]
            while frontier.size:
                fresh = np.zeros(n, dtype=bool)
                fresh[arr[np.ix_(frontier, cols)]] = True
                fresh &= ~reached
                reached |= fresh
                frontier, cols = np.flatnonzero(fresh), gens


class FinGroupJ(GroupTable):
    """Group table plus a central element J of order exactly d."""

    def __init__(self, table, identity: int, j: int, d: int,
                 name: str = "", elements: Optional[tuple] = None):
        super().__init__(table, identity, name=name)
        self.j = j
        self.d = d
        self.elements = elements  # optional concrete element objects
        if not all(self.commute(j, g) for g in range(self.n)):
            raise GroupValidationError("J is not central")
        if self.order(j) != d:
            raise GroupValidationError(
                f"J has order {self.order(j)}, expected {d}")

    def j_power(self, k: int) -> int:
        return self.power(self.j, k)

    def j_exponent(self, g: int) -> Optional[int]:
        """k with g = J^k, or None if g is not a power of J."""
        x, k = self.identity, 0
        while True:
            if x == g:
                return k
            x = self.mul(x, self.j)
            k += 1
            if k > self.d:
                return None


def table_from_elements(elements: Sequence, mult: Callable, identity,
                        j, d: int, name: str) -> FinGroupJ:
    """Index a concrete element list into a FinGroupJ."""
    elements = list(elements)
    index = {el: i for i, el in enumerate(elements)}
    if len(index) != len(elements):
        raise GroupValidationError("duplicate elements")
    table = [[index[mult(a, b)] for b in elements] for a in elements]
    return FinGroupJ(table, index[identity], index[j], d, name=name,
                     elements=tuple(elements))


# ---------------------------------------------------------------- families

def cyclic(n: int, jorder: Optional[int] = None) -> FinGroupJ:
    if jorder is None:
        jorder = n
    if n % jorder:
        raise GroupValidationError(f"jorder {jorder} does not divide {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    j = 1 % n if jorder == n else (n // jorder) % n
    return FinGroupJ(table, 0, j, jorder,
                     name=f"cyclic:{n}" + ("" if jorder == n else f":{jorder}"))


def dihedral(order: int) -> FinGroupJ:
    if order % 4:
        raise GroupValidationError("dihedral group needs order divisible by 4")
    k = order // 2

    def mult(a, b):
        i, e = a
        i2, e2 = b
        return ((i + (i2 if e == 0 else -i2)) % k, (e + e2) % 2)

    els = [(i, e) for e in (0, 1) for i in range(k)]
    return table_from_elements(els, mult, (0, 0), (k // 2, 0), 2,
                               name=f"dihedral:{order}")


def quaternion() -> FinGroupJ:
    # i^a j^b with j i = i^-1 j and j^2 = i^2
    def mult(x, y):
        a, b = x
        a2, b2 = y
        if b == 0:
            return ((a + a2) % 4, b2)
        a_new = (a - a2) % 4
        if b2 == 1:
            return ((a_new + 2) % 4, 0)
        return (a_new, 1)

    els = [(a, b) for b in (0, 1) for a in range(4)]
    return table_from_elements(els, mult, (0, 0), (2, 0), 2, name="quaternion")


def heisenberg(p: int) -> FinGroupJ:
    def mult(x, y):
        a, b, c = x
        a2, b2, c2 = y
        return ((a + a2) % p, (b + b2) % p, (c + c2 + a * b2) % p)

    els = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    return table_from_elements(els, mult, (0, 0, 0), (0, 0, 1), p,
                               name=f"heisenberg:{p}")


def semidihedral_minus(p: int) -> FinGroupJ:
    """E_1^-(p) for odd p: Z_{p^2} extended by Z_p acting via x -> x^{1+p}."""
    p2 = p * p

    def mult(x, y):
        a, b = x
        a2, b2 = y
        return ((a2 + a * pow(1 + p, b2, p2)) % p2, (b + b2) % p)

    els = [(a, b) for a in range(p2) for b in range(p)]
    return table_from_elements(els, mult, (0, 0), (p, 0), p,
                               name=f"e1minus:{p}")


def direct_product(g: FinGroupJ, h: GroupTable) -> FinGroupJ:
    """G x H with J = (J_G, 1)."""
    nh = h.n

    def idx(a, b):
        return a * nh + b

    # rows/cols enumerate (a, b) with the H coordinate fastest
    table = [[idx(g.table[a1][a2], h.table[b1][b2]) for a2 in range(g.n)
              for b2 in range(nh)] for a1 in range(g.n) for b1 in range(nh)]
    return FinGroupJ(table, idx(g.identity, h.identity),
                     idx(g.j, h.identity), g.d,
                     name=f"product({g.name},{h.name})")


def central_product(g: FinGroupJ, h: FinGroupJ) -> FinGroupJ:
    """(G x H) / <(J_G, J_H^-1)>, with J the image of (J_G, 1)."""
    if g.d != h.d:
        raise GroupValidationError("central product needs equal J orders")
    d = g.d

    def canonical(a, b):
        best = (a, b)
        x, y = a, b
        for _ in range(d - 1):
            x = g.mul(x, g.j)
            y = h.mul(y, h.inv(h.j))
            if (x, y) < best:
                best = (x, y)
        return best

    els = sorted({canonical(a, b) for a in range(g.n) for b in range(h.n)})

    def mult(x, y):
        return canonical(g.mul(x[0], y[0]), h.mul(x[1], y[1]))

    return table_from_elements(
        els, mult, canonical(g.identity, h.identity),
        canonical(g.j, h.identity), d,
        name=f"central_product({g.name},{h.name})")


def extraspecial(p: int, n: int, kind: str) -> FinGroupJ:
    """Extraspecial families: '+'/'-' of order p^(2n+1), '0' almost (p=2 only)."""
    if kind == "+":
        base = dihedral(8) if p == 2 else heisenberg(p)
        out = base
        for _ in range(n - 1):
            out = central_product(out, base)
    elif kind == "-":
        if p == 2:
            out = quaternion()
            for _ in range(n - 1):
                out = central_product(out, dihedral(8))
        else:
            out = semidihedral_minus(p)
            for _ in range(n - 1):
                out = central_product(out, heisenberg(p))
    elif kind == "0":
        if p != 2:
            raise GroupValidationError("almost extraspecial requires p=2")
        out = central_product(extraspecial(2, n, "+"), cyclic(4, 2))
    else:
        raise GroupValidationError(f"unknown extraspecial kind {kind!r}")
    out.name = f"extraspecial:{p}:{n}:{kind}"
    return out


def wreath_cyclic(p: int) -> FinGroupJ:
    """Z_p wr Z_p: base Z_p^p, cyclic shift on top; J = diagonal (1,...,1)."""

    def mult(x, y):
        v, k = x
        w, m = y
        shifted = tuple(w[(i - k) % p] for i in range(p))
        return (tuple((a + b) % p for a, b in zip(v, shifted)), (k + m) % p)

    els = [(v, k) for v in itertools.product(range(p), repeat=p)
           for k in range(p)]
    return table_from_elements(els, mult, (tuple([0] * p), 0),
                               (tuple([1] * p), 0), p, name=f"wreath:{p}")


# --------------------------------------------------- monomial groups E_1(p^m)

@dataclass(frozen=True)
class MonomialElement:
    """D(xi) X^b in SU(C^{Z_p}): diag = p^m-th root exponents, det-1 condition."""

    diag: tuple[int, ...]
    shift: int
    p: int
    m: int

    def __post_init__(self):
        pm = self.p ** self.m
        if len(self.diag) != self.p:
            raise ValueError("diag length must be p")
        if sum(self.diag) % pm:
            raise ValueError("determinant condition fails (sum of exponents)")

    def mul(self, other: "MonomialElement") -> "MonomialElement":
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("mixed monomial groups")
        p, pm = self.p, self.p ** self.m
        b = self.shift
        shifted = tuple(other.diag[(q - b) % p] for q in range(p))
        return MonomialElement(
            tuple((a + c) % pm for a, c in zip(self.diag, shifted)),
            (self.shift + other.shift) % p, self.p, self.m)

    def inverse(self) -> "MonomialElement":
        p, pm = self.p, self.p ** self.m
        b = self.shift
        # (D X^b)^-1 = X^-b D^-1 = D(-diag shifted by -b) X^-b
        diag = tuple((-self.diag[(q + b) % p]) % pm for q in range(p))
        return MonomialElement(diag, (-b) % p, self.p, self.m)

    def pow(self, k: int) -> "MonomialElement":
        out = MonomialElement.one(self.p, self.m)
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    @staticmethod
    def one(p: int, m: int) -> "MonomialElement":
        return MonomialElement(tuple([0] * p), 0, p, m)

    @staticmethod
    def scalar_j(p: int, m: int) -> "MonomialElement":
        """omega_p * identity, the canonical central element of order p."""
        return MonomialElement(tuple([p ** (m - 1)] * p), 0, p, m)


def build_e1(p: int, m: int) -> FinGroupJ:
    """E_1(p^m) = <T_(p^m), X> as a Cayley table over MonomialElement."""
    if m not in (1, 2):
        raise GroupValidationError("E_1(p^m) supported for m in {1, 2} only")
    if p < 3 or any(p % q == 0 for q in range(2, p)):
        raise GroupValidationError("p must be an odd prime")
    pm = p ** m
    els = []
    for head in itertools.product(range(pm), repeat=p - 1):
        last = (-sum(head)) % pm
        diag = head + (last,)
        for b in range(p):
            els.append(MonomialElement(diag, b, p, m))
    return table_from_elements(els, MonomialElement.mul,
                               MonomialElement.one(p, m),
                               MonomialElement.scalar_j(p, m), p,
                               name=f"e1:{p}:{m}")


def _lagrange_coeffs(values: Sequence[int], p: int) -> tuple[int, ...]:
    """Coefficients (nu_0..nu_{p-1}) of the poly over Z_p hitting the values."""
    coeffs = [0] * p
    for point in range(p):
        # basis polynomial prod_{r != point} (q - r) / (point - r)
        basis = [1] + [0] * (p - 1)
        denom = 1
        for r in range(p):
            if r == point:
                continue
            new = [0] * p
            for i in range(p - 1):
                new[i + 1] = (new[i + 1] + basis[i]) % p
                new[i] = (new[i] - r * basis[i]) % p
            basis = new
            denom = (denom * (point - r)) % p
        inv = pow(denom, -1, p)
        scale = (values[point] * inv) % p
        coeffs = [(c + scale * b) % p for c, b in zip(coeffs, basis)]
    return tuple(coeffs)


def monomial_split(x: MonomialElement) -> MonomialElement:
    """The splitting E_1(p^2) -> E_1(p), p = 3 (root-of-unity digit surgery).

    Base-p digits of each diagonal exponent give two polynomials f_1, f_2 on
    Z_p; their interpolated coefficients determine the image. Restricted to
    p = 3 where the coefficient formula covers the whole p-torsion torus.
    """
    p, m = x.p, x.m
    if m != 2:
        raise ValueError("monomial_split is defined on E_1(p^2) elements (m=2)")
    if p != 3:
        raise ValueError("monomial_split implemented for p = 3")
    if x.shift == 0 or x.shift == 1:
        f2 = [c % p for c in x.diag]          # low digit, weight 1/p^2
        f1 = [(c // p) % p for c in x.diag]   # high digit, weight 1/p
        nu1 = _lagrange_coeffs(f1, p)
        nu2 = _lagrange_coeffs(f2, p)
        if x.shift == 0:
            vals = [(nu1[0] + nu2[0] + nu1[1] * q) % p for q in range(p)]
            return MonomialElement(tuple(vals), 0, p, 1)
        vals = [(nu1[0] + nu1[1] * q) % p for q in range(p)]
        return MonomialElement(tuple(vals), 1, p, 1)
    binv = pow(x.shift, -1, p)
    return monomial_split(x.pow(binv)).pow(x.shift)


def embed_e1(x: MonomialElement) -> MonomialElement:
    """E_1(p) -> E_1(p^2): p-th roots of unity become p^2-th roots."""
    if x.m != 1:
        raise ValueError("embed_e1 expects an E_1(p) element")
    return MonomialElement(tuple(x.p * c for c in x.diag), x.shift, x.p, 2)


# ------------------------------------------------------------ group-spec I/O

_ATOM = re.compile(r"^[a-z0-9_]+(:[^:(),]+)*$")


def _split_args(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def build_group(spec: str) -> FinGroupJ:
    """Parse a group-spec string; see README for the grammar."""
    spec = spec.strip()
    m = re.match(r"^(central_product|product)\((.*)\)$", spec)
    if m:
        kind, body = m.group(1), m.group(2)
        args = _split_args(body)
        if len(args) < 2:
            raise GroupValidationError(f"{kind} needs two operands")
        groups = [build_group(a) for a in args]
        out = groups[0]
        for nxt in groups[1:]:
            out = (central_product(out, nxt) if kind == "central_product"
                   else direct_product(out, nxt))
        return out
    if not _ATOM.match(spec):
        raise GroupValidationError(f"cannot parse group spec {spec!r}")
    head, *rest = spec.split(":")
    try:
        return _build_family(head, rest)
    except (ValueError, ArithmeticError, IndexError, KeyError) as exc:
        # bad parameters: non-integers, zero orders, missing fields
        raise GroupValidationError(
            f"cannot build group {spec!r}: {exc}") from exc


def _build_family(head: str, rest: list[str]) -> FinGroupJ:
    if head == "cyclic":
        if not rest:
            raise GroupValidationError("cyclic:n[:jorder]")
        return cyclic(int(rest[0]), int(rest[1]) if len(rest) > 1 else None)
    if head == "dihedral":
        return dihedral(int(rest[0]) if rest else 8)
    if head == "quaternion":
        return quaternion()
    if head == "heisenberg":
        return heisenberg(int(rest[0]))
    if head == "extraspecial":
        return extraspecial(int(rest[0]), int(rest[1]), rest[2])
    if head == "e1":
        return build_e1(int(rest[0]), int(rest[1]))
    if head == "wreath":
        return wreath_cyclic(int(rest[0]))
    if head == "cayley":
        return load_cayley(":".join(rest))
    raise GroupValidationError(f"unknown group family {head!r}")


def load_cayley(path: str) -> FinGroupJ:
    """Cayley file: first line `n d identity_idx J_idx`, then n rows of n indices."""
    try:
        with open(path) as fh:
            lines = [ln.split("#")[0].strip() for ln in fh]
    except OSError as exc:
        raise GroupValidationError(
            f"cannot read cayley file {path!r}: {exc.strerror}") from exc
    lines = [ln for ln in lines if ln]
    n, d, ident, j = map(int, lines[0].split())
    rows = [list(map(int, ln.split())) for ln in lines[1:n + 1]]
    if len(rows) != n:
        raise GroupValidationError("cayley file truncated")
    return FinGroupJ(rows, ident, j, d, name=f"cayley:{path}")


# --------------------------------------------------------- central extensions

@dataclass(frozen=True)
class CentralExtensionData:
    """1 -> <J> -> G -> Gbar -> 1 plus a chosen set-theoretic section."""

    group: FinGroupJ
    quotient: GroupTable
    projection: tuple[int, ...]          # G index -> Gbar index
    section: tuple[int, ...]             # Gbar index -> G index

    def __post_init__(self):
        g, q = self.group, self.quotient
        pi, phi = self.projection, self.section
        for a in range(g.n):
            for b in range(g.n):
                if pi[g.mul(a, b)] != q.mul(pi[a], pi[b]):
                    raise GroupValidationError("projection is not a homomorphism")
        kernel = {a for a in range(g.n) if pi[a] == q.identity}
        jspan = {g.j_power(k) for k in range(g.d)}
        if kernel != jspan:
            raise GroupValidationError("projection kernel is not <J>")
        for x in range(q.n):
            if pi[phi[x]] != x:
                raise GroupValidationError("section does not split the projection")
        if phi[q.identity] != g.identity:
            raise GroupValidationError("section must preserve the identity")


def quotient_by_j(g: FinGroupJ) -> CentralExtensionData:
    """Quotient by <J> with the minimal-index section (identity-preserving)."""
    jspan = [g.j_power(k) for k in range(g.d)]
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in range(g.n):
        if x in coset_of:
            continue
        members = sorted(g.mul(x, z) for z in jspan)
        rep_index = len(reps)
        reps.append(members[0])
        for mbr in members:
            coset_of[mbr] = rep_index
    # force the identity's coset to be index 0 with section value = identity
    e_coset = coset_of[g.identity]
    if e_coset != 0:
        perm = {e_coset: 0, 0: e_coset}
        reps[0], reps[e_coset] = reps[e_coset], reps[0]
        coset_of = {x: perm.get(c, c) for x, c in coset_of.items()}
    reps[0] = g.identity
    table = [[coset_of[g.mul(reps[a], reps[b])] for b in range(len(reps))]
             for a in range(len(reps))]
    quotient = GroupTable(table, 0, name=f"{g.name}/J")
    return CentralExtensionData(g, quotient,
                                tuple(coset_of[x] for x in range(g.n)),
                                tuple(reps))


class GroupCocycle:
    """Normalized Z_d-valued group 2-cocycle on the quotient of an extension."""

    def __init__(self, ext: CentralExtensionData):
        g, q, phi = ext.group, ext.quotient, ext.section
        self.ext = ext
        self.modulus = g.d
        values: dict[tuple[int, int], int] = {}
        for a in range(q.n):
            for b in range(q.n):
                lhs = g.mul(g.mul(phi[a], phi[b]), g.inv(phi[q.mul(a, b)]))
                e = g.j_exponent(lhs)
                if e is None:
                    raise GroupValidationError(
                        "section defect is not a power of J (corrupt extension)")
                values[(a, b)] = e % g.d
        self.values = values

    def __call__(self, a: int, b: int) -> int:
        return self.values[(a, b)]

    def is_normalized(self) -> bool:
        q = self.ext.quotient
        e = q.identity
        return all(self.values[(e, x)] == 0 and self.values[(x, e)] == 0
                   for x in range(q.n))

    def cocycle_defects(self) -> list[tuple[int, int, int]]:
        """Triples violating the group 2-cocycle identity (should be empty)."""
        q, d = self.ext.quotient, self.modulus
        bad = []
        for g1 in range(q.n):
            for g2 in range(q.n):
                for g3 in range(q.n):
                    lhs = (self.values[(g2, g3)]
                           - self.values[(q.mul(g1, g2), g3)]
                           + self.values[(g1, q.mul(g2, g3))]
                           - self.values[(g1, g2)]) % d
                    if lhs:
                        bad.append((g1, g2, g3))
        return bad


# ------------------------------------------------------------- power maps

@dataclass(frozen=True)
class PowerMap:
    """g -> g^m restricted to the d-torsion part, as a Grp_(d) morphism."""

    group: FinGroupJ
    exponent: int
    mapping: dict

    def __call__(self, g: int) -> int:
        return self.mapping[g]

    def defects(self) -> list[tuple[int, int]]:
        """Commuting d-torsion pairs where multiplicativity fails (empty)."""
        g = self.group
        tor = g.torsion(g.d)
        bad = []
        for a in tor:
            for b in tor:
                if g.commute(a, b):
                    if self.mapping[g.mul(a, b)] != g.mul(self.mapping[a],
                                                          self.mapping[b]):
                        bad.append((a, b))
        return bad


def power_map(g: FinGroupJ, m: int) -> PowerMap:
    mapping = {x: g.power(x, m) for x in g.torsion(g.d)}
    return PowerMap(g, m, mapping)


def find_torsion_pair(g: GroupTable, p: int) -> Optional[tuple[int, int]]:
    """Noncommuting p-torsion g, h with g^-1 h also p-torsion (exhaustive)."""
    tor = [x for x in range(g.n) if g.power(x, p) == g.identity]
    tor_set = set(tor)
    for a in tor:
        for b in tor:
            if not g.commute(a, b) and g.mul(g.inv(a), b) in tor_set:
                return (a, b)
    return None


# ------------------------------------------------------------ iso search

def find_isomorphism(g: GroupTable, h: GroupTable,
                     fix_j: bool = False) -> Optional[dict[int, int]]:
    """Brute-force isomorphism search (intended for order <= 64)."""
    if g.n != h.n:
        return None
    if g.n > 64:
        raise ValueError("iso search capped at order 64")
    order_hist_g = sorted(g.order(x) for x in range(g.n))
    order_hist_h = sorted(h.order(x) for x in range(h.n))
    if order_hist_g != order_hist_h:
        return None

    gens: list[int] = []
    generated = {g.identity}
    for x in sorted(range(g.n), key=lambda t: -g.order(t)):
        if x not in generated:
            gens.append(x)
            frontier = list(generated | {x})
            closure = set(frontier)
            while frontier:
                nxt = []
                for a in frontier:
                    for b in list(closure):
                        for y in (g.mul(a, b), g.mul(b, a)):
                            if y not in closure:
                                closure.add(y)
                                nxt.append(y)
                frontier = nxt
            generated = closure
        if len(generated) == g.n:
            break

    h_by_order: dict[int, list[int]] = {}
    for y in range(h.n):
        h_by_order.setdefault(h.order(y), []).append(y)

    def extend(images: list[int]) -> Optional[dict[int, int]]:
        # close the partial map generated by gens -> images
        mapping = {g.identity: h.identity}
        pairs = list(zip(gens[:len(images)], images))
        for src, dst in pairs:
            mapping[src] = dst
        frontier = list(mapping)
        while frontier:
            nxt = []
            for a in frontier:
                for src, dst in pairs:
                    for prod, hprod in ((g.mul(a, src), h.mul(mapping[a], dst)),
                                        (g.mul(src, a), h.mul(dst, mapping[a]))):
                        if prod in mapping:
                            if mapping[prod] != hprod:
                                return None
                        else:
                            mapping[prod] = hprod
                            nxt.append(prod)
            frontier = nxt
        if len(set(mapping.values())) != len(mapping):
            return None  # an isomorphism is injective on every subgroup
        if len(images) == len(gens):
            if len(set(mapping.values())) != g.n or len(mapping) != g.n:
                return None
            for a in mapping:
                for b in mapping:
                    if mapping[g.mul(a, b)] != h.mul(mapping[a], mapping[b]):
                        return None
            return mapping
        # try all candidates for the next generator
        nxt_gen = gens[len(images)]
        for cand in h_by_order.get(g.order(nxt_gen), []):
            if fix_j and isinstance(g, FinGroupJ) and isinstance(h, FinGroupJ):
                if nxt_gen == g.j and cand != h.j:
                    continue
            res = extend(images + [cand])
            if res is not None:
                return res
        return None

    if fix_j and isinstance(g, FinGroupJ) and isinstance(h, FinGroupJ):
        if g.j not in gens and g.j != g.identity:
            gens.insert(0, g.j)
    return extend([])
