"""Finite groups presented by Cayley tables, with a designated central J of order d.

All group families used anywhere in the package are constructed here, either
directly (cyclic, dihedral, quaternion, Heisenberg, monomial E_1(p^m), wreath)
or by closure operations (direct and central products). Tables are validated on
construction: identity, inverses, associativity (Light's test, exact at every
order and vectorized with numpy), centrality and exact order of J. Every
power question about a group reads one table built on first use, `powers`.
"""

from __future__ import annotations

import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .linsys import data_lines

MAX_ORDER = 4096


class GroupValidationError(ValueError):
    pass


def _table_array(table) -> np.ndarray:
    """`table` (nested sequences or an array) as a read-only C-ordered n x n
    intp array with entries in range(n); GroupValidationError otherwise.
    An intp array in C order is kept, not copied."""
    try:
        arr = np.asarray(table)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.ndim == 0:
        raise GroupValidationError("malformed Cayley table")
    n = len(arr)
    if n > MAX_ORDER:
        raise GroupValidationError(f"group too large ({n} > {MAX_ORDER})")
    if n == 0:
        raise GroupValidationError("empty table")
    # bool, float and object arrays are rejected here, not truncated; an
    # object array is also what nested lists with an entry beyond int64 give
    if (arr.shape != (n, n) or arr.dtype.kind not in "iu"
            or arr.min() < 0 or arr.max() >= n):
        raise GroupValidationError("malformed Cayley table")
    arr = np.ascontiguousarray(arr, dtype=np.intp).view()
    arr.flags.writeable = False
    return arr


def _tuples(arr: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The rows of an index array as tuples of ints, shared per element."""
    ids = list(range(arr.shape[1]))
    return tuple(tuple(map(ids.__getitem__, row)) for row in arr.tolist())


def _check_index(what: str, x, n: int) -> None:
    if not isinstance(x, (int, np.integer)) or not 0 <= x < n:
        raise GroupValidationError(f"{what} {x!r} is not in range({n})")


class GroupTable:
    """A finite group as an n x n multiplication table of element indices.

    The table is kept as an intp array (`table_array`); the row tuples of
    `table` are made from it when first read. Every power question (powers,
    power rows, orders, torsion, roots) reads one table, `powers`, built on
    first use."""

    def __init__(self, table: Sequence[Sequence[int]] | np.ndarray,
                 identity: int, name: str = ""):
        self._table_array = _table_array(table)
        self.n = len(self._table_array)
        _check_index("identity", identity, self.n)
        self.identity = identity
        self.name = name or f"group{self.n}"
        self._roots: dict = {}
        self._validate()

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return _tuples(self.table_array())

    def table_array(self) -> np.ndarray:
        """The Cayley table as a read-only n x n intp array."""
        return self._table_array

    # -- structure -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def commute(self, a: int, b: int) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def is_abelian(self) -> bool:
        t = self.table_array()
        return bool((t == t.T).all())

    @cached_property
    def centralizer_masks(self) -> tuple[int, ...]:
        """Per element x, the bitmask of its centralizer: bit y is set iff
        xy = yx."""
        t = self.table
        return tuple(
            sum(1 << y for y, (a, b) in enumerate(zip(row, col)) if a == b)
            for row, col in zip(t, zip(*t)))

    @cached_property
    def centralizer_matrix(self) -> np.ndarray:
        """Boolean n x n: entry (x, y) is xy = yx."""
        t = self.table_array()
        return t == t.T

    # -- powers --------------------------------------------------------

    @cached_property
    def powers(self) -> np.ndarray:
        """Read-only exponent x n intp array: row k is x -> x^k, for
        0 <= k < the group's exponent. Row k + 1 is one gather of row k in
        the table; building stops at the first row that is all identity,
        so the array is never larger than the table."""
        t, every = self.table_array(), np.arange(self.n)
        rows, row = [np.full(self.n, self.identity)], every
        while (row != self.identity).any():
            rows.append(row)
            row = t[row, every]
        out = np.array(rows, dtype=np.intp)
        out.flags.writeable = False
        return out

    @cached_property
    def _power_rows(self) -> tuple[tuple[int, ...], ...]:
        return _tuples(self.powers)

    @cached_property
    def exponent(self) -> int:
        return len(self.powers)

    def power(self, g: int, k: int) -> int:
        return self._power_rows[k % self.exponent][g]

    def power_row(self, e: int) -> tuple[int, ...]:
        """x -> x^e for every x at once."""
        return self._power_rows[e % self.exponent]

    def power_array(self, e: int) -> np.ndarray:
        return self.powers[e % self.exponent]

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Per column of `powers`, its first identity row after row 0."""
        after = np.roll(self.powers, -1, axis=0) == self.identity
        return tuple((after.argmax(axis=0) + 1).tolist())

    def order(self, g: int) -> int:
        return self.orders[g]

    def torsion(self, d: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(
            self.power_array(d) == self.identity).tolist())

    # The hom search's root tables, kept per residue of e mod the exponent

    def root_masks(self, e: int) -> tuple[int, ...]:
        """y -> the bitmask of the x with x^e = y."""
        key = ("masks", e % self.exponent)
        if key not in self._roots:
            masks = [0] * self.n
            for x, y in enumerate(self.power_row(e)):
                masks[y] |= 1 << x
            self._roots[key] = tuple(masks)
        return self._roots[key]

    def root_matrix(self, e: int) -> np.ndarray:
        """Boolean n x n: entry (y, x) is x^e = y."""
        key = ("matrix", e % self.exponent)
        if key not in self._roots:
            out = np.zeros((self.n, self.n), dtype=bool)
            out[self.power_array(e), np.arange(self.n)] = True
            self._roots[key] = out
        return self._roots[key]

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        """Identity and inverse laws, then Light's associativity test, on
        the table array (its shape and range are checked already)."""
        n, e = self.n, self.identity
        arr = self.table_array()
        every = np.arange(n)
        if not ((arr[e] == every).all() and (arr[:, e] == every).all()):
            raise GroupValidationError("identity law fails")
        is_e = arr == e
        has_inverse = is_e.any(axis=1)
        if not has_inverse.all():
            raise GroupValidationError(
                f"element {int(np.argmin(has_inverse))} has no inverse")
        self._inv: tuple[int, ...] = tuple(is_e.argmax(axis=1).tolist())
        del is_e
        # Light's test: the b with (xb)y = x(by) for all x, y include e and
        # are closed under products, so it suffices to check b in a set S
        # whose products reach every element. S is built greedily: the next
        # b is the first element not yet reached, and the reached set is
        # closed under right multiplication by S after each check. The
        # n x n comparisons go into buffers made once: a fresh temporary per
        # b is a fresh mmap (and its page faults) whenever it is above
        # malloc's mmap threshold. They and the table they gather from are
        # int32 (n <= MAX_ORDER), which halves the memory traffic
        arr = arr.astype(np.int32)
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
            frontier, cols = reached.nonzero()[0], [b]
            while frontier.size:
                fresh = np.zeros(n, dtype=bool)
                fresh[arr[frontier[:, None], cols]] = True
                fresh &= ~reached
                reached |= fresh
                frontier, cols = fresh.nonzero()[0], gens


class FinGroupJ(GroupTable):
    """Group table plus a central element J of order exactly d; J's powers
    J^0, ..., J^(d-1) are kept as `j_powers`."""

    def __init__(self, table, identity: int, j: int, d: int,
                 name: str = "", elements: Optional[tuple] = None):
        super().__init__(table, identity, name=name)
        _check_index("J", j, self.n)
        self.j = j
        self.d = d
        self.elements = elements  # optional concrete element objects
        t = self.table_array()
        if not (t[j] == t[:, j]).all():
            raise GroupValidationError("J is not central")
        j_powers, x = [int(identity)], int(j)
        while x != identity:  # at most n steps: J's order divides n
            j_powers.append(x)
            x = int(t[x, j])
        if len(j_powers) != d:
            raise GroupValidationError(
                f"J has order {len(j_powers)}, expected {d}")
        self.j_powers = tuple(j_powers)
        self._j_log = {x: k for k, x in enumerate(j_powers)}

    def j_power(self, k: int) -> int:
        return self.j_powers[k % self.d]

    def j_exponent(self, g: int) -> Optional[int]:
        """k < d with g = J^k, or None if g is not a power of J."""
        return self._j_log.get(g)


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
    a = np.arange(n, dtype=np.intp)
    return FinGroupJ((a[:, None] + a) % n, 0, n // jorder % n, jorder,
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
    # rows/cols enumerate (a, b) as a * nh + b, the H coordinate fastest
    gt, ht = g.table_array(), h.table_array()
    table = (gt[:, None, :, None] * nh + ht[None, :, None, :]).reshape(
        g.n * nh, g.n * nh)
    return FinGroupJ(table, g.identity * nh + h.identity,
                     g.j * nh + h.identity, g.d,
                     name=f"product({g.name},{h.name})")


def central_product(g: FinGroupJ, h: FinGroupJ) -> FinGroupJ:
    """(G x H) / <(J_G, J_H^-1)>, with J the image of (J_G, 1)."""
    if g.d != h.d:
        raise GroupValidationError("central product needs equal J orders")
    d = g.d

    # (a J_G^k, b J_H^-k) for every k name one element; the least names it
    shifts = [(g.j_power(k), h.j_power(-k)) for k in range(d)]

    def canonical(a, b):
        return min((g.mul(a, x), h.mul(b, y)) for x, y in shifts)

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
    """Parse a group-spec string; see README for the grammar. The group's
    order is computed from the spec's parameters and checked against
    MAX_ORDER before any table is built."""
    return _plan(spec)[2]()


def _plan(spec: str) -> tuple[int, int, Callable[[], FinGroupJ]]:
    """(order, J order, build) for a group spec. Raises GroupValidationError
    for a spec that does not parse, a parameter out of its range, or an
    order above MAX_ORDER; `build()` makes the group."""
    spec = spec.strip()
    m = re.match(r"^(central_product|product)\((.*)\)$", spec)
    if m:
        kind, body = m.group(1), m.group(2)
        args = _split_args(body)
        if len(args) < 2:
            raise GroupValidationError(f"{kind} needs two operands")
        plans = [_plan(a) for a in args]
        d = plans[0][1]
        order = 1
        for part_order, part_d, _ in plans:
            if kind == "central_product" and part_d != d:
                raise GroupValidationError(
                    "central product needs equal J orders")
            order *= part_order
        if kind == "central_product":  # each step identifies <J> of order d
            order //= d ** (len(plans) - 1)
        _check_order(spec, order)
        combine = central_product if kind == "central_product" \
            else direct_product

        def build() -> FinGroupJ:
            out = plans[0][2]()
            for _, _, nxt in plans[1:]:
                out = combine(out, nxt())
            return out
        return order, d, build
    if not _ATOM.match(spec):
        raise GroupValidationError(f"cannot parse group spec {spec!r}")
    head, *rest = spec.split(":")
    with _naming(spec):
        base, exp, d, make = _family(head, rest)
    order = _check_order(spec, base, exp)

    def build_atom() -> FinGroupJ:
        with _naming(spec):
            return make()
    return order, d, build_atom


@contextmanager
def _naming(spec: str):
    """A family's parameter or build errors as a GroupValidationError that
    names the spec."""
    try:
        yield
    except (ValueError, ArithmeticError, IndexError, KeyError) as exc:
        raise GroupValidationError(
            f"cannot build group {spec!r}: {exc}") from exc


def _check_order(spec: str, base: int, exp: int = 1) -> int:
    """base ** exp, the order of the group `spec` names, unless it is above
    MAX_ORDER. The power is computed only for an exponent up to MAX_ORDER's
    bit length: past it, any base above 1 gives an order above MAX_ORDER."""
    if (base > 1 and exp > MAX_ORDER.bit_length()) or base ** exp > MAX_ORDER:
        text = f"{base}^{exp}" if exp > 1 else f"{base}"
        raise GroupValidationError(
            f"cannot build group {spec!r}: order {text} is above "
            f"MAX_ORDER = {MAX_ORDER}")
    return base ** exp


def _params(usage: str, rest: list[str], lows: Sequence[int],
            optional: int = 0) -> list[int]:
    """The integer parameters of a family spec, each at least its low value
    in `lows`, the last `optional` of them optional; `usage` (as
    "cyclic:n[:jorder]") names them in the messages."""
    if not len(lows) - optional <= len(rest) <= len(lows):
        raise GroupValidationError(f"expected {usage}")
    values = []
    for name, low, text in zip(re.findall(r":(\w+)", usage), lows, rest):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise GroupValidationError(
                f"{usage}: {name} must be an integer >= {low}, got {text!r}")
        values.append(value)
    return values


def _family(head: str, rest: list[str]
            ) -> tuple[int, int, int, Callable[[], FinGroupJ]]:
    """(base, exponent, J order, build) for one family spec; the group has
    order base ** exponent."""
    if head == "cyclic":
        n, *jorder = _params("cyclic:n[:jorder]", rest, (1, 1), optional=1)
        return n, 1, (jorder or [n])[0], lambda: cyclic(n, *jorder)
    if head == "dihedral":
        order, = _params("dihedral[:order]", rest, (4,), optional=1) or [8]
        return order, 1, 2, lambda: dihedral(order)
    if head == "quaternion":
        _params("quaternion", rest, ())
        return 8, 1, 2, quaternion
    if head == "heisenberg":
        p, = _params("heisenberg:p", rest, (2,))
        return p, 3, p, lambda: heisenberg(p)
    if head == "extraspecial":
        usage = "extraspecial:p:n:kind"
        if len(rest) != 3:
            raise GroupValidationError(f"expected {usage}")
        (p, n), kind = _params(usage, rest[:2], (2, 1)), rest[2]
        # kind "0" is (2^{1+2n}_+ x Z_4) / Z_2, for p = 2 only
        base, exp = (2, 2 * n + 2) if kind == "0" else (p, 2 * n + 1)
        return base, exp, p, lambda: extraspecial(p, n, kind)
    if head == "e1":
        p, m = _params("e1:p:m", rest, (2, 1))
        return p, m * (p - 1) + 1, p, lambda: build_e1(p, m)
    if head == "wreath":
        p, = _params("wreath:p", rest, (2,))
        return p, p + 1, p, lambda: wreath_cyclic(p)
    if head == "cayley":
        g = load_cayley(":".join(rest))
        return g.n, 1, g.d, lambda: g
    raise GroupValidationError(f"unknown group family {head!r}")


def load_cayley(path: str) -> FinGroupJ:
    """Cayley file: first line `n d identity_idx J_idx`, then n rows of n
    indices, in `data_lines`' convention. A malformed file raises
    GroupValidationError naming the line."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise GroupValidationError(
            f"cannot read cayley file {path!r}: {exc.strerror}") from exc
    lines = [(num, line.split()) for num, line in data_lines(text)]
    if not lines:
        raise GroupValidationError("cayley file has no header line")

    def ints(num: int, fields: list[str]) -> list[int]:
        try:
            return list(map(int, fields))
        except ValueError:
            raise GroupValidationError(
                f"line {num}: expected integers, got {' '.join(fields)!r}"
            ) from None

    (num, head), body = lines[0], lines[1:]
    if len(head) != 4:
        raise GroupValidationError(
            f"line {num}: expected `n d identity J`, got {len(head)} fields")
    n, d, ident, j = ints(num, head)
    if not 0 < n <= MAX_ORDER:
        raise GroupValidationError(
            f"line {num}: order {n} is not in 1..{MAX_ORDER}")
    for what, x in (("identity", ident), ("J", j)):
        if not 0 <= x < n:
            raise GroupValidationError(
                f"line {num}: {what} {x} is not in range({n})")
    if len(body) != n:
        where = body[n][0] if len(body) > n else (body or lines)[-1][0]
        raise GroupValidationError(
            f"line {where}: expected {n} table rows after the header, "
            f"found {len(body)}")
    rows = []
    for num, fields in body:
        row = ints(num, fields)
        if len(row) != n:
            raise GroupValidationError(
                f"line {num}: expected {n} entries, got {len(row)}")
        bad = next((x for x in row if not 0 <= x < n), None)
        if bad is not None:
            raise GroupValidationError(
                f"line {num}: entry {bad} is not in range({n})")
        rows.append(row)
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
        if kernel != set(g.j_powers):
            raise GroupValidationError("projection kernel is not <J>")
        for x in range(q.n):
            if pi[phi[x]] != x:
                raise GroupValidationError("section does not split the projection")
        if phi[q.identity] != g.identity:
            raise GroupValidationError("section must preserve the identity")


def quotient_by_j(g: FinGroupJ) -> CentralExtensionData:
    """Quotient by <J> with the minimal-index section (identity-preserving)."""
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in range(g.n):  # the least element of each coset comes first
        if x not in coset_of:
            for z in g.j_powers:
                coset_of[g.mul(x, z)] = len(reps)
            reps.append(x)
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


def find_torsion_pair(g: GroupTable, p: int) -> Optional[tuple[int, int]]:
    """Noncommuting p-torsion g, h with g^-1 h also p-torsion (exhaustive)."""
    tor = g.torsion(p)
    tor_set = set(tor)
    for a in tor:
        for b in tor:
            if not g.commute(a, b) and g.mul(g.inv(a), b) in tor_set:
                return (a, b)
    return None


# ------------------------------------------------------------ iso search

def find_isomorphism(g: GroupTable, h: GroupTable
                     ) -> Optional[dict[int, int]]:
    """Brute-force isomorphism search (intended for order <= 64). When both
    groups carry a J, the isomorphism maps J to J."""
    if g.n != h.n:
        return None
    if g.n > 64:
        raise ValueError("iso search capped at order 64")
    if sorted(g.orders) != sorted(h.orders):
        return None
    pin_j = isinstance(g, FinGroupJ) and isinstance(h, FinGroupJ)
    if pin_j and g.orders[g.j] != h.orders[h.j]:
        return None

    gens: list[int] = []
    generated = {g.identity}
    for x in sorted(range(g.n), key=lambda t: -g.orders[t]):
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
    for y, k in enumerate(h.orders):
        h_by_order.setdefault(k, []).append(y)

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
        for cand in h_by_order.get(g.orders[nxt_gen], []):
            if pin_j and nxt_gen == g.j and cand != h.j:
                continue
            res = extend(images + [cand])
            if res is not None:
                return res
        return None

    if pin_j and g.j not in gens and g.j != g.identity:
        gens.insert(0, g.j)
    return extend([])
