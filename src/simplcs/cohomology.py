"""Z_d-valued cochains on truncated simplicial sets: coboundaries, cocycle and
cohomologous tests, the classes gamma_b and gamma_phi, and extraction of the
linear system (A_X, b_gamma) of a pair (X, gamma).

The coboundary carries alternating signs throughout (mod 2 this agrees with
the unsigned sum; for odd d the signs are forced by the extracted systems).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .groups import CentralExtensionData, GroupCocycle
from .linsys import LinearSystem, make_system
from .simplicial import (BASEPOINT, SMap, TruncatedSSet, bar_comm_nerve,
                         complex_of_system, nzd_sigma, quotient_by_subset,
                         wedge_subset_of_nzd)
from .zmod import ZModMatrix, howell_form, kernel_basis, solve


class CochainError(ValueError):
    pass


@dataclass(frozen=True)
class Cochain:
    """A total Z_d-valued function on the degree-n simplices of a host."""

    host: TruncatedSSet
    degree: int
    modulus: int
    values: dict

    def __post_init__(self):
        universe = set(self.host.simplices[self.degree])
        missing = universe - set(self.values)
        extra = set(self.values) - universe
        if missing or extra:
            raise CochainError(
                f"cochain must be total on degree {self.degree}"
                f" ({len(missing)} missing, {len(extra)} stray)")
        object.__setattr__(self, "values",
                           {k: v % self.modulus for k, v in self.values.items()})

    def __call__(self, tok) -> int:
        return self.values[tok]

    def add(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(self.host, self.degree, self.modulus,
                       {k: self.values[k] + other.values[k] for k in self.values})

    def sub(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(self.host, self.degree, self.modulus,
                       {k: self.values[k] - other.values[k] for k in self.values})

    def scale(self, m: int) -> "Cochain":
        return Cochain(self.host, self.degree, self.modulus,
                       {k: m * v for k, v in self.values.items()})

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def _compat(self, other: "Cochain") -> None:
        if (self.host is not other.host or self.degree != other.degree
                or self.modulus != other.modulus):
            raise CochainError("cochain hosts/degrees/moduli differ")


def cochain(host: TruncatedSSet, degree: int, modulus: int,
            values: Optional[dict] = None, default: int = 0,
            fn: Optional[Callable] = None) -> Cochain:
    """Build a total cochain from sparse values or a callable."""
    out = {}
    for tok in host.simplices[degree]:
        if fn is not None:
            out[tok] = fn(tok)
        else:
            out[tok] = (values or {}).get(tok, default)
    return Cochain(host, degree, modulus, out)


def coboundary(f: Cochain) -> Cochain:
    """(df)(sigma) = sum_i (-1)^i f(d_i sigma), one degree up."""
    n = f.degree + 1
    if n > f.host.cap:
        raise CochainError("coboundary exceeds the host's dimension cap")
    vals = {}
    for tok in f.host.simplices[n]:
        acc = 0
        for i in range(n + 1):
            acc += (-1) ** i * f(f.host.face(n, i, tok))
        vals[tok] = acc
    return Cochain(f.host, n, f.modulus, vals)


def is_cocycle(gamma: Cochain) -> bool:
    if gamma.degree + 1 > gamma.host.cap:
        raise CochainError("cocycle check needs one more degree than the cochain")
    return coboundary(gamma).is_zero()


def is_normalized(gamma: Cochain) -> bool:
    """gamma vanishes on every degenerate simplex of its degree."""
    host, n = gamma.host, gamma.degree
    return all(gamma(tok) == 0 for tok in host.simplices[n]
               if host.is_degenerate(n, tok))


def coboundary_matrix(host: TruncatedSSet, degree: int, modulus: int
                      ) -> tuple[ZModMatrix, list, list]:
    """Matrix of d: C^degree -> C^{degree+1} (rows: degree+1, cols: degree)."""
    cols = list(host.simplices[degree])
    rows = list(host.simplices[degree + 1])
    col_index = {tok: k for k, tok in enumerate(cols)}
    mat = []
    for sigma in rows:
        entries = [0] * len(cols)
        for i in range(degree + 2):
            entries[col_index[host.face(degree + 1, i, sigma)]] += (-1) ** i
        mat.append([e % modulus for e in entries])
    return ZModMatrix(mat, modulus, num_cols=len(cols)), rows, cols


def cohomologous(gamma: Cochain, gamma2: Cochain) -> Optional[Cochain]:
    """A 1-cochain u with gamma2 - gamma = du, or None if the classes differ."""
    gamma._compat(gamma2)
    if gamma.degree != 2:
        raise CochainError("witness search implemented in degree 2")
    host, d = gamma.host, gamma.modulus
    mat, rows, cols = coboundary_matrix(host, 1, d)
    target = [(gamma2(sig) - gamma(sig)) % d for sig in rows]
    sol = solve(mat, target)
    if sol is None:
        return None
    return Cochain(host, 1, d, dict(zip(cols, sol.particular)))


def normalize_cocycle(gamma: Cochain) -> Cochain:
    """A normalized representative of [gamma] (error if none in the truncation)."""
    if is_normalized(gamma):
        return gamma
    host, d = gamma.host, gamma.modulus
    mat, rows, cols = coboundary_matrix(host, 1, d)
    degenerate = [k for k, sig in enumerate(rows) if host.is_degenerate(2, sig)]
    sub = ZModMatrix([mat.rows[k] for k in degenerate], d,
                     num_cols=mat.num_cols)
    target = [gamma(rows[k]) % d for k in degenerate]
    sol = solve(sub, target)
    if sol is None:
        raise CochainError("no normalized representative in this truncation")
    u = Cochain(host, 1, d, dict(zip(cols, sol.particular)))
    return gamma.sub(coboundary(u))


def cohomology_size(host: TruncatedSSet, degree: int, modulus: int) -> int:
    """|H^degree| on the truncated universe (valid for degree <= cap - 1)."""
    mat_up, _, cols = coboundary_matrix(host, degree, modulus)
    kern = kernel_basis(mat_up)
    ker_size = kern.span_size()
    if degree == 0:
        im_size = 1
    else:
        mat_dn, _, _ = coboundary_matrix(host, degree - 1, modulus)
        im_size = howell_form(mat_dn.transpose()).span_size()
    assert ker_size % im_size == 0
    return ker_size // im_size


def pullback(gamma: Cochain, f: SMap) -> Cochain:
    """f^* gamma on the source of f."""
    if f.target is not gamma.host:
        raise CochainError("map target must be the cochain's host")
    n = gamma.degree
    return Cochain(f.source, n, gamma.modulus,
                   {tok: gamma(f(n, tok)) for tok in f.source.simplices[n]})


# --------------------------------------------------------------- gamma_b

def tilde_b(system: LinearSystem, func: tuple) -> int:
    """The 1-cochain lift: a*b_i on a*A_i, zero elsewhere; read from
    `system.row_lift`, so b disagreeing on a shared multiple raises."""
    return system.row_lift.get(tuple(func), 0)


def gamma_b(system: LinearSystem, cap: int = 3
            ) -> tuple[Cochain, TruncatedSSet]:
    """The 2-cocycle d(tilde_b) on Nbar(Z_d, Sigma); b_i data lives in the rhs.
    RowConditionError up front if A or the lift of b breaks a row condition."""
    system.check_row_conditions()
    lift = system.row_lift
    d = system.modulus
    x = nzd_sigma(complex_of_system(system), d, cap)
    sub = wedge_subset_of_nzd(system, x)
    q = quotient_by_subset(x, sub)
    q.name = f"Nbar(Z_{d},Sigma)"

    def db(two_simplex) -> int:
        return (lift.get(x.face(2, 0, two_simplex)[0], 0)
                - lift.get(x.face(2, 1, two_simplex)[0], 0)
                + lift.get(x.face(2, 2, two_simplex)[0], 0)) % d

    # well-definedness: the coboundary must vanish on every collapsed 2-simplex
    for tok in sub[2]:
        if db(tok):
            raise CochainError(
                f"d(tilde b) nonzero on collapsed simplex {tok!r} "
                "(row conditions violated)")
    vals = {}
    for tok in q.simplices[2]:
        vals[tok] = 0 if tok == BASEPOINT else db(tok)
    return Cochain(q, 2, d, vals), q


def gamma_phi_d(ext: CentralExtensionData, cap: int = 3
                ) -> tuple[Cochain, TruncatedSSet, GroupCocycle]:
    """Pullback of the group cocycle gamma_phi to Nbar(Z_d, G)."""
    gc = GroupCocycle(ext)
    q = bar_comm_nerve(ext, cap)
    d = ext.group.d
    vals = {tok: gc(tok[0], tok[1]) for tok in q.simplices[2]}
    return Cochain(q, 2, d, vals), q, gc


# ---------------------------------------------------- extracted linear system

def extract_linear_system(x: TruncatedSSet, gamma: Cochain,
                          nondegenerate_only: bool = False) -> LinearSystem:
    """(A_X, b_gamma): rows over 2-simplices, columns over 1-simplices.

    Entries accumulate signed face incidences (so collapsed boundaries with
    repeated faces are handled); b_sigma = -gamma(sigma).
    """
    if gamma.host is not x or gamma.degree != 2:
        raise CochainError("need a degree-2 cochain on the same host")
    d = gamma.modulus
    if nondegenerate_only:
        rows_idx = list(x.nondegenerate(2))
        cols_idx = list(x.nondegenerate(1))
    else:
        rows_idx = list(x.simplices[2])
        cols_idx = list(x.simplices[1])
    col_pos = {tok: k for k, tok in enumerate(cols_idx)}
    signed_faces = [(x.faces[(2, i)], (-1) ** i) for i in range(3)]
    rows = []
    for sigma in rows_idx:
        entries = [0] * len(cols_idx)
        for face, sign in signed_faces:
            k = col_pos.get(face[sigma])
            if k is not None:
                entries[k] += sign
        rows.append(entries)
    # ZModMatrix and LinearSystem reduce the entries and b mod d
    rhs = [-gamma(sigma) for sigma in rows_idx]
    return make_system(rows, rhs, d, row_labels=rows_idx, col_labels=cols_idx)


# ------------------------------------------------------------ cochain file I/O

def parse_cochain(host: TruncatedSSet, degree: int, modulus: int, text: str,
                  resolve: Optional[dict] = None) -> Cochain:
    """Lines `simplex-id value`; unlisted simplices default to 0."""
    if degree > host.cap:
        raise CochainError(f"a degree-{degree} cochain needs simplices of "
                           f"degree {degree}, above the host's cap "
                           f"{host.cap}")
    by_repr = {repr(tok): tok for tok in host.simplices[degree]}
    for tok in host.simplices[degree]:
        if isinstance(tok, str):
            by_repr.setdefault(tok, tok)
    vals = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        ident, _, val = line.rpartition(" ")
        ident = ident.strip()
        if resolve and ident in resolve:
            tok = resolve[ident]
        elif ident in by_repr:
            tok = by_repr[ident]
        else:
            raise CochainError(f"line {num}: unknown simplex id {ident!r}")
        try:
            vals[tok] = int(val)
        except ValueError as exc:
            raise CochainError(f"line {num}: bad value {val!r}") from exc
    return cochain(host, degree, modulus, values=vals)


def dump_cochain(gamma: Cochain, names: Optional[dict] = None) -> str:
    """Inverse of parse_cochain; zero values are omitted."""
    names = names or {}
    rev = {tok: name for name, tok in names.items()}
    lines = []
    for tok in gamma.host.simplices[gamma.degree]:
        v = gamma(tok)
        if v:
            lines.append(f"{rev.get(tok, repr(tok))} {v}")
    return "\n".join(lines) + ("\n" if lines else "")
