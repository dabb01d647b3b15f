"""Z_d-valued cochains on truncated simplicial sets: coboundaries, cocycle and
cohomologous tests, the classes gamma_b and gamma_phi, and extraction of the
linear system (A_X, b_gamma) of a pair (X, gamma).

The coboundary carries alternating signs throughout (mod 2 this agrees with
the unsigned sum; for odd d the signs are forced by the extracted systems).
The signed face sum itself is `simplicial._face_sum` (on value lists) and
`_face_incidence` (as a matrix), both on the host's position lists.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .groups import CentralExtensionData, GroupCocycle
from .linsys import LinearSystem, data_lines
from .simplicial import (CochainError, SMap, TruncatedSSet, _face_incidence,
                         _face_sum, bar_comm_nerve, bar_nzd_sigma)
from .zmod import ZModMatrix, howell_form, kernel_basis, solve


@dataclass(frozen=True)
class Cochain:
    """A total Z_d-valued function on the degree-n simplices of a host: one
    value per simplex, in `host.simplices[degree]` order, reduced mod d.
    `cochain` builds one from values keyed by simplex."""

    host: TruncatedSSet
    degree: int
    modulus: int
    values: tuple

    def __post_init__(self):
        if isinstance(self.values, Mapping):
            raise CochainError("Cochain takes values by position; cochain() "
                               "takes them keyed by simplex")
        size = self.host.size(self.degree)
        if len(self.values) != size:
            raise CochainError(
                f"cochain must be total on degree {self.degree}"
                f" ({len(self.values)} values for {size} simplices)")
        object.__setattr__(self, "values",
                           tuple(v % self.modulus for v in self.values))

    def __call__(self, tok) -> int:
        return self.values[self.host.index(self.degree)[tok]]

    def add(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return replace(self, values=list(map(operator.add, self.values,
                                             other.values)))

    def sub(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return replace(self, values=list(map(operator.sub, self.values,
                                             other.values)))

    def scale(self, m: int) -> "Cochain":
        return replace(self, values=[m * v for v in self.values])

    def is_zero(self) -> bool:
        return not any(self.values)

    def _compat(self, other: "Cochain") -> None:
        if (self.host is not other.host or self.degree != other.degree
                or self.modulus != other.modulus):
            raise CochainError("cochain hosts/degrees/moduli differ")


def cochain(host: TruncatedSSet, degree: int, modulus: int,
            values: Optional[dict] = None,
            fn: Optional[Callable] = None) -> Cochain:
    """Build a total cochain from sparse values keyed by simplex, or from a
    callable on simplices; a key that is no degree-`degree` simplex raises."""
    if fn is not None:
        return Cochain(host, degree, modulus,
                       list(map(fn, host.simplices[degree])))
    out, index = [0] * host.size(degree), host.index(degree)
    for tok, v in (values or {}).items():
        if tok not in index:
            raise CochainError(f"{tok!r} is not a degree-{degree} simplex")
        out[index[tok]] = v
    return Cochain(host, degree, modulus, out)


def coboundary(f: Cochain) -> Cochain:
    """(df)(sigma) = sum_i (-1)^i f(d_i sigma), one degree up."""
    return Cochain(f.host, f.degree + 1, f.modulus,
                   _face_sum(f.host, f.degree + 1, f.values))


def is_cocycle(gamma: Cochain) -> bool:
    return coboundary(gamma).is_zero()


def is_normalized(gamma: Cochain) -> bool:
    """gamma vanishes on every degenerate simplex of its degree."""
    nondeg = set(gamma.host.nondegenerate_positions(gamma.degree))
    return not any(v for k, v in enumerate(gamma.values) if k not in nondeg)


def coboundary_matrix(host: TruncatedSSet, degree: int, modulus: int
                      ) -> tuple[ZModMatrix, list, list]:
    """Matrix of d: C^degree -> C^{degree+1} (rows: degree+1, cols: degree)."""
    return (ZModMatrix(_face_incidence(host, degree + 1), modulus,
                       num_cols=host.size(degree)),
            list(host.simplices[degree + 1]), list(host.simplices[degree]))


def cohomologous(gamma: Cochain, gamma2: Cochain) -> Optional[Cochain]:
    """A 1-cochain u with gamma2 - gamma = du, or None if the classes differ."""
    gamma._compat(gamma2)
    if gamma.degree != 2:
        raise CochainError("witness search implemented in degree 2")
    host, d = gamma.host, gamma.modulus
    sol = solve(coboundary_matrix(host, 1, d)[0], gamma2.sub(gamma).values)
    if sol is None:
        return None
    return Cochain(host, 1, d, sol.particular)


def cohomology_size(host: TruncatedSSet, degree: int, modulus: int) -> int:
    """|H^degree| on the truncated universe (valid for degree <= cap - 1)."""
    ker_size = kernel_basis(
        coboundary_matrix(host, degree, modulus)[0]).span_size()
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
                   list(map(gamma.values.__getitem__, f.positions[n])))


# --------------------------------------------------------------- gamma_b

def tilde_b(system: LinearSystem, func: tuple) -> int:
    """The 1-cochain lift: a*b_i on a*A_i, zero elsewhere; read from
    `system.row_lift`, so b disagreeing on a shared multiple raises."""
    return system.row_lift.get(tuple(func), 0)


def gamma_b(system: LinearSystem, cap: int = 3
            ) -> tuple[Cochain, TruncatedSSet]:
    """The 2-cocycle d(tilde_b) on Nbar(Z_d, Sigma); b_i data lives in the rhs.
    RowConditionError up front if A or the lift of b breaks a row condition.

    d(tilde_b) is taken on N(Z_d, Sigma), the quotient's parent, through its
    three degree-2 face lists, and must vanish on every 2-simplex that the
    quotient collapses to its basepoint."""
    system.check_row_conditions()
    lift = system.row_lift
    d = system.modulus
    q = bar_nzd_sigma(system, cap)
    x, projection = q.parent, q.projection[2]
    tilde = [lift.get(tok[0], 0) for tok in x.simplices[1]]
    base = q.base_pos[2]
    vals = [0] * q.size(2)      # reduced mod d by Cochain
    for k, (at, v) in enumerate(zip(projection, _face_sum(x, 2, tilde))):
        if at != base:
            vals[at] = v
        elif v % d:
            raise CochainError(
                f"d(tilde b) nonzero on collapsed simplex {x.simplices[2][k]!r} "
                "(row conditions violated)")
    return Cochain(q, 2, d, vals), q


def gamma_phi_d(ext: CentralExtensionData, cap: int = 3
                ) -> tuple[Cochain, TruncatedSSet, GroupCocycle]:
    """Pullback of the group cocycle gamma_phi to Nbar(Z_d, G)."""
    gc = GroupCocycle(ext)
    q = bar_comm_nerve(ext, cap)
    d = ext.group.d
    vals = [gc(tok[0], tok[1]) for tok in q.simplices[2]]
    return Cochain(q, 2, d, vals), q, gc


# ---------------------------------------------------- extracted linear system

def extract_linear_system(x: TruncatedSSet, gamma: Cochain,
                          nondegenerate_only: bool = False) -> LinearSystem:
    """(A_X, b_gamma): rows over 2-simplices, columns over 1-simplices.

    A_X is the signed face incidence of degree 2 (so collapsed boundaries
    with repeated faces are handled), or its nondegenerate rows and columns;
    b_sigma = -gamma(sigma).
    """
    if gamma.host is not x or gamma.degree != 2:
        raise CochainError("need a degree-2 cochain on the same host")
    d = gamma.modulus
    incidence = _face_incidence(x, 2)
    rows, cols = range(x.size(2)), range(x.size(1))
    if nondegenerate_only:
        rows = x.nondegenerate_positions(2)
        cols = x.nondegenerate_positions(1)
        incidence = incidence[np.ix_(rows, cols)]
    row_labels = tuple(map(x.simplices[2].__getitem__, rows))
    col_labels = tuple(map(x.simplices[1].__getitem__, cols))
    rhs = tuple(-gamma.values[k] for k in rows)
    return LinearSystem(ZModMatrix(incidence, d, num_cols=len(cols)),
                        rhs, row_labels, col_labels)


# ------------------------------------------------------------ cochain file I/O

def parse_cochain(host: TruncatedSSet, degree: int, modulus: int,
                  text: str) -> Cochain:
    """Lines `simplex-id value`; unlisted simplices default to 0. A line
    whose simplex an earlier line already gave a value raises, naming both
    lines."""
    if degree > host.cap:
        raise CochainError(f"a degree-{degree} cochain needs simplices of "
                           f"degree {degree}, above the host's cap "
                           f"{host.cap}")
    by_repr = {repr(tok): tok for tok in host.simplices[degree]}
    for tok in host.simplices[degree]:
        if isinstance(tok, str):
            by_repr.setdefault(tok, tok)
    vals, line_of = {}, {}
    for num, line in data_lines(text):
        ident, _, val = line.rpartition(" ")
        ident = ident.strip()
        if ident not in by_repr:
            raise CochainError(f"line {num}: unknown simplex id {ident!r}")
        tok = by_repr[ident]
        first = line_of.setdefault(tok, num)
        if first != num:
            raise CochainError(f"line {num}: simplex {tok!r} already has "
                               f"a value, on line {first}")
        try:
            vals[tok] = int(val)
        except ValueError as exc:
            raise CochainError(f"line {num}: bad value {val!r}") from exc
    return cochain(host, degree, modulus, values=vals)


def dump_cochain(gamma: Cochain) -> str:
    """Inverse of parse_cochain; zero values are omitted."""
    lines = [f"{tok!r} {v}" for tok, v in
             zip(gamma.host.simplices[gamma.degree], gamma.values) if v]
    return "\n".join(lines) + ("\n" if lines else "")
