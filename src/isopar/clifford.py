"""Clifford relation representations and Clifford systems, in exact integers.

A generator set is a family E_1, ..., E_{m-1} of skew-symmetric orthogonal
integer matrices on R^l with

    E_i E_j + E_j E_i = -2 delta_ij Id,

the matrix form of the relations an anticommuting family of complex
structures satisfies.  The smallest l carrying an irreducible set is the
Bott-periodic dimension delta(m): 1, 2, 4, 4, 8, 8, 8, 8, then
delta(m+8) = 16 delta(m).

Irreducible sets are built deterministically:

  m <= 8    left multiplication by the first m-1 imaginary units of the
            division algebra of dimension delta(m) (C, H or O); alternativity
            gives E_i^2 = -Id and polarization the anticommutation
  m > 8     periodicity step on R^16 (x) R^(delta(m-8)): eight anticommuting
            complex structures K (x) F_i, J (x) Id built from the octonion
            set F_1..F_7, plus L (x) Id tensored against the smaller set,
            where J, K, L are the standard 2x2 skew/involution blocks

Reducible sets are k-fold block diagonal sums of an irreducible set.

From a generator set the associated Clifford system on R^{2l} is

    P_0 (x, y) = (x, -y),   P_1 (x, y) = (y, x),
    P_{1+i} (x, y) = (E_i y, -E_i x),

a family of symmetric involutions with P_i P_j + P_j P_i = 2 delta_ij Id.
(The diagonal P_0 must carry the sign flip on the second block: the identity
would commute with everything and break the relations; validate_system
demonstrates that failure on request.)

All relation checks run in exact integer arithmetic with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .division_algebras import AlgebraTag, left_multiplication_matrices
from .errors import ConstructionError, DomainError

# 2x2 building blocks: J is the skew unit, K and L symmetric involutions,
# pairwise anticommuting with J^2 = -Id, K^2 = L^2 = Id.
_J = np.array([[0, -1], [1, 0]], dtype=np.int64)
_K = np.array([[1, 0], [0, -1]], dtype=np.int64)
_L = np.array([[0, 1], [1, 0]], dtype=np.int64)


def delta(m: int) -> int:
    """Smallest dimension of an irreducible representation of the relations."""
    if m <= 0:
        raise DomainError("m must be positive")
    base = [1, 2, 4, 4, 8, 8, 8, 8]
    factor = 1
    while m > 8:
        m -= 8
        factor *= 16
    return factor * base[m - 1]


@dataclass(frozen=True)
class CliffordGenerators:
    """Skew-symmetric orthogonal anticommuting integer matrices on R^l."""

    m: int
    l: int
    mats: tuple = field(repr=False)  # m-1 integer ndarrays, shape (l, l)

    def validate(self) -> None:
        ident = np.eye(self.l, dtype=np.int64)
        for i, E in enumerate(self.mats):
            if not np.array_equal(E.T, -E):
                raise ConstructionError(f"E_{i + 1} is not skew-symmetric")
            if not np.array_equal(E.T @ E, ident):
                raise ConstructionError(f"E_{i + 1} is not orthogonal")
        for i, Ei in enumerate(self.mats):
            for j, Ej in enumerate(self.mats):
                want = -2 * ident if i == j else np.zeros_like(ident)
                if not np.array_equal(Ei @ Ej + Ej @ Ei, want):
                    raise ConstructionError(
                        f"anticommutation fails for pair (E_{i + 1}, E_{j + 1})"
                    )


@dataclass(frozen=True)
class CliffordSystem:
    """Symmetric P_0..P_m on R^{2l} with P_i P_j + P_j P_i = 2 delta_ij Id."""

    m: int
    l: int
    mats: tuple = field(repr=False)  # m+1 integer ndarrays, shape (2l, 2l)


@dataclass(frozen=True)
class PairResidual:
    i: int
    j: int
    max_abs_residual: int


@dataclass(frozen=True)
class SystemReport:
    ok: bool
    symmetric: tuple  # per-matrix bool
    residuals: tuple  # PairResidual for every i <= j, residual vs 2 delta_ij Id

    def failures(self) -> list[PairResidual]:
        return [r for r in self.residuals if r.max_abs_residual != 0]


def _irreducible_generators(m: int) -> list[np.ndarray]:
    if m == 1:
        return []
    if m <= 8:
        tag = {2: AlgebraTag.C, 3: AlgebraTag.H, 4: AlgebraTag.H}.get(m, AlgebraTag.O)
        return [np.array(L, dtype=np.int64) for L in left_multiplication_matrices(tag)[1:m]]
    # periodicity step: 8 new structures on R^16 plus the smaller set behind L
    small = _irreducible_generators(m - 8)
    l_small = delta(m - 8)
    octonion = [
        np.array(L, dtype=np.int64) for L in left_multiplication_matrices(AlgebraTag.O)[1:]
    ]
    g16 = [np.kron(_K, F) for F in octonion]
    g16.append(np.kron(_J, np.eye(8, dtype=np.int64)))
    s16 = np.kron(_L, np.eye(8, dtype=np.int64))
    ident_small = np.eye(l_small, dtype=np.int64)
    gens = [np.kron(G, ident_small) for G in g16]
    gens.extend(np.kron(s16, E) for E in small)
    return gens


def build_generators(m: int, k: int) -> CliffordGenerators:
    """Generators on R^(k delta(m)): k-fold block sum of an irreducible set."""
    if m < 1:
        raise DomainError("m must be positive")
    if k < 1:
        raise DomainError("k must be positive")
    irreducible = _irreducible_generators(m)
    l = k * delta(m)
    if k == 1:
        mats = tuple(irreducible)
    else:
        blocks = np.eye(k, dtype=np.int64)
        mats = tuple(np.kron(blocks, E) for E in irreducible)
    gens = CliffordGenerators(m=m, l=l, mats=mats)
    gens.validate()
    return gens


def build_system(gens: CliffordGenerators) -> CliffordSystem:
    """Assemble the Clifford system on R^{2l} and verify its relations."""
    l = gens.l
    ident = np.eye(l, dtype=np.int64)
    zero = np.zeros((l, l), dtype=np.int64)
    mats = [
        np.block([[ident, zero], [zero, -ident]]),  # P_0 (x,y) = (x,-y)
        np.block([[zero, ident], [ident, zero]]),  # P_1 (x,y) = (y,x)
    ]
    for E in gens.mats:
        mats.append(np.block([[zero, E], [-E, zero]]))  # (x,y) -> (E y, -E x)
    system = CliffordSystem(m=gens.m, l=l, mats=tuple(mats))
    report = validate_system(system)
    if not report.ok:
        raise ConstructionError(
            f"assembled system violates its relations: {report.failures()[:4]}"
        )
    return system


def validate_system(system: CliffordSystem) -> SystemReport:
    """Exact per-pair residuals of P_i P_j + P_j P_i - 2 delta_ij Id."""
    n = 2 * system.l
    ident = np.eye(n, dtype=np.int64)
    symmetric = tuple(bool(np.array_equal(P.T, P)) for P in system.mats)
    residuals = []
    for i, Pi in enumerate(system.mats):
        for j in range(i, len(system.mats)):
            Pj = system.mats[j]
            target = 2 * ident if i == j else 0 * ident
            res = Pi @ Pj + Pj @ Pi - target
            residuals.append(PairResidual(i, j, int(np.max(np.abs(res)))))
    ok = all(symmetric) and all(r.max_abs_residual == 0 for r in residuals)
    return SystemReport(ok=ok, symmetric=symmetric, residuals=tuple(residuals))
