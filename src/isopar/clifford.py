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

Reducible sets are k-fold block diagonal sums Id_k (x) E of an irreducible
set.  Sizes are capped at l = k delta(m) <= MAX_L; a larger request raises
DomainError before anything is built.

From a generator set the associated Clifford system on R^{2l} is

    P_0 = K (x) Id,  P_1 = L (x) Id,  P_{1+i} = J^T (x) E_i,

that is P_0 (x, y) = (x, -y), P_1 (x, y) = (y, x) and
P_{1+i} (x, y) = (E_i y, -E_i x): a family of symmetric involutions with
P_i P_j + P_j P_i = 2 delta_ij Id.  (The diagonal P_0 must carry the sign
flip on the second block: the identity would commute with everything and
break the relations; validate_system demonstrates that failure on request.)

Every matrix here is a signed permutation, held as a SignedPerm: row a has
the single nonzero entry signs[a] = +-1 in column perm[a].  A unit e_i of
C, H or O sends e_b to +-e_(i xor b), the 2x2 blocks are signed
permutations, and products and Kronecker products of signed permutations
are signed permutations, so the representation is exact and a product
costs O(l).  For a matrix with one nonzero per row, P^2 = +-Id forces perm
to be an involution, hence a bijection, and then P^T = P^-1; so P^2 = Id is
exactly "P is a symmetric orthogonal involution" and E^2 = -Id exactly "E is
skew-symmetric and orthogonal".  The relation checks are therefore only the
pair checks A B + B A = 2c Id, each decided by comparing A B with B A as
tuples; the entrywise residual is summed only for a failing pair.

All relation checks run in exact integer arithmetic with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import division_algebras
from .division_algebras import AlgebraTag
from .errors import ConstructionError, DomainError

# Largest l = k delta(m) built: the system then lives on R^512 and its CSV
# has at most about 5M entries.
MAX_L = 256


@dataclass(frozen=True)
class SignedPerm:
    """A square signed permutation matrix: row a is signs[a] * e_perm[a]."""

    perm: tuple
    signs: tuple

    @classmethod
    def identity(cls, n: int, sign: int = 1) -> "SignedPerm":
        return cls(tuple(range(n)), (sign,) * n)

    def __neg__(self) -> "SignedPerm":
        return SignedPerm(self.perm, tuple(-s for s in self.signs))

    def __matmul__(self, other: "SignedPerm") -> "SignedPerm":
        # row a of the product is signs[a] times row perm[a] of other
        return SignedPerm(
            tuple(other.perm[p] for p in self.perm),
            tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs)),
        )

    def kron(self, other: "SignedPerm") -> "SignedPerm":
        """Kronecker product: row a n + b is row a of self (x) row b of other."""
        n = len(other.perm)
        return SignedPerm(
            tuple(p * n + q for p in self.perm for q in other.perm),
            tuple(s * t for s in self.signs for t in other.signs),
        )

    def rows(self) -> list[list[int]]:
        """The dense integer rows."""
        n = len(self.perm)
        return [[0] * p + [s] + [0] * (n - 1 - p) for p, s in zip(self.perm, self.signs)]


# 2x2 building blocks: J is the skew unit, K and L symmetric involutions,
# pairwise anticommuting with J^2 = -Id, K^2 = L^2 = Id.
_J = SignedPerm((1, 0), (-1, 1))  # [[0, -1], [1, 0]]
_K = SignedPerm((0, 1), (1, -1))  # [[1, 0], [0, -1]]
_L = SignedPerm((1, 0), (1, 1))  # [[0, 1], [1, 0]]


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
class PairResidual:
    i: int
    j: int
    max_abs_residual: int


def _pair_residuals(mats: tuple, square: int):
    """PairResidual of A_i A_j + A_j A_i - 2 square delta_ij Id, for i <= j.

    The products are signed permutations, so the sum vanishes exactly when
    A_i^2 = square Id (i = j) or A_i A_j = -A_j A_i (i < j): one tuple
    comparison per pair.  Only a failing pair is summed entry by entry.
    """
    for i, A in enumerate(mats):
        for j, B in enumerate(mats[i:], i):
            c = square if i == j else 0
            AB = A @ B
            BA = AB if i == j else B @ A
            ok = AB == (SignedPerm.identity(len(AB.perm), c) if c else -BA)
            worst = 0 if ok else max(
                abs(x + y - 2 * c * (a == b))
                for a, (row_ab, row_ba) in enumerate(zip(AB.rows(), BA.rows()))
                for b, (x, y) in enumerate(zip(row_ab, row_ba))
            )
            yield PairResidual(i, j, worst)


@dataclass(frozen=True)
class CliffordGenerators:
    """Anticommuting signed permutations on R^l, each squaring to -Id."""

    m: int
    l: int
    mats: tuple = field(repr=False)  # m-1 SignedPerm of size l

    def validate(self) -> None:
        for res in _pair_residuals(self.mats, -1):
            if res.max_abs_residual:
                raise ConstructionError(
                    f"anticommutation fails for pair (E_{res.i + 1}, E_{res.j + 1})"
                )


@dataclass(frozen=True)
class CliffordSystem:
    """Symmetric P_0..P_m on R^{2l} with P_i P_j + P_j P_i = 2 delta_ij Id."""

    m: int
    l: int
    mats: tuple = field(repr=False)  # m+1 SignedPerm of size 2l


@dataclass(frozen=True)
class SystemReport:
    ok: bool
    symmetric: tuple  # per-matrix bool, P^2 = Id
    residuals: tuple  # PairResidual for every i <= j, residual vs 2 delta_ij Id

    def failures(self) -> list[PairResidual]:
        return [r for r in self.residuals if r.max_abs_residual != 0]


def _irreducible_generators(m: int) -> list[SignedPerm]:
    if m == 1:
        return []
    # x -> e_i x for the imaginary units: row a has sign(e_i e_(i^a)) in column i^a
    tag = {2: AlgebraTag.C, 3: AlgebraTag.H, 4: AlgebraTag.H}.get(m, AlgebraTag.O)
    signs, d = division_algebras.structure_constants(tag), tag.dim
    units = [
        SignedPerm(tuple(i ^ a for a in range(d)), tuple(signs[i][i ^ a] for a in range(d)))
        for i in range(1, d)
    ]
    if m <= 8:
        return units[: m - 1]
    # periodicity step: 8 new structures on R^16 plus the smaller set behind L
    ident8, ident_small = SignedPerm.identity(8), SignedPerm.identity(delta(m - 8))
    g16 = [_K.kron(F) for F in units] + [_J.kron(ident8)]
    small = _irreducible_generators(m - 8)
    return [G.kron(ident_small) for G in g16] + [_L.kron(ident8).kron(E) for E in small]


def generator_size(m: int, k: int) -> int:
    """l = k delta(m), the size build_generators(m, k) would build, checked
    against m, k >= 1 and l <= MAX_L without building anything."""
    if m < 1:
        raise DomainError("m must be positive")
    if k < 1:
        raise DomainError("k must be positive")
    # delta(m) >= 16^((m-1)//8): a huge m is refused before delta(m) is formed
    if 4 * ((m - 1) // 8) >= MAX_L.bit_length() or k * delta(m) > MAX_L:
        raise DomainError(f"l = k delta(m) exceeds {MAX_L} at m = {m}, k = {k}")
    return k * delta(m)


def build_generators(m: int, k: int) -> CliffordGenerators:
    """Generators on R^(k delta(m)): k-fold block sum of an irreducible set."""
    l = generator_size(m, k)
    mats = tuple(SignedPerm.identity(k).kron(E) for E in _irreducible_generators(m))
    gens = CliffordGenerators(m=m, l=l, mats=mats)
    gens.validate()
    return gens


def build_system(gens: CliffordGenerators) -> CliffordSystem:
    """Assemble the Clifford system on R^{2l} and verify its relations."""
    ident = SignedPerm.identity(gens.l)
    mats = [_K.kron(ident), _L.kron(ident)] + [(-_J).kron(E) for E in gens.mats]  # -J = J^T
    system = CliffordSystem(m=gens.m, l=gens.l, mats=tuple(mats))
    report = validate_system(system)
    if not report.ok:
        raise ConstructionError(
            f"assembled system violates its relations: {report.failures()[:4]}"
        )
    return system


def validate_system(system: CliffordSystem) -> SystemReport:
    """Exact per-pair residuals of P_i P_j + P_j P_i - 2 delta_ij Id.

    P_i^2 = Id exactly when the diagonal residual (i, i) is 0, so
    ``symmetric`` is read off the residuals, each product formed once.
    """
    residuals = tuple(_pair_residuals(system.mats, 1))
    symmetric = tuple(r.max_abs_residual == 0 for r in residuals if r.i == r.j)
    ok = all(r.max_abs_residual == 0 for r in residuals)
    return SystemReport(ok=ok, symmetric=symmetric, residuals=residuals)
