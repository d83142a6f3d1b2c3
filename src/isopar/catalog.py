"""Catalog data: rank-2 isotropy tables, Clifford multiplicity tables, the
inhomogeneity criterion and the worked SU(3)/SO(3) adjoint orbit.

The two transcribed tables are kept exactly as published and cross-checked
against the structural formulas.  Discrepancies are flagged on the row,
never silently corrected:

  * rank-2 table: the su(6)/sp(3) and e6/f4 rows print m_i = 3, which
    violates dim M = p (m1 + m2) / 2 (the consistent values are 4 and 8);
    both rows carry a flag and the printed value.
  * Clifford multiplicity table: the printed (m=4, k=5) entry (4,17)
    disagrees with (m1, m2) = (m, k delta(m) - m - 1) = (4, 15); flagged.

The SU(3)/SO(3) orbit is an actual computation, not data: the shape
operator A[X, x] = -[X, xi] of the adjoint orbit through a regular unit
x in the diagonal Cartan subspace is assembled from integer traces in the
bracket basis [L_k, x], where it is diagonal, so its eigenvalues are
computed exactly in Q(sqrt 3); the floats reported beside them are read
off the exact values.  The module uses no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .clifford import delta
from .errors import ConstructionError, DomainError
from .polyalg import ScalarQ3
from .report import Report, report_key

# ---------------------------------------------------------------------------
# rank-2 symmetric space table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricSpaceRow(Report):
    g: str
    h: str
    dim_M: int
    p: int
    multiplicities: str  # as printed
    pair: tuple | None = report_key(None)  # (m1, m2) reading of the printed data
    printed_inconsistent: bool = False
    note: str | None = None

    def dim_consistent(self) -> bool:
        if self.pair is None:
            return False
        m1, m2 = self.pair
        return 2 * self.dim_M == self.p * (m1 + m2)


_RANK2_ROWS = (
    SymmetricSpaceRow("su(3)", "so(3)", 3, 3, "m_i = 1", (1, 1)),
    SymmetricSpaceRow("su(3)+su(3)", "su(3)", 6, 3, "m_i = 2", (2, 2)),
    SymmetricSpaceRow(
        "su(6)",
        "sp(3)",
        12,
        3,
        "m_i = 3",
        (3, 3),
        printed_inconsistent=True,
        note="printed m_i = 3 violates dim M = p (m1+m2)/2; consistent value is m_i = 4",
    ),
    SymmetricSpaceRow(
        "e6",
        "f4",
        24,
        3,
        "m_i = 3",
        (3, 3),
        printed_inconsistent=True,
        note="printed m_i = 3 violates dim M = p (m1+m2)/2; consistent value is m_i = 8",
    ),
    SymmetricSpaceRow(
        "so(n+2), n>=3", "so(n)+so(2)", -1, 4, "m1 = m3 = 1; m2 = m4 = n-2", None,
        note="parametric row, checked for n = 3..8",
    ),
    SymmetricSpaceRow(
        "su(n+2), n>=2", "su(n)+su(2)", -1, 4, "m1 = m3 = 2; m2 = m4 = 2n-3", None,
        note="parametric row, checked for n = 2..8",
    ),
    SymmetricSpaceRow(
        "sp(n+2), n>=2", "sp(n)+sp(2)", -1, 4, "m1 = m3 = 4; m2 = m4 = 4n-5", None,
        note="parametric row, checked for n = 2..8",
    ),
    SymmetricSpaceRow("so(5)+so(5)", "so(5)", 8, 4, "m_i = 2", (2, 2)),
    SymmetricSpaceRow("so(10)", "u(5)", 18, 4, "m1 = m3 = 4; m2 = m4 = 5", (4, 5)),
    SymmetricSpaceRow("e6", "so(10)+R", 30, 4, "m1 = m3 = 6; m2 = m4 = 9", (6, 9)),
    SymmetricSpaceRow("g2", "so(4)", 6, 6, "m_i = 1", (1, 1)),
    SymmetricSpaceRow("g2+g2", "g2", 12, 6, "m_i = 2", (2, 2)),
)

_PARAMETRIC = {
    "so(n+2), n>=3": lambda n: (2 * n - 2, (1, n - 2)),
    "su(n+2), n>=2": lambda n: (4 * n - 2, (2, 2 * n - 3)),
    "sp(n+2), n>=2": lambda n: (8 * n - 2, (4, 4 * n - 5)),
}


def rank2_table() -> tuple[SymmetricSpaceRow, ...]:
    """The twelve rank-2 isotropy rows, transcribed as published."""
    return _RANK2_ROWS


@dataclass(frozen=True)
class Rank2CheckResult:
    consistent_rows: tuple
    flagged_rows: tuple  # rows stored as printed but dimensionally inconsistent
    parametric_ok: bool

    @property
    def ok(self) -> bool:
        # every unflagged row must pass; flagged rows are reported
        return self.parametric_ok and all(
            row.dim_consistent() for row in self.consistent_rows
        )


def rank2_self_check() -> Rank2CheckResult:
    """dim M = p (m1 + m2) / 2 on every row; flagged rows exempt but reported."""
    consistent = []
    flagged = []
    for row in _RANK2_ROWS:
        if row.pair is None:
            continue
        if row.printed_inconsistent:
            flagged.append(row)
        else:
            consistent.append(row)
    parametric_ok = True
    for name, gen in _PARAMETRIC.items():
        lo = 3 if "so(n+2)" in name else 2
        for n in range(lo, 9):
            dim_M, (m1, m2) = gen(n)
            if 2 * dim_M != 4 * (m1 + m2):
                parametric_ok = False
    return Rank2CheckResult(
        consistent_rows=tuple(consistent),
        flagged_rows=tuple(flagged),
        parametric_ok=parametric_ok,
    )


# ---------------------------------------------------------------------------
# Clifford multiplicity table
# ---------------------------------------------------------------------------


FKM_MAX_K = 5  # rows of the generated table, as in the published one
FKM_MAX_M = 9  # columns


@dataclass(frozen=True)
class FKMEntry(Report):
    m: int
    k: int
    delta_m: int = report_key("delta")
    pair: tuple | None  # (m1, m2), None when m2 <= 0 (printed as a dash)


def fkm_table() -> tuple[FKMEntry, ...]:
    """(m1, m2) = (m, k delta(m) - m - 1) for k <= FKM_MAX_K, m <= FKM_MAX_M."""
    entries = []
    for k in range(1, FKM_MAX_K + 1):
        for m in range(1, FKM_MAX_M + 1):
            d = delta(m)
            m2 = k * d - m - 1
            pair = (m, m2) if m2 >= 1 else None
            entries.append(FKMEntry(m=m, k=k, delta_m=d, pair=pair))
    return tuple(entries)


# The published low-dimensional table, rows k = 1..5, columns m = 1..9
# (delta = 1, 2, 4, 4, 8, 8, 8, 8, 16).  None marks a printed dash; the
# (m=4, k=5) cell is printed as (4, 17).  The k = 5, m = 9 cell is elided
# in the source and left out here.
_PRINTED_FKM = {
    (1, 5): (5, 2), (1, 6): (6, 1), (1, 9): (9, 6),
    (2, 2): (2, 1), (2, 3): (3, 4), (2, 4): (4, 3), (2, 5): (5, 10),
    (2, 6): (6, 9), (2, 7): (7, 8), (2, 8): (8, 7), (2, 9): (9, 22),
    (3, 1): (1, 1), (3, 2): (2, 3), (3, 3): (3, 8), (3, 4): (4, 7),
    (3, 5): (5, 18), (3, 6): (6, 17), (3, 7): (7, 16), (3, 8): (8, 15),
    (3, 9): (9, 38),
    (4, 1): (1, 2), (4, 2): (2, 5), (4, 3): (3, 12), (4, 4): (4, 11),
    (4, 5): (5, 26), (4, 6): (6, 25), (4, 7): (7, 24), (4, 8): (8, 23),
    (4, 9): (9, 54),
    (5, 1): (1, 3), (5, 2): (2, 7), (5, 3): (3, 16), (5, 4): (4, 17),
    (5, 5): (5, 34), (5, 6): (6, 33), (5, 7): (7, 32), (5, 8): (8, 31),
}


@dataclass(frozen=True)
class PrintedTableCheck:
    matches: int
    mismatches: tuple  # ((k, m), printed_pair, formula_pair)

    @property
    def ok_except_flagged(self) -> bool:
        return all((k, m) == (5, 4) for (k, m), _, _ in self.mismatches)


def printed_fkm_check() -> PrintedTableCheck:
    """Compare the generated table against the published transcription.

    The single known discrepancy is the printed (4, 17) at (m=4, k=5),
    where the formula gives (4, 15); it is reported, not patched.
    """
    formula = {(e.k, e.m): e.pair for e in fkm_table()}
    matches = 0
    mismatches = []
    for key, printed in _PRINTED_FKM.items():
        if formula[key] == printed:
            matches += 1
        else:
            mismatches.append((key, printed, formula[key]))
    return PrintedTableCheck(matches=matches, mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# inhomogeneity criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InhomogeneityVerdict(Report):
    m1: int
    m2: int
    verdict: str  # "inhomogeneous" | "inconclusive"
    inequality_holds: bool
    caution: str | None

    citation = (
        "Ferus-Karcher-Muenzner inhomogeneity criterion "
        "3 <= 3 m1 <= m2 + 9 (p=4 Clifford families)"
    )


def inhomogeneity_predicate(m1: int, m2: int, degenerate: bool = False) -> InhomogeneityVerdict:
    """One-directional criterion: 3 <= 3 m1 <= m2 + 9 forces inhomogeneity.

    A Clifford family has (m1, m2) = (m, l - m - 1), so m1 is its Clifford
    m.  For m1 = 4 the caller must also assert that no system element is
    +-Id (pass ``degenerate=True`` when one is).  The criterion applies to
    p = 4 Clifford families only; results for other pairs carry a caution.
    """
    if m1 < 1 or m2 < 1:
        raise DomainError("multiplicities must be positive")
    inequality = 3 <= 3 * m1 <= m2 + 9
    holds = inequality and not (m1 == 4 and degenerate)
    caution = None
    if holds and (m1, m2) == (1, 1):
        caution = (
            "criterion is satisfied literally, but it applies only to p=4 "
            "Clifford families; equal multiplicities (1,1) also occur for "
            "homogeneous families with other p"
        )
    return InhomogeneityVerdict(
        m1=m1,
        m2=m2,
        verdict="inhomogeneous" if holds else "inconclusive",
        inequality_holds=inequality,
        caution=caution,
    )


# ---------------------------------------------------------------------------
# the SU(3)/SO(3) adjoint orbit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpectrumReport(Report):
    eigenvalues_exact: tuple  # ScalarQ3, unit normalization
    eigenvalues_float: tuple
    cot_angles: tuple
    spacing: float
    printed_values: tuple
    normalization_note: str

    citation = (
        "shape operator A[X, x] = -[X, xi] of the adjoint "
        "SO(3) orbit in the traceless symmetric part of su(3)"
    )


# so(3), the isotropy algebra of SU(3)/SO(3), as integer 3x3 matrices
_SO3 = (
    ((0, 0, 0), (0, 0, -1), (0, 1, 0)),
    ((0, 0, 1), (0, 0, 0), (-1, 0, 0)),
    ((0, -1, 0), (1, 0, 0), (0, 0, 0)),
)


def _bracket_diagonal(L: tuple, d: tuple) -> tuple:
    """[L, diag(d)], whose entry (a, b) is L_ab (d_b - d_a)."""
    return tuple(tuple(L[a][b] * (d[b] - d[a]) for b in range(3)) for a in range(3))


def _trace_product(A: tuple, B: tuple) -> int:
    return sum(A[a][b] * B[b][a] for a in range(3) for b in range(3))


def su3_orbit_spectrum() -> OrbitSpectrumReport:
    """Eigenvalues of the orbit shape operator, computed exactly in Q(sqrt 3).

    The orbit is Ad(SO(3)) x inside the 5-dimensional space of symmetric
    elements of su(3).  With x the unit element of the diagonal Cartan
    subspace orthogonal to xi, the operator A[X, x] = -[X, xi] has
    eigenvalues {sqrt 3, 0, -sqrt 3}: cot-angles pi/6, pi/2, 5 pi/6 with
    exact pi/3 spacing.  The published values +-1/sqrt(3) are the
    reciprocals of the nonzero eigenvalues (a tan/cot mixup or a metric
    rescale); they are reported verbatim with that caveat, not corrected.

    The metric is the negative Killing form -6 tr(XY), that is 6 tr(ab) on
    i a and i b, the unique invariant scale in which the printed normal
    xi = (i/6) diag(1, 1, -2) has unit length; x = s i diag(1, -1, 0) is
    unit for s = sqrt3/6.  The tangent vectors T_k = [L_k, x] = s i C_k,
    C_k = [L_k, diag(1, -1, 0)], have Gram matrix tr(C_k C_l)/2, and
    A T_k = -[L_k, xi] = -(i/6) E_k, E_k = [L_k, diag(1, 1, -2)], has
    <A T_l, T_k> = -s tr(E_l C_k).  Both matrices are diagonal, which is
    checked on the integer traces, so lambda_k = -2 s tr(E_k C_k)/tr(C_k^2).
    """
    C = [_bracket_diagonal(L, (1, -1, 0)) for L in _SO3]
    E = [_bracket_diagonal(L, (1, 1, -2)) for L in _SO3]
    if any(
        _trace_product(C[k], C[l]) or _trace_product(E[l], C[k])
        for k in range(3) for l in range(3) if k != l
    ):
        raise ConstructionError("the bracket basis does not diagonalize the shape operator")
    s = ScalarQ3(0, Fraction(1, 6))
    lams = [
        s * Fraction(-2 * _trace_product(Ek, Ck), _trace_product(Ck, Ck)) for Ck, Ek in zip(C, E)
    ]
    # every lambda_k is a rational multiple of sqrt 3, so its b part orders it
    exact = tuple(sorted(lams, key=lambda v: v.b, reverse=True))
    eig_float = tuple(float(v) for v in exact)
    thetas = sorted(math.atan2(1.0, v) for v in eig_float)
    return OrbitSpectrumReport(
        eigenvalues_exact=exact,
        eigenvalues_float=eig_float,
        cot_angles=tuple(thetas),
        spacing=thetas[1] - thetas[0],
        printed_values=(1 / math.sqrt(3), -1 / math.sqrt(3), 0.0),
        normalization_note=(
            "unit-sphere normalization of (x, xi) in the invariant metric "
            "-6 tr(XY) (printed xi is exactly unit there) gives {sqrt3, 0, "
            "-sqrt3}; the published +-1/sqrt(3) are the reciprocals of the "
            "nonzero values and are not pi/3-spaced in cot-angle; reported "
            "verbatim, not corrected"
        ),
    )
