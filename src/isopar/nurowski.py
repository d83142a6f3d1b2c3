"""Nurowski's symmetric 3-tensor conditions, verified exactly.

A totally symmetric 3-tensor Y on R^n (metric g = identity) is extracted
from a homogeneous cubic F through Y_ijk = (1/6) d^3 F / dx_i dx_j dx_k,
so that Y_ijk x_i x_j x_k = F.  The three conditions are

  (1) total symmetry                     (structural, by construction)
  (2) trace-free: sum_j Y_ijj = 0        for every i
  (3) Y_ijk Y_lmi + Y_lji Y_kmi + Y_kli Y_jmi
        = g_jk g_lm + g_lj g_km + g_kl g_jm   (sum over i)

Because Y is totally symmetric, both sides of (3) are invariant under all
permutations of (j, k, l, m): each side is the sum over the three ways of
splitting {j,k,l,m} into two unordered pairs.  The exhaustive check
therefore only enumerates j <= k <= l <= m, which keeps the 26-variable
case around 2.4e4 tuples; a full unreduced sweep is available for cross
checking in low dimension.

Solutions exist exactly in ambient dimensions 3k + 2 for k = 1, 2, 4, 8,
realized by the four Cartan cubics; dimension_catalog records the isotropy
groups and compact models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .division_algebras import AlgebraTag
from .errors import PreconditionError
from .families import cartan_cubic
from .polyalg import Poly, ScalarQ3
from .report import Report, report_key


@dataclass(frozen=True)
class UpsilonTensor:
    """Symmetric 3-tensor stored on sorted index triples i <= j <= k (0-based)."""

    n: int
    entries: dict  # (i, j, k) sorted -> ScalarQ3, all C(n+2, 3) keys present

    def __post_init__(self):
        expected = self.n * (self.n + 1) * (self.n + 2) // 6
        if len(self.entries) != expected:
            raise PreconditionError(
                f"symmetric storage needs {expected} entries, got {len(self.entries)}"
            )

    def value(self, i: int, j: int, k: int) -> ScalarQ3:
        return self.entries[tuple(sorted((i, j, k)))]

    def scale(self, factor) -> "UpsilonTensor":
        f = ScalarQ3.from_value(factor)
        return UpsilonTensor(
            self.n, {key: v * f for key, v in self.entries.items()}
        )

    def contract(self) -> Poly:
        """Rebuild sum_{ijk} Y_ijk x_i x_j x_k as a polynomial.

        A sorted triple with r distinct indices is hit by 6 / (repetition
        factorials) orderings of the free sum: 1, 3 or 6.
        """
        terms: dict = {}
        for (i, j, k), val in self.entries.items():
            if val.is_zero():
                continue
            mono = [0] * self.n
            mono[i] += 1
            mono[j] += 1
            mono[k] += 1
            orderings = {1: 1, 2: 3, 3: 6}[len({i, j, k})]
            terms[tuple(mono)] = val * orderings
        return Poly(self.n, terms)


def extract_upsilon(F: Poly) -> UpsilonTensor:
    """Y_ijk = (1/6) third partials of a homogeneous cubic, exactly.

    The reconstruction identity contract(Y) == F is verified before
    returning.
    """
    if F.homogeneous_degree() != 3:
        raise PreconditionError("upsilon extraction needs a homogeneous cubic")
    n = F.num_vars
    entries: dict = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                mono = [0] * n
                mono[i] += 1
                mono[j] += 1
                mono[k] += 1
                coeff = F.coefficient(tuple(mono))
                distinct = len({i, j, k})
                orderings = {1: 1, 2: 3, 3: 6}[distinct]
                entries[(i, j, k)] = coeff * Fraction(1, orderings)
    tensor = UpsilonTensor(n, entries)
    if not (tensor.contract() - F).is_zero():
        raise PreconditionError("upsilon reconstruction failed to reproduce the cubic")
    return tensor


@dataclass(frozen=True)
class ConditionReport(Report):
    n: int
    symmetric_ok: bool = report_key("condition_1_symmetric")
    trace_free_ok: bool = report_key("condition_2_trace_free")
    # indices i with sum_j Y_ijj != 0
    trace_failures: tuple = report_key("condition_2_failures")
    quadratic_ok: bool = report_key("condition_3_quadratic")
    quadratic_tuples_checked: int = report_key("condition_3_tuples_checked")
    # first few (j, k, l, m) tuples
    quadratic_failures: tuple = report_key("condition_3_first_failures")

    citation = "Nurowski's conditions (1)-(3) for an irreducible isotropy reduction of SO(n)"

    @property
    def ok(self) -> bool:
        return self.symmetric_ok and self.trace_free_ok and self.quadratic_ok

    def to_dict(self) -> dict:
        """As ``Report.to_dict``, with the failure indices 1-based."""
        out = super().to_dict()
        out["condition_2_failures"] = [i + 1 for i in self.trace_failures]
        out["condition_3_first_failures"] = [
            [a + 1 for a in tup] for tup in self.quadratic_failures
        ]
        return out


def _pair_vectors(tensor: UpsilonTensor) -> dict:
    """pair (a, b) with a <= b  ->  {i: Y_iab} over nonzero entries."""
    vecs: dict = {}
    for (i, j, k), val in tensor.entries.items():
        if val.is_zero():
            continue
        for pair, rem in (((j, k), i), ((i, k), j), ((i, j), k)):
            vecs.setdefault(pair, {})[rem] = val
    return vecs


def _pairing_sum(vecs: dict, a: int, b: int, c: int, d: int) -> ScalarQ3:
    va = vecs.get((min(a, b), max(a, b)))
    vb = vecs.get((min(c, d), max(c, d)))
    if not va or not vb:
        return ScalarQ3(0)
    if len(va) > len(vb):
        va, vb = vb, va
    total = ScalarQ3(0)
    for i, x in va.items():
        y = vb.get(i)
        if y is not None:
            total = total + x * y
    return total


def check_conditions(
    tensor: UpsilonTensor, max_failures: int = 8, exhaustive: bool = False
) -> ConditionReport:
    """Verify conditions (1)-(3) in exact arithmetic.

    ``exhaustive`` sweeps all n^4 tuples of condition (3) instead of the
    symmetry-reduced j <= k <= l <= m enumeration (used as a cross check in
    low dimension).
    """
    n = tensor.n
    trace_failures = []
    for i in range(n):
        total = ScalarQ3(0)
        for j in range(n):
            total = total + tensor.value(i, j, j)
        if not total.is_zero():
            trace_failures.append(i)

    vecs = _pair_vectors(tensor)
    quad_failures: list = []
    checked = 0
    if exhaustive:
        tuples = itertools.product(range(n), repeat=4)
    else:
        tuples = itertools.combinations_with_replacement(range(n), 4)
    for j, k, l, m in tuples:
        checked += 1
        lhs = (
            _pairing_sum(vecs, j, k, l, m)
            + _pairing_sum(vecs, l, j, k, m)
            + _pairing_sum(vecs, k, l, j, m)
        )
        rhs = int(j == k) * int(l == m) + int(l == j) * int(k == m) + int(
            k == l
        ) * int(j == m)
        if lhs != ScalarQ3(rhs):
            if len(quad_failures) < max_failures:
                quad_failures.append((j, k, l, m))
    return ConditionReport(
        n=n,
        symmetric_ok=True,  # symmetric storage cannot represent an asymmetry
        trace_free_ok=not trace_failures,
        trace_failures=tuple(trace_failures),
        quadratic_ok=not quad_failures,
        quadratic_tuples_checked=checked,
        quadratic_failures=tuple(quad_failures),
    )


# ---------------------------------------------------------------------------
# dimension catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionEntry:
    k: int
    n: int  # ambient dimension 3k + 2
    isotropy_group: str
    compact_model: str
    source_note: str | None = None


_CATALOG = (
    DimensionEntry(1, 5, "SO(3)", "SU(3)/SO(3)"),
    DimensionEntry(
        2,
        8,
        "SU(3)",
        "SU(3)xSU(3)/SU(3)",
        source_note="source prints the model as SU(3)/SU(3)/SU(3)",
    ),
    DimensionEntry(4, 14, "Sp(3)", "SU(6)/Sp(3)"),
    DimensionEntry(
        8,
        26,
        "F4",
        "E6/F4",
        source_note="source prints the group as F_4(3)",
    ),
)

_DIM_TO_TAG = {
    5: AlgebraTag.R,
    8: AlgebraTag.C,
    14: AlgebraTag.H,
    26: AlgebraTag.O,
}


def dimension_catalog() -> tuple[DimensionEntry, ...]:
    """The dimensions 3k+2, k in {1, 2, 4, 8}, with groups and models."""
    return _CATALOG


def upsilon_for_dimension(n: int) -> UpsilonTensor:
    """The tensor of the Cartan cubic realizing dimension n in {5, 8, 14, 26}."""
    tag = _DIM_TO_TAG.get(n)
    if tag is None:
        raise PreconditionError(
            f"no cubic solution in dimension {n}; supported: {sorted(_DIM_TO_TAG)}"
        )
    return extract_upsilon(cartan_cubic(tag).F)
