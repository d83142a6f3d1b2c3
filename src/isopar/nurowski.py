"""Nurowski's symmetric 3-tensor conditions, verified exactly.

A totally symmetric 3-tensor Y on R^n (metric g = identity) and the
homogeneous cubic F = Y_ijk x_i x_j x_k are one object, so the tensor is
held as its cubic.  By polarization Y_ijk = (1/6) d^3 F / dx_i dx_j dx_k:
for i <= j <= k it is the coefficient of x_i x_j x_k in F divided by the
number of orderings of (i, j, k), 1, 3 or 6.  The three conditions are

  (1) total symmetry                     (structural, by construction)
  (2) trace-free: sum_j Y_ijj = 0        for every i
  (3) Y_ijk Y_lmi + Y_lji Y_kmi + Y_kli Y_jmi
        = g_jk g_lm + g_lj g_km + g_kl g_jm   (sum over i)

They are Cartan's isoparametric equations for p = 3 (Nurowski,
"Distinguished dimensions for special Riemannian geometries", J. Geom.
Phys. 58, 2008), and ``check_conditions`` decides them as such:

  (2) holds exactly when lap F = 0, because lap F = 6 sum_i (sum_j Y_ijj) x_i;
      the failing i are the variables with a nonzero coefficient in lap F.
  (3) holds exactly when |grad F|^2 = 9 r^4.  Each side of (3) is a totally
      symmetric 4-tensor (a sum over the three ways of splitting {j,k,l,m}
      into two pairs).  Contracted with x_j x_k x_l x_m, the left side
      becomes 3 sum_i (Y_iab x_a x_b)^2 = |grad F|^2 / 3 and the right side
      3 r^4.  By polarization a symmetric 4-tensor over Q(sqrt 3) is fixed
      by its quartic form: the coefficient of x_j x_k x_l x_m, j <= k <= l
      <= m, is the component (j, k, l, m) times a nonzero multinomial count.
      So the monomials of the residual |grad F|^2 - 9 r^4 are exactly the
      failing sorted tuples, and the C(n+3, 4) degree-4 monomials are the
      independent components checked.

The residual is ``cm_verifier.gradient_residual(F, 3)``, that is
``F.gradient_residual(9, 2)`` = |grad F|^2 - 9 r^4 from one accumulator,
the polynomial ``verify_cm`` tests for every cubic.

Solutions exist exactly in ambient dimensions 3k + 2 for k = 1, 2, 4, 8,
realized by the four Cartan cubics; dimension_catalog records the isotropy
groups and compact models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cm_verifier import gradient_residual
from .division_algebras import AlgebraTag
from .errors import PreconditionError
from .families import cartan_cubic
from .polyalg import Poly, ScalarQ3
from .report import Report, report_key

MAX_FAILURES = 8  # condition (3) tuples a report lists


def _orderings(i: int, j: int, k: int) -> int:
    """Orderings of the free sum over (i, j, k) that hit one sorted triple: 1, 3 or 6."""
    return {1: 1, 2: 3, 3: 6}[len({i, j, k})]


@dataclass(frozen=True)
class UpsilonTensor:
    """Symmetric 3-tensor held as its cubic F = Y_ijk x_i x_j x_k (0-based).

    By polarization the two are one object: Y_ijk is the coefficient of
    x_i x_j x_k in F divided by the 1, 3 or 6 orderings of (i, j, k).
    """

    cubic: Poly

    def __post_init__(self):
        if not self.cubic.is_zero() and self.cubic.homogeneous_degree() != 3:
            raise PreconditionError("an Upsilon tensor is held as a homogeneous cubic or zero")

    @property
    def n(self) -> int:
        return self.cubic.num_vars

    def value(self, i: int, j: int, k: int) -> ScalarQ3:
        mono = [0] * self.n
        for a in (i, j, k):
            mono[a] += 1
        return self.cubic.coefficient(mono) / _orderings(i, j, k)

    @property
    def entries(self) -> dict:
        """(i, j, k) sorted -> Y_ijk, all C(n+2, 3) keys present."""
        n = self.n
        return {
            (i, j, k): self.value(i, j, k)
            for i in range(n) for j in range(i, n) for k in range(j, n)
        }

    def scale(self, factor) -> "UpsilonTensor":
        return UpsilonTensor(self.cubic.scale(factor))


def extract_upsilon(F: Poly) -> UpsilonTensor:
    """The tensor Y_ijk = (1/6) d^3 F / dx_i dx_j dx_k of a homogeneous cubic."""
    if F.homogeneous_degree() != 3:
        raise PreconditionError("upsilon extraction needs a homogeneous cubic")
    return UpsilonTensor(F)


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


def check_conditions(tensor: UpsilonTensor) -> ConditionReport:
    """Verify conditions (1)-(3) in exact arithmetic on F = Y_ijk x_i x_j x_k.

    Condition (2) is read off lap F = 6 sum_i (sum_j Y_ijj) x_i and
    condition (3) off the residual |grad F|^2 - 9 r^4 (see the module
    docstring).
    """
    F = tensor.cubic
    trace_failures = sorted(mono.index(1) for mono, _ in F.laplacian().items())
    residual = gradient_residual(F, 3)
    # each degree-4 monomial x_j x_k x_l x_m, j <= k <= l <= m, decides one
    # independent component (j, k, l, m) of condition (3): the residual's
    # monomials are the failing ones, and all C(n+3, 4) are checked
    failing = sorted(
        tuple(i for i, e in enumerate(mono) for _ in range(e)) for mono, _ in residual.items()
    )
    return ConditionReport(
        n=tensor.n,
        symmetric_ok=True,  # symmetric storage cannot represent an asymmetry
        trace_free_ok=not trace_failures,
        trace_failures=tuple(trace_failures),
        quadratic_ok=residual.is_zero(),
        quadratic_tuples_checked=math.comb(tensor.n + 3, 4),
        quadratic_failures=tuple(failing[:MAX_FAILURES]),
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

_DIM_TO_TAG = {e.n: AlgebraTag(e.k) for e in _CATALOG}


def dimension_catalog() -> tuple[DimensionEntry, ...]:
    """The dimensions 3k+2, k in {1, 2, 4, 8}, with groups and models."""
    return _CATALOG


def upsilon_for_dimension(n: int) -> UpsilonTensor:
    """The tensor of the Cartan cubic realizing dimension n in {5, 8, 14, 26}.

    Builds a fresh cartan_cubic family on every call, for library callers;
    the CLI reads the same cubic from its family memo instead.
    """
    tag = _DIM_TO_TAG.get(n)
    if tag is None:
        raise PreconditionError(
            f"no cubic solution in dimension {n}; supported: {sorted(_DIM_TO_TAG)}"
        )
    return extract_upsilon(cartan_cubic(tag).F)
