"""Exact verification of the Cartan-Muenzner differential equations.

For a homogeneous degree-p polynomial F on R^(n+1) the equations are

    |grad F|^2 = p^2 r^(2p-2)          r = |x|,
    lap F      = c r^(p-2)             c = p^2 (m2 - m1) / 2,

and a polynomial satisfying them has sphere level sets forming an
isoparametric family with curvature multiplicities m1, m2.  Both residuals
are computed as exact polynomials and tested for literal emptiness; there
is no tolerance anywhere in this module.  The gradient residual is
``F.gradient_square() - p^2 r^(2p-2)``, where ``Poly.gradient_square``
adds all n squares (dF/dx_i)^2 into one exact accumulator.

For odd p the function r^(p-2) is not a polynomial, so the Laplace
equation is read as lap F = 0 (all multiplicities equal, c = 0), matching
Cartan's description of the equal-multiplicity families by harmonic
homogeneous polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistencyError, PreconditionError
from .families import IsoparametricFamily
from .polyalg import Poly, ScalarQ3, sum_of_squares
from .report import Report, report_key


@dataclass(frozen=True)
class CMReport(Report):
    """Outcome of the exact gradient/Laplace identity checks."""

    family: str
    p: int
    euler_ok: bool
    grad_identity_ok: bool
    laplace_identity_ok: bool
    inferred_c: ScalarQ3
    inferred_m_diff: Fraction | None  # m2 - m1 = 2c / p^2, None if c irrational
    grad_residual: Poly = report_key("grad_residual_terms")
    laplace_residual: Poly = report_key("laplace_residual_terms")

    citation = "Cartan-Muenzner equations (Muenzner 1980/81)"

    @property
    def ok(self) -> bool:
        return self.euler_ok and self.grad_identity_ok and self.laplace_identity_ok

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["identities"] = [
            {"statement": "|grad F|^2 = p^2 r^(2p-2)", "ok": self.grad_identity_ok},
            {
                "statement": "lap F = c r^(p-2), c = p^2 (m2 - m1) / 2"
                if self.p % 2 == 0
                else "lap F = 0 (odd p)",
                "ok": self.laplace_identity_ok,
            },
        ]
        return out


def gradient_residual(F: Poly, p: int) -> Poly:
    """|grad F|^2 - p^2 r^(2p-2), exactly; empty iff the gradient identity holds."""
    return F.gradient_square() - (sum_of_squares(F.num_vars) ** (p - 1)).scale(p * p)


def verify_cm(fam: IsoparametricFamily) -> CMReport:
    """Check both Cartan-Muenzner identities for fam.F, exactly."""
    F = fam.F
    p = fam.p
    if F.homogeneous_degree() != p:
        raise PreconditionError(
            f"{fam.name}: F is not homogeneous of degree {p}"
        )
    nv = F.num_vars
    grad_residual = gradient_residual(F, p)

    lap = F.laplacian()
    if p % 2 == 1:
        c = ScalarQ3(0)
        laplace_residual = lap
    else:
        target = sum_of_squares(nv) ** ((p - 2) // 2)
        # match the pure x_1^(p-2) monomial, whose coefficient in r^(p-2) is 1
        probe = tuple([p - 2] + [0] * (nv - 1))
        c = lap.coefficient(probe)
        laplace_residual = lap - target.scale(c)

    if c.is_rational():
        m_diff = Fraction(2, p * p) * c.a
    else:
        m_diff = None

    return CMReport(
        family=fam.name,
        p=p,
        euler_ok=F.euler_check(p),
        grad_identity_ok=grad_residual.is_zero(),
        laplace_identity_ok=laplace_residual.is_zero(),
        inferred_c=c,
        inferred_m_diff=m_diff,
        grad_residual=grad_residual,
        laplace_residual=laplace_residual,
    )


def multiplicity_solve(p: int, n: int, m_diff: Fraction | int) -> tuple[int, int]:
    """Solve for (m1, m2) from p, the sphere dimension n and m2 - m1.

    Uses dim M = n - 1 = p (m1 + m2) / 2 together with m2 - m1 = m_diff.
    For p = 1 there is a single curvature of multiplicity n - 1 and m_diff
    is ignored.
    """
    if p < 1:
        raise InconsistencyError("p must be positive")
    if p == 1:
        return (n - 1, n - 1)
    total = Fraction(2 * (n - 1), p)  # m1 + m2
    diff = Fraction(m_diff)
    m1 = (total - diff) / 2
    m2 = (total + diff) / 2
    if m1.denominator != 1 or m2.denominator != 1:
        raise InconsistencyError(
            f"multiplicities not integral: m1 = {m1}, m2 = {m2}"
        )
    m1i, m2i = int(m1), int(m2)
    if m1i <= 0 or m2i <= 0:
        raise InconsistencyError(
            f"multiplicities not positive: ({m1i}, {m2i})"
        )
    return (m1i, m2i)
