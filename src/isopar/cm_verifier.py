"""Exact verification of the Cartan-Muenzner differential equations.

For a homogeneous degree-p polynomial F on R^(n+1) the equations are

    |grad F|^2 = p^2 r^(2p-2)          r = |x|,
    lap F      = c r^(p-2)             c = p^2 (m2 - m1) / 2,

and a polynomial satisfying them has sphere level sets forming an
isoparametric family with curvature multiplicities m1, m2.  Homogeneity is
decided by the family: ``IsoparametricFamily`` runs ``Poly.euler_check``
when it is built and refuses an F with a term of another degree, so
``verify_cm`` does not decide it again.  Both residuals are computed as
exact polynomials and tested for literal emptiness; there is no tolerance
anywhere in this module.  The gradient residual is
``F.gradient_residual(p^2, p - 1)``, that is |grad F|^2 - p^2 r^(2p-2):
all n squares (dF/dx_i)^2 are added into exact accumulators, one for each
residue class of the packed key mod q (one class below a budget of term
pairs), and the terms of p^2 r^(2p-2), generated by the multinomial
theorem, are subtracted in place.  Above MAX_RESIDUAL_PAIRS term pairs the
residual is refused with PreconditionError before any product is formed
(fkm(1,128) and fkm(9,4) are).  The Laplace target r^(p-2) is
``sum_of_squares(n, (p - 2) // 2)`` from the same generator, so no
polynomial product is formed here.

For odd p the function r^(p-2) is not a polynomial, so the Laplace
equation is read as lap F = 0 (all multiplicities equal, c = 0), matching
Cartan's description of the equal-multiplicity families by harmonic
homogeneous polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import IsoparametricFamily
from .polyalg import Poly, ScalarQ3, sum_of_squares
from .report import Report, report_key


@dataclass(frozen=True)
class CMReport(Report):
    """Outcome of the exact gradient/Laplace identity checks."""

    family: str
    p: int
    # the family's constructor decided homogeneity; the key stays for the pinned bytes
    euler_ok: bool = field(init=False, default=True)
    grad_identity_ok: bool
    laplace_identity_ok: bool
    inferred_c: ScalarQ3
    inferred_m_diff: Fraction | None  # m2 - m1 = 2c / p^2, None if c irrational
    grad_residual: Poly = report_key("grad_residual_terms")
    laplace_residual: Poly = report_key("laplace_residual_terms")

    citation = "Cartan-Muenzner equations (Muenzner 1980/81)"

    @property
    def ok(self) -> bool:
        return self.grad_identity_ok and self.laplace_identity_ok

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


def verify_cm(fam: IsoparametricFamily) -> CMReport:
    """Check both Cartan-Muenzner identities for fam.F, exactly.

    fam.F is homogeneous of degree fam.p: the family decided that when it
    was built.
    """
    F = fam.F
    p = fam.p
    nv = F.num_vars
    grad_residual = F.gradient_residual(p * p, p - 1)

    lap = F.laplacian()
    if p % 2 == 1:
        c = ScalarQ3(0)
        laplace_residual = lap
    else:
        target = sum_of_squares(nv, (p - 2) // 2)
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
        grad_identity_ok=grad_residual.is_zero(),
        laplace_identity_ok=laplace_residual.is_zero(),
        inferred_c=c,
        inferred_m_diff=m_diff,
        grad_residual=grad_residual,
        laplace_residual=laplace_residual,
    )

