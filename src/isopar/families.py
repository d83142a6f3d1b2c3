"""Factories for every isoparametric polynomial family in scope.

Each factory returns an IsoparametricFamily: a Cartan-Muenzner polynomial F
on R^(n+1) together with its declared degree p and expected curvature
multiplicities; the ambient dimension n + 1 is read off F.  The families:

  linear_family    F = x_{n+1}, p = 1 (great/small hyperspheres)
  product_family   F = sum_{i<=k} x_i^2 - sum_{j>k} x_j^2, p = 2
                   (products of two spheres)
  cartan_cubic     Cartan's harmonic cubic over R, C, H or O, p = 3
                   (tubes around projective planes, ambient dim 3d+2)
  fkm_family       the Clifford quartic <x,x>^2 - 2 sum_i <P_i x, x>^2
                   of Ferus, Karcher and Muenzner, p = 4
  nomizu_family    Nomizu's quartic on R^(2n+2): minus the m = 1 Clifford
                   quartic on l = n + 1, p = 4

plus the Nurowski determinant cubic on R^5 and its cross check against the
expanded form.

Conventions that need calling out:

* The cubic's mixed term is 3 sqrt3 re((x y) z), written from the sign
  table of division_algebras.  The real part of a triple product in O does
  not depend on association (see the division_algebras property tests), so
  re(x (y z)) would give the same F.
* The quartic sums <P_i x, x>^2 over the whole Clifford system P_0..P_m.
  Dropping P_0 would leave the gradient identity intact but shift the
  Laplacian to 8(m2 - m1 + 2) r^2; the full sum gives 8(m2 - m1) r^2,
  which the exact verifier confirms.
* Nomizu's quartic is G = (|x|^2 - |y|^2)^2 + 4 <x,y>^2 (the cross term
  must appear squared for G to be homogeneous of degree 4), and the
  Cartan-Muenzner representative of its level family is F = 2G - r^4.
  For z = (x, y) the m = 1 system P_0 = K (x) Id, P_1 = L (x) Id gives
  <P_0 z, z> = |x|^2 - |y|^2 and <P_1 z, z> = 2 <x,y>, so F is minus the
  Clifford quartic and one builder makes both.
* The ambient cap MAX_AMBIENT_DIM = 512 = 2 MAX_L lives here: linear,
  product and nomizu refuse a larger R^N before building; fkm inherits
  build_generators' l <= MAX_L, and the largest cubic lives in R^26.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .clifford import MAX_L, CliffordSystem, SignedPerm, build_generators, build_system, delta
from .division_algebras import AlgebraTag, structure_constants
from .errors import DomainError, PreconditionError
from .polyalg import ONE, SQRT3, Poly, ScalarQ3, sum_of_squares
from .report import Report, report_key

# the largest ambient R^N a family is built in: fkm at l = MAX_L
MAX_AMBIENT_DIM = 2 * MAX_L


def _check_ambient(kind: str, dim: int) -> None:
    if dim > MAX_AMBIENT_DIM:
        raise DomainError(
            f"{kind} would live in R^{dim}; the largest ambient built is R^{MAX_AMBIENT_DIM}"
        )


@dataclass(frozen=True)
class IsoparametricFamily(Report):
    """A named Cartan-Muenzner polynomial with its declared invariants.

    The ambient dimension is read off F, the variable count of R^N, and is
    not passed in.  The degree p is declared, not derived: F must be
    nonzero, and F.euler_check(p) decides that it is homogeneous of that
    degree, raising PreconditionError naming the offending monomials
    otherwise.
    """

    name: str
    p: int
    ambient_dim: int = field(init=False)
    F: Poly = report_key("num_terms")
    expected_multiplicities: tuple | None  # (m1, m2) or None
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", self.F.num_vars)
        if self.F.is_zero():
            raise PreconditionError(f"{self.name}: F is zero")
        self.F.euler_check(self.p)
        if self.expected_multiplicities is not None:
            m1, m2 = self.expected_multiplicities
            n = self.ambient_dim - 1
            if self.p * (m1 + m2) != 2 * (n - 1):
                raise PreconditionError(
                    f"{self.name}: multiplicities ({m1},{m2}) violate "
                    f"dim M = p (m1 + m2) / 2"
                )


def linear_family(n: int) -> IsoparametricFamily:
    """Height function F = x_{n+1} on R^(n+1); level sets are hyperspheres."""
    if n < 1:
        raise DomainError("sphere dimension must be positive")
    _check_ambient("linear", n + 1)
    return IsoparametricFamily(
        name=f"linear(n={n})",
        p=1,
        F=Poly.variable(n + 1, n),
        expected_multiplicities=(n - 1, n - 1),
        provenance="great and small hyperspheres in S^n (p=1 case, Cartan)",
    )


def product_family(n: int, k: int) -> IsoparametricFamily:
    """F = sum_{i<=k} x_i^2 - sum_{j>k} x_j^2; levels are S^(k-1) x S^(n-k).

    For n >= 2, k = 1 and k = n are refused: they declare a zero
    multiplicity, and the levels are S^0 x S^(n-1), two round spheres, on
    which a spectrum measures p = 1 against the declared 2.  n = 1 is built;
    its levels are points of S^1.
    """
    if n < 1:
        raise DomainError("sphere dimension must be positive")
    _check_ambient("product", n + 1)
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in 1..{n}, got {k}")
    if n >= 2 and k in (1, n):
        zero = "m1 = k - 1" if k == 1 else "m2 = n - k"
        raise DomainError(
            f"product(n={n},k={k}) has multiplicity {zero} = 0: its level sets are "
            "two round spheres, with p = 1, not the declared 2"
        )
    signs = (1,) * k + (-1,) * (n + 1 - k)
    return IsoparametricFamily(
        name=f"product(n={n},k={k})",
        p=2,
        F=_quadratic_form(SignedPerm(tuple(range(n + 1)), signs), n + 1),
        expected_multiplicities=(k - 1, n - k),
        provenance="sphere products S^a(r) x S^b(s), r^2+s^2=1 (p=2 case, Cartan)",
    )


def cartan_cubic(tag: AlgebraTag) -> IsoparametricFamily:
    """Cartan's harmonic isoparametric cubic over R, C, H or O.

    Coordinates are (u, v) followed by three algebra blocks x, y, z of
    dimension d = dim(tag), so the ambient dimension is 3d + 2.  The cubic is

        u^3 - 3 u v^2 + (3/2) u (|x|^2 + |y|^2 - 2 |z|^2)
            + (3 sqrt3 / 2) v (|x|^2 - |y|^2) + 3 sqrt3 re((x y) z)

    written term by term.  With e_a e_b = s[a][b] e_(a xor b) from the sign
    table, x y has e_c-coordinate sum_a s[a][b] x_a y_b for b = a xor c, and
    re(e_c e_c) = s[c][c], so re((x y) z) = sum_(c, a) s[a][b] s[c][c] x_a y_b z_c.
    """
    d = tag.dim
    nv = 3 * d + 2
    s = structure_constants(tag)
    x, y, z = 2, 2 + d, 2 + 2 * d  # the first variable of each block

    def mono(*indices: int) -> tuple:
        exps = [0] * nv
        for i in indices:
            exps[i] += 1
        return tuple(exps)

    half3, half3s = Fraction(3, 2), ScalarQ3(0, Fraction(3, 2))
    terms = {mono(0, 0, 0): 1, mono(0, 1, 1): -3}
    terms.update({mono(0, x + i, x + i): half3 for i in range(d)})
    terms.update({mono(0, y + i, y + i): half3 for i in range(d)})
    terms.update({mono(0, z + i, z + i): -3 for i in range(d)})
    terms.update({mono(1, x + i, x + i): half3s for i in range(d)})
    terms.update({mono(1, y + i, y + i): -half3s for i in range(d)})
    terms.update({
        mono(x + a, y + (a ^ c), z + c): ScalarQ3(0, 3 * s[a][a ^ c] * s[c][c])
        for c in range(d)
        for a in range(d)
    })
    return IsoparametricFamily(
        name=f"cartan-{tag.name}",
        p=3,
        F=Poly(nv, terms),
        expected_multiplicities=(d, d),
        provenance=(
            f"Cartan's cubic over {tag.name}: tube around the projective "
            f"plane P^2({tag.name}) in S^{nv - 1}"
        ),
    )


def _quadratic_form(P: SignedPerm, num_vars: int) -> Poly:
    """<P x, x> = sum_a s_a x_a x_perm(a), for a symmetric signed permutation.

    Symmetry pairs row a with row perm(a), so each product is read once,
    from the row with a <= perm(a), with coefficient s_a on the diagonal
    and 2 s_a off it.  Keys go in row by row, as an upper-triangle scan of
    the matrix meets them; F's terms, which the numeric tables are summed
    over in order, follow this order.
    """
    terms: dict = {}
    for a, (b, s) in enumerate(zip(P.perm, P.signs)):
        if b < a:
            continue
        mono = [0] * num_vars
        mono[a] += 1
        mono[b] += 1
        terms[tuple(mono)] = s if a == b else 2 * s
    return Poly(num_vars, terms)


def _clifford_quartic(system: CliffordSystem) -> Poly:
    """<x,x>^2 - 2 sum_{i=0}^{m} <P_i x, x>^2 on R^(2l).

    Shared by fkm_family and nomizu_family; private, so that a tracer
    wrapping the public factories counts each family's terms once.
    """
    nv = 2 * system.l
    F = sum_of_squares(nv, 2)  # r^4, in the key order of r2 * r2
    for P in system.mats:
        q = _quadratic_form(P, nv)
        F = F - (q * q).scale(2)
    return F


def fkm_family(system: CliffordSystem) -> IsoparametricFamily:
    """The Clifford quartic F = <x,x>^2 - 2 sum_{i=0}^{m} <P_i x, x>^2.

    Requires m1 = m and m2 = l - m - 1 both positive; the family then has
    p = 4 with multiplicities (m1, m2) on S^(2l-1).
    """
    m, l = system.m, system.l
    m1, m2 = m, l - m - 1
    if m1 < 1 or m2 < 1:
        raise DomainError(
            f"need positive multiplicities, got m1 = m = {m1} and "
            f"m2 = l - m - 1 = {m2}"
        )
    nv = 2 * l
    k = l // delta(m)
    return IsoparametricFamily(
        name=f"fkm(m={m},k={k})",
        p=4,
        F=_clifford_quartic(system),
        expected_multiplicities=(m1, m2),
        provenance=(
            f"Clifford quartic of Ferus-Karcher-Muenzner type from a system "
            f"of {m + 1} symmetric anticommuting involutions on R^{nv}"
        ),
    )


def nomizu_family(n: int) -> IsoparametricFamily:
    """Nomizu's quartic on R^(2n+2), in Cartan-Muenzner normalization.

    G = (|x|^2 - |y|^2)^2 + 4 <x,y>^2 satisfies |grad G|^2 = 16 G r^2; the
    normalized representative F = 2G - r^4 satisfies |grad F|^2 = 16 r^6
    and lap F = 8 (m2 - m1) r^2 with multiplicities (n-1, 1).  F is built
    as minus the Clifford quartic of the m = 1 system on l = n + 1.

    n >= 256, whose ambient lies above MAX_AMBIENT_DIM, is refused.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    nv = 2 * n + 2
    _check_ambient("nomizu", nv)
    return IsoparametricFamily(
        name=f"nomizu(n={n})",
        p=4,
        F=-_clifford_quartic(build_system(build_generators(1, n + 1))),
        expected_multiplicities=(n - 1, 1),
        provenance=(
            "Nomizu's quartic for the isotropy orbits of the oriented "
            f"2-plane Grassmannian, level family in S^{nv - 1}"
        ),
    )


# ---------------------------------------------------------------------------
# Nurowski determinant cubic on R^5
# ---------------------------------------------------------------------------


def _det3(M: list[list[Poly]]) -> Poly:
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def nurowski_det_cubic() -> Poly:
    """Half the determinant of Nurowski's symmetric 3x3 matrix on R^5.

    Entries exactly as published:

        [ x5 - s x4    s x3        s x2  ]
        [ s x3         x5 + s x4   s x1  ]      with s = sqrt(3).
        [ s x2         s x1        -2 x5 ]

    Note the published expanded form is this determinant with x5 negated;
    see det_cubic_cross_check, which reports (and does not patch) the
    discrepancy.
    """
    x = [Poly.variable(5, i) for i in range(5)]
    s = SQRT3
    M = [
        [x[4] - x[3].scale(s), x[2].scale(s), x[1].scale(s)],
        [x[2].scale(s), x[4] + x[3].scale(s), x[0].scale(s)],
        [x[1].scale(s), x[0].scale(s), x[4].scale(-2)],
    ]
    return _det3(M).scale(Fraction(1, 2))


def nurowski_expanded_cubic() -> Poly:
    """The published expanded form of the cubic on R^5:

    x5^3 + (3/2) x5 (x1^2 + x2^2) - 3 x5 (x3^2 + x4^2)
         + (3 sqrt3 / 2) x4 (x1^2 - x2^2) + 3 sqrt3 x1 x2 x3
    """
    h = Fraction(3, 2)
    hs = ScalarQ3(0, Fraction(3, 2))
    return Poly(
        5,
        {
            (0, 0, 0, 0, 3): ONE,
            (2, 0, 0, 0, 1): h,
            (0, 2, 0, 0, 1): h,
            (0, 0, 2, 0, 1): -3,
            (0, 0, 0, 2, 1): -3,
            (2, 0, 0, 1, 0): hs,
            (0, 2, 0, 1, 0): -hs,
            (1, 1, 1, 0, 0): ScalarQ3(0, 3),
        },
    )


def rename_cartan_r_to_nurowski(F: Poly) -> Poly:
    """Apply the coordinate identification (u, v, x, y, z) = (x5, x4, x1, x2, x3).

    Maps a polynomial in the cartan-R variable order onto the Nurowski
    variable order (x1..x5).
    """
    if F.num_vars != 5:
        raise PreconditionError("expected a 5-variable polynomial")
    perm = (4, 3, 0, 1, 2)  # cartan index -> nurowski index
    terms = {}
    for mono, coeff in F.items():
        new = [0] * 5
        for src, e in enumerate(mono):
            new[perm[src]] = e
        terms[tuple(new)] = coeff
    return Poly(5, terms)


@dataclass(frozen=True)
class DetCubicReport(Report):
    """Cross check of the determinant route against the expanded form."""

    det_half: Poly = report_key(None)
    expansion: Poly = report_key(None)
    det_matches_expansion: bool
    det_matches_after_x5_negation: bool
    expansion_matches_cartan_r: bool
    note: str


@functools.cache
def _published_cubics() -> tuple[Poly, Poly, Poly]:
    """The determinant cubic, the same with x5 negated, and the published
    expansion: constants, built once per process."""
    det = nurowski_det_cubic()
    flipped = Poly(5, {m: (c if m[4] % 2 == 0 else -c) for m, c in det.items()})
    return det, flipped, nurowski_expanded_cubic()


def det_cubic_cross_check(cartan_r: Poly) -> DetCubicReport:
    """Compare the determinant cubic, its x5 flip and ``cartan_r``, the F of
    ``cartan_cubic(AlgebraTag.R)``, with the published expansion."""
    det, flipped, exp = _published_cubics()
    cartan_renamed = rename_cartan_r_to_nurowski(cartan_r)
    same = (det - exp).is_zero()
    same_flipped = (flipped - exp).is_zero()
    matches_cartan = (exp - cartan_renamed).is_zero()
    if same:
        note = "determinant equals the expanded form as printed"
    elif same_flipped:
        note = (
            "determinant with published entry signs differs from the "
            "expanded form by the orthogonal substitution x5 -> -x5 "
            "(witness: value 1 vs -1 at the north pole); reported, not patched"
        )
    else:
        note = "determinant and expanded form disagree beyond a sign flip"
    return DetCubicReport(
        det_half=det,
        expansion=exp,
        det_matches_expansion=same,
        det_matches_after_x5_negation=same_flipped,
        expansion_matches_cartan_r=matches_cartan,
        note=note,
    )
