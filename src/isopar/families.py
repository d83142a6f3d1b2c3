"""Factories for every isoparametric polynomial family in scope.

Each factory returns an IsoparametricFamily: a Cartan-Muenzner polynomial F
on R^(n+1) together with its declared degree p, ambient dimension and
expected curvature multiplicities.  The families:

  linear_family    F = x_{n+1}, p = 1 (great/small hyperspheres)
  product_family   F = sum_{i<=k} x_i^2 - sum_{j>k} x_j^2, p = 2
                   (products of two spheres)
  cartan_cubic     Cartan's harmonic cubic over R, C, H or O, p = 3
                   (tubes around projective planes, ambient dim 3d+2)
  fkm_family       the Clifford quartic <x,x>^2 - 2 sum_i <P_i x, x>^2
                   of Ferus, Karcher and Muenzner, p = 4
  nomizu_family    Nomizu's quartic on R^(2n+2), normalized to degree-4
                   Cartan-Muenzner form, p = 4

plus the Nurowski determinant cubic on R^5 and its cross check against the
expanded form.

Conventions that need calling out:

* The cubic's mixed term is 2 re(x y z) with left-to-right association.
  The real part of a triple product in O does not depend on association
  (see the division_algebras property tests), so this is well defined.
* The quartic sums <P_i x, x>^2 over the whole Clifford system P_0..P_m.
  Dropping P_0 would leave the gradient identity intact but shift the
  Laplacian to 8(m2 - m1 + 2) r^2; the full sum gives 8(m2 - m1) r^2,
  which the exact verifier confirms.
* Nomizu's quartic is G = (|x|^2 - |y|^2)^2 + 4 <x,y>^2 (the cross term
  must appear squared for G to be homogeneous of degree 4), and the
  Cartan-Muenzner representative of its level family is F = 2G - r^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import CliffordSystem, SignedPerm, delta
from .division_algebras import AlgebraTag, cayley_dickson_mul
from .errors import DomainError, PreconditionError
from .polyalg import ONE, SQRT3, Poly, ScalarQ3, sum_of_squares
from .report import Report, report_key


@dataclass(frozen=True)
class IsoparametricFamily(Report):
    """A named Cartan-Muenzner polynomial with its declared invariants."""

    name: str
    p: int
    ambient_dim: int
    F: Poly = report_key("num_terms")
    expected_multiplicities: tuple | None  # (m1, m2) or None
    provenance: str

    def __post_init__(self):
        if self.F.num_vars != self.ambient_dim:
            raise PreconditionError(
                f"{self.name}: ambient_dim {self.ambient_dim} != "
                f"F.num_vars {self.F.num_vars}"
            )
        if self.F.homogeneous_degree() != self.p:
            raise PreconditionError(
                f"{self.name}: F is not homogeneous of degree {self.p}"
            )
        if self.expected_multiplicities is not None:
            m1, m2 = self.expected_multiplicities
            n = self.ambient_dim - 1
            if self.p * (m1 + m2) != 2 * (n - 1):
                raise PreconditionError(
                    f"{self.name}: multiplicities ({m1},{m2}) violate "
                    f"dim M = p (m1 + m2) / 2"
                )

    @property
    def sphere_dim(self) -> int:
        return self.ambient_dim - 1


def linear_family(n: int) -> IsoparametricFamily:
    """Height function F = x_{n+1} on R^(n+1); level sets are hyperspheres."""
    if n < 1:
        raise DomainError("sphere dimension must be positive")
    return IsoparametricFamily(
        name=f"linear(n={n})",
        p=1,
        ambient_dim=n + 1,
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
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in 1..{n}, got {k}")
    if n >= 2 and k in (1, n):
        zero = "m1 = k - 1" if k == 1 else "m2 = n - k"
        raise DomainError(
            f"product(n={n},k={k}) has multiplicity {zero} = 0: its level sets are "
            "two round spheres, with p = 1, not the declared 2"
        )
    terms = {}
    for i in range(n + 1):
        mono = [0] * (n + 1)
        mono[i] = 2
        terms[tuple(mono)] = 1 if i < k else -1
    return IsoparametricFamily(
        name=f"product(n={n},k={k})",
        p=2,
        ambient_dim=n + 1,
        F=Poly(n + 1, terms),
        expected_multiplicities=(k - 1, n - k),
        provenance="sphere products S^a(r) x S^b(s), r^2+s^2=1 (p=2 case, Cartan)",
    )


def _algebra_block_vars(num_vars: int, start: int, dim: int) -> list[Poly]:
    return [Poly.variable(num_vars, start + i) for i in range(dim)]


def _block_norm2(block: list[Poly]) -> Poly:
    total = Poly.zero(block[0].num_vars)
    for v in block:
        total = total + v * v
    return total


def cartan_cubic(tag: AlgebraTag) -> IsoparametricFamily:
    """Cartan's harmonic isoparametric cubic over R, C, H or O.

    Coordinates are (u, v) followed by three algebra blocks x, y, z of
    dimension d = dim(tag), so the ambient dimension is 3d + 2.  The cubic is

        u^3 - 3 u v^2 + (3/2) u (|x|^2 + |y|^2 - 2 |z|^2)
            + (3 sqrt3 / 2) v (|x|^2 - |y|^2) + 3 sqrt3 re(x y z)

    expanded to an exact polynomial through the algebra's multiplication.
    """
    d = tag.dim
    nv = 3 * d + 2
    u = Poly.variable(nv, 0)
    v = Poly.variable(nv, 1)
    x = _algebra_block_vars(nv, 2, d)
    y = _algebra_block_vars(nv, 2 + d, d)
    z = _algebra_block_vars(nv, 2 + 2 * d, d)

    nx, ny, nz = _block_norm2(x), _block_norm2(y), _block_norm2(z)
    re_xyz = cayley_dickson_mul(cayley_dickson_mul(x, y), z)[0]

    half3 = ScalarQ3(Fraction(3, 2))
    half3s = ScalarQ3(0, Fraction(3, 2))
    F = (
        u * u * u
        - (u * v * v).scale(3)
        + (u * (nx + ny - nz.scale(2))).scale(half3)
        + (v * (nx - ny)).scale(half3s)
        + re_xyz.scale(ScalarQ3(0, 3))
    )
    return IsoparametricFamily(
        name=f"cartan-{tag.name}",
        p=3,
        ambient_dim=nv,
        F=F,
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
    r2 = sum_of_squares(nv)
    F = r2 * r2
    for P in system.mats:
        q = _quadratic_form(P, nv)
        F = F - (q * q).scale(2)
    k = l // delta(m)
    return IsoparametricFamily(
        name=f"fkm(m={m},k={k})",
        p=4,
        ambient_dim=nv,
        F=F,
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
    and lap F = 8 (m2 - m1) r^2 with multiplicities (n-1, 1).
    """
    if n < 2:
        raise DomainError("need n >= 2")
    nv = 2 * n + 2
    x = [Poly.variable(nv, i) for i in range(n + 1)]
    y = [Poly.variable(nv, n + 1 + i) for i in range(n + 1)]
    diff = _block_norm2(x) - _block_norm2(y)
    dot = Poly.zero(nv)
    for xi, yi in zip(x, y):
        dot = dot + xi * yi
    G = diff * diff + (dot * dot).scale(4)
    r2 = sum_of_squares(nv)
    F = G.scale(2) - r2 * r2
    return IsoparametricFamily(
        name=f"nomizu(n={n})",
        p=4,
        ambient_dim=nv,
        F=F,
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


def det_cubic_cross_check(cartan_r: Poly) -> DetCubicReport:
    """Compare the determinant cubic, its x5 flip and ``cartan_r``, the F of
    ``cartan_cubic(AlgebraTag.R)``, with the published expansion."""
    det = nurowski_det_cubic()
    exp = nurowski_expanded_cubic()
    # negate x5 in the determinant output
    flipped = Poly(
        5,
        {m: (c if m[4] % 2 == 0 else -c) for m, c in det.items()},
    )
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
