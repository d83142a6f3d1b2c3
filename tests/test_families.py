"""Family factories: construction invariants and published forms."""

from fractions import Fraction

import pytest

from isopar.clifford import build_generators, build_system
from isopar.division_algebras import AlgebraTag
from isopar.errors import DomainError
from isopar.families import (
    cartan_cubic,
    det_cubic_cross_check,
    fkm_family,
    linear_family,
    nomizu_family,
    nurowski_det_cubic,
    nurowski_expanded_cubic,
    product_family,
    rename_cartan_r_to_nurowski,
)
from isopar.polyalg import Poly, sum_of_squares
from reference_poly import ref

ALL_TAGS = [AlgebraTag.R, AlgebraTag.C, AlgebraTag.H, AlgebraTag.O]


def all_small_families():
    yield linear_family(7)
    yield linear_family(2)
    yield product_family(7, 4)
    yield product_family(3, 2)
    yield cartan_cubic(AlgebraTag.R)
    yield cartan_cubic(AlgebraTag.C)
    yield fkm_family(build_system(build_generators(2, 2)))
    yield nomizu_family(3)


# ---------------------------------------------------------------------------
# linear and product families
# ---------------------------------------------------------------------------


def test_linear_family_shape():
    fam = linear_family(7)
    assert fam.ambient_dim == 8
    assert fam.p == 1
    assert fam.F == Poly.variable(8, 7)
    assert ref(fam.F).evaluate([0] * 7 + [1]) == 1


def test_linear_family_small():
    assert linear_family(2).F == Poly.variable(3, 2)


def test_product_family_shape():
    fam = product_family(7, 4)
    assert fam.p == 2
    assert fam.expected_multiplicities == (3, 3)
    F = ref(fam.F)
    assert F.evaluate([1, 0, 0, 0, 0, 0, 0, 0]) == 1
    assert F.evaluate([0, 0, 0, 0, 1, 0, 0, 0]) == -1


def test_product_family_small_instance():
    fam = product_family(3, 2)
    assert fam.F == Poly(4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): -1, (0, 0, 0, 2): -1})


def test_product_family_level_split():
    # on the sphere, F = t forces the first block to carry norm^2 (1+t)/2
    import math

    fam = product_family(7, 4)
    t = Fraction(1, 3)
    x = [0.0] * 8
    x[0] = math.sqrt((1 + float(t)) / 2)
    x[4] = math.sqrt((1 - float(t)) / 2)
    assert sum(v * v for v in x) == pytest.approx(1.0, abs=1e-15)
    assert ref(fam.F).evaluate_float(x) == pytest.approx(float(t), abs=1e-12)


def test_product_family_rejects_bad_k():
    with pytest.raises(DomainError):
        product_family(7, 0)
    with pytest.raises(DomainError):
        product_family(7, 8)
    # k = 1 and k = n declare a zero multiplicity
    for n, k in ((2, 1), (3, 1), (3, 3), (7, 1), (7, 7)):
        with pytest.raises(DomainError, match="multiplicity"):
            product_family(n, k)


# ---------------------------------------------------------------------------
# Cartan cubics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_cartan_cubic_dimensions(tag):
    fam = cartan_cubic(tag)
    assert fam.ambient_dim == 3 * tag.dim + 2
    assert fam.p == 3
    assert fam.expected_multiplicities == (tag.dim, tag.dim)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_cartan_cubic_unit_u_value(tag):
    fam = cartan_cubic(tag)
    point = [1] + [0] * (fam.ambient_dim - 1)
    assert ref(fam.F).evaluate(point) == 1


@pytest.mark.parametrize("tag", [AlgebraTag.C, AlgebraTag.H])
def test_cartan_cubic_is_harmonic(tag):
    assert cartan_cubic(tag).F.laplacian().is_zero()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_cartan_cubic_homogeneous(tag):
    assert cartan_cubic(tag).F.euler_check(3)


# ---------------------------------------------------------------------------
# Clifford quartics
# ---------------------------------------------------------------------------


def test_fkm_22_shape():
    fam = fkm_family(build_system(build_generators(2, 2)))
    assert fam.ambient_dim == 8
    assert fam.p == 4
    assert fam.expected_multiplicities == (2, 1)


def test_fkm_32_shape():
    fam = fkm_family(build_system(build_generators(3, 2)))
    assert fam.ambient_dim == 16
    assert fam.expected_multiplicities == (3, 4)


def test_fkm_rejects_zero_second_multiplicity():
    system = build_system(build_generators(1, 2))  # l = 2, m2 = 0
    with pytest.raises(DomainError) as err:
        fkm_family(system)
    assert "m2 = l - m - 1" in str(err.value)


def test_fkm_value_at_basis_point():
    # F = r^4 - 2 sum <P_i x, x>^2; at e_1, <P_0 e1, e1> = 1, <P_1 e1, e1> = 0
    fam = fkm_family(build_system(build_generators(2, 2)))
    point = [1] + [0] * 7
    assert ref(fam.F).evaluate(point) == -1


# ---------------------------------------------------------------------------
# Nomizu quartic
# ---------------------------------------------------------------------------


def test_nomizu_gradient_identity_of_raw_polynomial():
    # |grad G|^2 = 16 G r^2 as an exact polynomial identity
    n = 3
    nv = 2 * n + 2
    x = [Poly.variable(nv, i) for i in range(n + 1)]
    y = [Poly.variable(nv, n + 1 + i) for i in range(n + 1)]
    nx = sum((v * v for v in x), Poly.zero(nv))
    ny = sum((v * v for v in y), Poly.zero(nv))
    dot = sum((a * b for a, b in zip(x, y)), Poly.zero(nv))
    G = (nx - ny) * (nx - ny) + (dot * dot).scale(4)
    grad_sq = sum((G.differentiate(i) * G.differentiate(i) for i in range(nv)), Poly.zero(nv))
    assert (grad_sq - (G * sum_of_squares(nv)).scale(16)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nomizu_shape(n):
    fam = nomizu_family(n)
    assert fam.ambient_dim == 2 * n + 2
    assert fam.p == 4
    assert fam.expected_multiplicities == (n - 1, 1)
    assert fam.F.euler_check(4)


def test_nomizu_rejects_small_n():
    with pytest.raises(DomainError):
        nomizu_family(1)


# ---------------------------------------------------------------------------
# Nurowski determinant cubic
# ---------------------------------------------------------------------------


def test_expanded_cubic_north_pole_value():
    assert ref(nurowski_expanded_cubic()).evaluate([0, 0, 0, 0, 1]) == 1


def test_det_cubic_north_pole_value():
    # det diag(1, 1, -2) / 2 with published entry signs
    assert ref(nurowski_det_cubic()).evaluate([0, 0, 0, 0, 1]) == -1


def test_expansion_matches_cartan_r_exactly():
    renamed = rename_cartan_r_to_nurowski(cartan_cubic(AlgebraTag.R).F)
    assert (renamed - nurowski_expanded_cubic()).is_zero()


def test_det_cross_check_reports_sign_discrepancy():
    report = det_cubic_cross_check(cartan_cubic(AlgebraTag.R).F)
    assert not report.det_matches_expansion
    assert report.det_matches_after_x5_negation
    assert report.expansion_matches_cartan_r
    assert "x5" in report.note


def test_det_cubic_satisfies_same_differential_identities():
    # both routes are orthogonally equivalent, so the determinant cubic is
    # itself a valid degree-3 family polynomial
    det = nurowski_det_cubic()
    r2 = sum_of_squares(5)
    grad_sq = sum((det.differentiate(i) * det.differentiate(i) for i in range(5)), Poly.zero(5))
    assert (grad_sq - (r2 * r2).scale(9)).is_zero()
    assert det.laplacian().is_zero()


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------


def test_every_family_is_homogeneous_of_declared_degree():
    for fam in all_small_families():
        assert fam.F.euler_check(fam.p)


def test_multiplicity_sum_rule():
    for fam in all_small_families():
        if fam.expected_multiplicities is None:
            continue
        m1, m2 = fam.expected_multiplicities
        assert fam.p * (m1 + m2) == 2 * (fam.sphere_dim - 1)
