"""Exact Cartan-Muenzner identity verification and multiplicity inference."""

import json

import pytest

from isopar import polyalg
from isopar.clifford import build_generators, build_system
from isopar.cm_verifier import verify_cm
from isopar.division_algebras import AlgebraTag
from isopar.errors import PreconditionError
from isopar.families import (
    IsoparametricFamily,
    cartan_cubic,
    fkm_family,
    linear_family,
    nomizu_family,
    product_family,
)
from isopar.polyalg import Poly, ScalarQ3


def test_cartan_r_exact():
    report = verify_cm(cartan_cubic(AlgebraTag.R))
    assert report.ok
    assert report.grad_residual.is_zero()
    assert report.inferred_c == 0
    assert report.inferred_m_diff == 0


def test_cartan_c_exact():
    report = verify_cm(cartan_cubic(AlgebraTag.C))
    assert report.ok


def test_fkm_22_gradient_and_laplace_values():
    # |grad F|^2 = 16 r^6 and lap F = 8 (m2 - m1) r^2 with (m1, m2) = (2, 1)
    report = verify_cm(fkm_family(build_system(build_generators(2, 2))))
    assert report.grad_identity_ok
    assert report.laplace_identity_ok
    assert report.inferred_c == -8
    assert report.inferred_m_diff == -1


def test_fkm_1_32_on_r64_exact():
    # 64 variables: |grad F|^2 = 16 r^6 has 45760 terms, one byte per exponent
    report = verify_cm(fkm_family(build_system(build_generators(1, 32))))
    assert report.ok
    assert report.grad_residual.is_zero()
    assert report.laplace_residual.is_zero()


def test_fkm_9_2_on_r64_exact():
    # l = 32, (m1, m2) = (9, 22): the gradient identity on R^64 and m2 - m1 = l - 2m - 1
    report = verify_cm(fkm_family(build_system(build_generators(9, 2))))
    assert report.ok
    assert report.grad_residual.is_zero()
    assert report.inferred_m_diff == 13


def test_product_family_m_diff():
    report = verify_cm(product_family(7, 4))
    assert report.ok
    assert report.inferred_m_diff == 0
    report = verify_cm(product_family(7, 2))
    assert report.ok
    # (m1, m2) = (1, 5): lap F = 2k - 2(n+1-k) = -8 = c, m_diff = 2c/p^2 = -4
    assert report.inferred_m_diff == -4


def test_linear_family_exact():
    report = verify_cm(linear_family(7))
    assert report.ok
    assert report.p == 1
    assert report.inferred_m_diff == 0


def test_nomizu_m_diff_signs():
    for n in (3, 4):
        report = verify_cm(nomizu_family(n))
        assert report.ok
        assert abs(report.inferred_m_diff) == n - 2


def test_odd_p_forces_zero_m_diff():
    for fam in (linear_family(5), cartan_cubic(AlgebraTag.R)):
        report = verify_cm(fam)
        assert report.inferred_m_diff == 0


def test_single_coefficient_mutation_flips_gradient_check():
    fam = cartan_cubic(AlgebraTag.R)
    items = dict(fam.F.items())
    # corrupt each coefficient in turn; every mutation must be caught
    for mono in list(items)[:4]:
        corrupted_terms = dict(items)
        corrupted_terms[mono] = corrupted_terms[mono] * 2
        corrupted = IsoparametricFamily(
            name="corrupted",
            p=3,
            F=Poly(fam.ambient_dim, corrupted_terms),
            expected_multiplicities=None,
            provenance="mutation test",
        )
        report = verify_cm(corrupted)
        assert not report.grad_identity_ok


def test_irrational_laplace_constant_infers_no_multiplicity_difference():
    # lap (x0^2 + sqrt3 x1^2) = 2 + 2 sqrt3 is not rational, so no m2 - m1
    # follows from c = p^2 (m2 - m1) / 2, and the report says null
    fam = IsoparametricFamily(
        name="x0^2 + sqrt3 x1^2",
        p=2,
        F=Poly(2, {(2, 0): 1, (0, 2): ScalarQ3(0, 1)}),
        expected_multiplicities=None,
        provenance="irrational Laplacian",
    )
    report = verify_cm(fam)
    assert str(report.inferred_c) == "2+2*sqrt3"
    assert report.inferred_m_diff is None
    assert report.laplace_identity_ok and not report.grad_identity_ok
    result = json.loads(json.dumps(report.to_dict()))
    assert result["inferred_c"] == "2+2*sqrt3"
    assert result["inferred_m_diff"] is None


def test_non_homogeneous_rejected():
    # the family is the gate: an F with a term of another degree never
    # becomes a family, so verify_cm cannot receive one
    with pytest.raises(PreconditionError):
        IsoparametricFamily(
            name="bad",
            p=2,
            F=Poly(2, {(2, 0): 1, (1, 0): 1}),
            expected_multiplicities=None,
            provenance="",
        )


@pytest.mark.parametrize(
    "build",
    [lambda: fkm_family(build_system(build_generators(5, 1))), lambda: cartan_cubic(AlgebraTag.O)],
    ids=["fkm(5,1)", "cartan-O"],
)
def test_verify_cm_trusts_the_family(build, monkeypatch):
    fam = build()

    def refuse(self, degree):
        raise AssertionError("verify_cm decided homogeneity again")

    monkeypatch.setattr(polyalg.Poly, "euler_check", refuse)
    report = verify_cm(fam)
    assert report.ok
    assert report.to_dict()["euler_ok"] is True


def test_report_serializes():
    d = verify_cm(product_family(3, 2)).to_dict()
    assert d["ok"] is True
    assert "citation" in d
    assert len(d["identities"]) == 2



def test_verify_cm_reads_each_key_degree_at_most_twice(monkeypatch):
    # the family decided homogeneity when it was built, so verify_cm does not
    # call euler_check; the residual reads F's degree once
    fam = fkm_family(build_system(build_generators(5, 1)))
    calls = []
    key_degree = polyalg._key_degree
    monkeypatch.setattr(polyalg, "_key_degree", lambda k, n: calls.append(k) or key_degree(k, n))
    assert verify_cm(fam).ok
    assert 0 < len(calls) <= 2 * fam.F.num_terms()
