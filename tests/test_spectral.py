"""Numerical level-set geometry: sampling, spectra, parallel and focal laws."""

import math

import numpy as np
import pytest

from isopar import spectral
from isopar.clifford import build_generators, build_system
from isopar.division_algebras import AlgebraTag
from isopar.errors import (
    DomainError,
    FocalAngleError,
    InstabilityError,
    PreconditionError,
)
from isopar.families import (
    cartan_cubic,
    fkm_family,
    linear_family,
    nomizu_family,
    product_family,
)
from isopar.polyalg import Poly

PRODUCT = product_family(7, 4)
CARTAN_R = cartan_cubic(AlgebraTag.R)
FKM22 = fkm_family(build_system(build_generators(2, 2)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_product_level_zero():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    assert abs(float(pt.x @ pt.x) - 1.0) < 1e-12
    assert abs(float(pt.x[:4] @ pt.x[:4]) - 0.5) < 1e-10


def test_sample_cartan_r_levels():
    for seed in (1, 2, 3):
        pt = spectral.sample_level(CARTAN_R, 0.0, seed=seed)
        geo = spectral.geometry(CARTAN_R)
        assert abs(geo.value(pt.x)) < 1e-12
        assert abs(float(pt.x @ pt.x) - 1.0) < 1e-12


def test_sample_linear_level():
    pt = spectral.sample_level(linear_family(7), 0.5, seed=4)
    assert pt.x[7] == pytest.approx(0.5, abs=1e-12)
    # degree-1 homogeneity gives remaining norm^2 = 1 - t^2 = 0.75
    # (not 1 - t; the discrepancy with the published radius is recorded)
    assert float(pt.x[:7] @ pt.x[:7]) == pytest.approx(0.75, abs=1e-12)


def test_sample_rejects_focal_levels():
    with pytest.raises(DomainError):
        spectral.sample_level(PRODUCT, 1.0)
    with pytest.raises(DomainError):
        spectral.sample_level(PRODUCT, -1.2)
    with pytest.raises(DomainError):
        spectral.sample_level(PRODUCT, 0.99)
    # the guard band can be overridden explicitly
    pt = spectral.sample_level(PRODUCT, 0.97, seed=1, allow_extreme=True)
    assert abs(pt.t - 0.97) < 1e-10


# ---------------------------------------------------------------------------
# shape operator
# ---------------------------------------------------------------------------


def test_linear_family_is_umbilic():
    pt = spectral.sample_level(linear_family(7), 0.5, seed=4)
    eigs = spectral.principal_curvatures(pt)
    lam = 0.5 / math.sqrt(0.75)
    assert np.allclose(eigs, lam, atol=1e-9)


def test_product_family_curvatures_at_zero():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    eigs = np.sort(spectral.principal_curvatures(pt))
    assert np.allclose(eigs[:3], -1.0, atol=1e-9)
    assert np.allclose(eigs[3:], 1.0, atol=1e-9)


def test_cartan_r_curvatures_at_zero():
    pt = spectral.sample_level(CARTAN_R, 0.0, seed=2)
    eigs = np.sort(spectral.principal_curvatures(pt))
    expected = [-math.sqrt(3), 0.0, math.sqrt(3)]
    assert np.allclose(eigs, expected, atol=1e-9)


def test_normal_flip_negates_spectrum():
    pt = spectral.sample_level(FKM22, 0.2, seed=9)
    eigs = np.sort(spectral.principal_curvatures(pt))
    flipped = np.sort(spectral.principal_curvatures(pt, flip_normal=True))
    assert np.allclose(np.sort(-eigs), flipped, atol=1e-10)


def test_shape_operator_matches_finite_difference_weingarten():
    # independent oracle: A v = -d xi [v], differentiated numerically
    pt = spectral.sample_level(CARTAN_R, 0.1, seed=11)
    op = spectral.shape_operator(pt)
    geo = spectral.geometry(CARTAN_R)

    def xi_at(y):
        y = y / np.linalg.norm(y)
        g = geo.sphere_gradient(y)
        return g / np.linalg.norm(g)

    B = op.basis
    eps = 1e-6
    A_fd = np.zeros_like(op.matrix)
    for j in range(B.shape[1]):
        v = B[:, j]
        dxi = (xi_at(pt.x + eps * v) - xi_at(pt.x - eps * v)) / (2 * eps)
        A_fd[:, j] = -(B.T @ dxi)
    assert np.max(np.abs(A_fd - op.matrix)) < 1e-6


def test_shape_operator_asymmetry_is_tiny():
    pt = spectral.sample_level(FKM22, 0.3, seed=13)
    assert spectral.shape_operator(pt).asymmetry <= 1e-8


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_cluster_product_spectrum():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    spec = spectral.spectrum_at(pt)
    assert spec.p == 2
    assert spec.multiplicities == (3, 3)
    assert spec.thetas[1] - spec.thetas[0] == pytest.approx(math.pi / 2, abs=1e-9)


def test_cluster_fkm_pattern():
    pt = spectral.sample_level(FKM22, 0.0, seed=5)
    spec = spectral.spectrum_at(pt)
    assert spec.p == 4
    assert spec.multiplicities in ((2, 1, 2, 1), (1, 2, 1, 2))
    assert sorted(spec.multiplicities) == [1, 1, 2, 2]


def test_cluster_constant_list():
    spec = spectral.cluster_spectrum([1.0] * 6)
    assert spec.p == 1
    assert spec.multiplicities == (6,)


def test_cluster_instability_guard():
    # two groups separated by less than 10x the within-cluster spread
    eigs = [0.0, 0.5e-4, 1.0e-4, 4e-4, 4.5e-4, 5e-4]
    with pytest.raises(InstabilityError):
        spectral.cluster_spectrum(eigs, tol=2e-4)


def test_cluster_empty_rejected():
    with pytest.raises(PreconditionError):
        spectral.cluster_spectrum([])


def test_thetas_lie_in_open_interval():
    pt = spectral.sample_level(FKM22, 0.4, seed=3)
    spec = spectral.spectrum_at(pt)
    assert all(0 < th < math.pi for th in spec.thetas)
    assert list(spec.thetas) == sorted(spec.thetas)


# ---------------------------------------------------------------------------
# Muenzner checks
# ---------------------------------------------------------------------------


def test_munzner_cartan_spacing():
    pt = spectral.sample_level(CARTAN_R, 0.2, seed=17)
    report = spectral.munzner_check(spectral.spectrum_at(pt))
    assert report.ok
    assert report.max_spacing_error < 1e-6


def test_munzner_flags_p5():
    thetas = [0.2 + k * math.pi / 5 for k in range(5)]
    eigs = [1.0 / math.tan(th) for th in thetas]
    spec = spectral.cluster_spectrum(eigs)
    report = spectral.munzner_check(spec)
    assert spec.p == 5
    assert not report.p_allowed
    assert not report.ok


def test_munzner_p2_spacing():
    pt = spectral.sample_level(PRODUCT, 0.3, seed=19)
    spec = spectral.spectrum_at(pt)
    assert spec.thetas[1] - spec.thetas[0] == pytest.approx(math.pi / 2, abs=1e-6)


# ---------------------------------------------------------------------------
# parallel surfaces
# ---------------------------------------------------------------------------


def test_parallel_zero_travel_is_identity():
    pt = spectral.sample_level(PRODUCT, 0.2, seed=21)
    report = spectral.parallel_check(pt, 0.0)
    assert report.ok
    assert report.end_level == pytest.approx(pt.t, abs=1e-12)
    assert report.max_curvature_error < 1e-9


def test_parallel_product_eighth_turn():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    report = spectral.parallel_check(pt, math.pi / 8)
    assert report.ok
    expected = {round(1.0 / math.tan(math.pi / 4 - math.pi / 8), 6),
                round(1.0 / math.tan(3 * math.pi / 4 - math.pi / 8), 6)}
    measured = {round(v, 6) for v in report.measured_curvatures}
    assert expected == measured


def test_parallel_cartan_r_small_travels():
    pt = spectral.sample_level(CARTAN_R, 0.1, seed=23)
    for travel in (-0.2, -0.05, 0.05, 0.15, 0.3):
        report = spectral.parallel_check(pt, travel)
        assert report.ok, f"travel {travel}: err {report.max_curvature_error}"


def test_parallel_rejects_focal_angle():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    theta1 = spectral.spectrum_at(pt).thetas[0]
    with pytest.raises(FocalAngleError):
        spectral.parallel_check(pt, theta1)


# ---------------------------------------------------------------------------
# focal collapse
# ---------------------------------------------------------------------------


def test_focal_product_nullities():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    for k in (0, 1):
        report = spectral.focal_check(pt, k)
        assert report.nullity == 3
        assert report.ok


def test_focal_linear_whole_surface_collapses():
    pt = spectral.sample_level(linear_family(7), 0.3, seed=25)
    report = spectral.focal_check(pt, 0)
    assert report.nullity == 6
    assert report.ok


def test_focal_fkm_nullities_match_multiplicities():
    pt = spectral.sample_level(FKM22, 0.0, seed=5)
    spec = spectral.spectrum_at(pt)
    for k in range(spec.p):
        report = spectral.focal_check(pt, k)
        assert report.nullity == spec.multiplicities[k]


def test_nonfocal_angles_keep_full_rank():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    report = spectral.nonfocal_rank_check(pt, 0.11)
    assert report.nullity == 0
    assert report.ok


def test_focal_index_out_of_range():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    with pytest.raises(DomainError):
        spectral.focal_check(pt, 5)


# ---------------------------------------------------------------------------
# cross-seed invariance
# ---------------------------------------------------------------------------


def test_spectrum_constant_across_sample_points():
    # the defining property: curvatures do not depend on the sample point
    for fam in (nomizu_family(3), FKM22):
        report = spectral.spectrum_report(fam, 0.1, num_seeds=20)
        assert report.seed_agreement_ok
        assert report.cross_seed_deviation <= 2e-6
        assert report.munzner.ok


def test_spectrum_report_is_deterministic():
    a = spectral.spectrum_report(PRODUCT, 0.2, num_seeds=3)
    b = spectral.spectrum_report(PRODUCT, 0.2, num_seeds=3)
    assert a.to_dict() == b.to_dict()


def test_geometry_cache_rekeys_an_equal_rebuilt_family(monkeypatch):
    first = spectral.geometry(nomizu_family(4))
    rebuilt = nomizu_family(4)
    assert spectral.geometry(rebuilt) is first  # a hit by equality
    compares = []
    original = Poly.__eq__

    def counting(self, other):
        compares.append(other)
        return original(self, other)

    monkeypatch.setattr(Poly, "__eq__", counting)
    for _ in range(5):
        assert spectral.geometry(rebuilt) is first
    assert compares == []


# ---------------------------------------------------------------------------
# derivative tables against the exact polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fam",
    [linear_family(7), PRODUCT]
    + [cartan_cubic(tag) for tag in AlgebraTag]
    + [FKM22, nomizu_family(3)],
    ids=lambda fam: fam.name,
)
def test_geometry_tables_match_exact_derivatives(fam):
    geo = spectral.geometry(fam)
    grads = fam.F.gradient()
    n = fam.ambient_dim

    def close(measured, exact):
        return abs(measured - exact) <= 1e-12 * (1 + abs(exact))

    for seed in (1, 2, 3):
        x = np.random.default_rng(seed).normal(size=n)
        x /= np.linalg.norm(x)
        point = [float(v) for v in x]
        assert close(geo.value(x), fam.F.evaluate_float(point))
        g, H = geo.gradient(x), geo.hessian(x)
        for i in range(n):
            assert close(g[i], grads[i].evaluate_float(point))
            for j in range(n):
                assert close(H[i, j], grads[i].differentiate(j).evaluate_float(point))
