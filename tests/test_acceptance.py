"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  The polynomial identities are exact (zero
tolerance); spectral quantities carry the stated numerical tolerances.
"""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from alg_elem import AlgElem

from isopar import spectral
from isopar.catalog import (
    inhomogeneity_predicate,
    printed_fkm_check,
    rank2_self_check,
    su3_orbit_spectrum,
)
from isopar.clifford import (
    CliffordSystem,
    SignedPerm,
    build_generators,
    build_system,
    delta,
    validate_system,
)
from isopar.cm_verifier import verify_cm
from isopar.division_algebras import AlgebraTag
from isopar.families import (
    IsoparametricFamily,
    cartan_cubic,
    det_cubic_cross_check,
    fkm_family,
    linear_family,
    nomizu_family,
    product_family,
    rename_cartan_r_to_nurowski,
)
from isopar.nurowski import check_conditions, upsilon_for_dimension
from isopar.polyalg import Poly
from reference_poly import ref

ALL_TAGS = (AlgebraTag.R, AlgebraTag.C, AlgebraTag.H, AlgebraTag.O)


@contextlib.contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL ({time.time() - start:.1f}s) {description}")
        raise
    print(f"[criterion {number:02d}] PASS ({time.time() - start:.1f}s) {description}")


@pytest.fixture(scope="module")
def fkm_systems():
    return {
        (m, k): build_system(build_generators(m, k))
        for (m, k) in [(2, 2), (3, 2), (4, 2), (5, 1)]
    }


@pytest.fixture(scope="module")
def fkm22(fkm_systems):
    return fkm_family(fkm_systems[(2, 2)])


def test_criterion_01_cartan_cubic_identities():
    with criterion(1, "p=3 exact identities for all four cubics (dims 5, 8, 14, 26)"):
        start = time.time()
        for tag in ALL_TAGS:
            fam = cartan_cubic(tag)
            assert fam.ambient_dim in (5, 8, 14, 26)
            report = verify_cm(fam)
            # |grad F|^2 - 9 r^4 == 0 and lap F == 0, both exact
            assert report.grad_residual.is_zero()
            assert report.laplace_residual.is_zero()
            assert report.inferred_c == 0
        assert time.time() - start < 60


def test_criterion_02_fkm_identities(fkm_systems):
    with criterion(2, "p=4 Clifford quartics: 16 r^6 gradient law, 8(m2-m1) r^2 Laplacian"):
        start = time.time()
        expected_pairs = {(2, 2): (2, 1), (3, 2): (3, 4), (4, 2): (4, 3), (5, 1): (5, 2)}
        for (m, k), system in fkm_systems.items():
            fam = fkm_family(system)
            m1, m2 = expected_pairs[(m, k)]
            assert fam.expected_multiplicities == (m1, m2)
            report = verify_cm(fam)
            assert report.grad_residual.is_zero()  # |grad F|^2 = 16 r^6 exactly
            assert report.laplace_residual.is_zero()
            assert report.inferred_c == 8 * (m2 - m1)
            assert report.inferred_m_diff == m2 - m1
        assert time.time() - start < 120


def test_criterion_03_nurowski_cross_validation():
    with criterion(3, "determinant cubic vs expanded form vs cartan-R renaming"):
        cartan_r = cartan_cubic(AlgebraTag.R).F
        cross = det_cubic_cross_check(cartan_r)
        # the expanded form equals cartan_cubic(R) under the fixed renaming,
        # exactly
        renamed = rename_cartan_r_to_nurowski(cartan_r)
        assert (cross.expansion - renamed).is_zero()
        assert cross.expansion_matches_cartan_r
        # the determinant route with published entry signs reproduces the
        # expanded form only after the single reported x5 sign reconciliation;
        # the raw mismatch must be detected and surfaced, never patched
        assert cross.det_matches_after_x5_negation
        assert not cross.det_matches_expansion
        assert "reported" in cross.note
        # witness values at the north pole, both exact
        assert ref(cross.det_half).evaluate([0, 0, 0, 0, 1]) == -1
        assert ref(cross.expansion).evaluate([0, 0, 0, 0, 1]) == 1


def test_criterion_04_upsilon_conditions():
    with criterion(4, "conditions (1)-(3) exact in dims 5, 8, 14, 26 + negative control"):
        for n in (5, 8, 14):
            assert check_conditions(upsilon_for_dimension(n)).ok
        start = time.time()
        U26 = upsilon_for_dimension(26)
        assert check_conditions(U26).ok
        assert time.time() - start < 60
        # negative control: scaling breaks the quadratic condition
        bad = check_conditions(upsilon_for_dimension(5).scale(2))
        assert not bad.quadratic_ok


def test_criterion_05_spectral_structure(fkm22):
    with criterion(5, "cartan-H spectrum on S^13 (20 seeds) and fkm(2,2) on S^7"):
        report = spectral.spectrum_report(
            cartan_cubic(AlgebraTag.H), 0.0, num_seeds=20
        )
        spec = report.spectrum
        assert spec.p == 3
        assert spec.multiplicities == (4, 4, 4)
        gaps = [b - a for a, b in zip(spec.thetas, spec.thetas[1:])]
        assert all(abs(g - math.pi / 3) <= 1e-6 for g in gaps)
        assert report.cross_seed_deviation <= 2e-6

        pt = spectral.sample_level(fkm22, 0.0, seed=5)
        spec = spectral.spectrum_at(pt)
        assert spec.p == 4
        assert spec.multiplicities in ((2, 1, 2, 1), (1, 2, 1, 2))
        assert sorted(spec.multiplicities) == [1, 1, 2, 2]
        gaps = [b - a for a, b in zip(spec.thetas, spec.thetas[1:])]
        assert all(abs(g - math.pi / 4) <= 1e-6 for g in gaps)
        mults = spec.multiplicities
        assert all(mults[i] == mults[(i + 2) % 4] for i in range(4))


def test_criterion_06_parallel_and_focal_laws(fkm22):
    with criterion(6, "parallel curvature law (5 travels per family) and focal nullities"):
        travels = (-0.2, -0.1, 0.05, 0.1, 0.2)
        for fam, t0 in ((product_family(7, 4), 0.0), (cartan_cubic(AlgebraTag.R), 0.1), (fkm22, 0.05)):
            pt = spectral.sample_level(fam, t0, seed=3)
            for travel in travels:
                rep = spectral.parallel_check(pt, travel, curvature_tol=1e-6)
                assert rep.ok, f"{fam.name} travel {travel}"
        # focal nullities equal the curvature multiplicities
        pt = spectral.sample_level(product_family(7, 4), 0.0, seed=1)
        assert spectral.focal_check(pt, 0).nullity == 3
        assert spectral.focal_check(pt, 1).nullity == 3
        pt = spectral.sample_level(fkm22, 0.0, seed=5)
        spec = spectral.spectrum_at(pt)
        nullities = {spectral.focal_check(pt, k).nullity for k in range(spec.p)}
        assert nullities == {2, 1}
        for k in range(spec.p):
            assert spectral.focal_check(pt, k).nullity == spec.multiplicities[k]


def test_criterion_07_clifford_layer():
    with criterion(7, "delta table, exact system relations, corrupted-P0 control"):
        assert [delta(m) for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]
        assert delta(9) == 16 * delta(1)  # the k+8 table rule
        for (m, k) in [(1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1), (8, 1), (9, 1)]:
            system = build_system(build_generators(m, k))
            assert validate_system(system).ok  # exact integer arithmetic
        base = build_system(build_generators(2, 1))
        corrupted = CliffordSystem(
            m=base.m,
            l=base.l,
            mats=(SignedPerm.identity(2 * base.l),) + base.mats[1:],
        )
        assert not validate_system(corrupted).ok


def test_criterion_08_nomizu_family():
    with criterion(8, "Nomizu quartic: exact 16 r^6 law, m-difference, n=4 spectrum"):
        for n in (3, 4, 5):
            fam = nomizu_family(n)
            report = verify_cm(fam)
            assert report.grad_residual.is_zero()  # |grad(2G - r^4)|^2 = 16 r^6
            assert report.laplace_residual.is_zero()
            assert abs(report.inferred_m_diff) == n - 2
        report = spectral.spectrum_report(nomizu_family(4), 0.0, num_seeds=5)
        spec = report.spectrum
        assert spec.p == 4
        assert sorted(spec.multiplicities) == [1, 1, 3, 3]
        mults = spec.multiplicities
        assert all(mults[i] == mults[(i + 2) % 4] for i in range(4))


def test_criterion_09_catalog_tables():
    with criterion(9, "Clifford table vs print, rank-2 self-check, inhomogeneity verdicts"):
        table_check = printed_fkm_check()
        # every printed non-dash entry is reproduced except the single
        # flagged typo (m=4, k=5): printed (4,17) vs formula (4,15)
        assert table_check.matches == 36
        assert len(table_check.mismatches) == 1
        assert table_check.mismatches[0][0] == (5, 4)
        assert table_check.ok_except_flagged

        rank2 = rank2_self_check()
        assert rank2.ok  # all unflagged rows satisfy dim M = p (m1+m2)/2
        flagged = {(r.g, r.h) for r in rank2.flagged_rows}
        assert ("e6", "f4") in flagged  # exempted and reported
        assert all(r.note for r in rank2.flagged_rows)

        assert inhomogeneity_predicate(3, 4).verdict == "inhomogeneous"
        assert inhomogeneity_predicate(5, 2).verdict == "inconclusive"


def test_criterion_10_su3_orbit():
    with criterion(10, "adjoint orbit spectrum {lambda, 0, -lambda} with pi/3 spacing"):
        report = su3_orbit_spectrum()
        lam, zero, neg = report.eigenvalues_exact
        assert zero.is_zero()
        assert neg == -lam
        assert float(lam) > 0
        assert lam * lam == 3  # lambda = sqrt 3, exactly
        gaps = [b - a for a, b in zip(report.cot_angles, report.cot_angles[1:])]
        assert all(abs(g - math.pi / 3) <= 1e-8 for g in gaps)
        assert sorted(report.printed_values) == sorted(
            (1 / math.sqrt(3), -1 / math.sqrt(3), 0.0)
        )
        assert "not corrected" in report.normalization_note


def test_criterion_11_property_suites(fkm22):
    with criterion(11, "Euler identities, norm multiplicativity, octonion laws, mutation"):
        families = [
            linear_family(7),
            product_family(7, 4),
            cartan_cubic(AlgebraTag.R),
            cartan_cubic(AlgebraTag.C),
            cartan_cubic(AlgebraTag.H),
            cartan_cubic(AlgebraTag.O),
            fkm22,
            nomizu_family(3),
        ]
        for fam in families:
            assert fam.F.euler_check(fam.p)

        rng = random.Random(97)

        def rand_elem(tag):
            return AlgElem(
                tag,
                tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(tag.dim)
                ),
            )

        for tag in ALL_TAGS:
            for _ in range(10_000):
                a, b = rand_elem(tag), rand_elem(tag)
                assert (a * b).norm2() == a.norm2() * b.norm2()

        basis = [AlgElem.basis(AlgebraTag.O, i) for i in range(8)]
        for a, b in itertools.product(basis, repeat=2):
            assert a * (a * b) == (a * a) * b
            assert (b * a) * a == b * (a * a)
        for x, y, z in itertools.product(basis, repeat=3):
            assert ((x * y) * z).re == (x * (y * z)).re

        # mutation: corrupting any single coefficient flips verification
        fam = cartan_cubic(AlgebraTag.R)
        terms = dict(fam.F.items())
        for mono in list(terms)[:3]:
            broken = dict(terms)
            broken[mono] = broken[mono] * Fraction(7, 5)
            mutant = IsoparametricFamily(
                name="mutant",
                p=3,
                ambient_dim=fam.ambient_dim,
                F=Poly(fam.ambient_dim, broken),
                expected_multiplicities=None,
                provenance="mutation control",
            )
            assert not verify_cm(mutant).grad_identity_ok
