"""Clifford generator and system construction, exact relation checks."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import isopar
import reference_clifford as ref
from isopar import division_algebras
from isopar.clifford import (
    CliffordSystem,
    SignedPerm,
    build_generators,
    build_system,
    delta,
    validate_system,
)
from isopar.division_algebras import AlgebraTag
from isopar.errors import ConstructionError, DomainError
from isopar.families import fkm_family


def dense(P: SignedPerm) -> np.ndarray:
    return np.array(P.rows(), dtype=np.int64)


def test_delta_table():
    assert [delta(m) for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]
    assert delta(3) == 4
    assert delta(8) == 8
    assert delta(10) == 16 * delta(2) == 32
    assert delta(9) == 16
    assert delta(17) == 256 * delta(1)


def test_delta_rejects_nonpositive():
    with pytest.raises(DomainError):
        delta(0)
    with pytest.raises(DomainError):
        delta(-3)


def test_m1_has_no_generators():
    gens = build_generators(1, 3)
    assert gens.l == 3
    assert gens.mats == ()


def test_m2_generator_is_quarter_turn_up_to_sign():
    gens = build_generators(2, 1)
    assert gens.l == 2
    (E,) = gens.mats
    # exhaustive: 2x2 integer matrices with entries in {-1,0,1} that are
    # skew, orthogonal and square to -Id are exactly the two quarter turns
    quarter_turns = []
    for entries in itertools.product((-1, 0, 1), repeat=4):
        M = np.array(entries, dtype=np.int64).reshape(2, 2)
        if (
            np.array_equal(M.T, -M)
            and np.array_equal(M.T @ M, np.eye(2, dtype=np.int64))
            and np.array_equal(M @ M, -np.eye(2, dtype=np.int64))
        ):
            quarter_turns.append(M)
    assert len(quarter_turns) == 2
    assert any(np.array_equal(dense(E), Q) for Q in quarter_turns)


@pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (2, 2), (3, 2), (4, 3), (10, 1)])
def test_generator_relations_exact(m, k):
    gens = build_generators(m, k)
    assert gens.l == k * delta(m)
    assert len(gens.mats) == m - 1
    gens.validate()  # raises on any failure


def test_m5_matches_bott_dimension():
    gens = build_generators(5, 1)
    assert gens.l == delta(5) == 8
    assert len(gens.mats) == 4


def test_build_system_smallest_case():
    system = build_system(build_generators(1, 1))
    P0, P1 = system.mats
    assert np.array_equal(dense(P0), np.diag([1, -1]))
    assert np.array_equal(dense(P1), np.array([[0, 1], [1, 0]]))
    assert validate_system(system).ok


def test_build_system_m2_k2():
    system = build_system(build_generators(2, 2))
    assert len(system.mats) == 3
    assert dense(system.mats[0]).shape == (8, 8)
    assert validate_system(system).ok


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1), (9, 1)])
def test_system_traces_vanish(m, k):
    system = build_system(build_generators(m, k))
    for P in system.mats:
        assert int(np.trace(dense(P))) == 0


@pytest.mark.parametrize("m,k", [(2, 2), (4, 2), (5, 1)])
def test_system_eigenvalues_plus_minus_one_balanced(m, k):
    system = build_system(build_generators(m, k))
    for P in system.mats:
        eig = np.linalg.eigvalsh(dense(P).astype(float))
        assert np.all(np.abs(np.abs(eig) - 1.0) < 1e-10)
        assert np.sum(eig < 0) == system.l


def test_inner_products_isometric_on_random_vectors():
    # <P_i x, P_j x> = <x, x> delta_ij, the identity behind the quartic norm
    rng = np.random.default_rng(5)
    system = build_system(build_generators(3, 2))
    mats = [dense(P) for P in system.mats]
    for _ in range(25):
        x = rng.normal(size=2 * system.l)
        for i, Pi in enumerate(mats):
            for j, Pj in enumerate(mats):
                want = float(x @ x) if i == j else 0.0
                assert (Pi @ x) @ (Pj @ x) == pytest.approx(want, abs=1e-9)


def test_identity_in_place_of_p0_fails_validation():
    system = build_system(build_generators(2, 1))
    n = 2 * system.l
    corrupted = CliffordSystem(
        m=system.m,
        l=system.l,
        mats=(SignedPerm.identity(n),) + system.mats[1:],
    )
    report = validate_system(corrupted)
    assert not report.ok
    failing_pairs = {(r.i, r.j) for r in report.failures()}
    assert (0, 1) in failing_pairs


def test_sign_perturbation_localizes_to_touched_pairs():
    rng = np.random.default_rng(31)
    system = build_system(build_generators(2, 2))
    for _ in range(10):
        which = int(rng.integers(0, len(system.mats)))
        Q = system.mats[which]
        # each row holds one nonzero entry, (a, perm[a])
        a = int(rng.integers(0, len(Q.perm)))
        b = Q.perm[a]
        signs = list(Q.signs)
        signs[a] = -signs[a]
        if a != b:
            signs[b] = -signs[b]  # keep symmetric so only relation residuals fire
        P = SignedPerm(Q.perm, tuple(signs))
        corrupted = CliffordSystem(
            m=system.m,
            l=system.l,
            mats=tuple(P if i == which else Q for i, Q in enumerate(system.mats)),
        )
        report = validate_system(corrupted)
        assert not report.ok
        for res in report.failures():
            assert which in (res.i, res.j)


def test_construction_error_on_bad_generators():
    from isopar.clifford import CliffordGenerators

    bad = CliffordGenerators(m=2, l=2, mats=(SignedPerm.identity(2),))
    with pytest.raises(ConstructionError):
        build_system(bad) if bad.validate() is None else None


def test_build_system_refuses_generators_that_break_its_relations():
    # build_system checks the system it assembles, whatever it is handed:
    # two identities square to +Id, not -Id, so P_2 and P_3 fail
    from isopar.clifford import CliffordGenerators

    bad = CliffordGenerators(m=3, l=2, mats=(SignedPerm.identity(2), SignedPerm.identity(2)))
    with pytest.raises(ConstructionError, match="assembled system violates its relations"):
        build_system(bad)


def test_generators_compute_structure_constants_once(monkeypatch):
    calls = []
    original = division_algebras.structure_constants

    def counting(tag):
        calls.append(tag)
        return original(tag)

    monkeypatch.setattr(division_algebras, "structure_constants", counting)
    build_generators(9, 1)
    assert calls == [AlgebraTag.O]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", range(1, 13))
def test_signed_perms_match_dense_reference(m, k):
    gens = build_generators(m, k)
    want = ref.generators(m, k)
    assert len(gens.mats) == len(want)
    for E, W in zip(gens.mats, want):
        assert np.array_equal(dense(E), W)
    system = build_system(gens)
    want = ref.system(m, k)
    assert len(system.mats) == len(want)
    for P, W in zip(system.mats, want):
        assert np.array_equal(dense(P), W)


@pytest.mark.parametrize("m,k", [(9, 1), (5, 1), (1, 16), (3, 3), (2, 2), (3, 2)])
def test_fkm_polynomial_matches_dense_reference(m, k):
    # same text and the same term order: numeric tables are summed in it
    F = fkm_family(build_system(build_generators(m, k))).F
    want = ref.fkm_poly(ref.system(m, k))
    assert F.dumps() == want.dumps()
    assert list(F.items()) == list(want.items())


def test_residuals_match_dense_reference():
    # corrupted systems: the residuals of failing pairs are summed entrywise
    rng = np.random.default_rng(7)
    system = build_system(build_generators(3, 1))
    n = 2 * system.l
    cases = [(SignedPerm.identity(n),) + system.mats[1:], system.mats]
    for _ in range(20):
        which = int(rng.integers(0, len(system.mats)))
        Q = system.mats[which]
        perm, signs = list(Q.perm), list(Q.signs)
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        if rng.integers(0, 2):
            signs[a] = -signs[a]  # breaks symmetry
        else:
            perm[a] = perm[b]  # two nonzeros in one column: not a bijection
        cases.append(
            tuple(SignedPerm(tuple(perm), tuple(signs)) if i == which else P
                  for i, P in enumerate(system.mats))
        )
    for mats in cases:
        report = validate_system(CliffordSystem(m=system.m, l=system.l, mats=mats))
        symmetric, residuals = ref.residuals([dense(P) for P in mats])
        assert report.symmetric == symmetric
        assert [(r.i, r.j, r.max_abs_residual) for r in report.residuals] == list(residuals)
        assert report.ok == (all(symmetric) and all(r == 0 for *_, r in residuals))


def test_exact_modules_import_without_numpy():
    modules = (
        "polyalg", "division_algebras", "clifford", "families", "cm_verifier", "nurowski",
        "catalog", "report",
    )
    code = "; ".join(f"import isopar.{name}" for name in modules)
    code += "; import sys; assert 'numpy' not in sys.modules, 'numpy imported'"
    src = os.path.dirname(os.path.dirname(isopar.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
