"""Clifford generator and system construction, exact relation checks."""

import itertools

import numpy as np
import pytest

from isopar import division_algebras
from isopar.clifford import (
    CliffordSystem,
    build_generators,
    build_system,
    delta,
    validate_system,
)
from isopar.division_algebras import AlgebraTag
from isopar.errors import ConstructionError, DomainError


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
    assert any(np.array_equal(E, Q) for Q in quarter_turns)


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
    assert np.array_equal(P0, np.diag([1, -1]))
    assert np.array_equal(P1, np.array([[0, 1], [1, 0]]))
    assert validate_system(system).ok


def test_build_system_m2_k2():
    system = build_system(build_generators(2, 2))
    assert len(system.mats) == 3
    assert system.mats[0].shape == (8, 8)
    assert validate_system(system).ok


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1), (9, 1)])
def test_system_traces_vanish(m, k):
    system = build_system(build_generators(m, k))
    for P in system.mats:
        assert int(np.trace(P)) == 0


@pytest.mark.parametrize("m,k", [(2, 2), (4, 2), (5, 1)])
def test_system_eigenvalues_plus_minus_one_balanced(m, k):
    system = build_system(build_generators(m, k))
    for P in system.mats:
        eig = np.linalg.eigvalsh(P.astype(float))
        assert np.all(np.abs(np.abs(eig) - 1.0) < 1e-10)
        assert np.sum(eig < 0) == system.l


def test_inner_products_isometric_on_random_vectors():
    # <P_i x, P_j x> = <x, x> delta_ij, the identity behind the quartic norm
    rng = np.random.default_rng(5)
    system = build_system(build_generators(3, 2))
    for _ in range(25):
        x = rng.normal(size=2 * system.l)
        for i, Pi in enumerate(system.mats):
            for j, Pj in enumerate(system.mats):
                want = float(x @ x) if i == j else 0.0
                assert (Pi @ x) @ (Pj @ x) == pytest.approx(want, abs=1e-9)


def test_identity_in_place_of_p0_fails_validation():
    system = build_system(build_generators(2, 1))
    n = 2 * system.l
    corrupted = CliffordSystem(
        m=system.m,
        l=system.l,
        mats=(np.eye(n, dtype=np.int64),) + system.mats[1:],
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
        P = system.mats[which].copy()
        nz = np.argwhere(P != 0)
        a, b = nz[int(rng.integers(0, len(nz)))]
        P[a, b] = -P[a, b]
        if a != b:
            P[b, a] = -P[b, a]  # keep symmetric so only relation residuals fire
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

    bad = CliffordGenerators(m=2, l=2, mats=(np.eye(2, dtype=np.int64),))
    with pytest.raises(ConstructionError):
        build_system(bad) if bad.validate() is None else None


def test_generators_compute_structure_constants_once(monkeypatch):
    calls = []
    original = division_algebras.structure_constants

    def counting(tag):
        calls.append(tag)
        return original(tag)

    monkeypatch.setattr(division_algebras, "structure_constants", counting)
    build_generators(9, 1)
    assert calls == [AlgebraTag.O]
