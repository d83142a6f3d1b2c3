"""Transcribed tables, the inhomogeneity criterion and the worked orbit."""

import math
from fractions import Fraction

import pytest

from isopar import catalog, spectral
from isopar.catalog import (
    fkm_table,
    inhomogeneity_predicate,
    printed_fkm_check,
    rank2_self_check,
    rank2_table,
    su3_orbit_spectrum,
)
from isopar.division_algebras import AlgebraTag
from isopar.errors import ConstructionError, DomainError
from isopar.families import cartan_cubic
from isopar.polyalg import ScalarQ3


# ---------------------------------------------------------------------------
# rank-2 table
# ---------------------------------------------------------------------------


def test_rank2_table_has_twelve_rows():
    assert len(rank2_table()) == 12


def test_rank2_first_row():
    row = rank2_table()[0]
    assert (row.g, row.h, row.dim_M, row.p) == ("su(3)", "so(3)", 3, 3)
    assert row.pair == (1, 1)
    assert row.dim_consistent()


def test_rank2_g2_row():
    row = next(r for r in rank2_table() if r.g == "g2" and r.h == "so(4)")
    assert (row.dim_M, row.p, row.pair) == (6, 6, (1, 1))
    assert row.dim_consistent()


def test_rank2_flagged_rows_reported_not_corrected():
    check = rank2_self_check()
    flagged = {(r.g, r.h) for r in check.flagged_rows}
    assert flagged == {("su(6)", "sp(3)"), ("e6", "f4")}
    for row in check.flagged_rows:
        assert row.multiplicities == "m_i = 3"  # stored as printed
        assert not row.dim_consistent()
        assert row.note and "consistent value" in row.note


def test_rank2_self_check_passes_on_unflagged_rows():
    check = rank2_self_check()
    assert check.ok
    assert check.parametric_ok
    assert len(check.consistent_rows) == 7


# ---------------------------------------------------------------------------
# Clifford multiplicity table
# ---------------------------------------------------------------------------


def test_fkm_table_formula_entries():
    entries = {(e.m, e.k): e for e in fkm_table()}
    assert entries[(4, 2)].pair == (4, 3)
    assert entries[(5, 1)].pair == (5, 2)
    assert entries[(1, 1)].pair is None  # m2 = -1, printed as a dash
    assert entries[(1, 2)].pair is None  # m2 = 0
    assert entries[(2, 2)].pair == (2, 1)
    assert entries[(9, 1)].pair == (9, 6)  # delta(9) = 16


def test_fkm_table_delta_column():
    entries = {(e.m, e.k): e for e in fkm_table()}
    assert [entries[(m, 1)].delta_m for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]
    assert entries[(9, 1)].delta_m == 16


def test_printed_table_reproduced_except_single_flagged_typo():
    check = printed_fkm_check()
    assert check.matches == 36
    assert len(check.mismatches) == 1
    (key, printed, formula) = check.mismatches[0]
    assert key == (5, 4)  # k = 5, m = 4
    assert printed == (4, 17)
    assert formula == (4, 15)
    assert check.ok_except_flagged


# ---------------------------------------------------------------------------
# inhomogeneity criterion
# ---------------------------------------------------------------------------


def test_inhomogeneity_34():
    assert inhomogeneity_predicate(3, 4).verdict == "inhomogeneous"


def test_inhomogeneity_52():
    v = inhomogeneity_predicate(5, 2)
    assert v.verdict == "inconclusive"
    assert not v.inequality_holds


def test_inhomogeneity_11_satisfied_with_caution():
    v = inhomogeneity_predicate(1, 1)
    assert v.verdict == "inhomogeneous"
    assert v.caution is not None


def test_inhomogeneity_m4_degenerate_side_condition():
    ok = inhomogeneity_predicate(4, 3, degenerate=False)
    assert ok.verdict == "inhomogeneous"
    blocked = inhomogeneity_predicate(4, 3, degenerate=True)
    assert blocked.verdict == "inconclusive"


def test_inhomogeneity_rejects_bad_multiplicities():
    with pytest.raises(DomainError):
        inhomogeneity_predicate(0, 3)


# ---------------------------------------------------------------------------
# SU(3)/SO(3) orbit
# ---------------------------------------------------------------------------


def test_orbit_eigenvalues_symmetric_with_zero():
    rep = su3_orbit_spectrum()
    lam, zero, neg = rep.eigenvalues_exact
    assert zero == ScalarQ3(0)
    assert neg == -lam
    assert float(lam) > 0


def test_orbit_unit_normalization_is_sqrt3():
    rep = su3_orbit_spectrum()
    assert max(rep.eigenvalues_exact, key=float) == ScalarQ3(0, 1)  # exactly sqrt 3
    assert rep.eigenvalues_float[0] == pytest.approx(math.sqrt(3), abs=1e-12)


def _matmul(A, B):
    return [[sum(A[a][c] * B[c][b] for c in range(3)) for b in range(3)] for a in range(3)]


def _bracket(A, B):
    AB, BA = _matmul(A, B), _matmul(B, A)
    return [[AB[a][b] - BA[a][b] for b in range(3)] for a in range(3)]


def _trace(A):
    return sum(A[a][a] for a in range(3))


def test_orbit_gram_and_operator_matrices_are_diagonal():
    # full 3x3 products, not the diagonal-bracket shortcut: in the metric
    # 6 tr(ab) on i a, i b, with x = s i diag(1, -1, 0), s = sqrt3/6, and
    # xi = (i/6) diag(1, 1, -2), the tangent T_k = [L_k, x] = s i C_k has
    # Gram tr(C_k C_l)/2 and <A T_l, T_k> = -s tr(E_l C_k)
    s = ScalarQ3(0, Fraction(1, 6))
    D, Dxi = [[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, -2]]
    assert 6 * s * s * _trace(_matmul(D, D)) == 1  # x is unit
    assert Fraction(6 * _trace(_matmul(Dxi, Dxi)), 36) == 1  # xi is unit
    L = [
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    ]
    C = [_bracket(Lk, D) for Lk in L]
    E = [_bracket(Lk, Dxi) for Lk in L]
    gram = [[Fraction(_trace(_matmul(C[k], C[l])), 2) for l in range(3)] for k in range(3)]
    op = [[-s * _trace(_matmul(E[l], C[k])) for l in range(3)] for k in range(3)]
    for k in range(3):
        for l in range(3):
            if k != l:
                assert gram[k][l] == 0 and op[k][l] == 0
    lams = [op[k][k] / gram[k][k] for k in range(3)]
    assert sorted((lam * lam for lam in lams), key=float) == [0, 3, 3]
    assert sorted(lams, key=float) == sorted(su3_orbit_spectrum().eigenvalues_exact, key=float)


def test_orbit_floats_are_read_off_the_exact_values():
    rep = su3_orbit_spectrum()
    assert rep.eigenvalues_float == (math.sqrt(3), 0.0, -math.sqrt(3))
    assert rep.eigenvalues_float == tuple(float(v) for v in rep.eigenvalues_exact)
    assert rep.spacing == rep.cot_angles[1] - rep.cot_angles[0]


def test_orbit_refuses_a_basis_that_is_not_diagonal(monkeypatch):
    L1, L2, L3 = catalog._SO3
    tilted = tuple(tuple(a + b for a, b in zip(r1, r3)) for r1, r3 in zip(L1, L3))
    monkeypatch.setattr(catalog, "_SO3", (tilted, L2, L3))
    with pytest.raises(ConstructionError):
        su3_orbit_spectrum()


def test_orbit_cot_angle_spacing():
    rep = su3_orbit_spectrum()
    gaps = [b - a for a, b in zip(rep.cot_angles, rep.cot_angles[1:])]
    for g in gaps:
        assert abs(g - math.pi / 3) < 1e-8


def test_orbit_reports_printed_values_with_caveat():
    rep = su3_orbit_spectrum()
    assert sorted(rep.printed_values) == pytest.approx(
        sorted([1 / math.sqrt(3), -1 / math.sqrt(3), 0.0])
    )
    assert "not corrected" in rep.normalization_note
    d = rep.to_dict()
    assert d["printed_values"]
    assert "citation" in d


def test_orbit_agrees_with_cubic_level_spectrum():
    # the same p = 3, equal-multiplicity family measured on the polynomial
    # side: cot-angles of the real Cartan cubic are also pi/3 spaced
    pt = spectral.sample_level(cartan_cubic(AlgebraTag.R), 0.0, seed=2)
    spec = spectral.spectrum_at(pt)
    orbit = su3_orbit_spectrum()
    gaps_poly = [b - a for a, b in zip(spec.thetas, spec.thetas[1:])]
    gaps_orbit = [b - a for a, b in zip(orbit.cot_angles, orbit.cot_angles[1:])]
    for gp, go in zip(gaps_poly, gaps_orbit):
        assert abs(gp - go) < 1e-8
    assert [round(v, 9) for v in orbit.eigenvalues_float] == [
        round(v, 9) for v in sorted(spec.eigenvalues, reverse=True)
    ]
