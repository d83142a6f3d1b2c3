"""Nurowski's three conditions on a cubic, and its entries Y_ijk as the oracle reads them."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isopar import polyalg
from isopar.cm_verifier import verify_cm
from isopar.division_algebras import AlgebraTag
from isopar.errors import PreconditionError
from isopar.families import IsoparametricFamily, cartan_cubic, nurowski_expanded_cubic
from isopar.nurowski import MAX_FAILURES, check_conditions, dimension_catalog, upsilon_for_dimension
from isopar.polyalg import SQRT3, Poly, ScalarQ3
from reference_nurowski import check_conditions as ref_check_conditions
from reference_nurowski import contract, extract_entries


def _entry(Y: dict, *ijk):
    """Y_ijk for any order of the indices: the oracle keys sorted triples."""
    return Y[tuple(sorted(ijk))]


def test_upsilon_entries_of_expanded_cubic():
    Y = extract_entries(nurowski_expanded_cubic())
    # coefficient 1 of x5^3 is Y_555 itself
    assert _entry(Y, 4, 4, 4) == 1
    # coefficient 3/2 of x5 x1^2 spreads over 3 orderings
    assert _entry(Y, 4, 0, 0) == Fraction(1, 2)
    # coefficient 3 sqrt3 of x1 x2 x3 spreads over 6 orderings
    assert _entry(Y, 0, 1, 2) == ScalarQ3(0, Fraction(1, 2))


def test_upsilon_multinomial_fixture():
    Y = extract_entries(Poly(3, {(1, 1, 1): 1}))
    assert _entry(Y, 0, 1, 2) == Fraction(1, 6)
    assert _entry(Y, 2, 1, 0) == Fraction(1, 6)  # symmetric access


def test_upsilon_derivative_oracle():
    # independent route: Y_ijk = (1/6) d^3 F, via repeated differentiation
    F = nurowski_expanded_cubic()
    Y = extract_entries(F)
    for (i, j, k) in [(0, 0, 4), (0, 1, 2), (4, 4, 4), (1, 1, 3), (2, 3, 4)]:
        third = F.differentiate(i).differentiate(j).differentiate(k)
        # a third derivative of a cubic is a constant polynomial
        val = third.coefficient((0,) * 5) * Fraction(1, 6)
        assert _entry(Y, i, j, k) == val


def test_contraction_reproduces_cubic():
    # the entries read off the cubic contract back to it
    for tag in (AlgebraTag.R, AlgebraTag.C):
        F = cartan_cubic(tag).F
        assert contract(F.num_vars, extract_entries(F)) == F


@pytest.mark.parametrize("tag", list(AlgebraTag), ids=lambda t: t.name)
def test_entries_match_reference_extraction(tag):
    # the cubic of dimension n is the family's, entry for entry, and its
    # entries rebuild F
    F = cartan_cubic(tag).F
    n = 3 * tag.dim + 2
    entries = extract_entries(F)
    assert extract_entries(upsilon_for_dimension(n)) == entries
    assert contract(n, entries) == F


def test_tensor_accepts_zero():
    assert extract_entries(Poly.zero(3))[(0, 1, 2)] == 0


def test_check_rejects_non_cubic():
    with pytest.raises(PreconditionError, match=r"degree 3.*\(2, 0\)"):
        check_conditions(Poly(2, {(2, 0): 1}))
    with pytest.raises(PreconditionError):
        check_conditions(Poly(2, {(3, 0): 1, (1, 0): 1}))
    # the zero cubic passes the gate: it is trace-free and fails (3), as the
    # oracle reads its entries
    zero = Poly.zero(3)
    report = check_conditions(zero)
    assert report.trace_free_ok and not report.quadratic_ok
    assert report.to_dict() == ref_check_conditions(zero).to_dict()


def test_check_reads_each_key_degree_at_most_twice(monkeypatch):
    # homogeneity is decided once, by check_conditions' degree gate, and the
    # residual reads F's degree once
    F = cartan_cubic(AlgebraTag.O).F
    calls = []
    key_degree = polyalg._key_degree
    monkeypatch.setattr(polyalg, "_key_degree", lambda k, n: calls.append(k) or key_degree(k, n))
    assert check_conditions(F).ok
    assert 0 < len(calls) <= 2 * F.num_terms()


def test_entry_count():
    assert len(extract_entries(upsilon_for_dimension(5))) == 5 * 6 * 7 // 6


def test_conditions_dim5():
    report = check_conditions(upsilon_for_dimension(5))
    assert report.ok
    assert report.trace_free_ok
    assert report.quadratic_ok


def test_conditions_dim8():
    assert check_conditions(upsilon_for_dimension(8)).ok


def test_reduced_enumeration_matches_exhaustive_dim5():
    U = upsilon_for_dimension(5)
    reduced = ref_check_conditions(U)
    full = ref_check_conditions(U, exhaustive=True)
    assert reduced.ok == full.ok
    assert full.quadratic_tuples_checked == 5**4
    assert reduced.quadratic_tuples_checked == 70  # C(8, 4)


@pytest.mark.parametrize("factor", [1, 2, SQRT3], ids=["Y", "2Y", "sqrt3Y"])
@pytest.mark.parametrize("n", [5, 8, 14, 26])
def test_conditions_match_reference_sweep(n, factor):
    U = upsilon_for_dimension(n).scale(factor)
    assert check_conditions(U).to_dict() == ref_check_conditions(U).to_dict()


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def perturbed_tensors(draw):
    """The cubic of Upsilon (n = 5, 8) or of zero (n = 3, 4) with a few entries moved."""
    n = draw(st.sampled_from([3, 4, 5, 8]))
    if n in (5, 8):
        entries = extract_entries(upsilon_for_dimension(n))
    else:
        entries = {
            (i, j, k): ScalarQ3(0)
            for i in range(n) for j in range(i, n) for k in range(j, n)
        }
    keys = sorted(entries)
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(keys))
        delta = ScalarQ3(draw(small_fractions), draw(small_fractions))
        entries[key] = entries[key] + delta
    return contract(n, entries)


@given(perturbed_tensors())
@settings(max_examples=60, deadline=None)
def test_perturbed_tensors_match_reference_sweep(U):
    assert check_conditions(U).to_dict() == ref_check_conditions(U).to_dict()


def _assert_one_decision(fam: IsoparametricFamily):
    # conditions (2) and (3) are the p = 3 Cartan-Muenzner identities, read
    # off the same two residuals
    report, cm = check_conditions(fam.F), verify_cm(fam)
    assert report.quadratic_ok == cm.grad_identity_ok
    assert report.trace_free_ok == cm.laplace_identity_ok
    tuples = sorted(
        tuple(i for i, e in enumerate(mono) for _ in range(e))
        for mono, _ in cm.grad_residual.items()
    )
    assert list(report.quadratic_failures) == tuples[:MAX_FAILURES]
    assert list(report.trace_failures) == sorted(
        mono.index(1) for mono, _ in cm.laplace_residual.items()
    )


@pytest.mark.parametrize("tag", list(AlgebraTag), ids=lambda t: t.name)
def test_conditions_agree_with_verify_cm_on_cartan_cubics(tag):
    _assert_one_decision(cartan_cubic(tag))


@given(perturbed_tensors())
@settings(max_examples=40, deadline=None)
def test_conditions_agree_with_verify_cm_on_perturbed_cubics(F):
    assume(not F.is_zero())
    _assert_one_decision(
        IsoparametricFamily(
            name="perturbed cubic", p=3, F=F, expected_multiplicities=None,
            provenance="Upsilon or zero with a few entries moved",
        )
    )


def test_spot_tuple_5555():
    # LHS at (j,k,l,m) = (5,5,5,5) is 3 sum_i Y_55i^2 = 3 since only Y_555 = 1
    Y = extract_entries(nurowski_expanded_cubic())
    lhs = ScalarQ3(0)
    for i in range(5):
        v = _entry(Y, i, 4, 4)
        lhs = lhs + v * v
    assert lhs * 3 == 3


def test_scaled_tensor_fails_condition3_only():
    U = upsilon_for_dimension(5).scale(2)
    report = check_conditions(U)
    assert report.trace_free_ok  # condition (2) is linear, survives scaling
    assert not report.quadratic_ok
    assert report.quadratic_failures  # counterexample tuples are reported


def test_trace_relation_consistency():
    # condition (3) with j = k summed over j relates to condition (2):
    # both hold simultaneously on a valid tensor
    U = upsilon_for_dimension(5)
    report = check_conditions(U)
    assert report.trace_free_ok and report.quadratic_ok


def test_dimension_catalog_entries():
    cat = {e.n: e for e in dimension_catalog()}
    assert set(cat) == {5, 8, 14, 26}
    assert cat[14].isotropy_group == "Sp(3)"
    assert cat[14].compact_model == "SU(6)/Sp(3)"
    assert cat[5].k == 1
    assert cat[8].source_note is not None  # printed-model typo flagged
    assert cat[26].source_note is not None  # printed-group typo flagged
    assert all(e.n == 3 * e.k + 2 for e in dimension_catalog())


def test_dimension_catalog_excludes_other_k():
    assert not any(e.k == 3 for e in dimension_catalog())
    with pytest.raises(PreconditionError):
        upsilon_for_dimension(11)
