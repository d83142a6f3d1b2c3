"""Exact scalar and polynomial arithmetic."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isopar import cli, cm_verifier, families, polyalg
from isopar.clifford import build_generators, build_system
from isopar.cm_verifier import verify_cm
from isopar.division_algebras import AlgebraTag
from isopar.errors import PreconditionError, StructureError
from isopar.families import (
    IsoparametricFamily,
    cartan_cubic,
    fkm_family,
    linear_family,
    nomizu_family,
    nurowski_det_cubic,
    product_family,
)
from isopar.polyalg import ONE, SQRT3, Poly, ScalarQ3, sum_of_squares
from reference_poly import Poly as RefPoly
from reference_poly import packed, ref
from reference_poly import sum_of_squares as ref_sum_of_squares

# ---------------------------------------------------------------------------
# ScalarQ3
# ---------------------------------------------------------------------------

small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(ScalarQ3, small_fractions, small_fractions)


def test_scalar_basic_identities():
    s = SQRT3
    assert s * s == 3
    assert (ScalarQ3(1, 1) * ScalarQ3(1, -1)) == -2  # (1+s)(1-s) = 1-3
    assert ScalarQ3(Fraction(3, 2)) + ScalarQ3(Fraction(-3, 2)) == 0


def test_scalar_inverse():
    x = ScalarQ3(Fraction(2, 3), Fraction(-1, 5))
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    with pytest.raises(ZeroDivisionError):
        ScalarQ3(0).inverse()


def test_scalar_hash_agrees_with_equality():
    # equal values hash alike, so rationals and their ScalarQ3 share a set slot
    assert ScalarQ3(1) == 1 == Fraction(1)
    assert len({ScalarQ3(1), 1, Fraction(1)}) == 1
    assert hash(ScalarQ3(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({SQRT3, ScalarQ3(0, 1), ScalarQ3(3)}) == 2


def test_scalar_float_value():
    assert float(ScalarQ3(1, 1)) == pytest.approx(2.7320508075688772)


@given(scalars, scalars, scalars)
@settings(max_examples=100)
def test_scalar_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars)
def test_scalar_nonzero_invertible(x):
    # a^2 - 3 b^2 = 0 over Q forces a = b = 0, so inversion never fails
    if not x.is_zero():
        assert x * x.inverse() == 1


# ---------------------------------------------------------------------------
# Poly construction and ring operations
# ---------------------------------------------------------------------------


def _poly_from_entries(entries, num_vars):
    terms = {}
    for mono, coeff in entries:
        terms[tuple(mono)] = terms.get(tuple(mono), ScalarQ3(0)) + coeff
    return Poly(num_vars, terms)


monomials_3 = st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3)
poly_entries = st.lists(st.tuples(monomials_3, scalars), max_size=5)
polys_3 = st.builds(lambda es: _poly_from_entries(es, 3), poly_entries)


def test_binomial_square():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = (x1 + x2) * (x1 + x2)
    assert p == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_additive_inverse_is_empty_map():
    p = Poly(2, {(1, 0): Fraction(2, 7), (0, 2): SQRT3})
    q = p + p.scale(-1)
    assert q.is_zero()
    assert q.num_terms() == 0


def test_sqrt3_coefficient_square():
    x1 = Poly.variable(1, 0)
    p = x1.scale(SQRT3)
    assert p * p == Poly(1, {(2,): 3})


def test_variable_count_mismatch_rejected():
    with pytest.raises(StructureError):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(StructureError):
        Poly.variable(2, 0) * Poly.variable(3, 0)


def test_degree_of_product_adds():
    p = Poly(2, {(2, 1): 1})
    q = Poly(2, {(0, 3): Fraction(1, 2)})
    assert (p * q).degree() == 6


@given(polys_3, polys_3, polys_3)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p


# ---------------------------------------------------------------------------
# Differentiation and Laplacian
# ---------------------------------------------------------------------------


def test_power_rule():
    p = Poly(1, {(3,): 1})
    assert p.differentiate(0) == Poly(1, {(2,): 3})


def test_absent_variable_derivative_is_zero():
    p = Poly(2, {(3, 0): 1})
    assert p.differentiate(1).is_zero()


def test_cubic_pair_derivative():
    # d/du (u^3 - 3 u v^2) = 3u^2 - 3v^2
    u, v = Poly.variable(2, 0), Poly.variable(2, 1)
    p = u * u * u - u * v * v * Poly.constant(2, 3)
    assert p.differentiate(0) == Poly(2, {(2, 0): 3, (0, 2): -3})


def test_derivative_index_out_of_range():
    with pytest.raises(StructureError):
        Poly.variable(2, 0).differentiate(2)


def test_laplacian_of_sum_of_squares():
    for n in (2, 5, 9):
        r2 = sum_of_squares(n)
        assert r2.laplacian() == Poly.constant(n, 2 * n)


def test_harmonic_cubic_pair():
    u, v = Poly.variable(2, 0), Poly.variable(2, 1)
    p = u * u * u - Poly.constant(2, 3) * u * v * v
    assert p.laplacian().is_zero()


def test_laplacian_r4_even_dimension():
    # Oracle: expand (sum z_i^2)^2 term by term and differentiate monomial-wise.
    # On R^(2n+2) this gives lap(r^4) = (8n+16) r^2; frozen here for n = 3.
    n = 3
    dim = 2 * n + 2
    r2 = sum_of_squares(dim)
    r4 = r2 * r2
    expected = r2.scale(8 * n + 16)
    assert r4.laplacian() == expected
    # independent spot check at a rational point
    point = [Fraction(1, 2), 1, 0, Fraction(-1, 3), 2, 0, 1, Fraction(3, 4)]
    lhs = ref(r4.laplacian()).evaluate(point)
    rhs = ref(expected).evaluate(point)
    assert lhs == rhs


def test_homogeneous_laplacian_degree_drop():
    p = sum_of_squares(3) * sum_of_squares(3)
    lap = p.laplacian()
    assert p.euler_check(4) and lap.euler_check(2)


# ---------------------------------------------------------------------------
# Evaluation, by the reference kernel
# ---------------------------------------------------------------------------


def test_evaluate_exact():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = x * x * x - Poly.constant(2, 3) * x * y * y
    assert ref(p).evaluate([2, 1]) == 2


def test_homogeneous_vanishes_at_origin():
    p = Poly(3, {(2, 1, 0): SQRT3, (0, 0, 3): Fraction(5, 2)})
    assert ref(p).evaluate([0, 0, 0]) == 0


# ---------------------------------------------------------------------------
# Euler identity
# ---------------------------------------------------------------------------


def test_euler_r4():
    r4 = sum_of_squares(4) * sum_of_squares(4)
    assert r4.euler_check(4)


def test_euler_rejects_mixed_degrees():
    p = Poly(1, {(2,): 1, (1,): 1})
    with pytest.raises(PreconditionError) as err:
        p.euler_check(2)
    assert "monomial" in str(err.value)


@given(polys_3, st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_euler_on_homogeneous_parts(p, d):
    part = Poly(3, {m: c for m, c in p.items() if sum(m) == d})
    assert part.euler_check(d)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@given(polys_3)
@example(
    Poly(
        3,
        {
            (3, 0, 0): Fraction(3, 2),
            (1, 1, 1): ScalarQ3(0, 3),
            (0, 2, 1): ScalarQ3(Fraction(-1, 6), Fraction(5, 4)),
        },
    )
)
@example(Poly.zero(4))
@settings(max_examples=100, deadline=None)
def test_round_trip_bit_exact(p):
    # the emitted text against the reference kernel's independent parser
    # and writer; the zero polynomial writes no line, so the count is passed
    text = p.dumps()
    assert packed(RefPoly.loads(text, num_vars=p.num_vars)) == p
    assert ref(p).dumps() == text


def test_zero_poly_round_trip_needs_num_vars():
    z = Poly.zero(4)
    assert z.dumps() == ""
    assert packed(RefPoly.loads("", num_vars=4)) == z


def test_dumps_reduces_each_part_by_its_own_gcd():
    # one shared denominator 6; the parts 0, 3, -4, 2 share 6, 3, 2, 2 with it
    p = Poly(2, {(2, 0): 2, (1, 1): ScalarQ3(3, -4), (0, 2): ScalarQ3(0, 3)}).scale(
        Fraction(1, 6)
    )
    assert p.dumps() == "0/1 1/2 0 2\n1/2 -2/3 1 1\n1/3 0/1 2 0"
    want = RefPoly(2, {(2, 0): 2, (1, 1): ScalarQ3(3, -4), (0, 2): ScalarQ3(0, 3)})
    assert p.dumps() == want.scale(Fraction(1, 6)).dumps()


def test_dumps_is_lexicographically_sorted():
    p = Poly(2, {(0, 1): 1, (1, 0): 1, (0, 0): 1})
    lines = p.dumps().splitlines()
    monos = [tuple(int(t) for t in line.split()[2:]) for line in lines]
    assert monos == sorted(monos)


# ---------------------------------------------------------------------------
# Packed kernel against the reference kernel (tuple keys, ScalarQ3 values)
# ---------------------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """Two term maps on 1-6 variables, exponents 0-4, plus a scalar and an index."""
    n = draw(st.integers(min_value=1, max_value=6))
    monos = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    terms = st.dictionaries(monos, scalars, max_size=6)
    return (
        n,
        draw(terms),
        draw(terms),
        draw(scalars),
        draw(st.integers(min_value=0, max_value=n - 1)),
    )


def _assert_same(new, ref):
    assert new.dumps() == ref.dumps()
    assert new.num_terms() == ref.num_terms()
    assert dict(new.items()) == dict(ref.items())


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_packed_kernel_matches_reference(case):
    n, tp, tq, c, i = case
    p, q = Poly(n, tp), Poly(n, tq)
    rp, rq = RefPoly(n, tp), RefPoly(n, tq)
    _assert_same(p, rp)
    _assert_same(p + q, rp + rq)
    _assert_same(p - q, rp - rq)
    _assert_same(p * q, rp * rq)
    _assert_same(p * p, rp * rp)
    _assert_same(p.scale(c), rp.scale(c))
    _assert_same(p.differentiate(i), rp.differentiate(i))
    _assert_same(p.laplacian(), rp.laplacian())
    assert (p == q) == (rp == rq)
    assert Poly(n, dict(p.items())) == p
    assert hash(Poly(n, dict(p.items()))) == hash(p)
    assert p + q - q == p and hash(p + q - q) == hash(p)
    for d in {sum(m) for m in tp}:
        part = {m: v for m, v in tp.items() if sum(m) == d}
        assert Poly(n, part).euler_check(d) == RefPoly(n, part).euler_check(d)
    degree = p.degree()
    if degree is not None and rp.homogeneous_degree() is None:
        with pytest.raises(PreconditionError) as new_err:
            p.euler_check(degree)
        with pytest.raises(PreconditionError) as ref_err:
            rp.euler_check(degree)
        assert str(new_err.value) == str(ref_err.value)


def _nurowski_det_family():
    return IsoparametricFamily(
        name="nurowski-det",
        p=3,
        F=nurowski_det_cubic(),
        expected_multiplicities=(1, 1),
        provenance="half the determinant of Nurowski's 3x3 matrix",
    )


KERNEL_FAMILIES = {
    "linear(7)": lambda: linear_family(7),
    "product(7,4)": lambda: product_family(7, 4),
    "cartan-R": lambda: cartan_cubic(AlgebraTag.R),
    "cartan-C": lambda: cartan_cubic(AlgebraTag.C),
    "cartan-H": lambda: cartan_cubic(AlgebraTag.H),
    "cartan-O": lambda: cartan_cubic(AlgebraTag.O),
    "fkm(2,2)": lambda: fkm_family(build_system(build_generators(2, 2))),
    "fkm(5,1)": lambda: fkm_family(build_system(build_generators(5, 1))),
    "nomizu(3)": lambda: nomizu_family(3),
    "nurowski-det": _nurowski_det_family,
}


def _reference_kernel(monkeypatch):
    """Make the family factories and verify_cm build on the reference Poly."""
    for module in (families, cm_verifier):
        monkeypatch.setattr(module, "Poly", RefPoly)
        monkeypatch.setattr(module, "sum_of_squares", ref_sum_of_squares)


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_family_and_verdicts_match_reference_kernel(name, monkeypatch):
    build = KERNEL_FAMILIES[name]
    fam = build()
    report = verify_cm(fam)
    with monkeypatch.context() as patch:
        _reference_kernel(patch)
        ref_fam = build()
        ref_report = verify_cm(ref_fam)
    assert isinstance(ref_fam.F, RefPoly)
    assert fam.F.dumps() == ref_fam.F.dumps()
    if name != "nurowski-det":
        # FamilyGeometry sums its float tables in items() order
        assert [m for m, _ in fam.F.items()] == [m for m, _ in ref_fam.F.items()]
    for field in ("euler_ok", "grad_identity_ok", "laplace_identity_ok", "inferred_c", "inferred_m_diff"):
        assert getattr(report, field) == getattr(ref_report, field)
    assert report.grad_residual.num_terms() == ref_report.grad_residual.num_terms()
    assert report.laplace_residual.num_terms() == ref_report.laplace_residual.num_terms()


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_differentiate_matches_reference_on_family_keys(name):
    # the property test draws 1-6 variables; these keys are up to 26 fields
    # wide, and the Cartan cubics carry sqrt3 parts
    F = KERNEL_FAMILIES[name]().F
    rF = ref(F)
    for i in range(F.num_vars):
        got, want = F.differentiate(i), rF.differentiate(i)
        _assert_same(got, want)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name", ["product(7,4)", "cartan-R", "nomizu(3)"])
def test_gradient_square_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    F = KERNEL_FAMILIES[name]().F
    xs = sympy.symbols(f"x0:{F.num_vars}")

    def to_sympy(poly):
        return sum(
            (sympy.Rational(c.a.numerator, c.a.denominator)
             + sympy.Rational(c.b.numerator, c.b.denominator) * sympy.sqrt(3))
            * sympy.Mul(*[x**e for x, e in zip(xs, mono)])
            for mono, c in poly.items()
        )

    grad_sq = F.gradient_residual(0, 0)
    F_sym = to_sympy(F)
    expected = sympy.expand(sum(sympy.diff(F_sym, x) ** 2 for x in xs))
    assert sympy.expand(to_sympy(grad_sq) - expected) == 0


def _cross_cancelling(n):
    """x1 (x0 + x2) + x3 (x0 - x2): its squared partials cancel the x0 x2 and
    x1 x3 cross terms, so |grad|^2 = 2 r^2 on the first four variables."""
    x = [Poly.variable(n, i) for i in range(4)]
    return x[1] * (x[0] + x[2]) + x[3] * (x[0] - x[2])


@st.composite
def gradient_cases(draw):
    """Random polynomials on 1-5 variables with sqrt3 parts and denominators,
    optionally plus a multiple of the cross-cancelling quadratic."""
    n = draw(st.integers(min_value=1, max_value=5))
    monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    p = Poly(n, draw(st.dictionaries(monos, scalars, max_size=6)))
    if n >= 4 and draw(st.booleans()):
        p = p + _cross_cancelling(n).scale(draw(scalars))
    return p


@given(gradient_cases())
@settings(max_examples=150, deadline=None)
def test_gradient_square_matches_reference(p):
    got = p.gradient_residual(0, 0)
    _assert_same(got, ref(p).gradient_square())
    assert all(got._a.values()) and all(got._b.values())


def test_gradient_square_exact_values_and_degree_guard():
    p = _cross_cancelling(4).scale(ScalarQ3(Fraction(1, 2), 1))
    # |grad p|^2 = 2 c^2 r^2 with c = 1/2 + sqrt3
    assert p.gradient_residual(0, 0) == sum_of_squares(4).scale(ScalarQ3(Fraction(13, 2), 2))
    assert Poly.zero(3).gradient_residual(0, 0).is_zero()
    assert Poly.constant(3, 5).gradient_residual(0, 0).is_zero()
    assert Poly(2, {(128, 0): 1}).gradient_residual(0, 0) == Poly(2, {(254, 0): 128 * 128})
    # a degree-129 input has squares of degree 256, past the 8-bit key field
    with pytest.raises(StructureError):
        Poly(2, {(0, 129): 1}).gradient_residual(0, 0)


def _product_route_residual(F, c, m):
    """|grad F|^2 - c r^(2m) with r^(2m) formed by the reference kernel's repeated products."""
    return F.gradient_residual(0, 0) - packed(ref_sum_of_squares(F.num_vars, m)).scale(c)


def _perturbed(F, p):
    """F + x0^p, F + sqrt3 x0 x1^(p-1) and F/3 + x0^p: residuals that are not empty."""
    n = F.num_vars
    x0 = Poly.variable(n, 0)
    x1 = Poly.variable(n, 1 % n)
    x0_p = math.prod([x0] * p)
    x0_x1_p = math.prod([x0] + [x1] * (p - 1))
    return [F + x0_p, F + x0_x1_p.scale(SQRT3), F.scale(Fraction(1, 3)) + x0_p]


FUSED_FAMILIES = {
    **KERNEL_FAMILIES,
    "fkm(9,1)": lambda: fkm_family(build_system(build_generators(9, 1))),
}


@pytest.mark.parametrize("name", FUSED_FAMILIES)
def test_fused_residual_matches_product_route(name):
    fam = FUSED_FAMILIES[name]()
    F, p = fam.F, fam.p
    cases = [F] if name == "fkm(9,1)" else [F, *_perturbed(F, p)]
    for i, G in enumerate(cases):
        got = G.gradient_residual(p * p, p - 1)
        want = _product_route_residual(G, p * p, p - 1)
        assert got == want and got.dumps() == want.dumps()
        assert got.is_zero() == (i == 0)


@given(gradient_cases(), st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_fused_residual_matches_reference(p, c, m):
    got = p.gradient_residual(c, m)
    _assert_same(got, RefPoly(p.num_vars, dict(p.items())).gradient_residual(c, m))
    assert all(got._a.values()) and all(got._b.values())


def test_fused_residual_width_covers_the_radial_target():
    # the key width must hold 2m as well as 2 (deg F - 1): the squares of
    # these F fit one bit, but r^4 needs three and r^6 three
    for F in (Poly.zero(3), Poly.constant(3, 5), Poly.constant(3, SQRT3), Poly.variable(3, 1)):
        got = F.gradient_residual(9, 2)
        assert got == _product_route_residual(F, 9, 2)
        assert got.coefficient((4, 0, 0)) == -9
    F = Poly(3, {(1, 1, 0): 1, (0, 0, 2): Fraction(2, 3)})
    assert F.gradient_residual(4, 3) == _product_route_residual(F, 4, 3)
    assert F.gradient_residual(0, 3) == F.gradient_residual(0, 0)


def test_fused_residual_width_at_the_top_field():
    # degree 128: squares of degree 254 need all 8 bits of a field
    F = Poly(2, {(128, 0): 1, (1, 127): 3})
    assert F.gradient_residual(5, 127) == _product_route_residual(F, 5, 127)
    with pytest.raises(StructureError):
        Poly(2, {(0, 129): 1}).gradient_residual(16, 3)
    with pytest.raises(StructureError):
        Poly.variable(2, 0).gradient_residual(1, 128)  # r^256
    with pytest.raises(TypeError):
        F.gradient_residual(Fraction(1, 2), 1)


@pytest.mark.parametrize("n, m", [(1, 0), (1, 5), (4, 0), (4, 1), (4, 3), (7, 2), (5, 4)])
def test_radial_power_matches_repeated_products(n, m):
    got = sum_of_squares(n, m)
    want = ref_sum_of_squares(n, m)
    assert got == packed(want)
    _assert_same(got, want)


def test_radial_power_refuses_what_a_field_cannot_hold():
    with pytest.raises(StructureError):
        sum_of_squares(3, -1)
    with pytest.raises(StructureError):
        sum_of_squares(3, 128)
    with pytest.raises(StructureError):
        sum_of_squares(0)
    assert sum_of_squares(2, 127).coefficient((254, 0)) == 1


# ---------------------------------------------------------------------------
# |grad p|^2 one residue class of the key at a time
# ---------------------------------------------------------------------------


def _split(monkeypatch):
    """Make gradient_residual split every residual with a term pair (q = 29)."""
    monkeypatch.setattr(polyalg, "CLASS_PAIR_BUDGET", 0)


def _unsplit(monkeypatch):
    """Make gradient_residual take every residual in one pass (q = 1)."""
    monkeypatch.setattr(polyalg, "CLASS_PAIR_BUDGET", polyalg.MAX_RESIDUAL_PAIRS)


SPLIT_FAMILIES = {**KERNEL_FAMILIES, "nomizu(7)": lambda: nomizu_family(7)}


@pytest.mark.parametrize("name", SPLIT_FAMILIES)
def test_split_residual_matches_reference(name, monkeypatch):
    _split(monkeypatch)
    fam = SPLIT_FAMILIES[name]()
    F, p = fam.F, fam.p
    for G in [F, *_perturbed(F, p)]:
        got = G.gradient_residual(p * p, p - 1)
        _assert_same(got, ref(G).gradient_residual(p * p, p - 1))
        assert all(got._a.values()) and all(got._b.values())


@given(gradient_cases(), st.integers(min_value=-20, max_value=20),
       st.integers(min_value=0, max_value=4), st.sampled_from([2, 3, 5, 8, 29]))
@settings(max_examples=100, deadline=None)
def test_split_residual_matches_reference_at_any_modulus(p, c, m, q):
    # k mod q is additive for every q, so the split is exact whatever its balance
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyalg, "RESIDUE_MODULI", (q,))
        got = p.gradient_residual(c, m)
    _assert_same(got, RefPoly(p.num_vars, dict(p.items())).gradient_residual(c, m))


def test_split_dump_poly_text_is_the_one_pass_text(monkeypatch, capsys):
    # a corrupted fkm(9,1), with sqrt3 terms, whose residual is not empty
    fam = fkm_family(build_system(build_generators(9, 1)))
    bad = dataclasses.replace(fam, F=_perturbed(fam.F, 4)[1] + _perturbed(fam.F, 4)[2])
    monkeypatch.setattr(cli, "build_family", lambda args: bad)
    argv = ["verify", "cm", "--family", "fkm", "--m", "9", "--k", "1", "--dump-poly"]
    outs = []
    for patch in (_unsplit, _split):
        with monkeypatch.context() as m:
            patch(m)
            assert cli.main(argv) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["result"]["grad_residual"]) > 0


def _product_keys(F):
    """Every key a term pair of |grad F|^2 lands on, on the kernel's narrow fields."""
    n = F.num_vars
    width = (2 * (F.degree() - 1)).bit_length()
    keys = set()
    for d in polyalg._derivatives(F._a, n, width):
        ks = list(d)
        keys.update(ka + kb for i, ka in enumerate(ks) for kb in ks[i:])
    return keys


def _largest_class_over_mean(keys, q):
    sizes = [0] * q
    for k in keys:
        sizes[k % q] += 1
    return max(sizes) / (len(keys) / q)


def test_residue_classes_of_fkm_9_1_balance():
    F = fkm_family(build_system(build_generators(9, 1))).F
    keys = _product_keys(F)
    derivatives = polyalg._derivatives(F._a, F.num_vars, 3)
    pairs = sum(len(d) * (len(d) + 1) // 2 for d in derivatives)
    assert pairs == 145920
    q = polyalg._class_count(pairs)
    assert q > 1
    assert _largest_class_over_mean(keys, q) <= 2
    # 8 = 1 mod 7: k mod 7 is the degree mod 7, one class for every product
    assert _largest_class_over_mean(keys, 7) > 2


def test_split_residual_halves_the_traced_peak(monkeypatch):
    F = fkm_family(build_system(build_generators(9, 1))).F
    peaks = []
    for patch in (_unsplit, lambda m: None):
        with monkeypatch.context() as m:
            patch(m)
            tracemalloc.start()
            try:
                assert F.gradient_residual(16, 3).is_zero()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= peaks[0] / 2


def test_residual_above_the_pair_budget_is_refused(monkeypatch):
    F = fkm_family(build_system(build_generators(5, 1))).F  # 7936 term pairs
    monkeypatch.setattr(polyalg, "MAX_RESIDUAL_PAIRS", 7935)
    with pytest.raises(PreconditionError, match=r"7936 term pairs.*MAX_RESIDUAL_PAIRS = 7935"):
        F.gradient_residual(16, 3)
    monkeypatch.setattr(polyalg, "MAX_RESIDUAL_PAIRS", 7936)
    assert F.gradient_residual(16, 3).is_zero()


def test_verify_cm_forms_no_polynomial_product(monkeypatch):
    fam = fkm_family(build_system(build_generators(5, 1)))

    def refuse(*args):
        raise AssertionError("verify_cm formed a polynomial product")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    assert verify_cm(fam).ok


def test_product_prunes_cancelled_terms_in_place():
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p.num_terms() == 2
    assert p == Poly(2, {(2, 0): 1, (0, 2): -1})
    assert all(p._a.values()) and not p._b


# ---------------------------------------------------------------------------
# Exponent fields
# ---------------------------------------------------------------------------


def test_exponent_above_field_is_refused():
    with pytest.raises(StructureError):
        Poly(2, {(0, 256): 1})
    with pytest.raises(StructureError):
        packed(RefPoly.loads("1/1 0/1 0 256"))
    top = Poly(2, {(0, 255): 1})
    assert top.coefficient((0, 255)) == 1 and top.coefficient((1, 0)) == 0
    assert packed(RefPoly.loads(top.dumps())) == top


def test_product_that_could_carry_is_refused():
    def x(i, e):  # the monomial x_i^e
        return Poly(2, {(e, 0) if i == 0 else (0, e): 1})

    # variable 1 sits in the low field: a carry out of it would corrupt x0
    with pytest.raises(StructureError):
        x(1, 200) * x(1, 100)
    with pytest.raises(StructureError):
        x(0, 200) * x(0, 100)
    # total degree 256, one past the field, even though each factor fits
    with pytest.raises(StructureError):
        x(1, 255) * x(1, 1)
    assert (x(1, 100) * x(1, 155)).dumps() == "1/1 0/1 0 255"
