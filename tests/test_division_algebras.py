"""Normed division algebra arithmetic and composition laws."""

import itertools
import random
from fractions import Fraction

import pytest
from alg_elem import AlgElem, cayley_dickson_mul

from isopar.division_algebras import AlgebraTag, structure_constants
from isopar.errors import StructureError

ALL_TAGS = [AlgebraTag.R, AlgebraTag.C, AlgebraTag.H, AlgebraTag.O]


def random_elem(tag, rng):
    coeffs = tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(tag.dim)
    )
    return AlgElem(tag, coeffs)


def test_quaternion_defining_relations():
    H = AlgebraTag.H
    e = [AlgElem.basis(H, i) for i in range(4)]
    assert e[1] * e[2] == e[3]  # i j = k
    assert e[2] * e[3] == e[1]  # j k = i
    assert e[3] * e[1] == e[2]  # k i = j
    for i in (1, 2, 3):
        assert e[i] * e[i] == -e[0]
    # i j k = -1
    assert e[1] * e[2] * e[3] == -e[0]


def test_unit_is_neutral_in_every_algebra():
    rng = random.Random(7)
    for tag in ALL_TAGS:
        one = AlgElem.one(tag)
        a = random_elem(tag, rng)
        assert a * one == a
        assert one * a == a


def test_octonion_non_associativity_witness():
    O = AlgebraTag.O
    e = [AlgElem.basis(O, i) for i in range(8)]
    witnesses = [
        (i, j, k)
        for i, j, k in itertools.product(range(8), repeat=3)
        if (e[i] * e[j]) * e[k] != e[i] * (e[j] * e[k])
    ]
    assert witnesses, "octonion table is unexpectedly associative"
    assert (1, 2, 4) in witnesses or len(witnesses) > 100


def test_quaternions_are_associative():
    H = AlgebraTag.H
    e = [AlgElem.basis(H, i) for i in range(4)]
    for a, b, c in itertools.product(e, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_conj_and_re_on_basis():
    for tag in (AlgebraTag.C, AlgebraTag.H, AlgebraTag.O):
        e1 = AlgElem.basis(tag, 1)
        assert e1.re == 0
        assert e1.conj() == -e1
        assert AlgElem.one(tag).conj() == AlgElem.one(tag)


def test_norm2_is_re_of_a_conj_a():
    rng = random.Random(11)
    for tag in ALL_TAGS:
        for _ in range(20):
            a = random_elem(tag, rng)
            assert a.norm2() == (a * a.conj()).re
            assert a.norm2() >= 0
            assert (a.norm2() == 0) == a.is_zero()


def test_norm_multiplicativity_random():
    rng = random.Random(13)
    for tag in ALL_TAGS:
        for _ in range(200):
            a = random_elem(tag, rng)
            b = random_elem(tag, rng)
            assert (a * b).norm2() == a.norm2() * b.norm2()


def test_octonion_alternativity_exhaustive_basis_and_random():
    O = AlgebraTag.O
    basis = [AlgElem.basis(O, i) for i in range(8)]
    for a, b in itertools.product(basis, repeat=2):
        assert a * (a * b) == (a * a) * b
        assert (b * a) * a == b * (a * a)
    rng = random.Random(17)
    for _ in range(100):
        a = random_elem(O, rng)
        b = random_elem(O, rng)
        assert a * (a * b) == (a * a) * b
        assert (b * a) * a == b * (a * a)


def test_conj_is_anti_automorphism():
    rng = random.Random(19)
    for tag in ALL_TAGS:
        for _ in range(50):
            a = random_elem(tag, rng)
            b = random_elem(tag, rng)
            assert (a * b).conj() == b.conj() * a.conj()


def test_re_association_free_exhaustive_octonion_basis():
    O = AlgebraTag.O
    basis = [AlgElem.basis(O, i) for i in range(8)]
    for x, y, z in itertools.product(basis, repeat=3):
        assert ((x * y) * z).re == (x * (y * z)).re
    # bilinear closure: random rational triples
    rng = random.Random(23)
    for _ in range(50):
        x, y, z = (random_elem(O, rng) for _ in range(3))
        assert ((x * y) * z).re == (x * (y * z)).re


def test_tag_mismatch_rejected():
    with pytest.raises(StructureError):
        AlgElem.one(AlgebraTag.H) * AlgElem.one(AlgebraTag.O)


def test_structure_constants_r():
    assert structure_constants(AlgebraTag.R) == ((1,),)


def test_structure_constants_c():
    sc = structure_constants(AlgebraTag.C)
    # e1 * e1 = -1
    assert sc[1][1] == -1
    assert sc[0][1] == 1


def test_structure_constants_h_reproduce_quaternion_relations():
    sc = structure_constants(AlgebraTag.H)
    e = [AlgElem.basis(AlgebraTag.H, i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            built = AlgElem.basis(AlgebraTag.H, i ^ j).scale(sc[i][j])
            assert built == e[i] * e[j]
    # unit row: e_0 e_j = e_j
    assert sc[0] == (1, 1, 1, 1)


def test_structure_constants_rows_have_single_entry():
    # e_i e_j is the single signed unit sc[i][j] e_(i xor j)
    for tag in ALL_TAGS:
        sc = structure_constants(tag)
        assert len(sc) == tag.dim
        for row in sc:
            assert len(row) == tag.dim
            assert all(v in (1, -1) for v in row)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.name)
def test_structure_constants_match_cayley_dickson(tag):
    # the sign-doubled table against the recursive product of unit vectors
    d = tag.dim
    sc = structure_constants(tag)
    units = [[int(a == i) for a in range(d)] for i in range(d)]
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            expected = [sc[i][j] if k == i ^ j else 0 for k in range(d)]
            assert cayley_dickson_mul(ei, ej) == expected
