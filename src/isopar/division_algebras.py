"""The four normed division algebras R, C, H, O.

Multiplication is built by Cayley-Dickson doubling,

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

starting from R, so the quaternion and octonion tables are deterministic
and self-testable.  ``cayley_dickson_mul`` is generic over the coefficient
ring: it only needs ``+``, ``-`` and ``*``, so the same recursion that
multiplies vectors of exact rationals also multiplies vectors of
polynomials when the Cartan cubic factory expands re(x y z) symbolically.
On units the doubling only moves signs, e_i e_j = +-e_(i xor j), so
``structure_constants`` doubles a sign table instead of multiplying unit
vectors.  Left multiplication by a unit is therefore a signed permutation
of the basis, and ``clifford`` reads its generators straight off this
table.

Conjugation negates every coordinate except the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import StructureError


class AlgebraTag(Enum):
    R = 1
    C = 2
    H = 4
    O = 8

    @property
    def dim(self) -> int:
        return self.value


def conj_vec(coeffs: Sequence) -> list:
    """Conjugation on coefficient vectors: negate everything past e0."""
    return [coeffs[0]] + [-c for c in coeffs[1:]]


def cayley_dickson_mul(x: Sequence, y: Sequence) -> list:
    """Cayley-Dickson product of two coefficient vectors of equal 2^k length.

    Entries may be any ring elements supporting +, - and *.
    """
    n = len(x)
    if n != len(y):
        raise StructureError("cayley_dickson_mul needs equal-length vectors")
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b = list(x[:h]), list(x[h:])
    c, d = list(y[:h]), list(y[h:])
    ac = cayley_dickson_mul(a, c)
    db = cayley_dickson_mul(conj_vec(d), b)
    da = cayley_dickson_mul(d, a)
    bc = cayley_dickson_mul(b, conj_vec(c))
    return [p - q for p, q in zip(ac, db)] + [p + q for p, q in zip(da, bc)]


@dataclass(frozen=True)
class StructureConstants:
    """e_i e_j = sum_k c[i][j][k] e_k with entries in {-1, 0, 1}."""

    tag: AlgebraTag
    c: tuple  # c[i][j][k]


def structure_constants(tag: AlgebraTag) -> StructureConstants:
    """The table of e_i e_j = sign[i][j] e_(i xor j), built by doubling signs.

    For units e_i, e_j of the half algebra the doubling formula gives

        (e_i, 0) (0, e_j) = (0, e_j e_i),
        (0, e_i) (e_j, 0) = (0, e_i conj(e_j)),
        (0, e_i) (0, e_j) = (-conj(e_j) e_i, 0),

    each a signed unit read off the half table, so the sign table doubles
    from R without multiplying any vectors.
    """
    sign = [[1]]  # R: e_0 e_0 = e_0
    while len(sign) < tag.dim:
        h = len(sign)
        conj = [1] + [-1] * (h - 1)  # conj(e_j) = conj[j] e_j
        sign = [row + [sign[j][i] for j in range(h)] for i, row in enumerate(sign)] + [
            [row[j] * conj[j] for j in range(h)] + [-conj[j] * sign[j][i] for j in range(h)]
            for i, row in enumerate(sign)
        ]
    d = tag.dim
    table = tuple(
        tuple(tuple(sign[i][j] if k == i ^ j else 0 for k in range(d)) for j in range(d))
        for i in range(d)
    )
    return StructureConstants(tag, table)

