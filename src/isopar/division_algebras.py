"""The four normed division algebras R, C, H, O, held as one sign table.

Multiplication is Cayley-Dickson doubling,

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

starting from R, where conjugation negates every coordinate except the
first.  On units the doubling only moves signs, e_i e_j = +-e_(i xor j), so
``structure_constants`` doubles a sign table instead of multiplying unit
vectors, and that table is the package's one product of R, C, H and O:
the Clifford generators read left multiplication by a unit off it as a
signed permutation of the basis, and the Cartan cubic reads its term
re((x y) z) off it term by term.  The recursive product of coefficient
vectors lives in the tests, as the oracle the table is checked against.
"""

from __future__ import annotations

from enum import Enum


class AlgebraTag(Enum):
    R = 1
    C = 2
    H = 4
    O = 8

    @property
    def dim(self) -> int:
        return self.value


def structure_constants(tag: AlgebraTag) -> tuple:
    """The sign table s of e_i e_j = s[i][j] e_(i xor j), built by doubling signs.

    d tuples of d entries +-1.  For units e_i, e_j of the half algebra the
    doubling formula gives

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
    return tuple(map(tuple, sign))
