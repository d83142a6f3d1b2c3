"""Reference Clifford construction: dense numpy integer matrices.

This is the construction ``isopar.clifford`` used before it held every
matrix as a signed permutation, kept as the oracle the signed
permutations are compared against: the generators, the system, the dense
relation residuals and the upper-triangle scan of <P x, x>.  Its unit
multiplications come from the tests' recursive Cayley-Dickson product, not
from the package's sign table.  It is not part of the package: nothing
under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
from alg_elem import cayley_dickson_mul

from isopar.clifford import delta
from isopar.division_algebras import AlgebraTag
from isopar.polyalg import Poly, sum_of_squares

_J = np.array([[0, -1], [1, 0]], dtype=np.int64)
_K = np.array([[1, 0], [0, -1]], dtype=np.int64)
_L = np.array([[0, 1], [1, 0]], dtype=np.int64)


def left_multiplication_matrices(tag: AlgebraTag) -> list[list[list[int]]]:
    """Matrices of x -> e_i * x for i = 0..d-1 (column b of matrix i is e_i e_b).

    Each column is a product of unit vectors by the tests' recursive
    Cayley-Dickson product, so this reference shares no code with the
    package's sign table.
    """
    d = tag.dim
    units = [[int(a == i) for a in range(d)] for i in range(d)]
    return [
        [list(row) for row in zip(*(cayley_dickson_mul(ei, eb) for eb in units))]
        for ei in units
    ]


def _irreducible_generators(m: int) -> list[np.ndarray]:
    if m == 1:
        return []
    if m <= 8:
        tag = {2: AlgebraTag.C, 3: AlgebraTag.H, 4: AlgebraTag.H}.get(m, AlgebraTag.O)
        return [np.array(L, dtype=np.int64) for L in left_multiplication_matrices(tag)[1:m]]
    small = _irreducible_generators(m - 8)
    l_small = delta(m - 8)
    octonion = [
        np.array(L, dtype=np.int64) for L in left_multiplication_matrices(AlgebraTag.O)[1:]
    ]
    g16 = [np.kron(_K, F) for F in octonion]
    g16.append(np.kron(_J, np.eye(8, dtype=np.int64)))
    s16 = np.kron(_L, np.eye(8, dtype=np.int64))
    ident_small = np.eye(l_small, dtype=np.int64)
    gens = [np.kron(G, ident_small) for G in g16]
    gens.extend(np.kron(s16, E) for E in small)
    return gens


def generators(m: int, k: int) -> list[np.ndarray]:
    """The m-1 dense generators on R^(k delta(m))."""
    irreducible = _irreducible_generators(m)
    if k == 1:
        return irreducible
    blocks = np.eye(k, dtype=np.int64)
    return [np.kron(blocks, E) for E in irreducible]


def system(m: int, k: int) -> list[np.ndarray]:
    """The m+1 dense system matrices on R^(2 k delta(m))."""
    gens = generators(m, k)
    l = k * delta(m)
    ident = np.eye(l, dtype=np.int64)
    zero = np.zeros((l, l), dtype=np.int64)
    mats = [
        np.block([[ident, zero], [zero, -ident]]),
        np.block([[zero, ident], [ident, zero]]),
    ]
    for E in gens:
        mats.append(np.block([[zero, E], [-E, zero]]))
    return mats


def residuals(mats: list[np.ndarray]) -> tuple[tuple, tuple]:
    """Per-matrix symmetry and max |P_i P_j + P_j P_i - 2 delta_ij Id| for i <= j."""
    ident = np.eye(len(mats[0]), dtype=np.int64)
    symmetric = tuple(bool(np.array_equal(P.T, P)) for P in mats)
    out = []
    for i, Pi in enumerate(mats):
        for j in range(i, len(mats)):
            Pj = mats[j]
            target = 2 * ident if i == j else 0 * ident
            out.append((i, j, int(np.max(np.abs(Pi @ Pj + Pj @ Pi - target)))))
    return symmetric, tuple(out)


def quadratic_form(matrix, num_vars: int) -> Poly:
    """<M x, x> as a polynomial, for a symmetric integer matrix."""
    terms: dict = {}
    n = len(matrix)
    for a in range(n):
        row = matrix[a]
        for b in range(a, n):
            val = row[b]
            if val == 0:
                continue
            coeff = val if a == b else 2 * val
            mono = [0] * num_vars
            mono[a] += 1
            mono[b] += 1
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + coeff
    return Poly(num_vars, terms)


def fkm_poly(mats: list[np.ndarray]) -> Poly:
    """F = <x,x>^2 - 2 sum_i <P_i x, x>^2 from dense system matrices."""
    nv = len(mats[0])
    r2 = sum_of_squares(nv)
    F = r2 * r2
    for P in mats:
        q = quadratic_form(P.tolist(), nv)
        F = F - (q * q).scale(2)
    return F
