"""Reference Nurowski code: the per-triple tensor Y_ijk and the tuple sweep in ScalarQ3.

``isopar.nurowski`` holds the tensor as its cubic F and reads no entry;
this module is where Y_ijk is read.  ``extract_entries`` and ``contract``
are the coefficient-by-coefficient extraction and contraction that the
package used before it held the tensor as its cubic; ``check_conditions``
is the one it used before it decided the conditions through lap F and
|grad F|^2 - 9 r^4: the symmetry-reduced j <= k <= l <= m sweep over
C(n+3, 4) tuples and its n^4 variant, run on ``extract_entries(F)``.
They are the oracles the tests compare against.  This module is not part
of the package: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from isopar.nurowski import ConditionReport
from isopar.polyalg import Poly, ScalarQ3


def extract_entries(F: Poly) -> dict:
    """(i, j, k) sorted -> (1/6) third partial of the cubic F, all C(n+2, 3) keys."""
    n = F.num_vars
    entries: dict = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                mono = [0] * n
                mono[i] += 1
                mono[j] += 1
                mono[k] += 1
                coeff = F.coefficient(tuple(mono))
                distinct = len({i, j, k})
                orderings = {1: 1, 2: 3, 3: 6}[distinct]
                entries[(i, j, k)] = coeff * Fraction(1, orderings)
    return entries


def contract(n: int, entries: dict) -> Poly:
    """Rebuild sum_{ijk} Y_ijk x_i x_j x_k as a polynomial.

    A sorted triple with r distinct indices is hit by 6 / (repetition
    factorials) orderings of the free sum: 1, 3 or 6.
    """
    terms: dict = {}
    for (i, j, k), val in entries.items():
        if val.is_zero():
            continue
        mono = [0] * n
        mono[i] += 1
        mono[j] += 1
        mono[k] += 1
        orderings = {1: 1, 2: 3, 3: 6}[len({i, j, k})]
        terms[tuple(mono)] = val * orderings
    return Poly(n, terms)


def _pair_vectors(entries: dict) -> dict:
    """pair (a, b) with a <= b  ->  {i: Y_iab} over nonzero entries."""
    vecs: dict = {}
    for (i, j, k), val in entries.items():
        if val.is_zero():
            continue
        for pair, rem in (((j, k), i), ((i, k), j), ((i, j), k)):
            vecs.setdefault(pair, {})[rem] = val
    return vecs


def _pairing_sum(vecs: dict, a: int, b: int, c: int, d: int) -> ScalarQ3:
    va = vecs.get((min(a, b), max(a, b)))
    vb = vecs.get((min(c, d), max(c, d)))
    if not va or not vb:
        return ScalarQ3(0)
    if len(va) > len(vb):
        va, vb = vb, va
    total = ScalarQ3(0)
    for i, x in va.items():
        y = vb.get(i)
        if y is not None:
            total = total + x * y
    return total


def check_conditions(
    F: Poly, max_failures: int = 8, exhaustive: bool = False
) -> ConditionReport:
    """Verify conditions (1)-(3) in exact arithmetic on the entries of the cubic F.

    ``exhaustive`` sweeps all n^4 tuples of condition (3) instead of the
    symmetry-reduced j <= k <= l <= m enumeration (used as a cross check in
    low dimension).
    """
    n = F.num_vars
    entries = extract_entries(F)
    trace_failures = []
    for i in range(n):
        total = ScalarQ3(0)
        for j in range(n):
            total = total + entries[tuple(sorted((i, j, j)))]
        if not total.is_zero():
            trace_failures.append(i)

    vecs = _pair_vectors(entries)
    quad_failures: list = []
    checked = 0
    if exhaustive:
        tuples = itertools.product(range(n), repeat=4)
    else:
        tuples = itertools.combinations_with_replacement(range(n), 4)
    for j, k, l, m in tuples:
        checked += 1
        lhs = (
            _pairing_sum(vecs, j, k, l, m)
            + _pairing_sum(vecs, l, j, k, m)
            + _pairing_sum(vecs, k, l, j, m)
        )
        rhs = int(j == k) * int(l == m) + int(l == j) * int(k == m) + int(
            k == l
        ) * int(j == m)
        if lhs != ScalarQ3(rhs):
            if len(quad_failures) < max_failures:
                quad_failures.append((j, k, l, m))
    return ConditionReport(
        n=n,
        symmetric_ok=True,  # symmetric storage cannot represent an asymmetry
        trace_free_ok=not trace_failures,
        trace_failures=tuple(trace_failures),
        quadratic_ok=not quad_failures,
        quadratic_tuples_checked=checked,
        quadratic_failures=tuple(quad_failures),
    )
