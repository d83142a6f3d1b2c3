"""Elements of R, C, H and O with exact rational coordinates, for the tests.

``cayley_dickson_mul`` is the recursive Cayley-Dickson product of
coefficient vectors,

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

generic over the coefficient ring: it needs only ``+``, ``-`` and ``*``, so
it multiplies vectors of Fractions and vectors of polynomials alike.  It
shares no code with the package's sign table
(``division_algebras.structure_constants``) and is the oracle that table
and the Cartan cubic are checked against.  ``AlgElem`` wraps a coordinate
tuple of Fractions around it, so the composition and alternativity laws
can be written as products of elements.  Nothing under ``src/`` uses this
module.

Conjugation negates every coordinate except the first, the real part is
the first coordinate, and norm2 is the coordinate sum of squares; these
agree with re(a conj(a)) by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from isopar.division_algebras import AlgebraTag
from isopar.errors import StructureError


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
class AlgElem:
    """An element of R, C, H or O with exact rational coordinates."""

    tag: AlgebraTag
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.tag.dim:
            raise StructureError(
                f"{self.tag.name} element needs {self.tag.dim} coordinates"
            )
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @classmethod
    def zero(cls, tag: AlgebraTag) -> "AlgElem":
        return cls(tag, (0,) * tag.dim)

    @classmethod
    def one(cls, tag: AlgebraTag) -> "AlgElem":
        return cls.basis(tag, 0)

    @classmethod
    def basis(cls, tag: AlgebraTag, index: int) -> "AlgElem":
        if not 0 <= index < tag.dim:
            raise StructureError(f"basis index {index} out of range for {tag.name}")
        coeffs = [0] * tag.dim
        coeffs[index] = 1
        return cls(tag, tuple(coeffs))

    def _check(self, other: "AlgElem") -> None:
        if self.tag is not other.tag:
            raise StructureError(f"algebra mismatch: {self.tag.name} vs {other.tag.name}")

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        return AlgElem(self.tag, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        return AlgElem(self.tag, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgElem":
        return AlgElem(self.tag, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        return AlgElem(self.tag, tuple(cayley_dickson_mul(self.coeffs, other.coeffs)))

    def scale(self, value) -> "AlgElem":
        v = Fraction(value)
        return AlgElem(self.tag, tuple(c * v for c in self.coeffs))

    def conj(self) -> "AlgElem":
        return AlgElem(self.tag, tuple(conj_vec(self.coeffs)))

    @property
    def re(self) -> Fraction:
        return self.coeffs[0]

    def norm2(self) -> Fraction:
        return sum(c * c for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)
