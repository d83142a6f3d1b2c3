"""Reference polynomial kernel: tuple exponent keys and ScalarQ3 coefficients.

This is the dict-of-tuples ``Poly`` that ``isopar.polyalg`` used before its
packed representation, kept unchanged as the oracle the kernel tests compare
against.  It is not part of the package: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from isopar.errors import PreconditionError, StructureError
from isopar.polyalg import ONE, ZERO, ScalarLike, ScalarQ3

Monomial = tuple  # tuple[int, ...], one exponent per variable


def _coerce_point_exact(point: Sequence) -> list[ScalarQ3]:
    return [ScalarQ3.from_value(v) for v in point]


class Poly:
    """A sparse multivariate polynomial over Q(sqrt 3).

    ``terms`` maps exponent tuples of length ``num_vars`` to nonzero
    ScalarQ3 coefficients.  Instances are immutable; arithmetic returns new
    polynomials with zero coefficients pruned.
    """

    __slots__ = ("num_vars", "_terms", "_hash")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, ScalarLike] | None = None):
        if num_vars < 1:
            raise StructureError("num_vars must be positive")
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != num_vars:
                    raise StructureError(
                        f"monomial {mono} has {len(mono)} exponents, expected {num_vars}"
                    )
                if any((not isinstance(e, int)) or e < 0 for e in mono):
                    raise StructureError(f"monomial {mono} has invalid exponents")
                c = ScalarQ3.from_value(coeff)
                if not c.is_zero():
                    clean[mono] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Poly":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value: ScalarLike) -> "Poly":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Poly":
        """The polynomial x_index (0-based index)."""
        if not 0 <= index < num_vars:
            raise StructureError(f"variable index {index} out of range for {num_vars} variables")
        mono = [0] * num_vars
        mono[index] = 1
        return cls(num_vars, {tuple(mono): ONE})

    # -- access -------------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, ScalarQ3]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Iterable[int]) -> ScalarQ3:
        return self._terms.get(tuple(mono), ZERO)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        """Exact emptiness of the canonical term map, never a numeric test."""
        return not self._terms

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(m) for m in self._terms)

    def homogeneous_degree(self) -> int | None:
        """d if every stored monomial has total degree d, else None."""
        degrees = {sum(m) for m in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- ring operations ------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.num_vars != other.num_vars:
            raise StructureError(
                f"variable count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = coeff
            else:
                s = cur + coeff
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
        return Poly._raw(self.num_vars, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = -coeff
            else:
                s = cur - coeff
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
        return Poly._raw(self.num_vars, terms)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.num_vars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check_compatible(other)
            out: dict = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                    prod = c1 * c2
                    cur = out.get(mono)
                    if cur is None:
                        out[mono] = prod
                    else:
                        out[mono] = cur + prod
            return Poly._raw(self.num_vars, {m: c for m, c in out.items() if not c.is_zero()})
        return self.scale(other)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, value: ScalarLike) -> "Poly":
        c = ScalarQ3.from_value(value)
        if c.is_zero():
            return Poly(self.num_vars)
        return Poly._raw(self.num_vars, {m: c0 * c for m, c0 in self._terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise StructureError("negative polynomial powers are not defined")
        result = Poly.constant(self.num_vars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    @classmethod
    def _raw(cls, num_vars: int, terms: dict) -> "Poly":
        # internal fast path, terms are already canonical
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    # -- calculus ---------------------------------------------------------------

    def differentiate(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.num_vars:
            raise StructureError(
                f"variable index {index} out of range for {self.num_vars} variables"
            )
        out: dict = {}
        for mono, coeff in self._terms.items():
            e = mono[index]
            if e == 0:
                continue
            new = list(mono)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return Poly._raw(self.num_vars, out)

    def gradient(self) -> list["Poly"]:
        return [self.differentiate(i) for i in range(self.num_vars)]

    def laplacian(self) -> "Poly":
        """Sum of the pure second partials, computed exactly."""
        total = Poly(self.num_vars)
        for i in range(self.num_vars):
            total = total + self.differentiate(i).differentiate(i)
        return total

    def gradient_square(self) -> "Poly":
        """|grad p|^2 as the sum of the squares dp/dx_i * dp/dx_i."""
        total = Poly(self.num_vars)
        for dF in self.gradient():
            total = total + dF * dF
        return total

    def gradient_residual(self, c: int, m: int) -> "Poly":
        """|grad p|^2 - c r^(2m), as the square sum minus the scaled power of r^2."""
        return self.gradient_square() - sum_of_squares(self.num_vars, m).scale(c)

    def euler_check(self, degree: int) -> bool:
        """Euler identity sum_i x_i dp/dx_i == degree * p for homogeneous p.

        Raises PreconditionError listing the offending monomials when the
        input is not homogeneous of the stated degree.
        """
        bad = [m for m in self._terms if sum(m) != degree]
        if bad:
            raise PreconditionError(
                f"polynomial is not homogeneous of degree {degree}; "
                f"offending monomials: {sorted(bad)[:8]}"
            )
        acc = Poly(self.num_vars)
        for i in range(self.num_vars):
            acc = acc + Poly.variable(self.num_vars, i) * self.differentiate(i)
        return (acc - self.scale(degree)).is_zero()

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence) -> ScalarQ3 | float:
        """Evaluate at a point, exactly or in floating point.

        If every entry of ``point`` is an int, Fraction or ScalarQ3 the
        result is an exact ScalarQ3; if any entry is a float the whole
        evaluation runs in floating point.
        """
        if len(point) != self.num_vars:
            raise StructureError(
                f"point has {len(point)} entries, expected {self.num_vars}"
            )
        if any(isinstance(v, float) for v in point):
            return self.evaluate_float([float(v) for v in point])
        values = _coerce_point_exact(point)
        total = ScalarQ3(0)
        powers: list[dict[int, ScalarQ3]] = [{0: ONE} for _ in range(self.num_vars)]
        for mono, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = values[i] ** e
                term = term * cache[e]
            total = total + term
        return total

    def evaluate_float(self, point: Sequence[float]) -> float:
        if len(point) != self.num_vars:
            raise StructureError(
                f"point has {len(point)} entries, expected {self.num_vars}"
            )
        total = 0.0
        powers: list[dict[int, float]] = [{0: 1.0} for _ in range(self.num_vars)]
        for mono, coeff in self._terms.items():
            term = float(coeff)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = point[i] ** e
                term *= cache[e]
            total += term
        return total

    # -- comparison / hashing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num_vars, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self._terms:
            return f"Poly({self.num_vars}, 0)"
        parts = []
        for mono, coeff in sorted(self._terms.items())[:6]:
            vars_part = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e
            )
            parts.append(f"({coeff}){'*' + vars_part if vars_part else ''}")
        tail = " + ..." if len(self._terms) > 6 else ""
        return f"Poly({self.num_vars}, {' + '.join(parts)}{tail})"

    # -- serialization ------------------------------------------------------------

    def dumps(self) -> str:
        """One term per line: a_num/a_den b_num/b_den e1 ... en (lex order)."""
        lines = []
        for mono in sorted(self._terms):
            c = self._terms[mono]
            lines.append(
                f"{c.a.numerator}/{c.a.denominator} "
                f"{c.b.numerator}/{c.b.denominator} "
                + " ".join(str(e) for e in mono)
            )
        return "\n".join(lines)

    @classmethod
    def loads(cls, text: str, num_vars: int | None = None) -> "Poly":
        terms: dict = {}
        seen_vars = num_vars
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 3:
                raise StructureError(f"malformed term line: {line!r}")
            a_num, a_den = tokens[0].split("/")
            b_num, b_den = tokens[1].split("/")
            mono = tuple(int(t) for t in tokens[2:])
            if seen_vars is None:
                seen_vars = len(mono)
            elif len(mono) != seen_vars:
                raise StructureError("inconsistent exponent vector lengths")
            coeff = ScalarQ3(Fraction(int(a_num), int(a_den)), Fraction(int(b_num), int(b_den)))
            terms[mono] = coeff
        if seen_vars is None:
            raise StructureError("cannot infer variable count from empty text")
        return cls(seen_vars, terms)


def sum_of_squares(num_vars: int, m: int = 1) -> Poly:
    """The radius power r^(2m), as the m-th power of r^2 = x_1^2 + ... + x_n^2."""
    terms = {}
    for i in range(num_vars):
        mono = [0] * num_vars
        mono[i] = 2
        terms[tuple(mono)] = ONE
    return Poly(num_vars, terms) ** m
