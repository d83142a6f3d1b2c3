"""Exact arithmetic in Q(sqrt 3) and sparse multivariate polynomials over it.

Every polynomial identity in this package is decided exactly, never
numerically.  Coefficients live in the quadratic field Q(sqrt 3), the only
irrationality occurring in any isoparametric family polynomial, and
polynomials are sparse maps from exponent vectors to coefficients.

Representation:

  ScalarQ3   value a + b*sqrt(3) with a, b exact fractions.Fraction values
  Monomial   tuple of non-negative ints, one exponent per ambient variable
  Poly       (A + sqrt3*B) / den: A and B map packed exponent keys to
             nonzero Python ints, den > 0 is one shared denominator, and
             the gcd of den with every numerator is 1, so equal polynomials
             have equal maps and identity testing reduces to emptiness of a
             difference.  B is empty unless the polynomial has irrational
             coefficients (the Cartan and Nurowski cubics).

A key packs an exponent vector into one int, one 8-bit field per variable
with variable 0 in the most significant field.  Integer order of keys is
then lexicographic order of exponent vectors, and the key of a product of
monomials is the sum of their keys, so multiplication is integer addition
on keys and integer multiplication on numerators.  A field holds exponents
up to MAX_EXPONENT = 255 and must never carry into its neighbour: the
constructor and ``loads`` refuse a larger exponent, and a product whose
total degree could exceed 255 raises StructureError.

Products accumulate term pairs into a numerator map in place, and a key is
deleted the moment its sum cancels to 0, so every map stays canonical while
it is filled and several products can share one map.  ``gradient_square``
uses this for |grad p|^2: the squares of all n partial derivatives go into
one A map and one B map, with no intermediate Poly and no copy of a
growing sum.

ScalarQ3 appears only at the boundary: ``items`` yields (exponent tuple,
ScalarQ3) pairs, ``coefficient`` returns a ScalarQ3, and the constructor and
``scale`` accept int, Fraction or ScalarQ3 values.  ``numerators`` returns
the terms of ``items`` as integer numerators over the shared denominator.

All values are immutable after construction and all operations are pure
functions; evaluating and differentiating from several threads is safe.

The text serialization is one term per line::

    a_num/a_den b_num/b_den e1 e2 ... en

with terms in ascending lexicographic order of the exponent vector.  The
round trip through ``Poly.dumps`` / ``Poly.loads`` is bit exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import PreconditionError, StructureError

Monomial = tuple  # tuple[int, ...], one exponent per variable

ScalarLike = Union["ScalarQ3", Fraction, int]

_SQRT3 = math.sqrt(3.0)

MAX_EXPONENT = 255  # the largest value of one 8-bit key field


class ScalarQ3:
    """An element a + b*sqrt(3) of Q(sqrt 3) with exact rational a, b.

    Both fractions are kept in lowest terms with positive denominator
    (``fractions.Fraction`` guarantees this), so equality is field-wise and
    the zero element is exactly a == b == 0.  Every nonzero element is
    invertible: a^2 - 3*b^2 = 0 with rational a, b forces a = b = 0 because
    sqrt(3) is irrational.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ScalarQ3 is immutable")

    @classmethod
    def from_value(cls, value: ScalarLike) -> "ScalarQ3":
        if isinstance(value, ScalarQ3):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to ScalarQ3")

    @classmethod
    def sqrt3(cls) -> "ScalarQ3":
        return cls(0, 1)

    # -- field operations -------------------------------------------------

    def __add__(self, other: ScalarLike) -> "ScalarQ3":
        o = ScalarQ3.from_value(other)
        return ScalarQ3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "ScalarQ3":
        o = ScalarQ3.from_value(other)
        return ScalarQ3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: ScalarLike) -> "ScalarQ3":
        return ScalarQ3.from_value(other) - self

    def __neg__(self) -> "ScalarQ3":
        return ScalarQ3(-self.a, -self.b)

    def __mul__(self, other: ScalarLike) -> "ScalarQ3":
        o = ScalarQ3.from_value(other)
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + 3 b1 b2 + (a1 b2 + a2 b1) s
        if not self.b and not o.b:
            return ScalarQ3(self.a * o.a)
        return ScalarQ3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarQ3":
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("ScalarQ3 division by zero")
        return ScalarQ3(self.a / norm, -self.b / norm)

    def __truediv__(self, other: ScalarLike) -> "ScalarQ3":
        return self * ScalarQ3.from_value(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "ScalarQ3":
        return ScalarQ3.from_value(other) * self.inverse()

    def __pow__(self, exponent: int) -> "ScalarQ3":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ScalarQ3(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ScalarQ3(other)
        if not isinstance(other, ScalarQ3):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        # a rational element equals its int/Fraction value, so it hashes as one
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT3

    def __repr__(self) -> str:
        if not self.b:
            return f"{self.a}"
        if not self.a:
            return f"{self.b}*sqrt3"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*sqrt3"


ZERO = ScalarQ3(0)
ONE = ScalarQ3(1)
SQRT3 = ScalarQ3(0, 1)


def _coerce_point_exact(point: Sequence) -> list[ScalarQ3]:
    return [ScalarQ3.from_value(v) for v in point]


def _pack(mono: Monomial) -> int:
    """The key of an exponent vector: one byte per variable, variable 0 first."""
    return int.from_bytes(bytes(mono), "big")


def _unpack(key: int, num_vars: int) -> Monomial:
    return tuple(key.to_bytes(num_vars, "big"))


def _key_degree(key: int, num_vars: int) -> int:
    return sum(key.to_bytes(num_vars, "big"))


def _lincomb(x: dict, cx: int, y: dict, cy: int) -> dict:
    """cx*x + cy*y on numerator maps, zeros pruned, keys of x first."""
    if cx == 1:
        out = x.copy()
    else:
        out = {k: v * cx for k, v in x.items()} if cx else {}
    if cy:
        get = out.get
        for k, v in y.items():
            s = get(k, 0) + v * cy
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _mul_into(out: dict, x: dict, y: dict, c: int = 1) -> None:
    """Add c*x*y to ``out``; the key of a product of monomials is the key sum.

    A key is deleted as soon as its sum cancels to 0, so ``out`` stays
    canonical (no zero numerators) and can take any number of products.
    When x and y are the same map the product is a square, formed from the
    upper triangle of term pairs with the cross terms doubled.
    """
    get = out.get
    if x is y:
        terms = list(x.items())
        for i, (kx, vx) in enumerate(terms):
            k = kx + kx
            s = get(k, 0) + c * vx * vx
            if s:
                out[k] = s
            else:
                del out[k]
            vx *= 2 * c
            for ky, vy in terms[i + 1:]:
                k = kx + ky
                s = get(k, 0) + vx * vy
                if s:
                    out[k] = s
                else:
                    del out[k]
    else:
        terms = list(y.items())
        for kx, vx in x.items():
            vx *= c
            for ky, vy in terms:
                k = kx + ky
                s = get(k, 0) + vx * vy
                if s:
                    out[k] = s
                else:
                    del out[k]


def _check_product_degree(degree: int) -> None:
    """Refuse a product of this total degree unless no exponent can pass 255.

    Below that bound a key field never carries into its neighbour.
    """
    if degree > MAX_EXPONENT:
        raise StructureError(
            f"product of degree {degree} could hold an exponent above "
            f"{MAX_EXPONENT}, the largest one key field holds"
        )


def _derivative(nums: dict, shift: int) -> dict:
    """d/dx of every term whose exponent sits at bit ``shift`` of the key."""
    unit = 1 << shift
    return {k - unit: v * e for k, v in nums.items() if (e := (k >> shift) & 0xFF)}


class Poly:
    """A sparse multivariate polynomial over Q(sqrt 3).

    The value is (A + sqrt3 B) / den: ``_a`` and ``_b`` map packed exponent
    keys to nonzero integer numerators and ``den`` is a positive integer
    whose gcd with all the numerators is 1.  Instances are immutable;
    arithmetic returns new polynomials in this canonical form.
    """

    __slots__ = ("num_vars", "_a", "_b", "_den", "_hash")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, ScalarLike] | None = None):
        if num_vars < 1:
            raise StructureError("num_vars must be positive")
        coeffs = []
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != num_vars:
                raise StructureError(
                    f"monomial {mono} has {len(mono)} exponents, expected {num_vars}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in mono):
                raise StructureError(f"monomial {mono} has invalid exponents")
            if max(mono) > MAX_EXPONENT:
                raise StructureError(
                    f"monomial {mono} has an exponent above {MAX_EXPONENT}, "
                    "the largest one key field holds"
                )
            c = ScalarQ3.from_value(coeff)
            if not c.is_zero():
                coeffs.append((_pack(mono), c))
        den = math.lcm(*(f.denominator for _, c in coeffs for f in (c.a, c.b)))
        self._store(
            num_vars,
            {k: c.a.numerator * (den // c.a.denominator) for k, c in coeffs if c.a},
            {k: c.b.numerator * (den // c.b.denominator) for k, c in coeffs if c.b},
            den,
        )

    def _store(self, num_vars: int, a: dict, b: dict, den: int) -> None:
        if den != 1:
            g = math.gcd(den, *a.values(), *b.values())
            if g != 1:
                den //= g
                a = {k: v // g for k, v in a.items()}
                b = {k: v // g for k, v in b.items()}
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, num_vars: int, a: dict, b: dict, den: int) -> "Poly":
        # internal fast path from numerator maps without zero values
        p = object.__new__(cls)
        p._store(num_vars, a, b, den)
        return p

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

    def numerators(self) -> tuple[int, list[tuple[Monomial, int, int]]]:
        """den and the (exponent tuple, a, b) terms of (a + sqrt3 b) / den.

        The terms of A come first, then those only in B, with a = 0.
        """
        n, a, b = self.num_vars, self._a, self._b
        terms = [(_unpack(k, n), v, b.get(k, 0)) for k, v in a.items()]
        terms += [(_unpack(k, n), 0, v) for k, v in b.items() if k not in a]
        return self._den, terms

    def items(self) -> Iterator[tuple[Monomial, ScalarQ3]]:
        """(exponent tuple, coefficient) pairs, in the order of ``numerators``."""
        den, terms = self.numerators()
        for mono, a, b in terms:
            yield mono, ScalarQ3(Fraction(a, den), Fraction(b, den))

    def coefficient(self, mono: Iterable[int]) -> ScalarQ3:
        mono = tuple(mono)
        if len(mono) != self.num_vars:
            return ZERO
        try:
            key = _pack(mono)
        except (TypeError, ValueError):  # not an exponent one key field holds
            return ZERO
        a, b = self._a.get(key, 0), self._b.get(key, 0)
        if not a and not b:
            return ZERO
        return ScalarQ3(Fraction(a, self._den), Fraction(b, self._den))

    def _keys(self):
        return self._a.keys() | self._b.keys() if self._b else self._a.keys()

    def num_terms(self) -> int:
        return len(self._keys())

    def is_zero(self) -> bool:
        """Exact emptiness of the canonical term maps, never a numeric test."""
        return not self._a and not self._b

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        n = self.num_vars
        return max((_key_degree(k, n) for k in self._keys()), default=None)

    def homogeneous_degree(self) -> int | None:
        """d if every stored monomial has total degree d, else None."""
        n = self.num_vars
        degrees = {_key_degree(k, n) for k in self._keys()}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- ring operations ------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.num_vars != other.num_vars:
            raise StructureError(
                f"variable count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        self._check_compatible(other)
        den = math.lcm(self._den, other._den)
        cx, cy = den // self._den, sign * (den // other._den)
        return Poly._raw(
            self.num_vars,
            _lincomb(self._a, cx, other._a, cy),
            _lincomb(self._b, cx, other._b, cy),
            den,
        )

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._raw(
            self.num_vars,
            {k: -v for k, v in self._a.items()},
            {k: -v for k, v in self._b.items()},
            self._den,
        )

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compatible(other)
        _check_product_degree((self.degree() or 0) + (other.degree() or 0))
        # (A1 + s B1)(A2 + s B2) = A1 A2 + 3 B1 B2 + s (A1 B2 + B1 A2)
        a: dict = {}
        b: dict = {}
        _mul_into(a, self._a, other._a)
        _mul_into(a, self._b, other._b, 3)
        _mul_into(b, self._a, other._b)
        _mul_into(b, self._b, other._a)
        return Poly._raw(self.num_vars, a, b, self._den * other._den)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, value: ScalarLike) -> "Poly":
        c = ScalarQ3.from_value(value)
        if c.is_zero():
            return Poly(self.num_vars)
        den = math.lcm(c.a.denominator, c.b.denominator)
        ca = c.a.numerator * (den // c.a.denominator)
        cb = c.b.numerator * (den // c.b.denominator)
        # (A + s B)(ca + s cb) = (ca A + 3 cb B) + s (ca B + cb A)
        return Poly._raw(
            self.num_vars,
            _lincomb(self._a, ca, self._b, 3 * cb),
            _lincomb(self._b, ca, self._a, cb),
            self._den * den,
        )

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise StructureError("negative polynomial powers are not defined")
        result = Poly.constant(self.num_vars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus ---------------------------------------------------------------

    def differentiate(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.num_vars:
            raise StructureError(
                f"variable index {index} out of range for {self.num_vars} variables"
            )
        shift = 8 * (self.num_vars - 1 - index)
        return Poly._raw(
            self.num_vars, _derivative(self._a, shift), _derivative(self._b, shift), self._den
        )

    def gradient(self) -> list["Poly"]:
        return [self.differentiate(i) for i in range(self.num_vars)]

    def laplacian(self) -> "Poly":
        """Sum of the pure second partials, computed exactly."""
        n = self.num_vars
        twos = [2 << 8 * (n - 1 - i) for i in range(n)]

        def lap(nums: dict) -> dict:
            out: dict = {}
            get = out.get
            for k, v in nums.items():
                for i, e in enumerate(k.to_bytes(n, "big")):
                    if e > 1:
                        key = k - twos[i]
                        s = get(key, 0) + v * e * (e - 1)
                        if s:
                            out[key] = s
                        else:
                            del out[key]
            return out

        return Poly._raw(n, lap(self._a), lap(self._b), self._den)

    def gradient_square(self) -> "Poly":
        """|grad p|^2 = sum_i (dp/dx_i)^2, computed exactly in one accumulator.

        With dp/dx_i = (A_i + sqrt3 B_i) / den, every A_i^2 + 3 B_i^2 is added
        into one A map and every 2 A_i B_i into one B map, both over den^2.
        As for ``dp/dx_i * dp/dx_i``, StructureError is raised when the
        squares, of degree 2 (deg p - 1), could pass exponent 255.
        """
        n = self.num_vars
        _check_product_degree(2 * ((self.degree() or 1) - 1))
        a: dict = {}
        b: dict = {}
        for i in range(n):
            shift = 8 * (n - 1 - i)
            da, db = _derivative(self._a, shift), _derivative(self._b, shift)
            _mul_into(a, da, da)
            _mul_into(a, db, db, 3)
            _mul_into(b, da, db, 2)
        return Poly._raw(n, a, b, self._den * self._den)

    def euler_check(self, degree: int) -> bool:
        """Euler identity sum_i x_i dp/dx_i == degree * p for homogeneous p.

        Raises PreconditionError listing the offending monomials when the
        input is not homogeneous of the stated degree.
        """
        n = self.num_vars
        bad = [_unpack(k, n) for k in self._keys() if _key_degree(k, n) != degree]
        if bad:
            raise PreconditionError(
                f"polynomial is not homogeneous of degree {degree}; "
                f"offending monomials: {sorted(bad)[:8]}"
            )

        # sum_i x_i d/dx_i multiplies the term c x^e by e_1 + ... + e_n, which
        # is 0 only for the constant term, key 0
        def euler(nums: dict) -> dict:
            return {k: v * _key_degree(k, n) for k, v in nums.items() if k}

        return Poly._raw(n, euler(self._a), euler(self._b), self._den) == self.scale(degree)

    # -- evaluation ------------------------------------------------------------

    def _numerator_values(self, values: Sequence) -> tuple:
        """(sum of A_e x^e, sum of B_e x^e) at ``values``, powers cached per variable."""
        n = self.num_vars
        powers: list[dict] = [{} for _ in range(n)]

        def total(nums: dict):
            acc = 0
            for k, v in nums.items():
                term = v
                for i, e in enumerate(k.to_bytes(n, "big")):
                    if e:
                        cache = powers[i]
                        if e not in cache:
                            cache[e] = values[i] ** e
                        term = term * cache[e]
                acc = acc + term
            return acc

        return total(self._a), total(self._b)

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
        a, b = self._numerator_values(_coerce_point_exact(point))
        return (SQRT3 * b + a) / self._den

    def evaluate_float(self, point: Sequence[float]) -> float:
        if len(point) != self.num_vars:
            raise StructureError(
                f"point has {len(point)} entries, expected {self.num_vars}"
            )
        a, b = self._numerator_values(point)
        return (a + _SQRT3 * b) / self._den

    # -- comparison / hashing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self._den == other._den
            and self._a == other._a
            and self._b == other._b
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(
                (self.num_vars, self._den, frozenset(self._a.items()), frozenset(self._b.items()))
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Poly({self.num_vars}, 0)"
        parts = []
        for mono, coeff in sorted(self.items())[:6]:
            vars_part = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e
            )
            parts.append(f"({coeff}){'*' + vars_part if vars_part else ''}")
        tail = " + ..." if self.num_terms() > 6 else ""
        return f"Poly({self.num_vars}, {' + '.join(parts)}{tail})"

    # -- serialization ------------------------------------------------------------

    def dumps(self) -> str:
        """One term per line: a_num/a_den b_num/b_den e1 ... en (lex order)."""
        n, a, b, den = self.num_vars, self._a, self._b, self._den
        lines = []
        for k in sorted(self._keys()):
            ca, cb = Fraction(a.get(k, 0), den), Fraction(b.get(k, 0), den)
            lines.append(
                f"{ca.numerator}/{ca.denominator} {cb.numerator}/{cb.denominator} "
                + " ".join(map(str, k.to_bytes(n, "big")))
            )
        return "\n".join(lines)

    @classmethod
    def loads(cls, text: str, num_vars: int | None = None) -> "Poly":
        """Parse ``dumps`` text; malformed or repeated lines raise StructureError."""
        terms: dict = {}
        seen_vars = num_vars
        for line in text.splitlines():
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) < 3:
                raise StructureError(f"malformed term line: {line!r}")
            try:
                coeff = ScalarQ3(_parse_fraction(tokens[0]), _parse_fraction(tokens[1]))
                mono = tuple(int(t) for t in tokens[2:])
            except (ValueError, ZeroDivisionError) as err:
                raise StructureError(f"malformed term line: {line!r}") from err
            if seen_vars is None:
                seen_vars = len(mono)
            elif len(mono) != seen_vars:
                raise StructureError("inconsistent exponent vector lengths")
            if mono in terms:
                raise StructureError(f"repeated exponent vector {mono}")
            terms[mono] = coeff
        if seen_vars is None:
            raise StructureError("cannot infer variable count from empty text")
        return cls(seen_vars, terms)


def _parse_fraction(token: str) -> Fraction:
    num, den = token.split("/")  # ValueError unless exactly one slash
    return Fraction(int(num), int(den))


def sum_of_squares(num_vars: int) -> Poly:
    """The radius-squared polynomial r^2 = x_1^2 + ... + x_n^2."""
    terms = {}
    for i in range(num_vars):
        mono = [0] * num_vars
        mono[i] = 2
        terms[tuple(mono)] = ONE
    return Poly(num_vars, terms)
