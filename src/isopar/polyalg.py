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
constructor refuses a larger exponent, and a product whose total degree
could exceed 255 raises StructureError.

Products accumulate term pairs into a numerator map in place, and a key is
deleted the moment its sum cancels to 0, so every map stays canonical while
it is filled and several products can share one map.  ``gradient_residual``
uses this for |grad p|^2 - c r^(2m): the squares of all n partial
derivatives go into an A map and a B map, with no intermediate Poly and
no copy of a growing sum, and the terms of c r^(2m), generated by the
multinomial theorem, are subtracted from the A map in place.  Inside this
one call the keys have narrower fields, just wide enough for the exponents
of the result (3 bits for a quartic); only the keys that survive are
repacked to 8-bit fields, which stay the only key format a Poly stores.
Key addition maps residue classes mod q onto their sum, so a large
residual is built one class of k mod q at a time, with one class's maps
alive at once (q = 1 below CLASS_PAIR_BUDGET term pairs); it is refused
with PreconditionError above MAX_RESIDUAL_PAIRS term pairs.

ScalarQ3 appears only at the boundary: ``items`` yields (exponent tuple,
ScalarQ3) pairs, ``coefficient`` returns a ScalarQ3, and the constructor and
``scale`` accept int, Fraction or ScalarQ3 values.  ``numerators`` returns
the terms of ``items`` as integer numerators over the shared denominator.

All values are immutable after construction and all operations are pure
functions.

The text form, written by ``Poly.dumps``, is one term per line::

    a_num/a_den b_num/b_den e1 e2 ... en

with terms in ascending lexicographic order of the exponent vector.  The
package only writes it; the tests' reference kernel reads it back.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import PreconditionError, StructureError

Monomial = tuple  # tuple[int, ...], one exponent per variable

ScalarLike = Union["ScalarQ3", Fraction, int]

_SQRT3 = math.sqrt(3.0)

MAX_EXPONENT = 255  # the largest value of one 8-bit key field

# gradient_residual splits |grad p|^2 into the classes of its keys mod q, q
# the first of RESIDUE_MODULI with at most CLASS_PAIR_BUDGET term pairs per
# class, else the last.  At q = 1 it is one pass over all squares: fkm(5,1)
# (7936 pairs), fkm(1,16) (36096), fkm(3,3), nomizu(7) and the Cartan cubics.
# Each modulus q > 1 is a prime with 8 = 2^3 a generator mod q, so on 3-bit
# fields (every quartic and cubic) the classes spread over all the fields;
# 7 would not do (8 = 1 mod 7 makes k mod 7 the degree mod 7, one class for
# every product of a quartic), nor would a power of two (the last field
# only).  A split costs about q^2 n / 2 product calls, so q stops at 29.
# Measured on 2 cores, Python 3.11: fkm(9,1) (145920 pairs, q = 5) peaks at
# 1.1 MB traced against 3.9 MB at q = 1, in the same time; fkm(9,2)
# (2358784 pairs) at 8.2 / 4.0 / 3.3 MB for q = 11 / 29 / 59 against 49.5 MB
# at q = 1, and q = 29 is no slower than q = 1.
CLASS_PAIR_BUDGET = 1 << 16
RESIDUE_MODULI = (1, 5, 11, 29)
# Above this many term pairs gradient_residual refuses with PreconditionError.
# Measured as above at q = 29: fkm(3,16) (6210048 pairs) 5.6 s and 36 MB
# peak RSS, fkm(4,16) (8690688 pairs) 6.3 s and 38 MB; fkm(1,128)
# (18825216) and fkm(9,4) (24880128) are refused.
MAX_RESIDUAL_PAIRS = 10_000_000


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


def _derivatives(nums: dict, num_vars: int, width: int) -> list[dict]:
    """The num_vars partial derivative maps of ``nums`` on keys of ``width``-bit fields.

    Each 8-bit key is unpacked once, and its term goes to the derivative of
    every variable it contains.
    """
    units = [1 << width * (num_vars - 1 - i) for i in range(num_vars)]
    out: list[dict] = [{} for _ in range(num_vars)]
    for k, v in nums.items():
        exps = [(i, e) for i, e in enumerate(k.to_bytes(num_vars, "big")) if e]
        key = sum(e * units[i] for i, e in exps)
        for i, e in exps:
            out[i][key - units[i]] = v * e
    return out


def _widen(nums: dict, num_vars: int, width: int) -> dict:
    """``nums`` with its ``width``-bit key fields repacked into 8-bit fields."""
    mask = (1 << width) - 1
    shifts = range(width * (num_vars - 1), -1, -width)
    return {
        int.from_bytes(bytes([(k >> s) & mask for s in shifts]), "big"): v
        for k, v in nums.items()
    }


def _radial_terms(num_vars: int, m: int, width: int, q: int = 1) -> Iterator[dict]:
    """The numerator map of r^(2m) = (x_1^2 + ... + x_n^2)^m on ``width``-bit keys,
    as q maps, each built when it is asked for: map T holds the terms whose
    key is T mod q.

    By the multinomial theorem the term prod_j x_j^(2 k_j), k_1 + ... + k_n
    = m, has coefficient m! / prod_j k_j!.  The terms are built one factor
    r^2 at a time as the sorted index tuples i_1 <= ... <= i_t, each with
    its key, last index, run length k of that index and coefficient
    t! / prod_j k_j!: a new index i_t > i_(t-1) multiplies the coefficient
    by t, and one more i_(t-1) by t / (k + 1).  The tuples of the first
    m - 1 factors are kept; map T takes from each the last indices i whose
    x_i^2 puts the key in class T.
    """
    if m < 0:
        raise StructureError("negative polynomial powers are not defined")
    _check_product_degree(2 * m)
    if not m:
        yield {0: 1}
        for _ in range(1, q):
            yield {}
        return
    twos = [2 << width * (num_vars - 1 - i) for i in range(num_vars)]
    level = [(0, 0, 0, 1)]  # key, last index, its run length, coefficient
    for t in range(1, m):
        grown = []
        for key, last, run, coef in level:
            grown.append((key + twos[last], last, run + 1, coef * t // (run + 1)))
            coef *= t
            grown += [(key + twos[i], i, 1, coef) for i in range(last + 1, num_vars)]
        level = grown
    # the indices i, ascending, and keys of the x_i^2 in each class
    squares: list[tuple[list, list]] = [([], []) for _ in range(q)]
    for i, two in enumerate(twos):
        squares[two % q][0].append(i)
        squares[two % q][1].append(two)
    for T in range(q):
        # the last factor writes the map directly, with no tuple per term
        out = {}
        for key, last, run, coef in level:
            indices, keys = squares[(T - key) % q]
            j = bisect_left(indices, last)
            if j < len(indices) and indices[j] == last:  # one more x_last^2
                out[key + keys[j]] = coef * m // (run + 1)
                j += 1
            coef *= m
            for two in keys[j:]:
                out[key + two] = coef
        yield out


def _by_class(nums: dict, q: int) -> dict[int, dict]:
    """The nonempty maps of the terms of ``nums`` whose key is T mod q, by T."""
    if q == 1:
        return {0: nums} if nums else {}
    out: dict[int, dict] = {}
    for k, v in nums.items():
        t = k % q
        if t in out:
            out[t][k] = v
        else:
            out[t] = {k: v}
    return out


def _class_count(pairs: int) -> int:
    """The q of the residue classes for a residual of this many term pairs."""
    for q in RESIDUE_MODULI:
        if pairs <= q * CLASS_PAIR_BUDGET:
            return q
    return RESIDUE_MODULI[-1]


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

    # -- calculus ---------------------------------------------------------------

    def differentiate(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        # no request calls this; kept because perfbench's polyalg.diff_s metric traces it
        n = self.num_vars
        if not 0 <= index < n:
            raise StructureError(f"variable index {index} out of range for {n} variables")
        return Poly._raw(
            n, _derivatives(self._a, n, 8)[index], _derivatives(self._b, n, 8)[index], self._den
        )

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

    def gradient_residual(self, c: int, m: int) -> "Poly":
        """|grad p|^2 - c r^(2m) for an integer c, computed exactly, one residue class at a time.

        With dp/dx_i = (A_i + sqrt3 B_i) / den, every A_i^2 + 3 B_i^2 goes
        into an A map and every 2 A_i B_i into a B map, both over den^2, and
        the terms of c den^2 r^(2m) are subtracted from the A map in place.
        The maps use keys of ``width`` bits per field, just wide enough for
        exponents up to 2 (deg p - 1) and 2m; only the surviving keys, none
        when the identity holds, are repacked to 8-bit keys.

        The key of a product is the sum of the keys of its factors, so its
        class mod q is the sum of their classes.  Each derivative map is
        split into its classes mod q once; then for T = 0 .. q - 1 the maps
        of class T are filled from the factor classes s, t with s + t = T
        mod q, class T of r^(2m) is built and subtracted, and only the
        survivors are kept, so one class's maps are alive at a time.  q is
        ``_class_count`` of the
        predicted number of term pairs, sum_i T_i (T_i + 1) / 2 over the
        term counts T_i of the derivatives; at q = 1 this is one pass over
        all squares.  Above MAX_RESIDUAL_PAIRS pairs PreconditionError is
        raised before any product is formed.  As for ``dp/dx_i * dp/dx_i``,
        StructureError is raised when the squares, of degree 2 (deg p - 1),
        or r^(2m) could pass exponent 255.
        """
        if not isinstance(c, int):
            raise TypeError(f"gradient_residual takes an integer c, not {c!r}")
        n = self.num_vars
        top = max(2 * ((self.degree() or 1) - 1), 2 * m if c else 0)
        _check_product_degree(top)
        width = max(1, top.bit_length())
        da, db = _derivatives(self._a, n, width), _derivatives(self._b, n, width)
        pairs = sum((len(x) + len(y)) * (len(x) + len(y) + 1) // 2 for x, y in zip(da, db))
        if pairs > MAX_RESIDUAL_PAIRS:
            raise PreconditionError(
                f"|grad F|^2 takes {pairs} term pairs, above the budget "
                f"MAX_RESIDUAL_PAIRS = {MAX_RESIDUAL_PAIRS}"
            )
        q = _class_count(pairs)
        parts = [(_by_class(x, q), _by_class(y, q)) for x, y in zip(da, db)]
        del da, db
        den = self._den * self._den
        radial = _radial_terms(n, m, width, q)
        res_a: dict = {}
        res_b: dict = {}
        for T in range(q):
            a: dict = {}
            b: dict = {}
            for pa, pb in parts:
                # a square within one class takes its upper triangle of term
                # pairs; a pair of two classes is taken once and doubled
                for s, x in pa.items():
                    t = (T - s) % q
                    if s <= t and t in pa:
                        _mul_into(a, x, pa[t], 1 if s == t else 2)
                for s, y in pb.items():
                    t = (T - s) % q
                    if s <= t and t in pb:
                        _mul_into(a, y, pb[t], 3 if s == t else 6)
                for s, x in pa.items():
                    t = (T - s) % q
                    if t in pb:
                        _mul_into(b, x, pb[t], 2)
            if c:
                # class T of r^(2m) times the constant -c den^2, pruned as it
                # lands; the outer loop of _mul_into walks it without copying
                _mul_into(a, next(radial), {0: -c * den})
            res_a.update(a)
            res_b.update(b)
        return Poly._raw(n, _widen(res_a, n, width), _widen(res_b, n, width), den)

    def euler_check(self, degree: int) -> bool:
        """Euler identity sum_i x_i dp/dx_i == degree * p for homogeneous p.

        The operator multiplies each term by its degree, so the identity
        holds exactly when every term has the stated degree: True then, and
        otherwise PreconditionError listing the offending monomials.
        """
        n = self.num_vars
        bad = [_unpack(k, n) for k in self._keys() if _key_degree(k, n) != degree]
        if bad:
            raise PreconditionError(
                f"polynomial is not homogeneous of degree {degree}; "
                f"offending monomials: {sorted(bad)[:8]}"
            )
        return True

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
            ca, cb = a.get(k, 0), b.get(k, 0)
            ga, gb = math.gcd(ca, den), math.gcd(cb, den)  # den > 0; a zero part is 0/1
            lines.append(
                f"{ca // ga}/{den // ga} {cb // gb}/{den // gb} "
                + " ".join(map(str, k.to_bytes(n, "big")))
            )
        return "\n".join(lines)

def sum_of_squares(num_vars: int, m: int = 1) -> Poly:
    """The radius power r^(2m) = (x_1^2 + ... + x_n^2)^m, r^2 by default."""
    if num_vars < 1:
        raise StructureError("num_vars must be positive")
    return Poly._raw(num_vars, next(_radial_terms(num_vars, m, 8)), {}, 1)
