"""Exact dense univariate polynomial arithmetic over the integers and rationals.

A polynomial is a tuple of coefficients indexed by power, constant term first,
so ``Poly([1, 3, 2])`` is ``2t^2 + 3t + 1``.  Coefficients are Python ints or
`fractions.Fraction` values; all arithmetic is exact, which makes polynomial
identity tests fully reliable.  Fractions that reduce to integers are stored
as ints, so an "integer polynomial" is structurally recognisable.

The module also provides the number-theoretic helpers the counting and
verification layers are built on: elementary symmetric polynomials, reduction
modulo an integer minimal polynomial, and the norm-like evaluation m(-n).
"""

from __future__ import annotations

import dataclasses
import warnings
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]


def _normalize_coeff(c: Coeff) -> Coeff:
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


@dataclasses.dataclass(frozen=True, init=False)
class Poly:
    """Dense exact-coefficient polynomial, constant term first.

    >>> Poly([2, 3, 1]) * Poly([1, 1])
    Poly([2, 5, 4, 1])
    >>> divmod(Poly([-2, -6, 1, 3]), Poly([-2, 0, 1]))
    (Poly([1, 3]), Poly([]))
    """

    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [_normalize_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of_ints(cls, coeffs: list[int]) -> "Poly":
        """A polynomial from int coefficients the engine computed itself.

        Skips `__init__`'s per-coefficient check and only strips trailing
        zeros (from `coeffs`, in place); input read from outside the engine
        goes through the public constructor instead.
        """
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        return poly

    @property
    def degree(self) -> Union[int, float]:
        """Degree of the polynomial; the zero polynomial has degree -inf."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def coeff(self, j: int) -> Coeff:
        """Coefficient of t^j (zero beyond the stored degree)."""
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def content(self) -> int:
        """gcd of the (integer) coefficients; content of the zero poly is 0."""
        if not self.is_integral:
            raise ValueError("content is defined for integer polynomials only")
        return gcd(*self.coeffs)

    def evaluate(self, value: Coeff) -> Coeff:
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self or not other:
            return Poly()
        out: list[Coeff] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Exact division over the rationals: self = other*q + r, deg r < deg other.

        Each quotient coefficient stays an int while the leading coefficient
        divides it, so an exact division of integer polynomials never leaves
        the integers.
        """
        if not isinstance(other, Poly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        ddeg = len(other.coeffs) - 1
        rem = list(self.coeffs)
        if len(rem) <= ddeg:
            return Poly(), self
        lead = other.coeffs[-1]
        quot: list[Coeff] = [0] * (len(rem) - ddeg)
        for i in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f, r = divmod(c, lead)
            if r:
                f = Fraction(c) / lead
            quot[i - ddeg] = f
            for j, dc in enumerate(other.coeffs):
                rem[i - ddeg + j] -= f * dc
        return Poly(quot), Poly(rem[:ddeg])

    def __repr__(self) -> str:
        return f"Poly([{', '.join(map(str, self.coeffs))}])"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            body = "t" if j == 1 else (f"t^{j}" if j > 1 else "")
            coef = "" if (mag == 1 and j > 0) else str(mag)
            parts.append(f"{sign} {coef}{body}".strip() if parts else f"{sign}{coef}{body}")
        return " ".join(parts)


def shift_product_poly(values: Sequence[int]) -> Poly:
    """Product of the linear factors (t + v) over the given values; 1 if none.

    Its coefficients, highest power first, are the elementary symmetric
    vector of the values.
    """
    if not values:
        return Poly([1])
    return Poly(reversed(elementary_symmetric(values)))


def elementary_symmetric(values: Sequence[int]) -> tuple[int, ...]:
    """Vector (s_0, ..., s_k) of elementary symmetric polynomials of the values.

    s_j is the coefficient of t^(k-j) in the product of (t + v_i); s_0 = 1.
    The result is invariant under permutation of the input.
    """
    if len(values) < 1:
        raise ValueError("elementary symmetric polynomials need at least one value")
    sig = [1]
    for v in values:
        # multiply by (t + v): s_j becomes s_j + v * s_(j-1)
        prev = 0
        grown = []
        for s in sig:
            grown.append(s + v * prev)
            prev = s
        grown.append(v * prev)
        sig = grown
    return tuple(sig)


def _signed_divisors(n: int) -> list[int]:
    """All positive and negative divisors of n != 0."""
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    out.sort()
    return [s * d for d in out for s in (1, -1)]


def _has_rational_root(coeffs: Sequence[int]) -> bool:
    """Rational-root test for an integer polynomial of degree >= 1."""
    if coeffs[0] == 0:
        return True  # t = 0
    lead = coeffs[-1]
    for p in _signed_divisors(coeffs[0]):
        for q in _signed_divisors(lead):
            if q <= 0 or gcd(p, q) != 1:
                continue
            if Poly(coeffs).evaluate(Fraction(p, q)) == 0:
                return True
    return False


def _has_integer_quadratic_factor(coeffs: Sequence[int]) -> bool:
    """Whether a quartic with no rational root splits into two integer quadratics.

    Writes the candidate split as (a t^2 + b t + c)(a' t^2 + b' t + c') with
    a > 0 (a sign can always be moved across the factors), enumerates divisor
    pairs a*a' = c4 and c*c' = c0, then solves the remaining coefficient
    equations for integer b, b'.
    """
    c0, c1, c2, c3, c4 = coeffs
    for a in _signed_divisors(c4):
        if a <= 0 or c4 % a != 0:
            continue
        a2 = c4 // a
        for c in _signed_divisors(c0):
            if c0 % c != 0:
                continue
            cc = c0 // c
            # Matching t^3 and t^2 gives a2*b^2 - c3*b + a*(c2 - a*cc - a2*c) = 0.
            rest = c2 - a * cc - a2 * c
            disc = c3 * c3 - 4 * a2 * a * rest
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for num in (c3 + s, c3 - s):
                if num % (2 * a2) != 0:
                    continue
                b = num // (2 * a2)
                if (c3 - a2 * b) % a != 0:
                    continue
                b2 = (c3 - a2 * b) // a
                if b * cc + b2 * c == c1:
                    return True
    return False


@dataclasses.dataclass(frozen=True, init=False)
class MinimalPolynomial:
    """Primitive integer minimal polynomial of an algebraic shift.

    The stored polynomial has content 1 (any common factor of the supplied
    coefficients is divided out), a nonzero leading coefficient, and degree
    >= 1.  Irreducibility over the rationals is validated as far as cheaply
    possible: no rational root for degree >= 2, and no integer quadratic
    factor for degree 4 (degree 3 needs only the root test).  Degrees >= 5
    are accepted with a warning since full factorization is out of scope.
    """

    poly: Poly

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        if not cs:
            raise ValueError("minimal polynomial needs coefficients")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError("minimal polynomial coefficients must be integers")
        if cs[-1] == 0:
            raise ValueError("leading coefficient c_d must be nonzero")
        if len(cs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        content = Poly(cs).content()
        cs = [c // content for c in cs]
        d = len(cs) - 1
        if d >= 2 and _has_rational_root(cs):
            raise ValueError(f"{Poly(cs)} has a rational root, so it is reducible")
        if d == 4 and _has_integer_quadratic_factor(cs):
            raise ValueError(f"{Poly(cs)} splits into integer quadratics")
        if d >= 5:
            warnings.warn(
                f"irreducibility of degree-{d} minimal polynomials is only "
                "partially validated (rational-root test not sufficient)",
                stacklevel=2,
            )
        object.__setattr__(self, "poly", Poly(cs))

    @property
    def degree(self) -> int:
        return len(self.poly.coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.poly.coeffs  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"MinimalPolynomial({self.poly})"


def reduce_mod_minpoly(p: Poly, m: MinimalPolynomial) -> tuple[Coeff, ...]:
    """Remainder of p modulo the minimal polynomial, padded to length d.

    The result is the coordinate vector of p's image in the quotient ring
    Q[t]/(m) with respect to the basis 1, t, ..., t^(d-1); evaluating it at a
    root of m gives the same value as evaluating p.
    """
    _, r = divmod(p, m.poly)
    return tuple(r.coeff(i) for i in range(m.degree))


def norm_factor(n: int, m: MinimalPolynomial) -> int:
    """Exact value m(-n): the integer factor the field norm attaches to (n + theta)."""
    return m.poly.evaluate(-n)
