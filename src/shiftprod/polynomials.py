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
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence, Union

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


def _factor(f: Poly, e: int) -> Optional[tuple[Poly, Poly]]:
    """A split f = g * q over the integers with deg g = e, or None if f has none.

    Kronecker's search, for a primitive integer f of degree >= 2e.  A factor
    g divides f(a) at every integer a, so it interpolates one signed divisor
    of f(a_i) at each of e + 1 points a_i.  The walk picks those divisors in
    Newton form and keeps a prefix only while its divided differences are
    integers, as those of an integer polynomial at integer points are.  The
    points are near 0, where |f(a)| is smallest; among them the ones with the
    fewest divisors.  An integer root a of f gives the factor t - a at once.
    """
    d = len(f.coeffs) - 1
    near = sorted((abs(f.evaluate(a)), a) for a in range(-d, d + 1))
    if near[0][0] == 0:
        g = Poly([-near[0][1], 1])
        return g, divmod(f, g)[0]
    pool = sorted(((_signed_divisors(v), a) for v, a in near[: 2 * e + 2]),
                  key=lambda pair: len(pair[0]))[: e + 1]
    nodes = [a for _, a in pool]
    divisors = [divs for divs, _ in pool]
    divisors[0] = [v for v in divisors[0] if v > 0]  # g and -g both divide f
    lead = f.coeffs[-1]

    def walk(row: list[int], newton: list[int]) -> Optional[tuple[Poly, Poly]]:
        j = len(newton)
        if j > e:
            if not newton[e] or lead % newton[e]:
                return None
            g = Poly([newton[e]])
            for c, a in zip(newton[e - 1 :: -1], nodes[e - 1 :: -1]):
                g = g * Poly([-a, 1]) + c
            q, r = divmod(f, g)
            return None if r or not q.is_integral else (g, q)
        for v in divisors[j]:
            new = [v]  # new[i] = g[a_(j-i), ..., a_j]
            for i in range(j):
                step, r = divmod(new[i] - row[i], nodes[j] - nodes[j - 1 - i])
                if r:
                    break
                new.append(step)
            else:
                split = walk(new, newton + [new[j]])
                if split:
                    return split
        return None

    return walk([], [])


# The primes whose factor-degree patterns `_split_degrees` reads.
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
                   79, 83, 89, 97)


def _split_degrees(f: Sequence[int]) -> list[int]:
    """The degrees e <= d // 2 at which f (primitive, degree d) may have an integer factor.

    Over a prime p that does not divide f's leading coefficient and modulo
    which f is squarefree, f splits into irreducible factors of known
    degrees (distinct-degree factorisation), and a factor of f over the
    integers reduces to a product of some of them.  So its degree is a sum
    of a subset of that pattern, at every such prime below 100.  This rules
    degrees out without evaluating f, whose values Kronecker's search must
    factor.
    """
    d = len(f) - 1
    allowed = set(range(1, d // 2 + 1))
    for p in _PATTERN_PRIMES:
        if not allowed:
            break
        pattern = _degree_pattern(f, p)
        if pattern is not None:
            sums = {0}
            for e in pattern:
                sums |= {s + e for s in sums}
            allowed &= sums
    return sorted(allowed)


def _degree_pattern(f: Sequence[int], p: int) -> Optional[list[int]]:
    """The degrees of the irreducible factors of f mod p, or None if p | c_d or f mod p is not squarefree."""
    if not f[-1] % p:
        return None
    inv = pow(f[-1], -1, p)
    g = [c * inv % p for c in f]  # monic
    derivative = _trim([i * c % p for i, c in enumerate(g)][1:])
    if len(_gcd_mod(g, derivative, p)) > 1:
        return None
    pattern = []
    power = [0, 1]  # t^(p^i) mod g
    i = 0
    while 2 * (i + 1) <= len(g) - 1:
        i += 1
        power = _power_mod(power, p, g, p)
        moved = power + [0] * (2 - len(power))  # t^(p^i) - t
        moved[1] -= 1
        common = _gcd_mod(g, _trim([c % p for c in moved]), p)
        if len(common) > 1:  # the product of g's factors of degree i
            pattern += [i] * ((len(common) - 1) // i)
            g = _divmod_mod(g, common, p)[0]
            power = _divmod_mod(power, g, p)[1]
    if len(g) > 1:
        pattern.append(len(g) - 1)
    return pattern


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b != 0 over the integers mod p, constant first."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] * inv % p
        if q:
            quot[i - db] = q
            for j, c in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - q * c) % p
    return _trim(quot), _trim(rem[:db])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b mod p ([] when both are zero)."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a] if a else a


def _power_mod(a: list[int], n: int, g: list[int], p: int) -> list[int]:
    """a^n mod g, over the integers mod p, for n >= 1."""
    result = [1]
    while True:
        if n & 1:
            result = _mul_mod(result, a, g, p)
        n >>= 1
        if not n:
            return result
        a = _mul_mod(a, a, g, p)


def _mul_mod(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    """a * b mod g, over the integers mod p."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] += c * e
    return _divmod_mod([c % p for c in out], g, p)[1]


@dataclasses.dataclass(frozen=True, init=False)
class MinimalPolynomial:
    """Primitive integer minimal polynomial of an algebraic shift.

    The stored polynomial has content 1 and a positive leading coefficient
    (the supplied coefficients are divided by their common factor, negated
    when c_d < 0, so each shift has one spelling), and degree d >= 1.  It
    must be irreducible over the rationals, at every degree: by Gauss's
    lemma a reducible primitive polynomial splits into integer factors, one
    of degree at most d // 2, and Kronecker's search (`_factor`) rules out
    each such degree.  A reducible input raises ValueError naming
    its split.
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
        content = Poly(cs).content() * (1 if cs[-1] > 0 else -1)
        f = Poly([c // content for c in cs])
        for e in _split_degrees(f.coeffs):
            split = _factor(f, e)
            if split:
                raise ValueError(f"{f} = ({split[0]})({split[1]}), so it is reducible")
        object.__setattr__(self, "poly", f)

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
