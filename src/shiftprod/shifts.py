"""Shift descriptors and canonical forms of shifted-integer products.

A shift theta is described one of three ways: a transcendental symbol, an
algebraic number given by its integer minimal polynomial, or a rational p/q.
For each variant there is a hashable canonical form of the k-fold product
(x_1 + theta) ... (x_k + theta) such that two products are equal in the
ambient ring exactly when their canonical forms compare equal:

  transcendental  the elementary symmetric vector (s_1, ..., s_k); s_0 = 1
                  carries no information and is dropped
  algebraic       the length-d rational vector of the product polynomial
                  reduced modulo the minimal polynomial
  rational        the plain integer prod(q*x_i + p), since the defining
                  equation scales by q^k

Textual grammar (CLI and config):
  transcendental | minpoly:c0,c1,...,cd | rational:p/q
"""

from __future__ import annotations

import dataclasses
from math import gcd
from typing import Sequence, Union

from .polynomials import (
    Coeff,
    MinimalPolynomial,
    elementary_symmetric,
    reduce_mod_minpoly,
    shift_product_poly,
)


@dataclasses.dataclass(frozen=True)
class Transcendental:
    """Shift by a transcendental number (any one; the counts do not depend on it)."""


@dataclasses.dataclass(frozen=True)
class Algebraic:
    """Shift by an algebraic irrational, given by its minimal polynomial (degree >= 2)."""

    minpoly: MinimalPolynomial

    def __post_init__(self):
        if self.minpoly.degree < 2:
            raise ValueError(
                "algebraic shifts need degree >= 2; use Rational for degree 1"
            )


@dataclasses.dataclass(frozen=True)
class Rational:
    """Shift by p/q in lowest terms with q >= 1 (integers are q = 1)."""

    p: int
    q: int = 1

    def __post_init__(self):
        for v in (self.p, self.q):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("rational shift needs integer p and q")
        if self.q < 1:
            raise ValueError("rational shift needs q >= 1")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"rational shift {self.p}/{self.q} is not in lowest terms")


Shift = Union[Transcendental, Algebraic, Rational]


def parse_shift(text: str) -> Shift:
    """Parse the shift grammar: transcendental | minpoly:c0,...,cd | rational:p/q.

    Rational inputs are normalised to lowest terms with a positive
    denominator; a bare integer is accepted as p/1.
    """
    s = text.strip()
    if s == "transcendental":
        return Transcendental()
    if s.startswith("minpoly:"):
        body = s[len("minpoly:"):]
        try:
            coeffs = [int(c.strip()) for c in body.split(",")]
        except ValueError:
            raise ValueError(f"bad minpoly coefficient list: {body!r}") from None
        return Algebraic(MinimalPolynomial(coeffs))
    if s.startswith("rational:"):
        body = s[len("rational:"):]
        num, _, den = body.partition("/")
        try:
            p = int(num.strip())
            q = int(den.strip()) if den else 1
        except ValueError:
            raise ValueError(f"bad rational shift: {body!r}") from None
        if q == 0:
            raise ValueError("rational shift denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        return Rational(p // g, q // g)
    raise ValueError(f"unrecognised shift {text!r}")


def format_shift(shift: Shift) -> str:
    """Canonical text for a shift; round-trips through parse_shift."""
    if isinstance(shift, Transcendental):
        return "transcendental"
    if isinstance(shift, Algebraic):
        return "minpoly:" + ",".join(str(c) for c in shift.minpoly.coeffs)
    if isinstance(shift, Rational):
        return f"rational:{shift.p}/{shift.q}"
    raise TypeError(f"not a shift: {shift!r}")


@dataclasses.dataclass(frozen=True)
class CanonicalProduct:
    """Hashable canonical form of a shifted product, scoped to its shift.

    Equality means equality of the products in the ring determined by the
    shift; coordinate coincidences across different shifts do not compare
    equal because the shift participates in equality and hashing.
    """

    shift: Shift
    coords: Union[tuple[Coeff, ...], int]


def shifted_product(values: Sequence[int], shift: Shift) -> CanonicalProduct:
    """Canonical form of prod(x_i + theta) for positive integers x_i.

    Permutation invariant: every coordinate is a symmetric function of the
    inputs.
    """
    if len(values) < 1:
        raise ValueError("need at least one factor")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"factors must be integers >= 1, got {v!r}")
    if isinstance(shift, Transcendental):
        return CanonicalProduct(shift, elementary_symmetric(values)[1:])
    if isinstance(shift, Algebraic):
        coords = reduce_mod_minpoly(shift_product_poly(values), shift.minpoly)
        return CanonicalProduct(shift, coords)
    if isinstance(shift, Rational):
        prod = 1
        for v in values:
            prod *= shift.q * v + shift.p
        return CanonicalProduct(shift, prod)
    raise TypeError(f"not a shift: {shift!r}")


def minimal_polynomial_for(shift: Shift) -> MinimalPolynomial:
    """Integer minimal polynomial of the shift (q*t - p for rationals).

    Transcendental shifts have none; asking for one is an error.
    """
    if isinstance(shift, Algebraic):
        return shift.minpoly
    if isinstance(shift, Rational):
        return MinimalPolynomial([-shift.p, shift.q])
    raise ValueError("transcendental shifts have no minimal polynomial")

