"""Machine checks of the factorization identities behind the diagonal-only counts.

For a witness pair x, y (a genuine solution, with the values shared between
the two sides cancelled) the difference polynomial

    F(t) = prod(t + x_i) - prod(t + y_i)

has degree at most k-1 and vanishes at theta, so the minimal polynomial m of
theta divides it exactly: F = m * Psi with Psi an integer polynomial (m is
primitive, so Gauss's lemma applies).  Evaluating at t = -y_j turns the
factorization into k integer identities

    prod_i (x_i - y_j) = rho_j * m(-y_j),      rho_j = Psi(-y_j),

and taking norms of the defining equation gives

    prod_i m(-x_i) = prod_i m(-y_i).

This module verifies all of these exactly on concrete witnesses, measures
each witness's normalised coefficient ratios |F_j| / X^(k-j) and
|Psi_m| / X^(k-d-m) (its C_a and C_b), and fits growth exponents of
non-diagonal counts from count reports.  The suprema that play the role of
the implicit constants are the max of the per-witness C_a and C_b over a
corpus, which a caller takes itself.

`verify_witness` is an integer kernel: F comes from the two elementary
symmetric vectors as a `Poly` of ints built without re-validation, Psi from
synthetic division on ints, and each m(-y_j) is evaluated once by Horner's
rule and serves both the k identities and the norm identity.  Only a
non-solution leaves the integers: its division falls back to the rational
`divmod` of `Poly`, whose remainder the error reports.  A `WitnessReport`
holds F, Psi, rho and the verdicts; the ratio maxima C_a and C_b are derived
from F, Psi and X when read.  The ratios of one polynomial share the
denominator X^n (n = k or k - d), so the largest is found in the integers as
the largest |c_j| * X^j and reduced by one gcd (`max_ratio`); the
`Fraction` properties and the CLI's report text both come from it.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Optional, Sequence

from .counting import CountReport, SolutionPair, cancel_common_factors
from .polynomials import MinimalPolynomial, Poly, elementary_symmetric
from .shifts import Shift, Transcendental, minimal_polynomial_for


class NotASolutionError(ValueError):
    """The pair does not satisfy the shifted-product equation for this shift."""


class NonIntegralQuotientError(RuntimeError):
    """m divides F but the quotient is not integral; impossible for primitive m."""


class PreconditionViolationError(ValueError):
    """A witness-level precondition (full cancellation, k > d) does not hold."""


class InsufficientDataError(ValueError):
    """Too few or ill-ordered count reports for an exponent fit."""


def product_difference(x: Sequence[int], y: Sequence[int]) -> Poly:
    """F(t) = prod(t + x_i) - prod(t + y_i); the monic leading terms cancel."""
    if len(x) != len(y) or len(x) < 1:
        raise ValueError("need two tuples of equal length k >= 1")
    # elementary_symmetric lists the coefficients highest power first
    diff = [a - b for a, b in zip(elementary_symmetric(x), elementary_symmetric(y))]
    diff.reverse()
    return Poly._of_ints(diff)


def factor_out_minpoly(f: Poly, m: MinimalPolynomial) -> Poly:
    """Exact quotient Psi with f = m * Psi, raising if m does not divide f.

    A nonzero remainder means the pair that produced f is not a solution for
    this shift.  A divisible f with non-integer quotient cannot happen for a
    primitive m and integral f; it is reported as an invariant violation.
    Synthetic division runs on the ints while each step divides exactly; at
    the first step that does not, or on a nonzero remainder, one `divmod`
    over the rationals finds the remainder the error reports.
    """
    if not f:
        raise ValueError("the difference polynomial must be nonzero")
    mc = m.coeffs
    d = len(mc) - 1
    lead = mc[d]
    rem = list(f.coeffs)
    quotient = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                break  # the quotient leaves the integers
            quotient[i - d] = q
            for j in range(d):
                rem[i - d + j] -= q * mc[j]
    else:
        if not any(rem[:d]):
            return Poly._of_ints(quotient)
    # f is no multiple of m in Z[t]: the division over Q finds what to report
    quotient, remainder = divmod(f, m.poly)
    if remainder:
        raise NotASolutionError(
            f"{m.poly} does not divide {f} (remainder {remainder})"
        )
    if not quotient.is_integral:
        raise NonIntegralQuotientError(
            f"non-integral quotient {quotient} despite primitive {m.poly}"
        )
    return quotient


def _at_negatives(coeffs: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """p(-v) for each value v, by Horner's rule on p's coefficients (constant first)."""
    top = coeffs[::-1]
    out = []
    for v in values:
        acc = 0
        for c in top:
            acc = c - acc * v
        out.append(acc)
    return tuple(out)


def max_ratio(coeffs: Sequence[int], X: int, n: int) -> tuple[int, int]:
    """max |c_j| / X^(n-j) over j < n, as numerator and denominator in lowest terms.

    The ratios share the denominator X^n, so the largest is found in the
    integers as the largest |c_j| * X^j.
    """
    top, scale = 0, 1
    for c in coeffs[:n]:
        c = abs(c) * scale
        if c > top:
            top = c
        scale *= X
    den = X**n
    g = math.gcd(top, den)
    return top // g, den // g


def norm_identity_check(
    pair: SolutionPair, m: MinimalPolynomial, m_at_y: Optional[Sequence[int]] = None
) -> bool:
    """Whether prod m(-x_i) = prod m(-y_i); false signals a non-solution.

    `m_at_y`, if given, holds the values m(-y_i) already evaluated.
    """
    if m_at_y is None:
        m_at_y = _at_negatives(m.coeffs, pair.y)
    return math.prod(_at_negatives(m.coeffs, pair.x)) == math.prod(m_at_y)


@dataclasses.dataclass(frozen=True)
class WitnessReport:
    """All verification results for one fully-cancelled witness pair.

    The ratio maxima C_a and C_b are derived from `f`, `psi` and `x_cap`.
    """

    pair: SolutionPair
    minpoly: MinimalPolynomial
    x_cap: int
    f: Poly
    psi: Poly
    rho: tuple[int, ...]
    norm_identity_ok: bool
    lemma_ok: tuple[bool, ...]

    @property
    def k(self) -> int:
        return self.pair.k

    @property
    def d(self) -> int:
        return self.minpoly.degree

    @property
    def max_f_ratio(self) -> Fraction:
        """C_a of this witness: max |F_j| / X^(k-j) over j < k."""
        return Fraction(*max_ratio(self.f.coeffs, self.x_cap, self.k))

    @property
    def max_psi_ratio(self) -> Fraction:
        """C_b of this witness: max |Psi_j| / X^(k-d-j) over j < k - d."""
        return Fraction(*max_ratio(self.psi.coeffs, self.x_cap, self.k - self.d))

    @property
    def psi_degree_ok(self) -> bool:
        return self.psi.degree <= self.k - 1 - self.d

    @property
    def all_ok(self) -> bool:
        return all(self.lemma_ok) and self.norm_identity_ok and self.psi_degree_ok

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.pair.x),
            "y": list(self.pair.y),
            "F_coeffs": list(self.f.coeffs),
            "psi_coeffs": list(self.psi.coeffs),
            "rho": list(self.rho),
            "C_a": str(self.max_f_ratio),
            "C_b": str(self.max_psi_ratio),
            "norm_ok": self.norm_identity_ok,
            "lemma_ok": list(self.lemma_ok),
        }


def verify_witness(pair: SolutionPair, m: MinimalPolynomial, X: int) -> WitnessReport:
    """Check every factorization identity on a witness, after cancellation.

    Values shared between the two sides are cancelled first
    (`cancel_common_factors`), and the report describes the cancelled pair.
    Preconditions on that pair: it is not diagonal, entries lie in [1, X],
    and k > d (a genuine fully-cancelled solution always has k > d, since
    degree-d shifts admit no non-diagonal solutions at k <= d).  Raises
    NotASolutionError when the pair does not solve the equation.
    """
    pair = cancel_common_factors(pair)
    x, y = pair.x, pair.y
    k = len(x)
    d = m.degree
    if x == y:
        raise PreconditionViolationError("diagonal after cancellation")
    if k <= d:
        raise PreconditionViolationError(
            f"k={k} must exceed the minimal-polynomial degree d={d}"
        )
    if X < max(x + y):
        raise ValueError(f"X={X} is below the largest witness entry")

    f = product_difference(x, y)
    psi = factor_out_minpoly(f, m)
    rho = _at_negatives(psi.coeffs, y)
    m_at_y = _at_negatives(m.coeffs, y)
    lemma_ok = []
    for yj, rho_j, m_at in zip(y, rho, m_at_y):
        lhs = 1
        for xi in x:
            lhs *= xi - yj
        lemma_ok.append(lhs == rho_j * m_at and rho_j != 0 and m_at != 0)
    # positional: keywords cost a frozen dataclass about 1 us more per report
    return WitnessReport(
        pair, m, X, f, psi, rho, norm_identity_check(pair, m, m_at_y), tuple(lemma_ok)
    )


def fit_growth_exponent(reports: Sequence[CountReport]) -> Optional[float]:
    """Least-squares slope of log(nondiagonal) against log(X) over count reports.

    Needs >= 3 reports at strictly increasing X with identical (k, shift).
    If any report has a zero non-diagonal count there is nothing to fit on a
    log scale, and the result is None.
    """
    if len(reports) < 3:
        raise InsufficientDataError("need at least three count reports")
    ks = {r.k for r in reports}
    shifts = {r.shift for r in reports}
    if len(ks) != 1 or len(shifts) != 1:
        raise ValueError("reports must share one (k, shift)")
    xs = [r.X for r in reports]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InsufficientDataError("X values must be strictly increasing")
    if any(r.nondiagonal == 0 for r in reports):
        return None
    us = [math.log(r.X) for r in reports]
    vs = [math.log(r.nondiagonal) for r in reports]
    u_mean = sum(us) / len(us)
    v_mean = sum(vs) / len(vs)
    num = sum((u - u_mean) * (v - v_mean) for u, v in zip(us, vs))
    den = sum((u - u_mean) ** 2 for u in us)
    return num / den


def reference_exponent(k: int, shift: Shift) -> Optional[int]:
    """The k - d + 1 growth scale the non-diagonal count is compared against.

    Degree d is read from the shift's minimal polynomial (1 for rationals);
    transcendental shifts admit no non-diagonal solutions at all, so there is
    no reference exponent.
    """
    if isinstance(shift, Transcendental):
        return None
    return k - minimal_polynomial_for(shift).degree + 1
