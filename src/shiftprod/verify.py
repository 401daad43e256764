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

One integer kernel, `witness_identities`, checks a pair on plain ints and
tuples: F comes from the two elementary symmetric vectors, Psi from
synthetic division on ints, and each m(-y_j) is evaluated once by Horner's
rule and serves both the k identities and the norm identity.  Only a
non-solution leaves the integers: its division falls back to the rational
`divmod` of `Poly`, whose remainder the error reports.  `verify_witness`
wraps the kernel's result in a `WitnessReport`, which holds F, Psi, rho and
the verdicts; the ratio maxima C_a and C_b are derived from F, Psi and X
when read.  The CLI's lemma-check renders the kernel's result directly,
with no `Poly` or report per pair.  The ratios of one polynomial share the
denominator X^n (n = k or k - d), so the largest is found in the integers
as the largest |c_j| * X^j and reduced by one gcd (`max_ratio`); the
`Fraction` properties and the CLI's report text both come from it.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Optional, Sequence

from .counting import CountReport, SolutionPair, cancelled_sides
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
    Synthetic division runs on the ints while each step divides exactly
    (`_int_quotient`); when it does not, one `divmod` over the rationals finds
    the remainder the error reports.
    """
    if not f:
        raise ValueError("the difference polynomial must be nonzero")
    quotient = _int_quotient(f.coeffs, m.coeffs)
    if quotient is not None:
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


def _int_quotient(f: Sequence[int], mc: Sequence[int]) -> Optional[list[int]]:
    """The quotient f / m by synthetic division on ints (constant first), or None.

    None when m does not divide f in Z[t]: at the first step whose division
    by m's leading coefficient is not exact, or on a nonzero remainder.
    """
    d = len(mc) - 1
    lead = mc[d]
    rem = list(f)
    quotient = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                return None
            quotient[i - d] = q
            for j in range(d):
                rem[i - d + j] -= q * mc[j]
    return None if any(rem[:d]) else quotient


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


def norm_identity_check(pair: SolutionPair, m: MinimalPolynomial) -> bool:
    """Whether prod m(-x_i) = prod m(-y_i); false signals a non-solution."""
    return math.prod(_at_negatives(m.coeffs, pair.x)) == math.prod(_at_negatives(m.coeffs, pair.y))


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


# The fields of `witness_identities`' result, in order.
Identities = tuple[
    tuple[int, ...],  # x, the cancelled pair's lower side
    tuple[int, ...],  # y
    tuple[int, ...],  # F's coefficients, constant first
    tuple[int, ...],  # Psi's coefficients
    tuple[int, ...],  # rho_j = Psi(-y_j)
    bool,  # the norm identity holds
    tuple[bool, ...],  # the k lemma identities hold, one per y_j
]


def identities_hold(identities: Identities, d: int) -> bool:
    """`WitnessReport.all_ok` of a `witness_identities` result, for a minimal polynomial of degree d."""
    x, _, _, psi, _, norm_ok, lemma_ok = identities
    return all(lemma_ok) and norm_ok and len(psi) <= len(x) - d


def witness_identities(
    x: tuple[int, ...], y: tuple[int, ...], m: MinimalPolynomial, X: int
) -> Identities:
    """Every factorization identity of one witness, computed on plain ints and tuples.

    `x` and `y` are a pair's canonical sides: each sorted, x <= y.  Values
    shared between them are cancelled first, and the result describes the
    cancelled pair.  F comes from the two elementary symmetric vectors, Psi
    from synthetic division by m, and each m(-y_j) is evaluated once by
    Horner's rule and serves both the k identities and the norm identity.
    Raises as `verify_witness` does; a non-solution's error comes from
    `factor_out_minpoly`, whose division over the rationals finds the
    remainder.
    """
    if not set(x).isdisjoint(y):
        x, y = cancelled_sides(x, y)
    k = len(x)
    mc = m.coeffs
    d = len(mc) - 1
    if x == y:
        raise PreconditionViolationError("diagonal after cancellation")
    if k <= d:
        raise PreconditionViolationError(
            f"k={k} must exceed the minimal-polynomial degree d={d}"
        )
    if X < max(x[-1], y[-1]):
        raise ValueError(f"X={X} is below the largest witness entry")
    # elementary_symmetric lists the coefficients highest power first, and
    # the monic leading terms cancel
    ex = elementary_symmetric(x)
    ey = elementary_symmetric(y)
    f = [ex[j] - ey[j] for j in range(k, 0, -1)]
    while not f[-1]:  # x != y, so F is nonzero
        f.pop()
    psi = _int_quotient(f, mc)
    if psi is None:  # no multiple of m in Z[t]: this raises, naming the remainder
        psi = factor_out_minpoly(Poly._of_ints(f), m).coeffs
    # Horner's rule, inlined: on k = 2 pairs it takes about a fifth of the
    # kernel's time off, against calls to _at_negatives
    m_top = mc[::-1]
    psi_top = psi[::-1]
    rho, lemma_ok = [], []
    norm_y = 1
    for yj in y:
        m_yj = rho_j = 0
        for c in m_top:
            m_yj = c - m_yj * yj
        for c in psi_top:
            rho_j = c - rho_j * yj
        lhs = 1
        for xi in x:
            lhs *= xi - yj
        rho.append(rho_j)
        norm_y *= m_yj
        lemma_ok.append(lhs == rho_j * m_yj and rho_j != 0 and m_yj != 0)
    norm_x = 1
    for xi in x:
        m_xi = 0
        for c in m_top:
            m_xi = c - m_xi * xi
        norm_x *= m_xi
    return x, y, tuple(f), tuple(psi), tuple(rho), norm_x == norm_y, tuple(lemma_ok)


def verify_witness(pair: SolutionPair, m: MinimalPolynomial, X: int) -> WitnessReport:
    """Check every factorization identity on a witness, after cancellation.

    Values shared between the two sides are cancelled first
    (`cancel_common_factors`), and the report describes the cancelled pair.
    Preconditions on that pair: it is not diagonal, entries lie in [1, X],
    and k > d (a genuine fully-cancelled solution always has k > d, since
    degree-d shifts admit no non-diagonal solutions at k <= d).  Raises
    NotASolutionError when the pair does not solve the equation.  The
    identities come from `witness_identities`.
    """
    x, y, f, psi, rho, norm_ok, lemma_ok = witness_identities(pair.x, pair.y, m, X)
    # positional: keywords cost a frozen dataclass about 1 us more per report
    return WitnessReport(
        SolutionPair._canonical(x, y), m, X, Poly._of_ints(list(f)), Poly._of_ints(list(psi)),
        rho, norm_ok, lemma_ok,
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
