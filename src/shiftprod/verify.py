"""Machine checks of the factorization identities behind the diagonal-only counts.

For a witness pair x, y (a genuine solution, with the values shared between
the two sides cancelled) the difference polynomial

    F(t) = prod(t + x_i) - prod(t + y_i)

has degree at most k-1 and vanishes at theta, so the minimal polynomial m of
theta divides it exactly: F = m * Psi with Psi an integer polynomial (m is
primitive, so Gauss's lemma applies).  Polynomial division keeps int
coefficients while each step divides exactly, so Psi, rho and the norms below
are computed over the integers throughout.  Evaluating at t = -y_j turns the
factorization into k integer identities

    prod_i (x_i - y_j) = rho_j * m(-y_j),      rho_j = Psi(-y_j),

and taking norms of the defining equation gives

    prod_i m(-x_i) = prod_i m(-y_i).

This module verifies all of these exactly on concrete witnesses, measures
the normalised coefficient ratios |F_j| / X^(k-j) and |Psi_m| / X^(k-d-m)
whose suprema play the role of the implicit constants, and fits growth
exponents of non-diagonal counts from count reports.  The ratios of one
polynomial share the denominator X^n (n = k or k - d), so the largest is
found in the integers as the largest |c_j| * X^j, and only that maximum
becomes a `Fraction`.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Optional, Sequence

from .counting import CountReport, SolutionPair, cancel_common_factors
from .polynomials import MinimalPolynomial, Poly, elementary_symmetric, norm_factor
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
    return Poly(reversed(diff))


def factor_out_minpoly(f: Poly, m: MinimalPolynomial) -> Poly:
    """Exact quotient Psi with f = m * Psi, raising if m does not divide f.

    A nonzero remainder means the pair that produced f is not a solution for
    this shift.  A divisible f with non-integer quotient cannot happen for a
    primitive m and integral f; it is reported as an invariant violation.
    One `divmod` does both: it leaves the integers only where m's leading
    coefficient fails to divide, which for an exact quotient never happens.
    """
    if not f:
        raise ValueError("the difference polynomial must be nonzero")
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


def _max_ratio(p: Poly, X: int, n: int) -> Fraction:
    """max |p_j| / X^(n-j) over j < n, compared in the integers as |p_j| * X^j."""
    top, scale = 0, 1
    for c in p.coeffs[:n]:
        top = max(top, abs(c) * scale)
        scale *= X
    return Fraction(top, X**n)


def norm_identity_check(pair: SolutionPair, m: MinimalPolynomial) -> bool:
    """Whether prod m(-x_i) = prod m(-y_i); false signals a non-solution."""
    lhs = math.prod(norm_factor(v, m) for v in pair.x)
    rhs = math.prod(norm_factor(v, m) for v in pair.y)
    return lhs == rhs


@dataclasses.dataclass(frozen=True)
class WitnessReport:
    """All verification results for one fully-cancelled witness pair."""

    pair: SolutionPair
    minpoly: MinimalPolynomial
    x_cap: int
    f: Poly
    psi: Poly
    rho: tuple[int, ...]
    max_f_ratio: Fraction
    max_psi_ratio: Fraction
    norm_identity_ok: bool
    lemma_ok: tuple[bool, ...]

    @property
    def k(self) -> int:
        return self.pair.k

    @property
    def d(self) -> int:
        return self.minpoly.degree

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
    k = pair.k
    d = m.degree
    if pair.is_diagonal:
        raise PreconditionViolationError("diagonal after cancellation")
    if k <= d:
        raise PreconditionViolationError(
            f"k={k} must exceed the minimal-polynomial degree d={d}"
        )
    if X < max(pair.x + pair.y):
        raise ValueError(f"X={X} is below the largest witness entry")

    f = product_difference(pair.x, pair.y)
    psi = factor_out_minpoly(f, m)
    rho = tuple(psi.evaluate(-yj) for yj in pair.y)
    lemma_ok = []
    for yj, rho_j in zip(pair.y, rho):
        lhs = math.prod(xi - yj for xi in pair.x)
        m_at = norm_factor(yj, m)
        lemma_ok.append(lhs == rho_j * m_at and rho_j != 0 and m_at != 0)
    return WitnessReport(
        pair=pair,
        minpoly=m,
        x_cap=X,
        f=f,
        psi=psi,
        rho=rho,
        max_f_ratio=_max_ratio(f, X, k),
        max_psi_ratio=_max_ratio(psi, X, k - d),
        norm_identity_ok=norm_identity_check(pair, m),
        lemma_ok=tuple(lemma_ok),
    )


def measure_bound_constants(
    reports: Sequence[WitnessReport],
) -> tuple[Fraction, Fraction]:
    """Empirical constants (C_a, C_b): the largest normalised coefficient ratios.

    C_a bounds |F_j| / X^(k-j) and C_b bounds |Psi_m| / X^(k-d-m) over the
    whole witness corpus; reports measured at different X contribute their
    own ratios, so the result is the max of the per-X values.
    """
    if not reports:
        raise ValueError("need at least one witness report")
    c_a = max(r.max_f_ratio for r in reports)
    c_b = max(r.max_psi_ratio for r in reports)
    return c_a, c_b


def rho_bound_holds(report: WitnessReport, c_bound: Fraction) -> bool:
    """Whether every |rho_j| <= k * C * X^(k-d) for the given constant C."""
    limit = report.k * c_bound * report.x_cap ** (report.k - report.d)
    return all(abs(r) <= limit for r in report.rho)


@dataclasses.dataclass(frozen=True)
class ExponentFit:
    """Least-squares growth exponent of non-diagonal counts, or a zero marker."""

    alpha: Optional[float]
    zero_count: bool
    n_points: int


def fit_growth_exponent(reports: Sequence[CountReport]) -> ExponentFit:
    """Slope of log(nondiagonal) against log(X) over count reports.

    Needs >= 3 reports at strictly increasing X with identical (k, shift).
    If any report has a zero non-diagonal count there is nothing to fit on a
    log scale and the zero-count marker is returned instead.
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
        return ExponentFit(alpha=None, zero_count=True, n_points=len(reports))
    us = [math.log(r.X) for r in reports]
    vs = [math.log(r.nondiagonal) for r in reports]
    u_mean = sum(us) / len(us)
    v_mean = sum(vs) / len(vs)
    num = sum((u - u_mean) * (v - v_mean) for u, v in zip(us, vs))
    den = sum((u - u_mean) ** 2 for u in us)
    return ExponentFit(alpha=num / den, zero_count=False, n_points=len(reports))


def reference_exponent(k: int, shift: Shift) -> Optional[int]:
    """The k - d + 1 growth scale the non-diagonal count is compared against.

    Degree d is read from the shift's minimal polynomial (1 for rationals);
    transcendental shifts admit no non-diagonal solutions at all, so there is
    no reference exponent.
    """
    if isinstance(shift, Transcendental):
        return None
    return k - minimal_polynomial_for(shift).degree + 1
