"""Factorization-identity checks on witnesses, bound measurement, exponent fits."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from shiftprod import (
    Algebraic,
    CountReport,
    InsufficientDataError,
    MinimalPolynomial,
    NotASolutionError,
    Poly,
    PreconditionViolationError,
    Rational,
    SolutionPair,
    Transcendental,
    cancel_common_factors,
    factor_out_minpoly,
    find_nondiagonal_witnesses,
    fit_growth_exponent,
    measure_bound_constants,
    minimal_polynomial_for,
    norm_factor,
    norm_identity_check,
    parse_shift,
    product_difference,
    reference_exponent,
    rho_bound_holds,
    verify_witness,
)

rng = random.Random(31415)

SQRT2_M = MinimalPolynomial([-2, 0, 1])
HALF_M = MinimalPolynomial([-1, 2])


class TestProductDifference:
    def test_permutation_gives_zero(self):
        assert not product_difference((1, 2), (2, 1))

    def test_hand_example(self):
        # (t+1)(t+7) - (t+2)(t+4) = 2t - 1
        assert product_difference((1, 7), (2, 4)) == Poly([-1, 2])

    def test_degree_at_most_k_minus_one(self):
        for _ in range(100):
            k = rng.randint(1, 5)
            x = tuple(rng.randint(1, 30) for _ in range(k))
            y = tuple(rng.randint(1, 30) for _ in range(k))
            assert product_difference(x, y).degree <= k - 1

    def test_antisymmetry(self):
        for _ in range(50):
            k = rng.randint(1, 4)
            x = tuple(rng.randint(1, 20) for _ in range(k))
            y = tuple(rng.randint(1, 20) for _ in range(k))
            assert product_difference(x, y) == -product_difference(y, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_difference((1, 2), (1,))


class TestFactorOutMinpoly:
    def test_exact_quotient(self):
        f = Poly([-2, -6, 1, 3])  # 3t^3 + t^2 - 6t - 2 = (t^2 - 2)(3t + 1)
        assert factor_out_minpoly(f, SQRT2_M) == Poly([1, 3])

    def test_degree_obstruction(self):
        with pytest.raises(NotASolutionError):
            factor_out_minpoly(Poly([-1, 2]), SQRT2_M)

    def test_non_solution_rejected(self):
        # 3t + 1 stops the integer division at once; 2t + 1 leaves remainder 2
        for f in (Poly([1, 3]), Poly([1, 2]), product_difference((1, 6), (2, 4))):
            with pytest.raises(NotASolutionError):
                factor_out_minpoly(f, HALF_M)
        with pytest.raises(NotASolutionError):
            factor_out_minpoly(product_difference((1, 2, 9), (3, 3, 4)), SQRT2_M)

    def test_identity_quotient(self):
        assert factor_out_minpoly(SQRT2_M.poly, SQRT2_M) == Poly([1])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_out_minpoly(Poly(), SQRT2_M)

    def test_synthetic_round_trips(self):
        pool = [
            SQRT2_M,
            HALF_M,
            MinimalPolynomial([1, 0, 1]),
            MinimalPolynomial([-1, 0, 2]),
            MinimalPolynomial([-1, -1, 0, 1]),
            MinimalPolynomial([1, 0, 0, 0, 1]),
        ]
        for _ in range(100):
            m = rng.choice(pool)
            deg = rng.randint(0, 3)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-3, -1, 1, 2, 9])]
            psi = Poly(coeffs)
            f = m.poly * psi
            assert factor_out_minpoly(f, m) == psi
            assert m.poly * psi == f

    def test_evaluation_homomorphism(self):
        # with F = m*psi, F(-y) = m(-y)*psi(-y) for any y
        psi = Poly([1, 3])
        f = SQRT2_M.poly * psi
        for y in (1, 2, 3):
            assert f.evaluate(-y) == norm_factor(y, SQRT2_M) * psi.evaluate(-y)


class TestNormIdentity:
    def test_diagonal_pair(self):
        assert norm_identity_check(SolutionPair((1, 2), (2, 1)), SQRT2_M)

    def test_non_solution(self):
        assert not norm_identity_check(SolutionPair((1, 1), (2, 2)), SQRT2_M)

    def test_k1(self):
        assert norm_identity_check(SolutionPair((4,), (4,)), SQRT2_M)

    def test_every_genuine_solution_passes(self):
        half = Rational(1, 2)
        for pair in find_nondiagonal_witnesses(2, 30, half):
            assert norm_identity_check(pair, HALF_M)


class TestVerifyWitness:
    def test_rational_witness(self):
        rep = verify_witness(SolutionPair((1, 7), (2, 4)), HALF_M, 7)
        assert rep.all_ok
        assert rep.f == Poly([-1, 2])
        assert rep.psi == Poly([1])
        assert rep.rho == (1, 1)
        assert rep.psi_degree_ok

    def test_all_search_witnesses_pass(self):
        shift = Algebraic(SQRT2_M)
        for X in (50, 100):
            for pair in find_nondiagonal_witnesses(3, X, shift):
                rep = verify_witness(pair, SQRT2_M, X)
                assert rep.all_ok
                assert all(r != 0 for r in rep.rho)
                assert rep.psi.degree <= rep.k - 1 - rep.d
                assert rep.minpoly.poly * rep.psi == rep.f

    def test_shared_values_cancelled(self):
        shared = verify_witness(SolutionPair((1, 1, 7), (1, 2, 4)), HALF_M, 7)
        assert shared == verify_witness(SolutionPair((1, 7), (2, 4)), HALF_M, 7)

    def test_diagonal_rejected(self):
        with pytest.raises(PreconditionViolationError):
            verify_witness(SolutionPair((1, 2), (2, 1)), HALF_M, 7)

    def test_k_must_exceed_degree(self):
        with pytest.raises(PreconditionViolationError):
            verify_witness(SolutionPair((1, 3), (2, 4)), SQRT2_M, 10)

    def test_non_solution_raises(self):
        with pytest.raises(NotASolutionError):
            verify_witness(SolutionPair((1, 2, 5), (3, 4, 6)), SQRT2_M, 10)

    def test_x_cap_validated(self):
        with pytest.raises(ValueError):
            verify_witness(SolutionPair((1, 7), (2, 4)), HALF_M, 5)

    def test_json_keys(self):
        rep = verify_witness(SolutionPair((1, 7), (2, 4)), HALF_M, 7)
        data = rep.to_json_dict()
        assert set(data) == {
            "x", "y", "F_coeffs", "psi_coeffs", "rho", "C_a", "C_b",
            "norm_ok", "lemma_ok",
        }
        assert data["C_a"] == "2/7"


class TestBoundConstants:
    def test_single_witness(self):
        rep = verify_witness(SolutionPair((1, 7), (2, 4)), HALF_M, 7)
        c_a, c_b = measure_bound_constants([rep])
        assert c_a == Fraction(2, 7)  # max(|a_1|/X, |a_0|/X^2) = max(2/7, 1/49)
        assert c_b == Fraction(1, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measure_bound_constants([])

    def test_max_across_x_values(self):
        half = Rational(1, 2)
        per_x = []
        both = []
        for X in (7, 25):
            reports = [
                verify_witness(p, HALF_M, X) for p in find_nondiagonal_witnesses(2, X, half)
            ]
            per_x.append(measure_bound_constants(reports))
            both.extend(reports)
        c_a, c_b = measure_bound_constants(both)
        assert c_a == max(p[0] for p in per_x)
        assert c_b == max(p[1] for p in per_x)

    def test_rho_bound_with_measured_constant(self):
        half = Rational(1, 2)
        reports = [
            verify_witness(p, HALF_M, 40) for p in find_nondiagonal_witnesses(2, 40, half)
        ]
        _, c_b = measure_bound_constants(reports)
        assert all(rho_bound_holds(r, c_b) for r in reports)

    def test_ratio_growth_tame_under_doubling(self):
        # the sup of the psi-coefficient ratios is a constant of (k, theta);
        # empirically the corpus max may creep up as coverage grows, but only
        # within a small factor per doubling of X
        half = Rational(1, 2)
        maxima = {}
        for X in (25, 50, 100):
            reports = [
                verify_witness(p, HALF_M, X) for p in find_nondiagonal_witnesses(2, X, half)
            ]
            maxima[X] = measure_bound_constants(reports)[1]
        assert maxima[50] <= Fraction(11, 10) * maxima[25] + Fraction(5, 100)
        assert maxima[100] <= Fraction(11, 10) * maxima[50] + Fraction(5, 100)


class TestCancelCommonFactors:
    def test_disjoint_pair_is_returned_itself(self):
        pair = SolutionPair((1, 7), (2, 4))
        assert cancel_common_factors(pair) is pair

    def test_shared_values_cancelled_to_a_canonical_pair(self):
        for _ in range(300):
            k = rng.randint(1, 5)
            x = tuple(rng.randint(1, 6) for _ in range(k))
            y = tuple(rng.randint(1, 6) for _ in range(k))
            pair = SolutionPair(x, y)
            cancelled = cancel_common_factors(pair)
            left = tuple((Counter(x) - Counter(y)).elements())
            right = tuple((Counter(y) - Counter(x)).elements())
            # the public constructor validates, sorts and orders the sides
            assert cancelled == SolutionPair(left, right)
            if set(x).isdisjoint(y):
                assert cancelled is pair


class TestIntegerVerifyDifferential:
    """verify_witness against oracles.py and sympy on random genuine witnesses.

    sympy is a test oracle only.  The cubic shift has no witness in any cell
    the engine settles quickly (none at k=4, X <= 150), so it is checked on
    non-solutions and on synthetic multiples of its minimal polynomial.
    """

    CELLS = {
        "rational:1/2": [(2, 30), (3, 12)],
        "rational:-5/3": [(2, 20), (3, 10)],
        "rational:3/2": [(2, 20), (3, 12)],
        "minpoly:-2,0,1": [(3, 30), (4, 15)],
        "minpoly:-3,0,2": [(3, 100)],
    }
    SHIFTS = list(CELLS) + ["minpoly:-1,-1,0,1"]

    @staticmethod
    def sympy_div(f, m):
        """Quotient and remainder of f by m as Fraction lists, constant first."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        fs = sympy.Poly(list(reversed(f)), t, domain="QQ")
        ms = sympy.Poly(list(reversed(m)), t, domain="QQ")
        q, r = sympy.div(fs, ms)

        def fractions(p):
            return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]

        return fractions(q), fractions(r)

    @staticmethod
    def trimmed(coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    def genuine_pairs(self, text):
        shift = parse_shift(text)
        pairs = []
        for k, X in self.CELLS[text]:
            found = list(find_nondiagonal_witnesses(k, X, shift))
            for pair in rng.sample(found, min(8, len(found))):
                pairs.append((pair, X))
                v = rng.randint(1, X)
                pairs.append((SolutionPair(pair.x + (v,), pair.y + (v,)), X))
        return shift, pairs

    @pytest.mark.parametrize("text", list(CELLS))
    def test_genuine_witnesses_match_the_oracles(self, text):
        shift, pairs = self.genuine_pairs(text)
        m = minimal_polynomial_for(shift)
        assert pairs
        for pair, X in pairs:
            assert oracles.canonical(pair.x, shift) == oracles.canonical(pair.y, shift)
            x = tuple(sorted((Counter(pair.x) - Counter(pair.y)).elements()))
            y = tuple(sorted((Counter(pair.y) - Counter(pair.x)).elements()))
            k, d = len(x), m.degree
            f = self.trimmed(
                a - b for a, b in zip(oracles.expand_shifted(x), oracles.expand_shifted(y))
            )
            psi, remainder = self.sympy_div(f, m.coeffs)
            psi = self.trimmed(psi)
            assert not any(remainder)
            rep = verify_witness(pair, m, X)
            assert rep.f.coeffs == tuple(f) and rep.psi.coeffs == tuple(psi)
            rho = [sum(c * (-yj) ** j for j, c in enumerate(psi)) for yj in y]
            assert list(rep.rho) == rho
            for value in rep.f.coeffs + rep.psi.coeffs + rep.rho:
                assert type(value) is int
            # the per-term Fraction maxima the integer comparison replaced
            c_a = max(Fraction(abs(f[j]) if j < len(f) else 0, X ** (k - j)) for j in range(k))
            c_b = max(
                Fraction(abs(psi[j]) if j < len(psi) else 0, X ** (k - d - j))
                for j in range(k - d)
            )
            assert (rep.max_f_ratio, rep.max_psi_ratio) == (c_a, c_b)
            assert (str(rep.max_f_ratio), str(rep.max_psi_ratio)) == (str(c_a), str(c_b))
            assert rep.all_ok and rep.norm_identity_ok

    @pytest.mark.parametrize("text", SHIFTS)
    def test_non_solutions_keep_their_message(self, text):
        shift = parse_shift(text)
        m = minimal_polynomial_for(shift)
        k = m.degree + 1
        checked = 0
        while checked < 20:
            x = tuple(rng.randint(1, 25) for _ in range(k))
            y = tuple(rng.randint(1, 25) for _ in range(k))
            if not set(x).isdisjoint(y):
                continue
            if oracles.canonical(x, shift) == oracles.canonical(y, shift):
                continue
            pair = SolutionPair(x, y)
            f = self.trimmed(
                a - b
                for a, b in zip(oracles.expand_shifted(pair.x), oracles.expand_shifted(pair.y))
            )
            _, remainder = self.sympy_div(f, m.coeffs)
            message = f"{m.poly} does not divide {Poly(f)} (remainder {Poly(remainder)})"
            with pytest.raises(NotASolutionError) as info:
                verify_witness(pair, m, 25)
            assert str(info.value) == message
            checked += 1

    def test_non_solution_message_literal(self):
        with pytest.raises(NotASolutionError) as info:
            verify_witness(SolutionPair((1, 4), (2, 6)), HALF_M, 6)
        assert str(info.value) == "2t - 1 does not divide -3t - 8 (remainder -19/2)"

    @pytest.mark.parametrize("text", SHIFTS)
    def test_diagonal_and_shared_value_pairs_rejected(self, text):
        m = minimal_polynomial_for(parse_shift(text))
        d = m.degree
        with pytest.raises(PreconditionViolationError, match="^diagonal after cancellation$"):
            verify_witness(SolutionPair((2, 3, 5), (5, 3, 2)), m, 9)
        # sharing all but d values leaves a pair with k = d
        shared = tuple(range(20, 23))
        pair = SolutionPair(shared + tuple(range(1, d + 1)), shared + tuple(range(6, 6 + d)))
        expected = f"^k={d} must exceed the minimal-polynomial degree d={d}$"
        with pytest.raises(PreconditionViolationError, match=expected):
            verify_witness(pair, m, 30)

    @pytest.mark.parametrize("text", SHIFTS)
    def test_synthetic_multiples_factor_in_the_integers(self, text):
        m = minimal_polynomial_for(parse_shift(text))
        for _ in range(30):
            psi = [rng.randint(-10**20, 10**20) for _ in range(rng.randint(1, 3))]
            psi = self.trimmed(psi) or [1]
            f = [int(c) for c in oracles.poly_mul(list(map(Fraction, m.coeffs)), psi)]
            quotient, remainder = self.sympy_div(f, m.coeffs)
            assert not any(remainder) and self.trimmed(quotient) == psi
            got = factor_out_minpoly(Poly(f), m)
            assert got.coeffs == tuple(psi)
            assert all(type(c) is int for c in got.coeffs)


def _report(k, X, shift, nondiag):
    from shiftprod import diagonal_count_exact

    t = diagonal_count_exact(k, X)
    return CountReport(
        k=k, X=X, shift=shift, mean_value=t + nondiag, diagonal=t,
        distinct_products=1, elapsed=0.0,
    )


class TestExponentFit:
    def test_exact_power_law(self):
        shift = Rational(1, 2)
        reports = [_report(2, X, shift, 4 * X * X) for X in (50, 100, 200)]
        fit = fit_growth_exponent(reports)
        assert not fit.zero_count
        assert abs(fit.alpha - 2.0) < 1e-9

    def test_all_zero_marker(self):
        shift = Transcendental()
        reports = [_report(2, X, shift, 0) for X in (50, 100, 200)]
        fit = fit_growth_exponent(reports)
        assert fit.zero_count and fit.alpha is None

    def test_mixed_zero_marker(self):
        shift = Rational(1, 2)
        reports = [_report(2, 50, shift, 0), _report(2, 100, shift, 8),
                   _report(2, 200, shift, 20)]
        assert fit_growth_exponent(reports).zero_count

    def test_insufficient_data(self):
        shift = Rational(1, 2)
        with pytest.raises(InsufficientDataError):
            fit_growth_exponent([_report(2, 50, shift, 8), _report(2, 100, shift, 10)])
        with pytest.raises(InsufficientDataError):
            fit_growth_exponent(
                [_report(2, 100, shift, 8), _report(2, 50, shift, 12),
                 _report(2, 200, shift, 10)]
            )

    def test_mismatched_reports_rejected(self):
        with pytest.raises(ValueError):
            fit_growth_exponent(
                [_report(2, 50, Rational(1, 2), 8), _report(3, 100, Rational(1, 2), 8),
                 _report(2, 200, Rational(1, 2), 8)]
            )

    def test_reference_exponent(self):
        assert reference_exponent(3, Algebraic(SQRT2_M)) == 2
        assert reference_exponent(2, Rational(1, 2)) == 2
        assert reference_exponent(4, Transcendental()) is None
