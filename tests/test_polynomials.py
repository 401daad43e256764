"""Exact polynomial arithmetic, symmetric functions, and minimal polynomials."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shiftprod import (
    MinimalPolynomial,
    Poly,
    elementary_symmetric,
    norm_factor,
    reduce_mod_minpoly,
    shift_product_poly,
)

rng = random.Random(20260810)


def rand_poly(max_deg=6, bound=30, rational=False):
    deg = rng.randint(0, max_deg)
    if rational:
        coeffs = [
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(deg + 1)
        ]
    else:
        coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    return Poly(coeffs)


class TestArithmetic:
    def test_two_term_expansion(self):
        assert Poly([1, 1]) * Poly([2, 1]) == Poly([2, 3, 1])

    def test_additive_identity(self):
        p = Poly([3, 0, -2, 7])
        assert p + Poly() == p
        assert Poly() + p == p

    def test_hand_expansion(self):
        # (t^2 - 2)(3t + 1) = 3t^3 + t^2 - 6t - 2
        assert Poly([-2, 0, 1]) * Poly([1, 3]) == Poly([-2, -6, 1, 3])

    def test_mul_matches_distributed_sum(self):
        for _ in range(50):
            a, b = rand_poly(), rand_poly()
            # independent re-multiplication: evaluate both sides at several points
            for v in (-3, -1, 0, 1, 2, 5):
                assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
                assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)
                assert (a - b).evaluate(v) == a.evaluate(v) - b.evaluate(v)

    def test_zero_polynomial_degree(self):
        assert Poly().degree == float("-inf")
        assert Poly([0, 0]).degree == float("-inf")
        assert Poly([5]).degree == 0

    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])

    def test_fraction_coefficients_normalised_to_int(self):
        p = Poly([Fraction(4, 2), Fraction(1, 3)])
        assert p.coeffs == (2, Fraction(1, 3))
        assert not p.is_integral
        assert Poly([Fraction(6, 3)]).is_integral

    def test_scalar_multiplication(self):
        assert 3 * Poly([1, 2]) == Poly([3, 6])
        assert Poly([1, 2]) * Fraction(1, 2) == Poly([Fraction(1, 2), 1])


class TestDivmod:
    def test_exact_quotient(self):
        q, r = divmod(Poly([-2, -6, 1, 3]), Poly([-2, 0, 1]))
        assert q.coeffs == (1, 3) and not r
        assert all(type(c) is int for c in q.coeffs)
        assert q * Poly([-2, 0, 1]) + r == Poly([-2, -6, 1, 3])

    def test_with_remainder(self):
        q, r = divmod(Poly([1, 0, 1]), Poly([-2, 0, 1]))
        assert q == Poly([1]) and r == Poly([3])

    def test_zero_numerator(self):
        q, r = divmod(Poly(), Poly([-2, 0, 1]))
        assert not q and not r

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1]), Poly())

    def test_exact_division_stays_integral(self):
        # (2t - 1)(t + 3) = 2t^2 + 5t - 3, by the non-monic 2t - 1 and the monic t + 3
        product = Poly([-3, 5, 2])
        for div, expected in ((Poly([-1, 2]), (3, 1)), (Poly([3, 1]), (-1, 2))):
            q, r = divmod(product, div)
            assert q.coeffs == expected and not r
            assert all(type(c) is int for c in q.coeffs)

    def test_inexact_division_hand_values(self):
        # t^2 + 1 = (2t - 1)(t/2 + 1/4) + 5/4
        q, r = divmod(Poly([1, 0, 1]), Poly([-1, 2]))
        assert q.coeffs == (Fraction(1, 4), Fraction(1, 2))
        assert r.coeffs == (Fraction(5, 4),)
        # 3t^2 + 2 = (2t^2 + 1) * 3/2 + 1/2: the quotient is 3/2, not the floor 1
        q, r = divmod(Poly([2, 0, 3]), Poly([1, 0, 2]))
        assert q.coeffs == (Fraction(3, 2),) and r.coeffs == (Fraction(1, 2),)

    def test_reconstruction_property(self):
        for _ in range(200):
            num = rand_poly(rational=rng.random() < 0.5)
            # a third of the divisors are integer polynomials whose leading
            # coefficient is not +-1
            if rng.random() < 1 / 3:
                div = Poly([rng.randint(-30, 30) for _ in range(rng.randint(0, 4))]
                           + [rng.choice([-1, 1]) * rng.randint(2, 30)])
            else:
                div = rand_poly(rational=rng.random() < 0.5)
            if not div:
                continue
            q, r = divmod(num, div)
            assert div * q + r == num
            assert r.degree < div.degree
            if num.is_integral and div.is_integral:
                exact_q, exact_r = divmod(num * div, div)
                assert exact_q == num and not exact_r
                assert exact_q.is_integral


class TestElementarySymmetric:
    def test_known_values(self):
        assert elementary_symmetric((1, 2, 3)) == (1, 6, 11, 6)
        assert elementary_symmetric((5,)) == (1, 5)
        assert elementary_symmetric((2, 2)) == (1, 4, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elementary_symmetric(())

    def test_matches_repeated_poly_mul(self):
        # independent path: the oracle multiplies out prod(t + v) factor by
        # factor; its coefficients read off in reverse are the vector
        for _ in range(100):
            vals = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
            sig = elementary_symmetric(vals)
            assert sig == tuple(reversed(oracles.expand_shifted(vals)))
            assert shift_product_poly(vals).coeffs == tuple(oracles.expand_shifted(vals))
        assert shift_product_poly(()) == Poly([1])

    def test_permutation_invariance(self):
        for _ in range(50):
            vals = [rng.randint(1, 30) for _ in range(rng.randint(2, 6))]
            shuffled = vals[:]
            rng.shuffle(shuffled)
            assert elementary_symmetric(vals) == elementary_symmetric(shuffled)


class TestReduceModMinpoly:
    def test_theta_squared_is_two(self):
        m = MinimalPolynomial([-2, 0, 1])
        assert reduce_mod_minpoly(Poly([0, 0, 1]), m) == (2, 0)

    def test_shifted_product_sqrt2(self):
        # (1 + sqrt2)(3 + sqrt2) = 5 + 4 sqrt2
        m = MinimalPolynomial([-2, 0, 1])
        p = Poly([1, 1]) * Poly([3, 1])
        assert reduce_mod_minpoly(p, m) == (5, 4)

    def test_low_degree_padded(self):
        m = MinimalPolynomial([-1, -1, 0, 1])
        assert reduce_mod_minpoly(Poly([7, 2]), m) == (7, 2, 0)

    def test_evaluation_preserved_for_quadratic_root(self):
        # against direct arithmetic in Q(sqrt5): theta^2 = 5
        m = MinimalPolynomial([-5, 0, 1])
        for _ in range(50):
            p = rand_poly(max_deg=7)
            a, b = reduce_mod_minpoly(p, m)
            # evaluate p at sqrt5 symbolically: sum c_j * 5^(j//2) * sqrt5^(j%2)
            ev_a = sum(c * 5 ** (j // 2) for j, c in enumerate(p.coeffs) if j % 2 == 0)
            ev_b = sum(c * 5 ** (j // 2) for j, c in enumerate(p.coeffs) if j % 2 == 1)
            assert (a, b) == (ev_a, ev_b)


class TestNormFactor:
    def test_examples(self):
        m = MinimalPolynomial([-2, 0, 1])
        assert norm_factor(1, m) == -1
        assert norm_factor(2, m) == 2
        assert norm_factor(0, m) == -2  # the constant term

    def test_constant_term_generic(self):
        m = MinimalPolynomial([7, 3, 0, 1])
        assert norm_factor(0, m) == 7


IRREDUCIBLE = {
    "t^4+1": [1, 0, 0, 0, 1],  # reducible modulo every prime
    "t^4-2": [-2, 0, 0, 0, 1],
    "t^5+t^2+1": [1, 0, 1, 0, 0, 1],
    "t^5-t-1": [-1, -1, 0, 0, 0, 1],
    "t^10-t-1": [-1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
}
REDUCIBLE = {
    "(t^2+1)(t^3+t+1)": ([1, 0, 1], [1, 1, 0, 1]),
    "(t^2+1)(t^2+2)": ([1, 0, 1], [2, 0, 1]),
    "t^4+t^2+1": ([1, 1, 1], [1, -1, 1]),
    "(t^4+1)(t^4+t+1)": ([1, 0, 0, 0, 1], [1, 1, 0, 0, 1]),
}


class TestMinimalPolynomial:
    def test_content_divided_out(self):
        m = MinimalPolynomial([-4, 0, 2])
        assert m.coeffs == (-2, 0, 1)

    def test_rational_root_rejected(self):
        with pytest.raises(ValueError):
            MinimalPolynomial([-1, 0, 1])  # t^2 - 1 = (t-1)(t+1)
        with pytest.raises(ValueError):
            MinimalPolynomial([-4, 0, 1])  # roots +-2
        with pytest.raises(ValueError):
            MinimalPolynomial([0, 1, 1])  # root 0
        with pytest.raises(ValueError):
            MinimalPolynomial([-1, -1, 0, 2])  # 2t^3 - t - 1 has root 1

    def test_non_monic_rational_root_rejected(self):
        with pytest.raises(ValueError):
            MinimalPolynomial([-1, 0, 4])  # roots +-1/2

    def test_degree_one_accepted(self):
        m = MinimalPolynomial([-1, 2])  # theta = 1/2
        assert m.degree == 1

    def test_irreducible_accepted(self):
        assert MinimalPolynomial([-2, 0, 1]).degree == 2
        assert MinimalPolynomial([-1, -1, 0, 1]).degree == 3
        assert MinimalPolynomial([-1, 0, 2]).degree == 2  # theta = sqrt(1/2)
        assert MinimalPolynomial([1, 0, 1]).degree == 2  # theta = i

    def test_quartic_quadratic_split_rejected(self):
        # (t^2 + 1)(t^2 + 2) = t^4 + 3t^2 + 2: no rational root, still reducible
        with pytest.raises(ValueError):
            MinimalPolynomial([2, 0, 3, 0, 1])
        # (t^2 - 2)(t^2 - 3) = t^4 - 5t^2 + 6
        with pytest.raises(ValueError):
            MinimalPolynomial([6, 0, -5, 0, 1])
        # (t^2 + t + 1)(t^2 - t + 1) = t^4 + t^2 + 1
        with pytest.raises(ValueError):
            MinimalPolynomial([1, 0, 1, 0, 1])

    def test_irreducible_quartic_accepted(self):
        assert MinimalPolynomial([1, 0, 0, 0, 1]).degree == 4  # t^4 + 1
        assert MinimalPolynomial([-2, 0, 0, 0, 1]).degree == 4  # t^4 - 2

    @pytest.mark.parametrize("coeffs", IRREDUCIBLE.values(), ids=IRREDUCIBLE.keys())
    def test_irreducible_at_any_degree_accepted_without_warning(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MinimalPolynomial(coeffs).coeffs == tuple(coeffs)

    @pytest.mark.parametrize("factors", REDUCIBLE.values(), ids=REDUCIBLE.keys())
    def test_reducible_at_any_degree_rejected_naming_a_factor(self, factors):
        g, h = (Poly(cs) for cs in factors)
        with pytest.raises(ValueError, match="reducible") as info:
            MinimalPolynomial((g * h).coeffs)
        assert f"({g})" in str(info.value) or f"({h})" in str(info.value)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            MinimalPolynomial([])
        with pytest.raises(ValueError):
            MinimalPolynomial([3])  # constant
        with pytest.raises(ValueError):
            MinimalPolynomial([1, 2, 0])  # stated leading coefficient is zero
        with pytest.raises(ValueError):
            MinimalPolynomial([Fraction(1, 2), 1])  # non-integer


@st.composite
def primitive_polys(draw):
    """Primitive integer polynomials of degree 2-6, half of them a product of two."""
    def poly(degree):
        coeffs = draw(st.lists(st.integers(-12, 12), min_size=degree, max_size=degree))
        return Poly(coeffs + [draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))])

    d = draw(st.integers(2, 6))
    if draw(st.booleans()):
        e = draw(st.integers(1, d // 2))
        f = poly(e) * poly(d - e)
    else:
        f = poly(d)
    return Poly([c // f.content() for c in f.coeffs])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(f=primitive_polys())
def test_irreducibility_matches_sympy(f):
    # sympy is a test oracle only
    sympy = pytest.importorskip("sympy")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("t")))
    reducible = sum(multiplicity for _, multiplicity in factors) > 1
    try:
        MinimalPolynomial(f.coeffs)
    except ValueError as err:
        assert reducible and "reducible" in str(err), f
    else:
        assert not reducible, f
