"""Shift grammar, canonical products, and their equality semantics."""

import random
from fractions import Fraction

import pytest

from shiftprod import (
    Algebraic,
    MinimalPolynomial,
    Poly,
    Rational,
    Transcendental,
    elementary_symmetric,
    format_shift,
    minimal_polynomial_for,
    parse_shift,
    shifted_product,
)

rng = random.Random(11235)

SQRT2 = Algebraic(MinimalPolynomial([-2, 0, 1]))
CUBIC = Algebraic(MinimalPolynomial([-1, -1, 0, 1]))
HALF = Rational(1, 2)
ALL_SHIFTS = [Transcendental(), SQRT2, CUBIC, HALF, Rational(3, 1), Rational(-2, 5)]


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["transcendental", "minpoly:-2,0,1", "minpoly:-1,-1,0,1", "rational:1/2",
         "rational:-2/5", "rational:5/1"],
    )
    def test_round_trip(self, text):
        assert format_shift(parse_shift(text)) == text

    @pytest.mark.parametrize(
        "text, canonical",
        [("minpoly:2,0,-1", "minpoly:-2,0,1"), ("minpoly:4,0,-2", "minpoly:-2,0,1"),
         ("minpoly:1,1,0,-1", "minpoly:-1,-1,0,1"), ("minpoly:1,0,-2", "minpoly:-1,0,2")],
    )
    def test_one_spelling_per_shift(self, text, canonical):
        # a negative leading coefficient is divided out with the content
        assert parse_shift(text) == parse_shift(canonical)
        assert format_shift(parse_shift(text)) == canonical

    def test_bare_integer_rational(self):
        assert parse_shift("rational:5") == Rational(5, 1)
        assert format_shift(Rational(5, 1)) == "rational:5/1"

    def test_rational_normalisation(self):
        assert parse_shift("rational:2/4") == Rational(1, 2)
        assert parse_shift("rational:1/-2") == Rational(-1, 2)

    @pytest.mark.parametrize(
        "text",
        ["minpoly:", "minpoly:1,a", "minpoly:-1,0,1", "rational:1/0", "rational:x",
         "sqrt2", "", "minpoly:3"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_shift(text)


class TestDescriptors:
    def test_algebraic_needs_degree_two(self):
        with pytest.raises(ValueError):
            Algebraic(MinimalPolynomial([-1, 2]))

    def test_rational_validation(self):
        with pytest.raises(ValueError):
            Rational(2, 4)
        with pytest.raises(ValueError):
            Rational(1, 0)
        with pytest.raises(ValueError):
            Rational(1, -2)
        assert Rational(0, 1).p == 0

    @pytest.mark.parametrize("p, q", [(True, 2), (1, True), (False, 1)])
    def test_rational_rejects_bool(self, p, q):
        # bool is an int subclass; Rational(True, 2) would format as
        # "rational:True/2", which parse_shift rejects
        with pytest.raises(ValueError):
            Rational(p, q)

    def test_minimal_polynomial_for(self):
        assert minimal_polynomial_for(SQRT2) is SQRT2.minpoly
        m = minimal_polynomial_for(HALF)
        assert m.coeffs == (-1, 2) and m.degree == 1
        with pytest.raises(ValueError):
            minimal_polynomial_for(Transcendental())

    def test_shifts_are_hashable(self):
        assert len({s for s in ALL_SHIFTS}) == len(ALL_SHIFTS)


class TestShiftedProduct:
    def test_algebraic_example(self):
        assert shifted_product((1, 3), SQRT2).coords == (5, 4)

    def test_transcendental_example(self):
        assert shifted_product((1, 2, 3), Transcendental()).coords == (6, 11, 6)

    def test_rational_example(self):
        assert shifted_product((1, 7), HALF).coords == 45

    def test_non_monic_coords_are_exact_rationals(self):
        shift = Algebraic(MinimalPolynomial([-1, 0, 2]))  # theta^2 = 1/2
        nu = shifted_product((1, 3), shift)
        # (t+1)(t+3) = t^2 + 4t + 3 == 1/2 + 4t + 3
        assert nu.coords == (Fraction(7, 2), 4)

    def test_permutation_invariance(self):
        for shift in ALL_SHIFTS:
            for _ in range(30):
                vals = [rng.randint(1, 50) for _ in range(rng.randint(1, 5))]
                shuffled = vals[:]
                rng.shuffle(shuffled)
                assert shifted_product(vals, shift) == shifted_product(shuffled, shift)

    def test_equal_multisets_equal_products(self):
        for shift in ALL_SHIFTS:
            for _ in range(20):
                vals = sorted(rng.randint(1, 30) for _ in range(4))
                other = vals[:]
                rng.shuffle(other)
                a = shifted_product(vals, shift)
                b = shifted_product(other, shift)
                assert a == b and hash(a) == hash(b)

    def test_usable_as_dict_key(self):
        table = {}
        for x in range(1, 8):
            for y in range(x, 8):
                nu = shifted_product((x, y), SQRT2)
                table[nu] = table.get(nu, 0) + 1
        assert sum(table.values()) == 28

    def test_cross_shift_products_differ(self):
        a = shifted_product((1, 3), SQRT2)
        b = shifted_product((1, 3), Algebraic(MinimalPolynomial([1, 0, 1])))
        assert a != b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            shifted_product((), SQRT2)
        with pytest.raises(ValueError):
            shifted_product((0, 2), SQRT2)
        with pytest.raises(ValueError):
            shifted_product((1, -3), HALF)


class TestEqualityIsDivisibility:
    """Algebraic canonical equality <=> minimal polynomial divides the difference."""

    def equal_pairs(self):
        # genuine collisions for theta = sqrt2, k = 3 (checked by exact arithmetic
        # in Q(sqrt2): both sides expand to the same a + b*sqrt2)
        return [((1, 1, 10), (2, 3, 3)), ((3, 11, 28), (4, 5, 45))]

    @staticmethod
    def difference(x, y):
        # prod(t + x_i) - prod(t + y_i), from the two symmetric vectors
        sx, sy = elementary_symmetric(x), elementary_symmetric(y)
        return Poly(a - b for a, b in zip(reversed(sx), reversed(sy)))

    def test_equal_iff_divisible(self):
        m = SQRT2.minpoly
        for x, y in self.equal_pairs():
            assert shifted_product(x, SQRT2) == shifted_product(y, SQRT2)
            diff = self.difference(x, y)
            assert not divmod(diff, m.poly)[1]
        for _ in range(50):
            x = tuple(rng.randint(1, 25) for _ in range(3))
            y = tuple(rng.randint(1, 25) for _ in range(3))
            diff = self.difference(x, y)
            divisible = not divmod(diff, m.poly)[1] if diff else True
            assert (shifted_product(x, SQRT2) == shifted_product(y, SQRT2)) == divisible
