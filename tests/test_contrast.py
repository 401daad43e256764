"""Rational control experiments and the side-by-side contrast table."""

import random
from math import prod

import pytest

import oracles
from shiftprod import (
    Algebraic,
    MinimalPolynomial,
    Rational,
    contrast_table,
    count_mean_value,
    shifted_product,
)

rng = random.Random(5050)

SQRT2 = Algebraic(MinimalPolynomial([-2, 0, 1]))


class TestRationalCount:
    def test_half_shift_witness_cell(self):
        r = count_mean_value(2, 7, Rational(1, 2))
        assert r.nondiagonal >= 8
        assert r.mean_value == oracles.mean_value(2, 7, Rational(1, 2))

    def test_integer_shift_small_no_collisions(self):
        assert count_mean_value(2, 3, Rational(1, 1)).nondiagonal == 0

    def test_k1_trivial(self):
        r = count_mean_value(1, 9, Rational(1, 2))
        assert r.mean_value == r.diagonal == 9

    def test_not_reduced_rejected(self):
        with pytest.raises(ValueError):
            count_mean_value(2, 7, Rational(2, 4))

    def test_unit_shift_collides_from_five(self):
        # (1+1)(5+1) = (2+1)(3+1): non-diagonal solutions exist for all X >= 5
        for X in range(5, 13):
            assert count_mean_value(2, X, Rational(1, 1)).nondiagonal > 0
        assert count_mean_value(2, 4, Rational(1, 1)).nondiagonal == 0

    def test_monotone_in_x(self):
        values = [count_mean_value(2, X, Rational(1, 2)).nondiagonal for X in range(2, 26)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_canonical_product_is_plain_multiplication(self):
        for _ in range(50):
            p, q = rng.choice([(1, 2), (1, 1), (3, 5), (-2, 5)])
            vals = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
            nu = shifted_product(vals, Rational(p, q))
            assert nu.coords == prod(q * v + p for v in vals)


class TestContrastTable:
    def test_rational_vs_algebraic(self):
        rows = contrast_table(2, (10, 20, 30), Rational(1, 2), SQRT2)
        assert [r.X for r in rows] == [10, 20, 30]
        assert all(r.algebraic_nondiag == 0 for r in rows)  # degree d = k = 2
        rat = [r.rational_nondiag for r in rows]
        assert all(v > 0 for v in rat)
        assert rat == sorted(rat)

    def test_identical_shifts_identical_columns(self):
        rows = contrast_table(2, (5, 10), Rational(1, 2), Rational(1, 2))
        assert all(r.rational_nondiag == r.algebraic_nondiag for r in rows)

    def test_k1_both_zero(self):
        rows = contrast_table(1, (5, 10), Rational(1, 2), SQRT2)
        assert all(r.rational_nondiag == 0 == r.algebraic_nondiag for r in rows)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            contrast_table(2, (10, 10), Rational(1, 2), SQRT2)
        with pytest.raises(ValueError):
            contrast_table(2, (), Rational(1, 2), SQRT2)
