"""Rational control experiments and the side-by-side contrast table."""

import json
import random
from math import prod

import pytest

import oracles
from shiftprod import Rational, count_mean_value, shifted_product
from shiftprod.cli import main

rng = random.Random(5050)


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


def contrast(capsys, k, x_list, rational, algebraic):
    """Exit code and rows of the `contrast` command's JSON output."""
    code = main([
        "contrast", "--k", str(k), "--X-list", x_list, "--format", "json",
        "--rational-shift", rational, "--algebraic-shift", algebraic,
    ])
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else out


class TestContrastTable:
    def test_rational_vs_algebraic(self, capsys):
        code, rows = contrast(capsys, 2, "10,20,30", "rational:1/2", "minpoly:-2,0,1")
        assert code == 0
        assert [(r["X"], r["k"]) for r in rows] == [(10, 2), (20, 2), (30, 2)]
        assert all(r["shift_algebraic_nondiag"] == 0 for r in rows)  # degree d = k = 2
        rat = [r["shift_rational_nondiag"] for r in rows]
        assert all(v > 0 for v in rat)
        assert rat == sorted(rat)
        assert rat == [count_mean_value(2, X, Rational(1, 2)).nondiagonal for X in (10, 20, 30)]

    def test_identical_shifts_identical_columns(self, capsys):
        code, rows = contrast(capsys, 2, "5,10", "rational:1/2", "rational:1/2")
        assert code == 0 and len(rows) == 2
        assert all(r["shift_rational_nondiag"] == r["shift_algebraic_nondiag"] for r in rows)

    def test_k1_both_zero(self, capsys):
        code, rows = contrast(capsys, 1, "5,10", "rational:1/2", "minpoly:-2,0,1")
        assert code == 0 and len(rows) == 2
        assert all(r["shift_rational_nondiag"] == 0 == r["shift_algebraic_nondiag"] for r in rows)

    def test_grid_validation(self, capsys):
        for bad in ("10,10", "20,10", "", "0,10"):
            assert contrast(capsys, 2, bad, "rational:1/2", "minpoly:-2,0,1") == (1, ""), bad
