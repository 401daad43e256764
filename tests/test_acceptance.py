"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Heavy engine results are cached per cell so later criteria reuse
earlier work.
"""

import json
import random
import time

import oracles
from shiftprod import (
    Algebraic,
    MinimalPolynomial,
    Poly,
    Rational,
    Transcendental,
    count_mean_value,
    diagonal_count_exact,
    factor_out_minpoly,
    find_nondiagonal_witnesses,
    fit_growth_exponent,
    minimal_polynomial_for,
    verify_witness,
)
from shiftprod import counting
from shiftprod.cli import main

TRANS = Transcendental()
SQRT2 = Algebraic(MinimalPolynomial([-2, 0, 1]))
CUBIC = Algebraic(MinimalPolynomial([-1, -1, 0, 1]))  # t^3 - t - 1, degree 3
HALF = Rational(1, 2)

PAUCITY_GRID = (50, 100, 200, 400)
RATIONAL_GRID = (7, 50, 100, 200, 400)

_CACHE: dict = {}


def report_for(k, X, shift):
    key = ("report", k, X, shift)
    if key not in _CACHE:
        _CACHE[key] = count_mean_value(k, X, shift)
    return _CACHE[key]


def witnesses_for(k, X, shift):
    key = ("witness", k, X, shift)
    if key not in _CACHE:
        _CACHE[key] = list(find_nondiagonal_witnesses(k, X, shift))
    return _CACHE[key]


def verified_reports(k, X, shift):
    m = minimal_polynomial_for(shift)
    return [verify_witness(pair, m, X) for pair in witnesses_for(k, X, shift)]


def test_criterion_1_transcendental_exactness():
    t0 = time.perf_counter()
    cells = 0
    for k in range(1, 5):
        for X in range(1, 31):
            r = report_for(k, X, TRANS)
            assert r.mean_value == r.diagonal, (k, X)
            cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"
    print(f"\nCRITERION 1 PASS: M = T at all {cells} transcendental cells "
          f"(k <= 4, X <= 30) in {elapsed:.2f}s")


def test_criterion_2_high_degree_exactness():
    cells = 0
    for k in (2, 3):
        for X in range(1, 31):
            r = report_for(k, X, CUBIC)
            assert r.mean_value == r.diagonal, (k, X)
            cells += 1
    print(f"\nCRITERION 2 PASS: M = T at all {cells} cells for the degree-3 "
          f"shift (k in {{2,3}}, X <= 30)")


def test_criterion_3_diagonal_asymptotic_and_exactness():
    for X in (10, 50, 100, 200):
        t3 = diagonal_count_exact(3, X)
        assert abs(t3 - 6 * X**3) <= 9 * X**2, X
    checked = 0
    for k in (1, 2, 3):
        for X in range(1, 13):
            assert diagonal_count_exact(k, X) == oracles.diagonal_count(k, X), (k, X)
            checked += 1
    print(f"\nCRITERION 3 PASS: |T_3(X) - 6X^3| <= 9X^2 on the grid; exact "
          f"diagonal count matches brute force at {checked} cells")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    cells = 0
    for shift in (SQRT2, TRANS, HALF):
        for k in (1, 2, 3):
            for X in range(1, 13):
                r = report_for(k, X, shift)
                assert r.mean_value == oracles.mean_value(k, X, shift), (shift, k, X)
                cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s, budget 60s"
    print(f"\nCRITERION 4 PASS: hash-based M equals brute-force pair count at "
          f"{cells} cells (k <= 3, X <= 12, three shift variants) in {elapsed:.1f}s")


def test_criterion_5_paucity_upper_bound():
    reports = [report_for(3, X, SQRT2) for X in PAUCITY_GRID]
    elapsed = sum(r.elapsed for r in reports)
    assert elapsed < 900.0, f"single-threaded runtime {elapsed:.0f}s over budget"
    nondiag = {r.X: r.nondiagonal for r in reports}
    if all(v == 0 for v in nondiag.values()):
        print("\nCRITERION 5 PASS (vacuous): no non-diagonal solutions found")
        return
    # nondiag(X) <= C * X^2.3 with C = max(1, nondiag(50) / 50^2.3), checked
    # exactly in integers: when C > 1 the bound is
    # nondiag(X)^10 * 50^23 <= nondiag(50)^10 * X^23, else nondiag(X)^10 <= X^23.
    base = nondiag[50]
    calibrated = base**10 > 50**23  # C > 1 iff nondiag(50) > 50^2.3
    for X in PAUCITY_GRID:
        if calibrated:
            assert nondiag[X] ** 10 * 50**23 <= base**10 * X**23, X
        else:
            assert nondiag[X] ** 10 <= X**23, X
    print(f"\nCRITERION 5 PASS: nondiag {nondiag} within C*X^2.3 "
          f"(C calibrated at X=50), single-threaded {elapsed:.1f}s")


def test_criterion_6_identity_suite():
    total = 0
    for X in PAUCITY_GRID:
        reports = verified_reports(3, X, SQRT2)
        for rep in reports:
            assert rep.minpoly.poly * rep.psi == rep.f
            assert rep.psi.is_integral
            assert all(rep.lemma_ok), rep.pair
            assert rep.norm_identity_ok, rep.pair
            assert rep.psi_degree_ok, rep.pair
        total += len(reports)
    assert total > 0, "expected non-diagonal witnesses for sqrt2, k=3 at X <= 400"
    rational_total = 0
    for X in RATIONAL_GRID:
        reports = verified_reports(2, X, HALF)
        assert all(rep.all_ok for rep in reports)
        rational_total += len(reports)
    assert rational_total > 0

    rng = random.Random(2468)
    pool = [
        SQRT2.minpoly,
        CUBIC.minpoly,
        MinimalPolynomial([-1, 2]),
        MinimalPolynomial([1, 0, 1]),
        MinimalPolynomial([-1, 0, 2]),
        MinimalPolynomial([1, 0, 0, 0, 1]),
    ]
    synthetic = 0
    for _ in range(120):
        m = rng.choice(pool)
        deg = rng.randint(0, 3)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-5, -1, 1, 7])]
        psi = Poly(coeffs)
        f = m.poly * psi
        assert factor_out_minpoly(f, m) == psi
        synthetic += 1
    print(f"\nCRITERION 6 PASS: 100% of {total} algebraic + {rational_total} "
          f"rational witnesses verify all identities; {synthetic} synthetic "
          f"F = m*psi round-trips exact")


def test_criterion_7_rational_contrast(capsys):
    half_reports = [report_for(2, X, HALF) for X in RATIONAL_GRID]
    nondiag = [r.nondiagonal for r in half_reports]
    assert nondiag[0] >= 8
    assert all(b >= a for a, b in zip(nondiag, nondiag[1:])), nondiag
    fit = fit_growth_exponent(half_reports)
    assert not fit.zero_count and fit.alpha > 1.0
    grid = ",".join(map(str, RATIONAL_GRID))
    assert main([
        "contrast", "--k", "2", "--X-list", grid, "--format", "json",
        "--rational-shift", "rational:1/2", "--algebraic-shift", "minpoly:-2,0,1",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["shift_rational_nondiag"] for r in rows] == nondiag
    assert all(r["shift_algebraic_nondiag"] == 0 for r in rows)
    print(f"\nCRITERION 7 PASS: rational nondiag {nondiag} nondecreasing with "
          f"alpha = {fit.alpha:.3f} > 1; sqrt2 k=2 column identically zero")


def _cli_outputs(capsys, tmp_path, workers, k, X, shift):
    """stdout of count, witness and lemma-check on the witnesses, timing cut."""
    cell = ("--k", str(k), "--X", str(X), "--shift", shift, "--workers", workers)
    assert main(["count", *cell]) == 0
    count = "".join(
        line.rsplit(",", 1)[0] + "\n" for line in capsys.readouterr().out.splitlines()
    )
    assert main(["witness", *cell]) == 0
    witnesses = capsys.readouterr().out
    path = tmp_path / f"witnesses-{k}-{X}-{workers}.json"
    path.write_text(witnesses)
    assert main(["lemma-check", "--shift", shift, "--X", str(X), "--in", str(path)]) == 0
    return count, witnesses, capsys.readouterr().out


def test_criterion_8_worker_determinism(capsys, tmp_path, monkeypatch):
    # --workers is accepted and ignored, so every worker count must print the
    # same bytes, on the dict backend and on the array backend alike
    enumerated = []
    enumerate_rows = counting._enumerate_rows

    def spy(np_, keyer, k, X):
        enumerated.append((k, X))
        return enumerate_rows(np_, keyer, k, X)

    def replay(cell):
        runs = {w: _cli_outputs(capsys, tmp_path, w, *cell) for w in ("1", "2", "8")}
        assert runs["1"] == runs["2"] == runs["8"], cell
        assert runs["1"][1] != "[]\n", f"no witnesses at {cell}"
        return sum(text.count("\n") for text in runs["1"])

    monkeypatch.setattr(counting, "_enumerate_rows", spy)
    n_lines = replay((3, 50, "minpoly:-2,0,1"))
    assert enumerated == []
    monkeypatch.setattr(counting, "_ARRAY_MIN_MULTISETS", 0)
    n_lines += replay((2, 30, "rational:1/2"))
    # per worker count: one enumeration for count, two for witness, whose
    # tie search enumerates again to pick the rows of the tied words
    assert enumerated == [(2, 30)] * 9
    print(f"\nCRITERION 8 PASS: count, witness and lemma-check print the same "
          f"{n_lines} lines at --workers 1, 2, 8 on a dict-backend and an "
          f"array-backend cell (timing fields excluded)")
