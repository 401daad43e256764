"""The array backend against the dict backend, and which backend settles a cell.

Cells below the array backend's size threshold take the dict backend, the
reference.  Lowering the threshold to 0 forces the array backend onto every
cell it can settle exactly; a spy on its enumeration shows whether it ran.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

import shiftprod
from shiftprod import (
    Algebraic,
    CapacityError,
    MinimalPolynomial,
    Rational,
    Transcendental,
    build_product_table,
    count_mean_value,
    find_nondiagonal_witnesses,
    shifted_product,
)
from shiftprod import counting

np = pytest.importorskip("numpy")

TRANS = Transcendental()
SQRT2 = Algebraic(MinimalPolynomial([-2, 0, 1]))
CUBIC = Algebraic(MinimalPolynomial([-1, -1, 0, 1]))
HALF = Rational(1, 2)
ZERO_FACTOR = Rational(-3, 1)  # the factor 3 + theta vanishes
TINY = Rational(1, 10**9)  # keys (q*X + p)^2 reach int64 at X = 4


def settle(k, X, shift, workers=1):
    """The cell's report without its timing, and its witnesses."""
    report = count_mean_value(k, X, shift, workers=workers)
    witnesses = find_nondiagonal_witnesses(k, X, shift, workers=workers)
    return dataclasses.replace(report, elapsed=0.0), witnesses


class ArrayRuns(list):
    """The cells, as (k, X), whose multisets the array backend enumerated."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.monkeypatch = monkeypatch
        enumerate_rows = counting._enumerate_rows

        def spy(np_, keyer, k, X):
            self.append((k, X))
            return enumerate_rows(np_, keyer, k, X)

        monkeypatch.setattr(counting, "_enumerate_rows", spy)

    def force(self):
        """Send every cell the array backend can settle exactly to it."""
        self.monkeypatch.setattr(counting, "_ARRAY_MIN_MULTISETS", 0)


@pytest.fixture
def array_runs(monkeypatch):
    return ArrayRuns(monkeypatch)


def assert_backends_agree(array_runs, cells):
    expected = {cell: settle(*cell) for cell in cells}
    assert array_runs == [], "small cells must take the dict backend by default"
    array_runs.force()
    for cell in cells:
        before = len(array_runs)
        assert settle(*cell) == expected[cell], cell
        assert len(array_runs) == before + 2, f"array backend skipped {cell}"


def test_oracle_grid(array_runs):
    cells = [(k, X, shift) for shift in (SQRT2, TRANS, HALF) for k in (2, 3) for X in range(1, 13)]
    assert_backends_agree(array_runs, cells)


def test_one_coordinate_stays_on_dict_backend(array_runs):
    array_runs.force()
    for shift in (SQRT2, TRANS, HALF):
        for X in range(1, 13):
            report, witnesses = settle(1, X, shift)
            assert report.mean_value == report.diagonal == X and witnesses == []
    assert array_runs == []


def test_cubic_and_zero_factor_cells(array_runs):
    assert_backends_agree(array_runs, [(3, 30, CUBIC), (2, 6, ZERO_FACTOR)])
    report, _ = settle(2, 6, ZERO_FACTOR)
    assert report.nondiagonal == 120


def test_keys_alike_in_their_low_bits(array_runs):
    # the witness search's low-bit bitmap passes 13 rows here whose keys
    # collide with no other; only its exact comparison leaves them out
    assert_backends_agree(array_runs, [(3, 60, HALF)])


def test_int64_edge_transcendental_k4(array_runs):
    # the largest key magnitude (box - 1)/2 must fit in int64, not the box
    keyers = {X: counting._keyer_for(4, X, TRANS) for X in (40, 41)}
    box = {X: kr.strides[-1] * (2 * kr.bounds[-1] + 1) for X, kr in keyers.items()}
    assert box[40] >= 2**63 and (box[40] - 1) // 2 < 2**63 <= (box[41] - 1) // 2
    assert_backends_agree(array_runs, [(4, 40, TRANS)])
    report = count_mean_value(4, 41, TRANS)
    assert report.mean_value == report.diagonal
    assert array_runs == [(4, 40)] * 2, "keys over int64 must take the dict backend"


def test_int64_edge_rational(array_runs):
    assert counting._keyer_for(2, 3, TINY).fits_int64
    assert not counting._keyer_for(2, 4, TINY).fits_int64
    assert_backends_agree(array_runs, [(2, 3, TINY)])
    count_mean_value(2, 4, TINY)
    assert array_runs == [(2, 3)] * 2, "keys over int64 must take the dict backend"


def test_array_runs_in_process_at_any_worker_count(array_runs):
    expected = settle(3, 40, SQRT2)
    array_runs.force()
    assert settle(3, 40, SQRT2, workers=2) == expected
    assert array_runs == [(3, 40)] * 2


def test_array_table_lookups(array_runs):
    k, X = 2, 30
    shifts = (SQRT2, HALF, TRANS)
    references = [build_product_table(k, X, shift) for shift in shifts]
    array_runs.force()
    for shift, reference in zip(shifts, references):
        table = build_product_table(k, X, shift)
        assert isinstance(table._freq, counting._SortedFreq)
        assert table.distinct_products == reference.distinct_products
        assert table.total_ordered_tuples() == X**k
        assert table.mean_value() == reference.mean_value()
        for a in range(1, X + 1):
            for b in range(a, X + 2):
                nu = shifted_product((a, b), shift)
                assert table.ordered_count(nu) == reference.ordered_count(nu)
        if shift == HALF:  # a rational key beyond int64 cannot be in the table
            assert table.ordered_count(shifted_product((10**10, 10**10), HALF)) == 0


def test_sum_of_squares_overflow_guard():
    def freq(weights):
        keys = np.arange(len(weights), dtype=np.int64)
        return counting._SortedFreq(keys, np.array(weights, dtype=np.int64))

    assert freq([2**40, 3]).sum_of_squares() == 2**80 + 9  # past int64: Python ints
    assert freq([5, 1, 7]).sum_of_squares() == 75


def test_bookkeeping_check_catches_lost_weight(array_runs, monkeypatch):
    spy = counting._enumerate_rows

    def lose_one(np_, keyer, k, X):
        keys, weights, members = spy(np_, keyer, k, X)
        weights[-1] -= 1
        return keys, weights, members

    array_runs.force()
    monkeypatch.setattr(counting, "_enumerate_rows", lose_one)
    with pytest.raises(RuntimeError, match="bookkeeping"):
        build_product_table(3, 10, SQRT2)


def test_without_numpy_falls_back_to_dict(array_runs, monkeypatch):
    expected = settle(3, 40, SQRT2)
    array_runs.force()
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert settle(3, 40, SQRT2) == expected
    assert array_runs == []


def test_capacity_guard_per_backend(monkeypatch):
    # 10.7M multisets: about 0.35 GiB on the array backend, 1 GiB at 96 B each
    report = count_mean_value(3, 400, SQRT2, memory_budget_mb=512)
    assert report.nondiagonal == 6246
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(CapacityError):
        count_mean_value(3, 400, SQRT2, memory_budget_mb=512)


def test_numpy_stays_unimported_off_the_array_backend():
    code = textwrap.dedent(
        """
        import sys
        import shiftprod.cli
        for name in ("numpy", "concurrent.futures.process", "multiprocessing"):
            assert name not in sys.modules, f"import shiftprod.cli loaded {name}"
        from shiftprod import Rational, Transcendental, count_mean_value
        count_mean_value(2, 400, Rational(1, 2))
        assert "numpy" not in sys.modules, "a rat-k2 cell loaded numpy"
        count_mean_value(4, 100, Transcendental())
        assert "numpy" not in sys.modules, "a trans-k4 cell loaded numpy"
        """
    )
    src = os.path.dirname(os.path.dirname(shiftprod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
