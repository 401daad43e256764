"""The array backend against the dict backend, and which backend settles a cell.

Cells below the array backend's size threshold take the dict backend, the
reference.  Lowering the threshold to 0 forces the array backend onto every
cell with k >= 2; a spy on its enumeration shows whether it ran.
"""

import dataclasses
import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from math import comb

import pytest

import oracles
import shiftprod
from shiftprod import (
    Algebraic,
    CapacityError,
    MinimalPolynomial,
    Rational,
    SolutionPair,
    Transcendental,
    build_product_table,
    count_mean_value,
    find_nondiagonal_witnesses,
    format_shift,
    representation_count,
    shifted_product,
)
from shiftprod import counting
from shiftprod.cli import main

np = pytest.importorskip("numpy")

TRANS = Transcendental()
SQRT2 = Algebraic(MinimalPolynomial([-2, 0, 1]))
CUBIC = Algebraic(MinimalPolynomial([-1, -1, 0, 1]))
HALF = Rational(1, 2)
ZERO_FACTOR = Rational(-3, 1)  # the factor 3 + theta vanishes
TINY = Rational(1, 10**9)  # keys (q*X + p)^2 reach int64 at X = 4
CUBE_ROOT2 = Algebraic(MinimalPolynomial([-2, 0, 0, 1]))
# keys beyond int64, but for CUBE_ROOT2's, which the tied-word test forces
WIDE_CELLS = [(4, 45, TRANS), (5, 12, TRANS), (4, 30, CUBE_ROOT2), (2, 8, TINY)]


def settle(k, X, shift):
    """The cell's report without its timing, and its witnesses."""
    report = count_mean_value(k, X, shift)
    witnesses = list(find_nondiagonal_witnesses(k, X, shift))
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
        """Send every cell with k >= 2 to the array backend."""
        self.monkeypatch.setattr(counting, "_ARRAY_MIN_MULTISETS", 0)

    def narrow(self, bits):
        """Keep `bits` low bits of each word and take every keyer beyond int64.

        Thousands of distinct products then share a word, so only the exact
        re-key of tied words can settle a cell.
        """
        mask = (1 << bits) - 1
        enumerate_rows = counting._enumerate_rows
        keyer_for = counting._keyer_for

        def narrowed_rows(np_, keyer, k, X):
            words, weights, members = enumerate_rows(np_, keyer, k, X)
            words &= mask
            return words, weights, members

        def wide_keyer(k, X, shift):
            keyer = keyer_for(k, X, shift)
            keyer.fits_int64 = False
            return keyer

        self.monkeypatch.setattr(counting, "_word", lambda key: key & mask)
        self.monkeypatch.setattr(counting, "_enumerate_rows", narrowed_rows)
        self.monkeypatch.setattr(counting, "_keyer_for", wide_keyer)


@pytest.fixture
def array_runs(monkeypatch):
    return ArrayRuns(monkeypatch)


@pytest.fixture(params=[None, 1, 2, 7], ids=lambda size: f"chunk{size or '-default'}")
def chunk(request, monkeypatch):
    """The default chunk of the array backend's passes, then chunks that cut most runs."""
    if request.param:
        monkeypatch.setattr(counting, "_CHUNK", request.param)
    return request.param


def enumerations(cell, witnesses):
    """How often settle() enumerates a cell on the array backend.

    Once for the count and, but for a transcendental shift, whose witness
    search enumerates nothing, once for the witnesses; and once more for each
    tie search that finds tied words: the witnesses' search, and beyond int64
    the count's too.
    """
    wide = not counting._keyer_for(*cell).fits_int64
    searched = not isinstance(cell[2], Transcendental)
    return 1 + searched + bool(witnesses) * (1 + wide)


def assert_backends_agree(array_runs, cells):
    expected = {cell: settle(*cell) for cell in cells}
    assert array_runs == [], "small cells must take the dict backend by default"
    array_runs.force()
    for cell in cells:
        before = len(array_runs)
        report, witnesses = settle(*cell)
        assert (report, witnesses) == expected[cell], cell
        assert len(array_runs) == before + enumerations(cell, witnesses), cell
        # the engine builds its pairs without the validating constructor
        for pair in witnesses + expected[cell][1]:
            assert SolutionPair(pair.x, pair.y) == pair
            assert all(type(v) is int for v in pair.x + pair.y), (cell, pair)


def test_oracle_grid(array_runs, chunk):
    cells = [(k, X, shift) for shift in (SQRT2, TRANS, HALF) for k in (2, 3) for X in range(1, 13)]
    assert_backends_agree(array_runs, cells)


def test_one_coordinate_stays_on_dict_backend(array_runs):
    array_runs.force()
    for shift in (SQRT2, TRANS, HALF):
        for X in range(1, 13):
            report, witnesses = settle(1, X, shift)
            assert report.mean_value == report.diagonal == X and witnesses == []
    assert array_runs == []


def test_cubic_and_zero_factor_cells(array_runs, chunk):
    assert_backends_agree(array_runs, [(3, 30, CUBIC), (2, 6, ZERO_FACTOR)])
    report, _ = settle(2, 6, ZERO_FACTOR)
    assert report.nondiagonal == 120


def test_keys_alike_in_their_low_bits(array_runs, chunk):
    # the witness search's low-bit bitmap passes 13 rows here whose keys
    # collide with no other; only its exact comparison leaves them out
    assert_backends_agree(array_runs, [(3, 60, HALF)])


def test_int64_edge_transcendental_k4(array_runs):
    # the largest key magnitude (box - 1)/2 must fit in int64, not the box
    keyers = {X: counting._keyer_for(4, X, TRANS) for X in (40, 41)}
    box = {X: kr.strides[-1] * (2 * kr.bounds[-1] + 1) for X, kr in keyers.items()}
    assert box[40] >= 2**63 and (box[40] - 1) // 2 < 2**63 <= (box[41] - 1) // 2
    assert_backends_agree(array_runs, [(4, 40, TRANS), (4, 41, TRANS)])
    report = count_mean_value(4, 41, TRANS)
    assert report.mean_value == report.diagonal


def test_int64_edge_rational(array_runs):
    assert counting._keyer_for(2, 3, TINY).fits_int64
    assert not counting._keyer_for(2, 4, TINY).fits_int64
    assert_backends_agree(array_runs, [(2, 3, TINY), (2, 4, TINY)])


def test_wide_keys_grid(array_runs):
    assert [counting._keyer_for(*cell).fits_int64 for cell in WIDE_CELLS] == [
        False, False, True, False,
    ]
    assert_backends_agree(array_runs, WIDE_CELLS)


@pytest.mark.parametrize(
    "cell", WIDE_CELLS + [(3, 20, HALF)], ids=lambda c: f"k{c[0]}-X{c[1]}-{format_shift(c[2])}"
)
def test_tied_words_split_exactly(array_runs, cell, monkeypatch, chunk):
    # HALF adds colliding products, whose multisets must stay grouped
    bits = 12
    mask = (1 << bits) - 1
    expected = settle(*cell)
    array_runs.force()
    array_runs.narrow(bits)
    rekeyed = []
    rekey = counting._rekey

    def spy(keyer, multiset):
        rekeyed.append(rekey(keyer, multiset))
        return rekeyed[-1]

    monkeypatch.setattr(counting, "_rekey", spy)
    assert settle(*cell) == expected
    build_product_table(*cell)
    # each of the count, the witnesses and the table enumerates the cell
    # twice, since every narrowed cell has tied words; a transcendental
    # witness search enumerates nothing
    passes = 4 if isinstance(cell[2], Transcendental) else 6
    assert array_runs == [cell[:2]] * passes
    words = {}
    for key in rekeyed:
        words.setdefault(key & mask, set()).add(key)
    assert any(len(split) > 1 for split in words.values()), "no tied word split by key"


@pytest.mark.parametrize("cell", [(4, 20, SQRT2), (3, 40, HALF)], ids=["sqrt2", "dense-ties"])
def test_tie_pass_weighs_short_rows(array_runs, cell, chunk):
    # M = T + the sum over tied words of W^2 - sum w^2, where a tied word's W
    # is k! per row less the shortfall of its rows that repeat a value, such
    # as (1, 1, 1, 10), which shares its product with (1, 2, 3, 3) at sqrt 2
    k = cell[0]
    assert counting._keyer_for(*cell).fits_int64
    sides = [side for pair in find_nondiagonal_witnesses(*cell) for side in (pair.x, pair.y)]
    assert any(len(set(side)) < k for side in sides), "no tied word has a short row"
    expected = dataclasses.replace(count_mean_value(*cell), elapsed=0.0)
    array_runs.force()
    assert dataclasses.replace(count_mean_value(*cell), elapsed=0.0) == expected
    assert array_runs == [cell[:2]]


def test_array_runs_in_process_at_any_worker_count(array_runs, capsys):
    def cli_outputs(*workers):
        cell = ("--k", "3", "--X", "40", "--shift", "minpoly:-2,0,1", *workers)
        assert main(["count", *cell]) == 0
        count = [line.rsplit(",", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert main(["witness", *cell]) == 0
        return count, capsys.readouterr().out  # the count without elapsed_ms

    expected = cli_outputs()
    array_runs.force()
    assert cli_outputs("--workers", "2") == expected
    assert expected[1] != "[]\n"
    assert array_runs == [(3, 40)] * 3  # the witness search enumerates twice


def test_array_table_lookups(array_runs):
    # the sums match the dict backend's, and each product's count the
    # oracle's over the cell's 900 ordered tuples
    k, X = 2, 30
    shifts = (SQRT2, HALF, TRANS)
    references = [build_product_table(k, X, shift) for shift in shifts]
    array_runs.force()
    for shift, reference in zip(shifts, references):
        table = build_product_table(k, X, shift)
        assert array_runs[-1:] == [(k, X)], shift
        array_runs.clear()
        assert table.distinct_products == reference.distinct_products
        assert table.total_ordered_tuples() == X**k
        assert table.mean_value() == reference.mean_value()
        counts = oracles.representation_counts(k, X, shift)
        for a in range(1, X + 1):
            for b in range(a, X + 2):
                nu = shifted_product((a, b), shift)
                expected = counts[oracles.canonical((a, b), shift)]
                assert representation_count(nu, k, X, shift) == expected
        if shift == HALF:  # a rational product beyond int64 is no product of the cell
            beyond = shifted_product((10**10, 10**10), HALF)
            assert representation_count(beyond, k, X, HALF) == 0
        assert array_runs == [], "the search enumerated the cell"


@pytest.mark.parametrize(
    "nu",
    [shifted_product((1, 10**6), HALF), shifted_product((1, 1, 4), TRANS)],
    ids=["rational-beyond-the-box", "transcendental-k3"],
)
def test_product_beyond_the_cell_counts_zero(array_runs, nu):
    # prod(2x + 1) over (1, 10**6) is far beyond any product of an X = 5
    # cell, though its factor 3 is that of x = 1, and (1, 1, 4) has one
    # coordinate too many for k = 2, though its first two
    # (sigma_1, sigma_2) = (6, 9) are those of (3, 3)
    array_runs.force()
    assert representation_count(nu, 2, 5, nu.shift) == 0
    assert array_runs == []


def test_wide_tables_freed_without_cyclic_gc(array_runs):
    # reference counting alone must free what a cell beyond int64 allocates
    # when a call drops it.  A transcendental witness search enumerates
    # nothing, so the search runs on a rational cell beyond int64 of about
    # the same size.
    array_runs.force()
    calls = ((count_mean_value, (4, 45, TRANS)), (find_nondiagonal_witnesses, (3, 100, TINY)))
    assert not counting._keyer_for(3, 100, TINY).fits_int64
    for settle_cell, cell in calls:
        settle_cell(*cell)  # numpy allocates its caches on first use
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        for settle_cell, cell in calls:
            before = tracemalloc.get_traced_memory()[0]
            settle_cell(*cell)
            assert tracemalloc.get_traced_memory()[0] - before < 1 << 20, settle_cell
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert array_runs == [(4, 45), (3, 100)] * 2


def test_sum_of_squares_overflow_guard():
    def sum_of_squares(values):
        return counting._sum_of_squares(np.array(values, dtype=np.int64))

    assert sum_of_squares([2**40, 3]) == 2**80 + 9  # past int64: Python ints
    assert sum_of_squares([2**32, 5]) == 2**64 + 25
    assert sum_of_squares([2**31, 2**31]) == 2**63  # one past the largest int64
    assert sum_of_squares([5, 1, 7]) == 75
    assert sum_of_squares([]) == 0


def corrupt_weights(monkeypatch, change):
    """Apply change(weights, short) to the rows of every enumeration.

    short lists the rows whose multiset repeats a value, in row order.
    """
    enumerate_rows = counting._enumerate_rows

    def corrupted(np_, keyer, k, X):
        words, weights, members = enumerate_rows(np_, keyer, k, X)
        change(weights, np.flatnonzero(weights != weights.max()))
        return words, weights, members

    monkeypatch.setattr(counting, "_enumerate_rows", corrupted)


@pytest.mark.parametrize("shift", [SQRT2, TRANS], ids=["int64", "wide"])
def test_bookkeeping_check_catches_lost_weight(array_runs, monkeypatch, shift):
    def lose_one(weights, short):
        weights[short[0]] -= 1

    array_runs.force()
    corrupt_weights(monkeypatch, lose_one)
    with pytest.raises(RuntimeError, match="bookkeeping"):
        build_product_table(5, 10, shift)


@pytest.mark.parametrize("shift", [SQRT2, TRANS], ids=["int64", "wide"])
def test_bookkeeping_check_catches_moved_weight(array_runs, monkeypatch, shift):
    # X^k still holds, so only the sum of squared row weights, the diagonal
    # count T, shows the move
    def move_one(weights, short):
        weights[short[0]] += 1
        weights[short[1]] -= 1

    assert not counting._keyer_for(5, 10, TRANS).fits_int64
    array_runs.force()
    corrupt_weights(monkeypatch, move_one)
    with pytest.raises(RuntimeError, match="bookkeeping"):
        build_product_table(5, 10, shift)


def test_without_numpy_falls_back_to_dict(array_runs, monkeypatch):
    expected = settle(3, 40, SQRT2)
    array_runs.force()
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert settle(3, 40, SQRT2) == expected
    assert array_runs == []


def test_capacity_guard_per_backend(monkeypatch):
    # 10.7M multisets: about 0.13 GiB on the array backend, 0.87 GiB on the dict's
    report = count_mean_value(3, 400, SQRT2, memory_budget_mb=512)
    assert report.nondiagonal == 6246
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(CapacityError):
        count_mean_value(3, 400, SQRT2, memory_budget_mb=512)


def run_fresh(code):
    """Run code in a new interpreter that imports shiftprod from this tree."""
    src = os.path.dirname(os.path.dirname(shiftprod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_table_peak_within_guard(k, X, shift):
    # traced from before numpy's import, which a command-line run pays too
    code = f"""
        import tracemalloc
        tracemalloc.start()
        from shiftprod import counting, parse_shift
        enumerate_rows = counting._enumerate_rows
        runs = []
        counting._enumerate_rows = lambda *args: runs.append(1) or enumerate_rows(*args)
        counting._ARRAY_MIN_MULTISETS = 0
        counting.build_product_table({k}, {X}, parse_shift("{format_shift(shift)}"))
        print(len(runs), tracemalloc.get_traced_memory()[1], counting._array_bytes({k}, {X}))
    """
    runs, peak, allowed = map(int, run_fresh(code).split())
    assert runs == 1
    assert peak <= allowed, (peak, allowed)


def test_int64_table_peak_within_guard():
    # k=6 has the largest share of multisets that repeat a value
    assert counting._keyer_for(6, 30, SQRT2).fits_int64
    assert_table_peak_within_guard(6, 30, SQRT2)


def test_wide_table_peak_within_guard():
    # keys beyond int64 share the int64 path's guard; k=6 repeats the most values
    assert not counting._keyer_for(6, 25, TRANS).fits_int64
    assert_table_peak_within_guard(6, 25, TRANS)


@pytest.mark.parametrize(
    "k, X, text, tight",
    [
        (3, 100, "minpoly:-2,0,1", False),  # 171,700 keys, short of a doubling
        (3, 101, "minpoly:-2,0,1", True),  # 176,851 keys, just past one
        (6, 20, "transcendental", True),  # just past one, and weights past 256
        (4, 26, "rational:1/1000000000", True),  # just past one, 139-bit keys
    ],
)
def test_dict_table_peak_within_guard(k, X, text, tight):
    # the guard's model of a dict's growth bounds the table's peak, and just
    # past a doubling, where a table peaks highest per key, it is tight
    assert counting._numpy_for(k, X) is None
    code = f"""
        import tracemalloc
        from shiftprod import counting, parse_shift
        shift = parse_shift("{text}")
        counting.build_product_table({k}, 3, shift)  # first-use caches
        needed = []
        check_budget = counting._check_budget
        counting._check_budget = lambda n, *rest: needed.append(n) or check_budget(n, *rest)
        tracemalloc.start()
        counting.build_product_table({k}, {X}, shift)
        print(tracemalloc.get_traced_memory()[1], *needed)
    """
    peak, needed = map(int, run_fresh(code).split())
    key_bits = counting._keyer_for(k, X, shiftprod.parse_shift(text)).key_bits
    assert needed == counting._dict_bytes(k, comb(X + k - 1, k), key_bits)
    assert peak <= needed, (peak, needed)
    if tight:
        assert peak >= 0.9 * needed, (peak, needed)


def guarded_peak(call, force):
    """The tracemalloc peak of one line of code and the byte figures the guard checked.

    Runs in a fresh process, traced from before numpy's import; `force` sends
    every cell with k >= 2 to the array backend.
    """
    code = f"""
        import collections, tracemalloc
        tracemalloc.start()
        from shiftprod import counting, parse_shift, shifted_product
        needed = []
        check_budget = counting._check_budget
        counting._check_budget = lambda n, *rest: needed.append(n) or check_budget(n, *rest)
        counting._ARRAY_MIN_MULTISETS = {0 if force else counting._ARRAY_MIN_MULTISETS}
        {call}
        print(tracemalloc.get_traced_memory()[1], *needed)
    """
    peak, *needed = map(int, run_fresh(code).split())
    return peak, needed


@pytest.mark.parametrize(
    "k, X, force", [(6, 16, False), (6, 16, True), (3, 120, True), (2, 700, True)]
)
def test_witness_search_peak_within_guard(k, X, force):
    # rational:1/2 ties most rows.  The pairs are consumed one at a time, as
    # the witness command does, so the peak is the search's colliding groups.
    search = f'counting.find_nondiagonal_witnesses({k}, {X}, parse_shift("rational:1/2"))'
    peak, needed = guarded_peak(f"collections.deque({search}, 0)", force)
    assert len(needed) == 2  # the table, then the colliding multisets
    assert needed[0] < peak <= needed[1], (peak, needed)


@pytest.mark.parametrize("settle_cell", [count_mean_value, find_nondiagonal_witnesses])
def test_int64_cell_peaks_at_12_bytes_per_multiset(array_runs, settle_cell):
    # the words (8 B) and weights (1 B) of each multiset, sorted in place;
    # no full-cell copy or temporary besides
    k, X = 3, 200
    array_runs.force()
    assert counting._keyer_for(k, X, SQRT2).fits_int64
    settle_cell(k, X, SQRT2)  # numpy allocates its caches on first use
    tracemalloc.start()
    try:
        settle_cell(k, X, SQRT2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * comb(X + k - 1, k), peak


def test_numpy_stays_unimported_off_the_array_backend():
    run_fresh(
        """
        import sys
        import shiftprod.cli
        for name in ("numpy", "concurrent.futures.process", "multiprocessing"):
            assert name not in sys.modules, f"import shiftprod.cli loaded {name}"
        from shiftprod import Rational, Transcendental, count_mean_value
        count_mean_value(2, 400, Rational(1, 2))
        assert "numpy" not in sys.modules, "a rat-k2 cell loaded numpy"
        count_mean_value(4, 40, Transcendental())
        assert "numpy" not in sys.modules, "a small k=4 cell loaded numpy"
        """
    )
