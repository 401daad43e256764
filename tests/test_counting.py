"""Counting engine: frequency tables, diagonal counts, witnesses, determinism."""

import functools
import gc
import json
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shiftprod import (
    Algebraic,
    CapacityError,
    MinimalPolynomial,
    Rational,
    SolutionPair,
    Transcendental,
    build_product_table,
    cancel_common_factors,
    count_mean_value,
    diagonal_count_exact,
    elementary_symmetric,
    find_nondiagonal_witnesses,
    format_shift,
    minimal_polynomial_for,
    parse_shift,
    representation_count,
    shifted_product,
)
from shiftprod import counting

rng = random.Random(97)

SQRT2 = Algebraic(MinimalPolynomial([-2, 0, 1]))
HALF = Rational(1, 2)
HALF_SQRT2 = Algebraic(MinimalPolynomial([-1, 0, 2]))
GAUSS = Algebraic(MinimalPolynomial([1, 0, 1]))
CUBE_ROOT2 = Algebraic(MinimalPolynomial([-2, 0, 0, 1]))
ZERO_FACTOR = Rational(-3, 1)  # the factor 3 + theta vanishes
TINY = Rational(1, 10**9)
VARIANTS = [Transcendental(), SQRT2, HALF, HALF_SQRT2, GAUSS]


class TestRepresentationCount:
    def test_k1_unique(self):
        nu = shifted_product((5,), SQRT2)
        assert representation_count(nu, 1, 10, SQRT2) == 1

    def test_two_orderings(self):
        nu = shifted_product((1, 3), SQRT2)
        assert representation_count(nu, 2, 10, SQRT2) == 2

    def test_rational_four_orderings(self):
        nu = shifted_product((1, 7), HALF)
        assert nu.coords == 45
        assert representation_count(nu, 2, 10, HALF) == 4

    def test_prebuilt_table_and_mismatch(self):
        # the count takes no table, and builds none, so it takes no memory
        # budget either
        table = build_product_table(2, 10, SQRT2)
        nu = shifted_product((1, 3), SQRT2)
        assert representation_count(nu, 2, 10, SQRT2) == 2
        with pytest.raises(TypeError, match="table"):
            representation_count(nu, 2, 10, SQRT2, table=table)
        with pytest.raises(TypeError, match="memory_budget_mb"):
            representation_count(nu, 2, 10, SQRT2, memory_budget_mb=64)
        for k, X in ((0, 10), (7, 10), (True, 10), (2, 0)):
            with pytest.raises(ValueError):
                representation_count(nu, k, X, SQRT2)
        with pytest.raises(ValueError, match="different shift"):
            representation_count(nu, 2, 10, HALF)
        with pytest.raises(ValueError, match="different shift"):
            representation_count(shifted_product((1, 3), HALF), 2, 10, SQRT2)

    def test_either_spelling_of_the_shift(self):
        # minpoly:2,0,-1 is the shift minpoly:-2,0,1, not a different one
        negated = parse_shift("minpoly:2,0,-1")
        assert representation_count(shifted_product((1, 3), negated), 2, 10, SQRT2) == 2
        assert representation_count(shifted_product((1, 3), SQRT2), 2, 10, negated) == 2

    def test_unrepresentable_product_counts_zero(self):
        # a k=3 product counted in a k=2 cell cannot alias anything
        nu3 = shifted_product((9, 9, 9), SQRT2)
        assert representation_count(nu3, 2, 10, SQRT2) == 0

    def test_sums_over_distinct_products(self):
        for shift in VARIANTS:
            k, X = 2, 9
            table = build_product_table(k, X, shift)
            distinct = {
                shifted_product((a, b), shift)
                for a in range(1, X + 1)
                for b in range(a, X + 1)
            }
            counts = [representation_count(nu, k, X, shift) for nu in distinct]
            assert sum(counts) == X**k
            assert sum(c * c for c in counts) == table.mean_value()
            assert len(distinct) == table.distinct_products


SEARCH_SHIFTS = [
    parse_shift(text)
    for text in ["transcendental", "rational:1/2", "rational:-3", "rational:-7/2",
                 "rational:1/1000000000"]
] + [
    parse_shift(f"minpoly:{coeffs}")
    for coeffs in ["-2,0,1", "-1,0,2", "1,0,1", "-2,0,3", "-1,-1,0,1", "-2,0,0,1", "2,0,0,0,1"]
]


@functools.lru_cache(maxsize=None)
def oracle_counts(k, X, shift):
    return oracles.representation_counts(k, X, shift)


@pytest.mark.parametrize("shift", SEARCH_SHIFTS, ids=format_shift)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(k=st.integers(1, 4), X=st.integers(1, 9), data=st.data())
def test_search_matches_the_oracle(shift, k, X, data):
    # products of k values, some beyond X, and of k - 1 or k + 1 values; one
    # no tuple reaches counts 0.  rational:-3 has the zero product.
    sizes = st.sampled_from([n for n in (k - 1, k, k + 1) if n >= 1])
    values = sizes.flatmap(lambda n: st.lists(st.integers(1, X + 2), min_size=n, max_size=n))
    for m in data.draw(st.lists(values, min_size=1, max_size=8)):
        nu = shifted_product(m, shift)
        expected = oracle_counts(k, X, shift)[oracles.canonical(m, shift)]
        assert representation_count(nu, k, X, shift) == expected, m


def test_search_reaches_beyond_any_table(monkeypatch):
    # 4.2e20 multisets at k=6, X=10^4: the search enumerates none of them
    def never(*args):
        raise AssertionError("the search enumerated the cell")

    monkeypatch.setattr(counting, "_walk", never)
    monkeypatch.setattr(counting, "_enumerate_rows", never)
    nu = shifted_product((48, 60, 36, 24, 30, 40), SQRT2)
    assert representation_count(nu, 6, 10**4, SQRT2) == 720


class TestCountMeanValue:
    def test_k1_all_diagonal(self):
        for shift in (Transcendental(), SQRT2):
            r = count_mean_value(1, 7, shift)
            assert r.mean_value == r.diagonal == 7

    def test_degree_equals_k_exact(self):
        r = count_mean_value(2, 10, SQRT2)
        assert r.mean_value == r.diagonal == 190

    def test_rational_has_nondiagonal(self):
        r = count_mean_value(2, 7, HALF)
        assert r.nondiagonal >= 8
        assert r.mean_value == oracles.mean_value(2, 7, HALF)

    def test_matches_oracle_small(self):
        for shift in VARIANTS:
            for k in (1, 2, 3):
                for X in (1, 2, 3, 5, 8):
                    r = count_mean_value(k, X, shift)
                    assert r.mean_value == oracles.mean_value(k, X, shift), (shift, k, X)
                    assert r.diagonal == oracles.diagonal_count(k, X)

    def test_matches_literal_pair_loop_tiny(self):
        for shift in (SQRT2, HALF, Transcendental()):
            for k, X in ((1, 4), (2, 4), (2, 3)):
                assert count_mean_value(k, X, shift).mean_value == \
                    oracles.pair_count_literal(k, X, shift)

    def test_report_invariants(self):
        for shift in VARIANTS:
            for _ in range(5):
                k = rng.randint(1, 3)
                X = rng.randint(1, 12)
                r = count_mean_value(k, X, shift)
                assert r.mean_value >= r.diagonal >= 0
                assert r.nondiagonal % 2 == 0

    def test_csv_fields_follow_the_json_keys(self):
        r = count_mean_value(2, 10, SQRT2)
        assert list(r.to_json_dict()) == [
            "k", "X", "shift", "M", "T", "nondiag", "distinct_nu", "elapsed_ms",
        ]
        assert list(r.to_json_dict().values()) == [
            2, 10, "minpoly:-2,0,1", 190, 190, 0, r.distinct_products, r.elapsed_ms,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            count_mean_value(0, 5, SQRT2)
        with pytest.raises(ValueError):
            count_mean_value(7, 5, SQRT2)  # default max k is 6
        with pytest.raises(ValueError):
            count_mean_value(2, 0, SQRT2)

    def test_rejects_k_over_the_maximum(self):
        k = counting.DEFAULT_MAX_K + 1
        for engine in (count_mean_value, find_nondiagonal_witnesses, build_product_table):
            with pytest.raises(ValueError, match="maximum"):
                engine(k, 2, SQRT2)

    def test_rejects_bool_k_and_X(self):
        for k, X in ((True, 5), (False, 5), (2, True), (2, False)):
            for engine in (count_mean_value, find_nondiagonal_witnesses, build_product_table):
                with pytest.raises(ValueError):
                    engine(k, X, SQRT2)

    def test_capacity_guard(self):
        message = r"^k=3, X=400 needs ~10746800 table entries \(~\d+ MiB\), over the 1 MiB budget$"
        with pytest.raises(CapacityError, match=message):
            count_mean_value(3, 400, SQRT2, memory_budget_mb=1)

    def test_rejects_bad_memory_budget(self):
        for bad in (0, -3, True, 2.0):
            for engine in (count_mean_value, find_nondiagonal_witnesses, build_product_table):
                with pytest.raises(ValueError):
                    engine(2, 5, SQRT2, memory_budget_mb=bad)

    def test_bookkeeping_check_catches_a_short_total(self, monkeypatch):
        # the dict backend has no check of its own: only sum W == X^k sees
        # a total that lost one ordered tuple
        dict_table = counting._dict_table

        def short_total(*args):
            distinct, total, squares = dict_table(*args)
            return distinct, total - 1, squares

        monkeypatch.setattr(counting, "_dict_table", short_total)
        for engine in (build_product_table, count_mean_value):
            with pytest.raises(RuntimeError, match="bookkeeping"):
                engine(3, 8, SQRT2)

    def test_no_workers_keyword(self):
        # every cell settles in one process; only the CLI still accepts --workers
        for engine in (count_mean_value, find_nondiagonal_witnesses, build_product_table):
            with pytest.raises(TypeError, match="workers"):
                engine(2, 5, SQRT2, workers=1)


class TestDiagonalCount:
    def test_small_closed_forms(self):
        assert diagonal_count_exact(1, 9) == 9
        assert diagonal_count_exact(2, 3) == 15
        assert diagonal_count_exact(3, 2) == 20

    def test_matches_brute_force(self):
        for k in (1, 2, 3):
            for X in range(1, 13):
                assert diagonal_count_exact(k, X) == oracles.diagonal_count(k, X)

    def test_factorial_bounds(self):
        from math import factorial

        for k in (1, 2, 3, 4):
            for X in (1, 2, 5, 9, 12):
                t = diagonal_count_exact(k, X)
                falling = 1
                for i in range(k):
                    falling *= X - i
                assert factorial(k) * max(falling, 0) <= t <= factorial(k) * X**k

    @pytest.mark.parametrize("k, X", [(True, 3), (2, True), (2, 3.0), (2.0, 3), (0, 3), (2, 0)])
    def test_bool_float_and_zero_rejected(self, k, X):
        with pytest.raises(ValueError):
            diagonal_count_exact(k, X)


class TestWitnesses:
    def test_none_for_degree_equal_k(self):
        assert list(find_nondiagonal_witnesses(2, 10, SQRT2)) == []

    def test_none_for_transcendental(self):
        assert list(find_nondiagonal_witnesses(3, 15, Transcendental())) == []

    def test_transcendental_search_does_no_work(self, monkeypatch):
        # equal products in Z[t] force equal multisets (the lemma's case
        # d = infinity), so no cell of a transcendental shift is enumerated
        # or too large for the budget, on either question
        def never(*args):
            raise AssertionError("a transcendental cell was enumerated")

        for name in ("_array_table", "_dict_table", "_array_groups", "_dict_groups"):
            monkeypatch.setattr(counting, name, never)
        shift = Transcendental()
        report = count_mean_value(6, 400, shift, memory_budget_mb=1)
        assert report.mean_value == report.diagonal == diagonal_count_exact(6, 400)
        assert report.distinct_products == comb(405, 6)
        for k, X in [(6, 400), (2, 3), (1, 1)]:
            assert list(find_nondiagonal_witnesses(k, X, shift, memory_budget_mb=1)) == []
        for k, X, kwargs in [
            (0, 10, {}),
            (7, 10, {}),
            (True, 10, {}),
            (3, 0, {}),
            (3, 10, {"memory_budget_mb": 0}),
        ]:
            for engine in (count_mean_value, find_nondiagonal_witnesses):
                with pytest.raises(ValueError):
                    engine(k, X, shift, **kwargs)
        with pytest.raises(ValueError):
            find_nondiagonal_witnesses(3, 10, shift, limit=-1)
        for engine in (count_mean_value, find_nondiagonal_witnesses):
            with pytest.raises(TypeError):
                engine(3, 10, "transcendental")

    def test_lemma_settles_k_at_most_d(self, monkeypatch):
        # deg F <= k - 1 < d unless k > d, so m | F forces F = 0: the cells
        # below are settled without a keyer, a backend or the capacity guard.
        # One coordinate is such a cell for every shift, and every k is for
        # a transcendental one.
        def never(*args):
            raise AssertionError("a cell with k <= d was enumerated")

        for name in ("_keyer_for", "_numpy_for", "_check_budget"):
            monkeypatch.setattr(counting, name, never)
        one_coordinate = [
            (1, X, shift)
            for shift in (Transcendental(), SQRT2, HALF, ZERO_FACTOR, TINY)
            for X in range(1, 13)
        ]
        every_k = [(k, X, Transcendental()) for k in range(2, 7) for X in range(1, 13)]
        large = [(3, 10**5, CUBE_ROOT2), (2, 10**9, SQRT2), (1, 10**6, HALF)]
        for k, X, shift in one_coordinate + every_k + large:
            assert counting._diagonal_only(k, shift)
            report = count_mean_value(k, X, shift, memory_budget_mb=1)
            assert report.mean_value == report.diagonal == diagonal_count_exact(k, X)
            assert report.distinct_products == comb(X + k - 1, k)
            if k == 1:
                assert report.mean_value == report.distinct_products == X
            assert list(find_nondiagonal_witnesses(k, X, shift, memory_budget_mb=1)) == []
        assert not counting._diagonal_only(4, CUBE_ROOT2)
        assert not counting._diagonal_only(2, HALF)

    def test_enumeration_reaches_only_k_over_d(self, monkeypatch):
        # the keyer and the backend choice run exactly on the cells with
        # k > d >= 1, so they always see k >= 2 and a minimal polynomial
        reached = []
        numpy_for = counting._numpy_for

        def spy(k, X):
            reached.append(k)
            return numpy_for(k, X)

        monkeypatch.setattr(counting, "_numpy_for", spy)
        degrees = {HALF: 1, ZERO_FACTOR: 1, TINY: 1, SQRT2: 2, CUBE_ROOT2: 3}
        for shift, d in [*degrees.items(), (Transcendental(), None)]:
            for k in range(1, 5):
                del reached[:]
                count_mean_value(k, 5, shift)
                list(find_nondiagonal_witnesses(k, 5, shift))
                enumerated = d is not None and k > d
                assert reached == ([k, k] if enumerated else []), (k, shift)
        with pytest.raises(ValueError, match="no minimal polynomial"):
            counting._keyer_for(2, 5, Transcendental())

    def test_rational_example(self):
        pairs = list(find_nondiagonal_witnesses(2, 7, HALF))
        assert SolutionPair((1, 7), (2, 4)) in pairs

    def test_matches_oracle(self):
        for shift in (HALF, SQRT2, Rational(1, 1)):
            for k, X in ((2, 9), (3, 12)):
                got = {(p.x, p.y) for p in find_nondiagonal_witnesses(k, X, shift)}
                assert got == oracles.nondiagonal_witnesses(k, X, shift), (shift, k, X)

    def test_sqrt2_k3_pairs_solve_coordinate_system(self):
        # any pair found must equate both symmetric coordinates of the products
        pairs = list(find_nondiagonal_witnesses(3, 30, SQRT2))
        for p in pairs:
            sx = elementary_symmetric(p.x)
            sy = elementary_symmetric(p.y)
            assert sx[3] + 2 * sx[1] == sy[3] + 2 * sy[1]
            assert sx[2] == sy[2]
            assert shifted_product(p.x, SQRT2) == shifted_product(p.y, SQRT2)
            assert sorted(p.x) != sorted(p.y)

    def test_limit_and_order(self):
        pairs = list(find_nondiagonal_witnesses(2, 30, HALF))
        assert pairs == sorted(pairs, key=lambda p: (p.x, p.y))
        assert list(find_nondiagonal_witnesses(2, 30, HALF, limit=3)) == pairs[:3]

    def test_limit_builds_only_the_kept_pairs(self, monkeypatch):
        first = list(find_nondiagonal_witnesses(3, 30, HALF))[0]
        built = []
        post_init = SolutionPair.__post_init__
        canonical = SolutionPair._canonical

        def spy(pair):
            built.append(pair)
            post_init(pair)

        def canonical_spy(x, y):
            built.append((x, y))
            return canonical(x, y)

        # the engine's pairs are canonical already and skip __post_init__;
        # count both constructors so neither may build the dropped pairs
        monkeypatch.setattr(SolutionPair, "__post_init__", spy)
        monkeypatch.setattr(SolutionPair, "_canonical", canonical_spy)
        assert list(find_nondiagonal_witnesses(3, 30, HALF, limit=1)) == [first]
        assert len(built) == 1

    def test_collector_paused_and_restored(self, monkeypatch):
        # the search pauses the cyclic collector while it builds the colliding
        # groups and leaves it as the caller had it, also when the build raises
        states = []
        dict_groups = counting._dict_groups

        def spy(*args):
            states.append(gc.isenabled())
            return dict_groups(*args)

        def fail(*args):
            raise RuntimeError("build failed")

        enabled = gc.isenabled()
        try:
            monkeypatch.setattr(counting, "_dict_groups", spy)
            for caller_has_it_on in (True, False):
                (gc.enable if caller_has_it_on else gc.disable)()
                assert list(find_nondiagonal_witnesses(2, 30, HALF))
                assert gc.isenabled() is caller_has_it_on
            assert states == [False, False]
            monkeypatch.setattr(counting, "_dict_groups", fail)
            gc.enable()
            with pytest.raises(RuntimeError, match="build failed"):
                find_nondiagonal_witnesses(2, 30, HALF)
            assert gc.isenabled()
        finally:
            (gc.enable if enabled else gc.disable)()

    def test_colliding_multisets_over_the_memory_budget(self, monkeypatch):
        # 171,700 multisets fit a 16 MiB table; their 104,758 colliding
        # multisets do not, and the search refuses them before it builds any
        walks = []
        walk = counting._walk

        def spy(*args):
            walks.append(args[2])
            return walk(*args)

        assert count_mean_value(3, 100, HALF, memory_budget_mb=16).nondiagonal > 0
        monkeypatch.setattr(counting, "_walk", spy)
        with pytest.raises(CapacityError, match="k=3, X=100 has 104758 colliding multisets"):
            find_nondiagonal_witnesses(3, 100, HALF, memory_budget_mb=16)
        assert walks == [2]  # the counting walk only, not the collecting one
        assert len(list(find_nondiagonal_witnesses(3, 100, HALF))) == 203005

    def test_negative_limit_rejected(self):
        assert len(list(find_nondiagonal_witnesses(2, 8, HALF))) == 1
        assert list(find_nondiagonal_witnesses(2, 8, HALF, limit=0)) == []
        for bad in (-1, True, 1.0):
            with pytest.raises(ValueError):
                find_nondiagonal_witnesses(2, 8, HALF, limit=bad)

    def test_tables_freed_without_cyclic_gc(self):
        # reference counting alone must free every table a call drops, such
        # as the witness search's pass-1 counts, or they outlive the call
        assert counting._numpy_for(4, 40) is None  # the dict backend
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            for settle in (count_mean_value, find_nondiagonal_witnesses):
                before = tracemalloc.get_traced_memory()[0]
                settle(4, 40, CUBE_ROOT2)
                assert tracemalloc.get_traced_memory()[0] - before < 1 << 20, settle
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()


class TestSolutionPair:
    def test_normalisation(self):
        p = SolutionPair((7, 1), (4, 2))
        assert p.x == (1, 7) and p.y == (2, 4)
        assert SolutionPair((2, 4), (7, 1)) == p

    def test_validation(self):
        with pytest.raises(ValueError):
            SolutionPair((1, 2), (1,))
        with pytest.raises(ValueError):
            SolutionPair((0, 2), (1, 2))

    def test_cancel_examples(self):
        diag = cancel_common_factors(SolutionPair((1, 2, 3), (3, 1, 2)))
        assert diag.k == 0 and diag.x == diag.y
        red = cancel_common_factors(SolutionPair((1, 1, 7), (1, 2, 4)))
        assert (red.x, red.y) == ((1, 7), (2, 4))
        keep = SolutionPair((1, 7), (2, 4))
        assert cancel_common_factors(keep) == keep

    def test_cancel_preserves_solutions(self):
        # removing a matched value from both sides divides both products by it
        for p in find_nondiagonal_witnesses(3, 20, Rational(1, 1)):
            red = cancel_common_factors(p)
            if red.k:
                assert shifted_product(red.x, Rational(1, 1)) == shifted_product(
                    red.y, Rational(1, 1)
                )


class TestDeterminism:
    CELLS = [(3, 25, SQRT2), (2, 40, HALF), (4, 20, CUBE_ROOT2), (3, 15, HALF_SQRT2)]

    def test_reports_identical_across_repeated_calls(self):
        for k, X, shift in self.CELLS:
            rows = []
            for _ in range(3):
                r = count_mean_value(k, X, shift)
                rows.append(list(r.to_json_dict().values())[:-1])  # elapsed_ms is timing
            assert rows[0] == rows[1] == rows[2]

    def test_witnesses_identical_across_repeated_calls(self):
        for k, X, shift in [(3, 40, SQRT2), (2, 30, HALF)]:
            dumps = []
            for _ in range(3):
                ws = find_nondiagonal_witnesses(k, X, shift)
                dumps.append(json.dumps([w.to_json_dict() for w in ws]))
            assert dumps[0] == dumps[1] == dumps[2]


KEYED_SHIFTS = [
    SQRT2,
    CUBE_ROOT2,
    Algebraic(MinimalPolynomial([-1, -1, 0, 1])),
    parse_shift("minpoly:-3,0,2"),
] + [parse_shift(f"rational:{r}") for r in ("1/2", "3/2", "0", "-3", "-5/3")]


@pytest.mark.parametrize("shift", KEYED_SHIFTS, ids=format_shift)
def test_walker_keys_encode_the_products(shift):
    """Every key the walker yields, one or two coordinates above its prefix.

    Equal keys must mean equal products, so the keys group the multisets
    as `shifted_product` does, and each is the multiset's exact re-key.
    Only cells with k > d are keyed, d being the minimal polynomial's degree.
    """
    for k in range(minimal_polynomial_for(shift).degree + 1, 5):
        X = 7 - k // 2
        keyer = counting._keyer_for(k, X, shift)
        by_depth = {k - 1: [], k - 2: []}

        def last_one(state, prefix, last, den, run):
            a, b = state
            by_depth[k - 1] += [(prefix + (x,), a * x + b) for x in range(last, X + 1)]

        def last_two(state, prefix, last, den, run):
            a, b, c = state
            by_depth[k - 2] += [
                (prefix + (x, y), a * x * y + b * (x + y) + c)
                for x in range(last, X + 1)
                for y in range(x, X + 1)
            ]

        counting._walk(keyer, X, k - 1, last_one)
        counting._walk(keyer, X, k - 2, last_two)
        for rows in by_depth.values():
            assert len({m for m, _ in rows}) == len(rows) == comb(X + k - 1, k)
            by_key, by_product = {}, {}
            for m, key in rows:
                assert key == counting._rekey(keyer, m), (k, m)
                by_key.setdefault(key, set()).add(m)
                by_product.setdefault(shifted_product(m, shift), set()).add(m)
            groups = sorted(map(sorted, by_key.values()))
            assert groups == sorted(map(sorted, by_product.values())), k
