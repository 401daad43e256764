"""Exact solution counting for k-fold shifted-product equations.

The mean value M counts ordered pairs of k-tuples x, y in [1, X]^k with
prod(x_i + theta) = prod(y_i + theta).  It is computed by enumerating each
multiset of [1, X] once (as a non-decreasing tuple), weighting it by its
number of distinct orderings k!/prod(mult_i!), and accumulating the weights
in a frequency table keyed by the canonical form of the product; then
M = sum of squared frequencies.  The diagonal count T (pairs where y is a
permutation of x) comes from an independent closed-form partition sum, so
M and T cross-check each other and M - T is the non-diagonal count.  One
product's count r(nu) needs no table: `representation_count` runs the norm
identity prod m(-x_i) = prod m(-y_i) backwards, keeping the values whose
factor divides a target read off nu and walking their k-tuples.

Performance notes.  Canonical coordinates of the product are linear in the
coefficient vector of prod(t + x_i).  One encoder, `_PolyKeyer`, folds them
into a single integer by a (signed) mixed-radix encoding with per-coordinate
bounds, which keeps them linear: a coefficient vector c has the key
sum_j c_j * E_j.  A rational shift p/q is its degree-1 case, reduced modulo
q*t - p, and its key is its canonical integer prod(q*x_i + p).  The encoding
is injective within the bounds box and is used only inside the engine
(public canonical forms are exact vectors).  For a prefix product P the
walker carries the keys K_i = key(P * t^i), which start at E_i; a factor
(t + x) maps K_i to K_(i+1) + x*K_i, so with all factors but the last fixed
the innermost loop is `key = a*x + b`, where (a, b) = (K_0, K_1).

Two backends fill the table.  The array backend settles a cell when numpy
imports, k >= 2 and the cell has at least _ARRAY_MIN_MULTISETS multisets
(smaller cells do not repay the numpy import).  With the first k-2 factors
fixed the key is bilinear in the last two, a*x*y + b*(x + y) + c with
(a, b, c) = (K_0, K_1, K_2), so it writes the words of all their pairs at
once into one int64 array.  A key's word is the key modulo 2^64 in two's
complement, which the int64 arithmetic computes by wrapping, and it is the
key itself when the keyer proves that every key and partial key fits in
int64.  Every result comes from that one array, sorted in place, and from
the few rows whose multiset repeats a value, the only rows that weigh less
than k!; no full-cell copy or temporary is built after the enumeration.
Each run of equal words is one distinct product, and the words two or more
rows share are the tied words, which one pass over chunks of the sorted
words finds (`_tied_words`).  The sum of the rows' squared weights is the
diagonal count T, so M = T + sum over tied words of (W^2 - sum w^2), where
a tied word's ordered weight W is k! per row less the shortfall of its
short rows: the count reads M and the distinct products off the tied words
alone.  The witness search drops the sorted words and enumerates the cell
again to pick out the rows of the tied words, a chunk at a time, unless
there are none.  When keys do not fit, equal products still
give equal words, so a word of one row is exact; the rows of a tied word
are re-keyed exactly from their multisets and split by key.  The witness
search pairs up the members of those groups, one pair at a time as its
caller reads them, and the table of such a cell is read off them too: every
row is one product but for the groups.  Every other cell takes the dict
backend: one dict update per multiset in arbitrary-precision integers.  It
is the reference the tests compare the array backend against.  The memory
budget is checked before each large allocation: the table and the colliding
multisets' tuples.

Both backends enumerate with one walker, `_walk`, which visits every
non-decreasing prefix of a given length once with the keys K_i of its
product and the multiplicities that give each multiset's ordering weight.
The dict backend walks prefixes of k-1 values and loops over the last one,
with one small visitor per job (ordered weights, multiset counts, collection
of colliding multisets); the array backend walks prefixes of k-2 values and
writes the last two at once.  Every cell settles in one process: a process
pool over first-coordinate ranges was slower than the serial walk on every
cell measured, since unpickling and merging its partial tables alone took
longer than filling the whole table serially.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, repeat
from math import comb, factorial, lcm, prod
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .polynomials import Coeff, MinimalPolynomial, Poly, norm_factor, reduce_mod_minpoly
from .shifts import Algebraic, CanonicalProduct, Rational, Shift, Transcendental
from .shifts import format_shift, minimal_polynomial_for, shifted_product

DEFAULT_MAX_K = 6
DEFAULT_MEMORY_BUDGET_MB = 2048
# The dict backend's peak, by tracemalloc.  Its table is a dict of int keys
# and weights.  A dict of S slots keeps 4 B of index per slot and a 24 B
# entry for two thirds of them, 20 B per slot; it doubles its slots as it
# fills, and while it moves holds both tables, 30 B per slot of the larger.
# Each entry adds its key, an int of 24 B and 4 B per 30 bits of the
# keyer's bound on a key, 8 B more for the walk's passing ints (3.5 B per key
# measured at k=3, X=101), and from k = 6 on its weight too, an int of 28 B
# once a weight can pass 256 (k! = 720), the largest int CPython keeps
# cached.  Per multiset, the peak swings with where the cell's key count
# falls between two doublings: 66.5 B at k=3, X=100 (171,700 multisets) and
# 124.4 B at X=101 (176,851, just past one), where the model gives 85.8 and
# 128.9; 153.2 B at k=6, X=20 transcendental (114-bit keys) against 164.8;
# 124.3 B at k=4, X=26, rational:1/10^9 (139-bit keys) against 134.8.  No
# one figure per multiset fits them all.
_DICT_BYTES_PER_SLOT = 30
_BYTES_PER_KEY_SLACK = 8
_BYTES_PER_LARGE_WEIGHT = 28
# The array backend pays for importing numpy (0.13-0.17 s) only on cells at
# least this big.
_ARRAY_MIN_MULTISETS = 1 << 20
# Peak bytes of the array backend, by tracemalloc (which sees numpy buffers).
# It holds the words (8 B) and weights (1 B, 2 at k = 6) of every multiset,
# and for each multiset that repeats a value, comb(X+k-1, k) - comb(X, k) of
# them, the count's short rows: word, shortfall and the argsort between them.
# With numpy imported, and less 2.5 MiB of chunk temporaries and 32 B per pair
# (below), tables peaked at 9.7 B per multiset at k=3, X=400 (1.5% repeat a
# value), 10.6 at k=4, X=120 (9.5%), 13.1 at k=5, X=50 (33%), 19.2 at k=6,
# X=30 (63%) and 18.3 at k=6, X=40 (53%); beyond int64 at 10.4 at k=4, X=100
# and 13.8 at k=6, X=25.  The fixed part covers numpy's own import, 6.6 MiB,
# and the chunk temporaries.  On top comes the table of the X(X+1)/2 pairs of
# [1, X], whose enumeration is the whole peak at k=2: 36.2 B per pair at k=2,
# X=1500.
_ARRAY_FIXED_BYTES = 10 << 20
_ARRAY_BYTES_PER_MULTISET = 11
_ARRAY_BYTES_PER_REPEAT = 16
_ARRAY_BYTES_PER_PAIR = 40
# The witness search then holds every colliding multiset (one whose product
# another multiset shares) as a tuple in its group, with its place in the
# sorted heads.  Past the pair table, its peak per colliding multiset on
# rational:1/2 was 167 B at k=3, X=100, 179 at k=4, X=40 and 214 at k=6, X=16
# on the dict backend, and 176 at k=3, X=120, 185 at k=3, X=200, 150 at k=2,
# X=1000 and 194 at k=6, X=16 on the array backend.  Its pairs are yielded
# one at a time and never held together, so they are not counted.
_BYTES_PER_COLLIDING_MULTISET = 240
# Values per chunk of the passes over a cell's sorted words and of the tie
# search's pick of rows, so that their temporaries stay near 1 MiB
_CHUNK = 1 << 16
# The tie search marks tied words by their low bits in a 1 MiB bitmap
_LOW_BITS = (1 << 20) - 1
_INT64_LIMIT = 1 << 63
_WORD_MODULUS = 1 << 64


class CapacityError(RuntimeError):
    """A cell's table or colliding multisets would exceed the memory budget."""


# ---------------------------------------------------------------------------
# canonical-key encoders
# ---------------------------------------------------------------------------


def _reduction_rows(m: MinimalPolynomial, k: int) -> list[tuple[Coeff, ...]]:
    """Rows R[j] = coordinates of t^j reduced mod m, for j = 0..k."""
    return [reduce_mod_minpoly(Poly([0] * j + [1]), m) for j in range(k + 1)]


class _PolyKeyer:
    """Single-integer keys for every canonical form: one shift, one encoder.

    Built from rows S[j] (the contribution of the t^j coefficient of the
    product polynomial to each canonical coordinate, scaled to integers) plus
    exact per-coordinate bounds; the key of a product with coefficient vector
    c is sum_j c_j * E_j, where E_j folds S[j] through the radix strides.  A
    rational p/q is the degree-1 case: its rows reduce modulo q*t - p, so
    E_j = p^j * q^(k-j) and the key is prod(q*x_i + p), its canonical form.
    """

    __slots__ = ("rows_weight", "bounds", "strides", "key_bits", "fits_int64")

    def __init__(self, k: int, X: int, rows: Sequence[Sequence[Coeff]], dims: int):
        scale = lcm(*(f.denominator for row in rows for f in row))
        srows = [tuple(int(f * scale) for f in row) for row in rows]
        # |c_j| = sigma_{k-j} <= C(k, k-j) X^(k-j) for tuples from [1, X]
        sig_bound = [comb(k, k - j) * X ** (k - j) for j in range(k + 1)]
        bounds = [
            sum(abs(srows[j][i]) * sig_bound[j] for j in range(k + 1))
            for i in range(dims)
        ]
        strides = [1]
        for i in range(dims - 1):
            strides.append(strides[-1] * (2 * bounds[i] + 1))
        self.bounds = bounds
        self.strides = strides
        # Every walker key K_i, every partial sum of _enumerate_rows and every
        # key encodes a non-negative coefficient vector at most that of a
        # product of k factors (t + X), so its magnitude is at most (box - 1)/2.
        box = strides[-1] * (2 * bounds[-1] + 1)
        self.key_bits = ((box - 1) // 2).bit_length()
        self.fits_int64 = (box - 1) // 2 < _INT64_LIMIT
        self.rows_weight = tuple(
            sum(srows[j][i] * strides[i] for i in range(dims)) for j in range(k + 1)
        )


def _keyer_for(k: int, X: int, shift: Shift) -> _PolyKeyer:
    if isinstance(shift, Transcendental):
        # canonical coordinate i is sigma_{i+1}, the t^(k-1-i) coefficient of
        # the product polynomial; the monic t^k coefficient carries nothing
        rows = [tuple(int(i == k - 1 - j) for i in range(k)) for j in range(k)]
        rows.append((0,) * k)
        return _PolyKeyer(k, X, rows, k)
    m = minimal_polynomial_for(shift)
    return _PolyKeyer(k, X, _reduction_rows(m, k), m.degree)


# ---------------------------------------------------------------------------
# multiset enumeration
# ---------------------------------------------------------------------------


def _walk(keyer: _PolyKeyer, X: int, depth: int, visit) -> None:
    """Call visit(state, prefix, last, den, run) once per non-decreasing prefix.

    prefix runs over the non-decreasing tuples of `depth` values from [1, X]
    and state is the tuple of keys K_i = key(P * t^i), i = 0..k - depth, of
    its product P: the keys of a multiset prefix + (x,) are K_1 + x*K_0, and
    of prefix + (x, y) are K_2 + (x + y)*K_1 + x*y*K_0.  The multisets
    extending prefix are prefix + rest for non-decreasing rest with
    rest[0] >= last, the prefix's last value (1 for the empty prefix); den is
    the product of the factorials of the prefix's multiplicities and run the
    multiplicity of last in it, so a visitor can weigh each multiset by its
    orderings.
    """
    _walk_below(X, depth, visit, keyer.rows_weight, (), 1, 1, 0)


def _extend(keys: tuple, x: int) -> tuple:
    # (t + x) * P * t^i = P * t^(i+1) + x * P * t^i, and key is linear
    rest = iter(keys)
    low = next(rest)
    out = []
    for high in rest:
        out.append(high + x * low)
        low = high
    return tuple(out)


def _rekey(keyer, multiset: tuple) -> int:
    """The exact key of a multiset's product, folded from the row weights."""
    state = keyer.rows_weight
    for x in multiset:
        state = _extend(state, x)
    (key,) = state
    return key


def _walk_below(
    X: int, depth: int, visit, state: tuple, prefix: tuple, last: int, den: int, run: int
) -> None:
    # Module-level rather than a closure that calls itself: such a closure is
    # a reference cycle, which would keep its caller's tables alive after
    # they are dropped, until the cyclic garbage collector runs.
    if depth == 0:
        visit(state, prefix, last, den, run)
        return
    depth -= 1
    _walk_below(
        X, depth, visit, _extend(state, last), prefix + (last,), last,
        den * (run + 1), run + 1,
    )
    for x in range(last + 1, X + 1):
        _walk_below(X, depth, visit, _extend(state, x), prefix + (x,), x, den, 1)


def _dict_table(keyer, k: int, X: int):
    """Distinct products, sum W and sum W^2 of the ordered weights W.

    The dict backend's table maps each canonical product's key to W.
    """
    table: dict = {}
    get = table.get
    kfact = factorial(k)

    def weigh(state, prefix, last, den, run) -> None:
        a, b = state
        key = a * last + b
        table[key] = get(key, 0) + kfact // (den * (run + 1))
        w = kfact // den
        for x in range(last + 1, X + 1):
            key = a * x + b
            table[key] = get(key, 0) + w

    _walk(keyer, X, k - 1, weigh)
    squares = sum(w * w for w in table.values())
    return len(table), sum(table.values()), squares


def _dict_groups(keyer, k: int, X: int, memory_budget_mb: int) -> list[list[tuple]]:
    """The multisets of every key that two or more multisets share, a list per key.

    Two passes: the first counts the multisets of every key and keeps the
    colliding keys (there are few), the second collects their multisets as
    sorted tuples, once the budget has room for them.
    """
    counts: dict = {}
    get = counts.get

    def count(state, prefix, last, den, run) -> None:
        a, b = state
        for x in range(last, X + 1):
            key = a * x + b
            counts[key] = get(key, 0) + 1

    _walk(keyer, X, k - 1, count)
    wanted = frozenset(key for key, n in counts.items() if n >= 2)
    _check_colliding(k, X, sum(counts[key] for key in wanted), memory_budget_mb)
    del counts, get  # the second pass needs only the colliding keys
    if not wanted:
        return []
    out: dict = {}

    def collect(state, prefix, last, den, run) -> None:
        a, b = state
        for x in range(last, X + 1):
            key = a * x + b
            if key in wanted:
                out.setdefault(key, []).append(prefix + (x,))

    _walk(keyer, X, k - 1, collect)
    return list(out.values())


# ---------------------------------------------------------------------------
# sort-based array backend
# ---------------------------------------------------------------------------


def _numpy_for(k: int, X: int):
    """The numpy module if the array backend settles this cell, else None.

    A multiset weighs at most k!, so every sum of weights is below n * k!
    (n multisets) and no int64 sum of weights can wrap; keys wrap by design
    (see `_word`).  numpy is imported only once the cell qualifies, so other
    cells never pay for the import.
    """
    n = comb(X + k - 1, k)
    if k < 2 or n < _ARRAY_MIN_MULTISETS:
        return None
    if n * factorial(k) >= _INT64_LIMIT:
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _word(key: int) -> int:
    """The int64 word of a key: the key modulo 2^64, in two's complement.

    It is the key itself for every key in int64.  Words are linear in keys,
    so the array backend's wrapping int64 arithmetic computes them.
    """
    return (key + _INT64_LIMIT) % _WORD_MODULUS - _INT64_LIMIT


def _sum_of_squares(values) -> int:
    """The sum of the squares of a non-negative int64 array, in Python ints."""
    # the sum is at most max * sum, so the int64 dot is exact under this guard
    if int(values.max(initial=0)) * int(values.sum()) < _INT64_LIMIT:
        return int(values @ values)
    return sum(v * v for v in values.tolist())


def _enumerate_rows(np, keyer, k: int, X: int):
    """Word and ordering weight of every multiset (k >= 2), one row each.

    `_walk` visits each prefix of the first k-2 coordinates.  Below them the
    key is a*x*y + b*(x + y) + c in the last two coordinates x <= y, so each
    prefix writes the rows of all its pairs at once from a table of the pairs
    of [1, X] in lexicographic order, where the pairs with x >= v start at
    first[v] and each starts with (v, v).  The words of a, b and c make the
    key's word, since numpy's int64 arithmetic wraps modulo 2^64 without
    signalling.  Returns (words, weights, members), members(rows) being the
    multisets of an int64 array of rows as sorted tuples.
    """
    n = comb(X + k - 1, k)
    kfact = factorial(k)
    words = np.empty(n, dtype=np.int64)
    weights = np.empty(n, dtype=np.min_scalar_type(kfact))
    xs, ys = np.triu_indices(X)
    xs += 1
    ys += 1
    pair_product = xs * ys
    pair_sum = xs + ys
    first = [0] * (X + 2)
    for v in range(1, X + 1):
        first[v + 1] = first[v] + X + 1 - v
    diagonal = np.array(first[1:X + 1])
    block_start: list[int] = []
    block_first: list[int] = []
    block_prefix: list[tuple] = []
    end = 0

    def block(state, prefix: tuple, lo: int, den: int, run: int) -> None:
        # rows prefix + (x, y) for lo <= x <= y <= X; run counts lo in prefix
        nonlocal end
        start = end
        end = start + first[X + 1] - first[lo]
        a, b, c = map(_word, state)
        out = words[start:end]
        np.multiply(pair_product[first[lo]:], a, out=out)
        out += pair_sum[first[lo]:] * b
        out += c
        w = weights[start:end]
        w[:] = kfact // den
        w[diagonal[lo - 1:] - first[lo]] = kfact // (den * 2)
        w[:X + 1 - lo] = kfact // (den * (run + 1))
        w[0] = kfact // (den * (run + 1) * (run + 2))
        block_start.append(start)
        block_first.append(first[lo])
        block_prefix.append(prefix)

    _walk(keyer, X, k - 2, block)
    if end != n:
        raise RuntimeError("array enumeration missed multisets; this is an engine bug")
    starts = np.array(block_start)
    firsts = np.array(block_first)
    prefixes = np.array(block_prefix, dtype=np.int64).reshape(len(block_prefix), k - 2)

    def members(rows) -> list[tuple]:
        j = starts.searchsorted(rows, side="right") - 1
        i = firsts[j] + rows - starts[j]
        return list(map(tuple, np.column_stack((prefixes[j], xs[i], ys[i])).tolist()))

    return words, weights, members


def _run_starts(np, ordered):
    """Where each run of equal values of a sorted array starts."""
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def _tied_words(np, words):
    """The values that two or more of `words` share, and how many share each.

    Sorts `words` in place, then yields (tied, lengths) a chunk of whole runs
    at a time, for each chunk with a tie: its tied values in increasing order
    and the length of each one's run.  A chunk ends at the end of the run
    that holds its _CHUNK-th value, so no run crosses a chunk's edge, and past
    one comparison per value the work grows with the ties, not the values.
    """
    words.sort()
    n = len(words)
    lo = 0
    while lo < n:
        hi = int(words.searchsorted(words[min(lo + _CHUNK, n) - 1], side="right"))
        chunk = words[lo:hi]
        # each row of a run but its first gives the run's value once
        repeats = chunk[np.flatnonzero(chunk[1:] == chunk[:-1])]
        if len(repeats):
            at = _run_starts(np, repeats)
            yield repeats[at], np.diff(at, append=len(repeats)) + 1
        lo = hi


def _tie_bitmap(np, words):
    """A bitmap of the low 20 bits of the values that two or more words share.

    Sorts `words` in place (`_tied_words`).  None if every value is distinct.
    """
    bitmap = np.zeros(_LOW_BITS + 1, dtype=bool)
    for tied, _ in _tied_words(np, words):
        bitmap[tied & _LOW_BITS] = True
    return bitmap if bitmap.any() else None


def _orderings(kfact: int, multiset: tuple) -> int:
    return kfact // prod(factorial(n) for n in Counter(multiset).values())


def _shared_products(
    np, keyer, k: int, X: int, bitmap, memory_budget_mb: int
) -> list[list[tuple]]:
    """The multisets of every product that two or more rows share, a list per product.

    `bitmap` marks the low 20 bits of the words that two or more rows share
    (`_tie_bitmap`); equal products give equal words.  Without tied words
    there is nothing to find.  Otherwise a second enumeration of the cell
    picks, chunk by chunk, the rows whose low bits the bitmap marks: the
    rows of tied words and few others.  Grouping the picked rows by word and
    dropping the lone ones leaves exactly the rows of tied words, and only
    their multisets are built as tuples, once the budget has room.  When the
    words are the keys each tied word is one product; otherwise its
    multisets are re-keyed exactly, grouped by key and the lone ones dropped.
    """
    if bitmap is None:
        return []
    words, weights, members = _enumerate_rows(np, keyer, k, X)
    del weights
    rows = np.concatenate([
        lo + np.flatnonzero(bitmap[words[lo:lo + _CHUNK] & _LOW_BITS])
        for lo in range(0, len(words), _CHUNK)
    ])
    picked = words[rows]
    del words
    order = np.argsort(picked, kind="stable")
    rows = rows[order]
    lengths = np.diff(_run_starts(np, picked[order]), append=len(rows))
    del picked, order
    rows = rows[np.repeat(lengths > 1, lengths)]  # the rows of tied words
    _check_colliding(k, X, len(rows), memory_budget_mb, _pair_table_bytes(X))
    multisets = members(rows)
    bounds = np.cumsum(lengths[lengths > 1]).tolist()
    runs = [multisets[i:j] for i, j in zip([0] + bounds, bounds)]
    if keyer.fits_int64:
        return runs
    by_key: dict = {}
    for run in runs:
        for multiset in run:
            by_key.setdefault(_rekey(keyer, multiset), []).append(multiset)
    return [group for group in by_key.values() if len(group) > 1]


def _array_table(np, keyer, k: int, X: int, memory_budget_mb: int):
    """Distinct products, sum W and sum W^2, from one in-place sort of the words.

    A row weighs k! unless its multiset repeats a value, a share of about
    k(k-1)/X of the rows, so the rows' sum of weights and sum of squared
    weights come from those short rows, and the second must equal the
    diagonal count T.  Every row is one product but for the products that
    rows share, so M = T + sum over shared products of (W^2 - sum w^2), W
    being the sum of a product's row weights w, and each shared product of
    L rows takes L - 1 from the distinct count.  When the words are the keys,
    each tied word of L rows is one such product, whose W is k!*L less the
    summed shortfall of its short rows, found among the sorted short words;
    the tie pass's work grows with the ties, not the rows.  When keys do not
    fit in int64, the shared products are the groups the witness search
    finds.
    """
    kfact = factorial(k)
    words, weights, members = _enumerate_rows(np, keyer, k, X)
    del members
    n = len(words)
    short = weights != kfact
    short_weights = weights[short]
    counts = np.bincount(short_weights).tolist()
    full = n - len(short_weights)
    total = kfact * full + sum(w * c for w, c in enumerate(counts))
    squares = kfact * kfact * full + sum(w * w * c for w, c in enumerate(counts))
    if squares != diagonal_count_exact(k, X):
        raise RuntimeError("ordering-weight bookkeeping lost tuples; this is an engine bug")
    del weights
    if not keyer.fits_int64:
        del short, short_weights
        bitmap = _tie_bitmap(np, words)
        del words
        groups = _shared_products(np, keyer, k, X, bitmap, memory_budget_mb)
        for group in groups:
            ws = [_orderings(kfact, multiset) for multiset in group]
            squares += sum(ws) ** 2 - sum(w * w for w in ws)
        distinct = n - sum(len(group) - 1 for group in groups)
        return distinct, total, squares
    short_words = words[short]
    del short
    shortfall = kfact - short_weights  # in the weights' small dtype
    del short_weights
    order = short_words.argsort()
    short_words.sort()  # in place, where a gather through order would copy
    shortfall = shortfall[order]
    del order
    distinct, mean_value = n, squares
    for tied, lengths in _tied_words(np, words):
        rows = int(lengths.sum())
        distinct -= rows - len(tied)
        W = lengths * kfact
        held = kfact * kfact * rows  # the sum of w^2 over these rows, were all full
        a = int(short_words.searchsorted(tied[0]))
        b = int(short_words.searchsorted(tied[-1], side="right"))
        # the short rows of tied words, each at its word's W
        at = tied.searchsorted(short_words[a:b])
        hit = np.flatnonzero(tied[at] == short_words[a:b])
        s = shortfall[a:b][hit].astype(np.int64)
        np.subtract.at(W, at[hit], s)
        held -= int((s * (2 * kfact - s)).sum())  # k!^2 - w^2 for w = k! - s
        mean_value += _sum_of_squares(W) - held
    return distinct, total, mean_value


def _array_groups(np, keyer, k: int, X: int, memory_budget_mb: int) -> list[list[tuple]]:
    """The multisets of every key that two or more multisets share, a list per key."""
    bitmap = _tie_bitmap(np, _enumerate_rows(np, keyer, k, X)[0])
    return _shared_products(np, keyer, k, X, bitmap, memory_budget_mb)


# ---------------------------------------------------------------------------
# representation counts without a table
# ---------------------------------------------------------------------------


def _norm(nu: Poly, m: MinimalPolynomial) -> Fraction:
    """N(nu), the determinant of multiplication by nu in Q[t]/(m).

    Row j holds the coordinates of nu * t^j reduced modulo m; elimination
    over the rationals takes the determinant exactly.
    """
    d = m.degree
    rows = [list(reduce_mod_minpoly(nu * Poly([0] * j + [1]), m)) for j in range(d)]
    det = Fraction(1)
    for i in range(d):
        pivot = next((r for r in range(i, d) if rows[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, d):
            f = Fraction(rows[r][i]) / rows[i][i]
            for c in range(i, d):
                rows[r][c] -= f * rows[i][c]
    return det


def _representations(nu: CanonicalProduct, k: int, X: int, shift: Shift) -> int:
    """Number of ordered k-tuples in [1, X]^k whose product is nu, found without a table.

    The norm identity run backwards: the factors of a representation's
    values multiply to a target read off nu alone.  For a rational p/q the
    target is nu and the factor of x is q*x + p.  For an algebraic shift
    whose minimal polynomial m has degree d and leading coefficient a, norms
    give prod m(-x_i) = ((-1)^d a)^k N(nu), the target, and the factor of x
    is m(-x).  For a transcendental shift each -x_i is a root of the
    product polynomial prod(t + x_i), whose constant term, the product of
    the x_i, is the target; the factor of x is x.  The values of [1, X]
    whose factor divides the target are kept, and `_divisor_walk` confirms
    each of their non-decreasing k-tuples whose factors multiply to it.  A
    rational nu = 0 is counted as the tuples with a vanishing factor.
    """
    if nu.shift != shift:
        raise ValueError("canonical product belongs to a different shift")
    coords = nu.coords
    if isinstance(coords, int) != isinstance(shift, Rational):
        return 0  # not the canonical form of any product of this shift
    if isinstance(shift, Rational):
        if coords == 0:
            return X**k - (X - 1) ** k if shift.q == 1 and 1 <= -shift.p <= X else 0
        target = coords
        factors = ((x, shift.q * x + shift.p) for x in range(1, X + 1))
    elif isinstance(shift, Transcendental):
        if len(coords) != k:
            return 0
        product = Poly(reversed((1,) + coords))
        target = coords[-1]
        factors = ((x, x) for x in range(1, X + 1) if product.evaluate(-x) == 0)
    else:
        m = shift.minpoly
        norm = ((-1) ** m.degree * m.coeffs[-1]) ** k * _norm(Poly(coords), m)
        if norm == 0 or norm.denominator != 1:
            return 0
        target = norm.numerator
        factors = ((x, norm_factor(x, m)) for x in range(1, X + 1))
    kept = [(x, f) for x, f in factors if f and target % f == 0]
    return _divisor_walk(nu, k, kept, 0, target, ())


def _divisor_walk(nu, k: int, kept: list, start: int, target: int, prefix: tuple) -> int:
    """Summed orderings of the k-tuples whose product is nu that extend prefix from kept[start] on.

    kept holds (x, factor) in increasing x, and target is what the prefix's
    factors leave of the search's target; each value's factor must divide
    it, and a full tuple's must leave 1.  Module-level for the reason
    `_walk_below` gives.
    """
    if len(prefix) == k:
        if target != 1 or shifted_product(prefix, nu.shift) != nu:
            return 0
        return _orderings(factorial(k), prefix)
    count = 0
    for i in range(start, len(kept)):
        x, factor = kept[i]
        quotient, remainder = divmod(target, factor)
        if not remainder:
            count += _divisor_walk(nu, k, kept, i, quotient, prefix + (x,))
    return count


# ---------------------------------------------------------------------------
# public engine surface
# ---------------------------------------------------------------------------


def _pair_table_bytes(X: int) -> int:
    """What every array-backend pass holds: numpy, its chunk temporaries, the pair table."""
    return _ARRAY_FIXED_BYTES + comb(X + 1, 2) * _ARRAY_BYTES_PER_PAIR


def _array_bytes(k: int, X: int) -> int:
    """The array backend's peak memory on a cell, by the measured figures above."""
    multisets = comb(X + k - 1, k)
    return (
        _pair_table_bytes(X)
        + multisets * _ARRAY_BYTES_PER_MULTISET
        + (multisets - comb(X, k)) * _ARRAY_BYTES_PER_REPEAT
    )


def _dict_bytes(k: int, entries: int, key_bits: int) -> int:
    """The dict backend's peak memory on a table of at most `entries` keys, by the model above."""
    slots = 1 << (3 * entries // 2).bit_length()  # a dict fills two thirds of its slots
    key = 24 + 4 * max(1, -(-key_bits // 30)) + _BYTES_PER_KEY_SLACK
    weight = _BYTES_PER_LARGE_WEIGHT if factorial(k) > 256 else 0
    return _DICT_BYTES_PER_SLOT * slots + entries * (key + weight)


def _check_budget(needed: int, memory_budget_mb: int, what: str) -> None:
    """Raise CapacityError if `needed` bytes, of `what`, exceed the budget."""
    if needed > memory_budget_mb * (1 << 20):
        raise CapacityError(
            f"{what} (~{needed >> 20} MiB), over the {memory_budget_mb} MiB budget"
        )


def _check_colliding(
    k: int, X: int, multisets: int, memory_budget_mb: int, held: int = 0
) -> None:
    """Raise CapacityError if `held` bytes and these colliding multisets exceed the budget."""
    _check_budget(
        held + multisets * _BYTES_PER_COLLIDING_MULTISET, memory_budget_mb,
        f"k={k}, X={X} has {multisets} colliding multisets",
    )


def _require_int(name: str, value, least: int) -> None:
    # bool is an int subclass, but True is no count
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_cell(k: int, X: int, shift: Shift) -> None:
    """Raise ValueError or TypeError on an invalid cell."""
    _require_int("k", k, 1)
    if k > DEFAULT_MAX_K:
        raise ValueError(f"k={k} exceeds the configured maximum {DEFAULT_MAX_K}")
    _require_int("X", X, 1)
    if not isinstance(shift, (Transcendental, Algebraic, Rational)):
        raise TypeError(f"not a shift: {shift!r}")


def _settle(k: int, X: int, shift: Shift, memory_budget_mb: int):
    """The keyer and the numpy module (None for the dict backend) of a cell.

    Validates the arguments, builds the cell's keyer, picks the backend and
    applies the capacity guard before anything is enumerated.
    """
    _check_cell(k, X, shift)
    _require_int("memory budget (MiB)", memory_budget_mb, 1)
    keyer = _keyer_for(k, X, shift)
    np = _numpy_for(k, X)
    entries = comb(X + k - 1, k)
    needed = _dict_bytes(k, entries, keyer.key_bits) if np is None else _array_bytes(k, X)
    _check_budget(needed, memory_budget_mb, f"k={k}, X={X} needs ~{entries} table entries")
    return keyer, np


@dataclasses.dataclass
class ProductTable:
    """Frequency table of canonical products over [1, X]^k for one shift.

    Values are ordered-tuple multiplicities W.  The build sums them as it
    goes and keeps only the sums: their number is `distinct_products`, their
    sum is X^k and the sum of their squares is the mean value M.
    """

    k: int
    X: int
    shift: Shift
    distinct_products: int
    _total: int
    _mean_value: int

    def mean_value(self) -> int:
        return self._mean_value

    def total_ordered_tuples(self) -> int:
        return self._total


def build_product_table(
    k: int,
    X: int,
    shift: Shift,
    *,
    memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
) -> ProductTable:
    """Enumerate all multisets once and build the ordered-multiplicity table."""
    keyer, np = _settle(k, X, shift, memory_budget_mb)
    if np is None:
        sums = _dict_table(keyer, k, X)
    else:
        sums = _array_table(np, keyer, k, X, memory_budget_mb)
    table = ProductTable(k, X, shift, *sums)
    if table.total_ordered_tuples() != X**k:
        raise RuntimeError(
            "ordering-weight bookkeeping lost tuples; this is an engine bug"
        )
    return table


@dataclasses.dataclass(frozen=True)
class CountReport:
    """One experiment cell: exact mean value, diagonal count, and their gap."""

    k: int
    X: int
    shift: Shift
    mean_value: int
    diagonal: int
    distinct_products: int
    elapsed: float

    def __post_init__(self):
        if not self.mean_value >= self.diagonal >= 0:
            raise ValueError(
                f"mean value {self.mean_value} and diagonal {self.diagonal} "
                "violate M >= T >= 0"
            )
        if (self.mean_value - self.diagonal) % 2:
            raise ValueError("non-diagonal count must be even (x,y pairs swap)")
        if self.distinct_products > comb(self.X + self.k - 1, self.k):
            raise ValueError("more distinct products than multisets")

    @property
    def nondiagonal(self) -> int:
        return self.mean_value - self.diagonal

    @property
    def elapsed_ms(self) -> int:
        return round(self.elapsed * 1000)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "X": self.X,
            "shift": format_shift(self.shift),
            "M": self.mean_value,
            "T": self.diagonal,
            "nondiag": self.nondiagonal,
            "distinct_nu": self.distinct_products,
            "elapsed_ms": self.elapsed_ms,
        }


def count_mean_value(
    k: int,
    X: int,
    shift: Shift,
    *,
    memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
) -> CountReport:
    """Exact mean value M, diagonal count T, and distinct-product count at (k, X)."""
    t0 = time.perf_counter()
    table = build_product_table(k, X, shift, memory_budget_mb=memory_budget_mb)
    report = CountReport(
        k=k,
        X=X,
        shift=shift,
        mean_value=table.mean_value(),
        diagonal=diagonal_count_exact(k, X),
        distinct_products=table.distinct_products,
        elapsed=time.perf_counter() - t0,
    )
    return report


def representation_count(nu: CanonicalProduct, k: int, X: int, shift: Shift) -> int:
    """Number of ordered k-tuples d in [1, X]^k with prod(d_i + theta) = nu.

    Builds no table and enumerates no cell: the search runs the norm
    identity backwards from nu (`_representations`), at the cost of one
    factor per value of [1, X] and a walk over the few values whose factor
    divides nu's target, so X may lie far beyond any table.
    """
    _check_cell(k, X, shift)
    return _representations(nu, k, X, shift)


def _partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for part in range(max_part, 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def diagonal_count_exact(k: int, X: int) -> int:
    """Exact number of ordered pairs (x, y) in [1,X]^{2k} with equal multisets.

    Summed in closed form over multiplicity profiles (partitions of k): a
    profile with r distinct values can be placed in [X]_r / prod(m_s!) ways
    (m_s = number of parts of size s) and each placement contributes the
    square of its ordering count k! / prod(part_i!).
    """
    _require_int("k", k, 1)
    _require_int("X", X, 1)
    kfact = factorial(k)
    total = 0
    for lam in _partitions(k):
        r = len(lam)
        falling = 1
        for i in range(r):
            falling *= X - i
        if falling == 0:
            continue
        profile_denom = prod(factorial(m) for m in Counter(lam).values())
        orderings = kfact // prod(factorial(part) for part in lam)
        total += (falling // profile_denom) * orderings * orderings
    return total


@dataclasses.dataclass(frozen=True)
class SolutionPair:
    """An unordered witness pair: two multisets with equal shifted products.

    Both sides are stored sorted and the pair itself is ordered x <= y, so
    equal witnesses compare equal regardless of how they were found.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("witness sides must have the same length")
        for v in self.x + self.y:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"witness entries must be integers >= 1, got {v!r}")
        x = tuple(sorted(self.x))
        y = tuple(sorted(self.y))
        if y < x:
            x, y = y, x
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _canonical(cls, x: tuple[int, ...], y: tuple[int, ...]) -> "SolutionPair":
        """A pair from sides the engine already built sorted, with x <= y.

        Skips `__post_init__`'s validation and sorting; input read from
        outside the engine goes through the public constructor instead.
        """
        pair = object.__new__(cls)
        object.__setattr__(pair, "x", x)
        object.__setattr__(pair, "y", y)
        return pair

    @property
    def k(self) -> int:
        return len(self.x)

    @property
    def is_diagonal(self) -> bool:
        return self.x == self.y

    def to_json_dict(self) -> dict:
        return {"x": list(self.x), "y": list(self.y)}


def cancel_common_factors(pair: SolutionPair) -> SolutionPair:
    """Remove matched values from the two sides until none coincide.

    The result solves the same equation with smaller k; it is empty exactly
    when the pair was diagonal.  A pair whose sides share no value is
    returned as it is.  Cancelling keeps the pair canonical: the smallest
    value left is on the side that compared lower, so x <= y still holds.
    """
    if set(pair.x).isdisjoint(pair.y):
        return pair
    cx = Counter(pair.x)
    cy = Counter(pair.y)
    x = tuple(sorted((cx - cy).elements()))
    y = tuple(sorted((cy - cx).elements()))
    return SolutionPair._canonical(x, y)


def find_nondiagonal_witnesses(
    k: int,
    X: int,
    shift: Shift,
    *,
    limit: Optional[int] = None,
    memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
) -> Iterator[SolutionPair]:
    """Deduplicated non-diagonal witness pairs, yielded in lexicographic order.

    Both backends make two passes over the multiset space: the first finds
    the products that two or more multisets share (there are few), the
    second collects their multisets.  The array backend finds them by
    sorting its words in place and skips the second pass when there are
    none.  Each colliding group of r multisets yields C(r, 2) unordered
    pairs.  The call validates its arguments, settles the cell and builds
    the colliding groups before it returns, so ValueError and CapacityError
    are raised by the call itself; the pairs are then built one at a time as
    the iterator is consumed, and never held together.  Transcendental
    shifts are legal and yield nothing: prod(x_i + t) = prod(y_i + t) in Z[t]
    forces equal multisets, so once the arguments are validated the call
    returns an empty iterator without enumerating the cell, and no cell of
    theirs is too large.  `limit`, if given, keeps the first `limit` pairs and
    must not be negative.

    A caller that keeps every pair, as in `list(...)`, should pause the
    cyclic collector around it (`gc.disable()`): millions of kept pairs,
    none in a reference cycle, would otherwise be rescanned again and again.
    """
    if limit is not None:
        _require_int("limit", limit, 0)
    if isinstance(shift, Transcendental):
        _check_cell(k, X, shift)
        _require_int("memory budget (MiB)", memory_budget_mb, 1)
        return iter(())
    keyer, np = _settle(k, X, shift, memory_budget_mb)
    # The colliding multisets are new objects, millions on a rational cell,
    # and none is in a reference cycle, so the cyclic collector would only
    # rescan them again and again: it pauses until they are grouped.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if np is None:
            groups = _dict_groups(keyer, k, X, memory_budget_mb)
        else:
            groups = _array_groups(np, keyer, k, X, memory_budget_mb)
        # Each multiset lies in one group, so pairing the colliding multisets,
        # taken in sorted order, with the later members of their sorted group
        # yields the pairs in lexicographic order without sorting them.
        # Members are sorted tuples of ints, so each pair is already canonical.
        heads: list = []
        for members in groups:
            members.sort()
            heads += zip(members, range(len(members) - 1), repeat(members))
        heads.sort(key=itemgetter(0))
    finally:
        if enabled:
            gc.enable()
    pairs = (SolutionPair._canonical(x, y) for x, i, members in heads for y in members[i + 1:])
    return islice(pairs, limit)
