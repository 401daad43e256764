"""Exact solution counting for k-fold shifted-product equations.

The mean value M counts ordered pairs of k-tuples x, y in [1, X]^k with
prod(x_i + theta) = prod(y_i + theta).  It is computed by enumerating each
multiset of [1, X] once (as a non-decreasing tuple), weighting it by its
number of distinct orderings k!/prod(mult_i!), and accumulating the weights
in a frequency table keyed by the canonical form of the product; then
M = sum of squared frequencies.  The diagonal count T (pairs where y is a
permutation of x) comes from an independent closed-form partition sum, so
M and T cross-check each other and M - T is the non-diagonal count.

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
once into one int64 array and sorts it once.  A key's word is the key
modulo 2^64 in two's complement, which the int64 arithmetic computes by
wrapping, and it is the key itself when the keyer proves that every key and
partial key fits in int64.  Runs of equal words give the distinct products
and their ordered weights, and repeated words the colliding multisets, so
one enumeration serves either the count or the witnesses.  When keys do not
fit, equal products still give equal words, so a word of one row is exact;
the rows of a word that two or more rows share are re-keyed exactly from
their multisets and split by key.  Those groups are what the witness search
returns, and the table of such a cell is read off them too: every row is
one product but for the groups, and a lookup re-keys the rows of its key's
word.  Every other cell takes the dict backend: one dict update per
multiset in arbitrary-precision integers.  It is the reference the tests
compare the array backend against.

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
import time
from collections import Counter
from itertools import combinations
from math import comb, factorial, lcm, prod
from typing import Callable, Iterator, Optional, Sequence

from .polynomials import Coeff, MinimalPolynomial, Poly, reduce_mod_minpoly
from .shifts import Algebraic, CanonicalProduct, Rational, Shift, Transcendental
from .shifts import format_shift, minimal_polynomial_for

DEFAULT_MAX_K = 6
DEFAULT_MEMORY_BUDGET_MB = 2048
_BYTES_PER_TABLE_ENTRY = 96
# The array backend pays for importing numpy (0.13-0.17 s) only on cells at
# least this big.
_ARRAY_MIN_MULTISETS = 1 << 20
# Peak bytes per multiset of the int64 array backend's table, by tracemalloc
# (which sees numpy buffers) for minpoly:-2,0,1 with numpy imported, less the
# pair table: 24.1 at k=3, X=100, 25.9 at k=4, X=60, 27.3 at k=5, X=50, 29.5
# at k=5, X=30, 34.9 at k=6, X=20 and 31.6 at k=6, X=30.  It grows with the
# share of multisets that repeat a value, so 36 covers the worst case, k=6.
# The witnesses took 18.7-28.2.  On top comes the table of the X(X+1)/2
# pairs, four int64 arrays, which is as big as the cell at k=2.  The dict
# backend measured 66.5 B per table entry the same way; its guard keeps 96 B.
# Keys beyond int64 peak lower, at the words, one sorted copy and a mask: 17.2
# at k=4, X=60, 17.0 at k=4, X=100, 18.2 at k=5, X=30 and 19.9 at k=6, X=25.
_ARRAY_BYTES_PER_MULTISET = 36
_ARRAY_BYTES_PER_PAIR = 32
# Peak bytes per witness pair of find_nondiagonal_witnesses, by tracemalloc on
# either backend: 273 at k=2, 290 at k=3, 302 at k=4 and 336 at k=6, since
# every pair is sorted as a tuple before the kept ones become SolutionPairs.
_BYTES_PER_WITNESS_PAIR = 340
_INT64_LIMIT = 1 << 63
_WORD_MODULUS = 1 << 64

COUNT_CSV_HEADER = "k,X,shift,M,T,nondiag,distinct_nu,elapsed_ms"


class CapacityError(RuntimeError):
    """The frequency table or witness pairs for (k, X) would exceed the memory budget."""


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

    __slots__ = ("k", "rows_weight", "scale", "bounds", "strides", "dims", "fits_int64")

    def __init__(self, k: int, X: int, rows: Sequence[Sequence[Coeff]], dims: int):
        self.k = k
        self.dims = dims
        scale = lcm(*(f.denominator for row in rows for f in row))
        srows = [tuple(int(f * scale) for f in row) for row in rows]
        self.scale = scale
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
        self.fits_int64 = (box - 1) // 2 < _INT64_LIMIT
        self.rows_weight = tuple(
            sum(srows[j][i] * strides[i] for i in range(dims)) for j in range(k + 1)
        )

    def encode(self, nu: CanonicalProduct) -> Optional[int]:
        """Table key of a public canonical form, or None if unrepresentable."""
        if isinstance(nu.coords, int):
            # a rational's coordinate prod(q*x_i + p) is its key already
            if self.dims != 1 or abs(nu.coords) > self.bounds[0]:
                return None
            return nu.coords
        if len(nu.coords) != self.dims:
            return None
        key = 0
        for coord, bound, stride in zip(nu.coords, self.bounds, self.strides):
            scaled = coord * self.scale
            v = int(scaled)
            if v != scaled or abs(v) > bound:
                return None
            key += v * stride
        return key


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
    """Distinct products, sum W, sum W^2 and a lookup of the ordered weights W.

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
    return len(table), sum(table.values()), squares, lambda key: get(key, 0)


def _dict_colliding_keys(keyer, k: int, X: int) -> frozenset:
    """The keys of the canonical products of two or more multisets."""
    counts: dict = {}
    get = counts.get

    def count(state, prefix, last, den, run) -> None:
        a, b = state
        for x in range(last, X + 1):
            key = a * x + b
            counts[key] = get(key, 0) + 1

    _walk(keyer, X, k - 1, count)
    return frozenset(key for key, n in counts.items() if n >= 2)


def _dict_groups(keyer, k: int, X: int) -> list[list[tuple]]:
    """The multisets of every key that two or more multisets share, a list per key.

    Two passes: the first finds the colliding keys (there are few), the
    second collects their multisets as sorted tuples.
    """
    wanted = _dict_colliding_keys(keyer, k, X)
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


def _sum_of_squares(weights) -> int:
    """Sum of the squares of an int64 array, in Python ints."""
    # sum W^2 <= max(W) * sum W, so the int64 dot is exact under this guard
    if int(weights.max(initial=0)) * int(weights.sum()) < _INT64_LIMIT:
        return int(weights @ weights)
    return sum(w * w for w in weights.tolist())


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


def _run_bounds(np, ordered):
    """Where each run of equal values of a sorted array starts, then its length."""
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))


def _orderings(kfact: int, multiset: tuple) -> int:
    return kfact // prod(factorial(n) for n in Counter(multiset).values())


def _shared_products(np, keyer, words, members) -> list[list[tuple]]:
    """The multisets of every product that two or more rows share, a list per product.

    Equal products give equal words, so one sort of the words finds the tied
    words.  A bitmap of their low 20 bits picks out their rows and few
    others, and grouping the picked rows by word and dropping the lone ones
    leaves exactly the rows of tied words.  When the words are the keys each
    tied word is one product; otherwise its multisets are re-keyed exactly,
    grouped by key and the lone ones dropped.
    """
    ordered = np.sort(words)
    tied = ordered[1:][ordered[1:] == ordered[:-1]]
    del ordered
    if not len(tied):
        return []
    low = (1 << 20) - 1
    bitmap = np.zeros(low + 1, dtype=bool)
    bitmap[tied & low] = True
    rows = np.flatnonzero(bitmap[words & low])
    rows = rows[np.argsort(words[rows], kind="stable")]
    bounds = _run_bounds(np, words[rows]).tolist()
    multisets = members(rows)
    runs = [multisets[i:j] for i, j in zip(bounds[:-1], bounds[1:]) if j - i > 1]
    if keyer.fits_int64:
        return runs
    by_key: dict = {}
    for run in runs:
        for multiset in run:
            by_key.setdefault(_rekey(keyer, multiset), []).append(multiset)
    return [group for group in by_key.values() if len(group) > 1]


def _array_table(np, keyer, k: int, X: int):
    """Distinct products, sum W, sum W^2 and a lookup, from one sort of the words.

    When the words are the keys, each run of equal words in sorted order is
    one distinct product.  A row weighs k! unless its multiset repeats a
    value, so a run's ordered weight W is k! times its length less the
    shortfall of those rows, a share of about k(k-1)/X.  Sorting the words
    alone and patching W so spares an argsort, the gathers through its
    permutation and a segmented sum.  When keys do not fit in int64, every
    row is one product but for the shared products the witness search finds,
    so the sums come from the row weights and those groups, and a lookup
    re-keys the rows of its key's word.
    """
    words, weights, members = _enumerate_rows(np, keyer, k, X)
    kfact = factorial(k)
    if not keyer.fits_int64:
        counts = np.bincount(weights).tolist()
        del weights
        total = sum(w * n for w, n in enumerate(counts))
        squares = sum(w * w * n for w, n in enumerate(counts))
        groups = _shared_products(np, keyer, words, members)
        for group in groups:
            ws = [_orderings(kfact, multiset) for multiset in group]
            squares += sum(ws) ** 2 - sum(w * w for w in ws)
        distinct = len(words) - sum(len(group) - 1 for group in groups)

        def wide_lookup(key: int) -> int:
            multisets = members(np.flatnonzero(words == _word(key)))
            return sum(_orderings(kfact, m) for m in multisets if _rekey(keyer, m) == key)

        return distinct, total, squares, wide_lookup
    short = np.flatnonzero(weights != kfact)
    # sorted needles make the searchsorted below several times faster
    short = short[np.argsort(words[short])]
    short_words = words[short]
    shortfall = kfact - weights[short]
    del weights, short
    words.sort()
    bounds = _run_bounds(np, words)
    distinct = words[bounds[:-1]]
    del words
    W = np.diff(bounds)  # run lengths until scaled
    del bounds
    W *= kfact
    at = distinct.searchsorted(short_words)
    del short_words
    # int64 values keep ufunc.at on its fast path
    np.subtract.at(W, at, shortfall.astype(np.int64))

    def lookup(key: int) -> int:
        i = int(distinct.searchsorted(_word(key)))
        return int(W[i]) if i < len(distinct) and int(distinct[i]) == key else 0

    return len(distinct), int(W.sum()), _sum_of_squares(W), lookup


def _array_groups(np, keyer, k: int, X: int) -> list[list[tuple]]:
    """The multisets of every key that two or more multisets share, a list per key."""
    words, _, members = _enumerate_rows(np, keyer, k, X)
    return _shared_products(np, keyer, words, members)


# ---------------------------------------------------------------------------
# public engine surface
# ---------------------------------------------------------------------------


def _check_capacity(k: int, X: int, memory_budget_mb: int, array: bool) -> None:
    entries = comb(X + k - 1, k)
    if array:
        needed = entries * _ARRAY_BYTES_PER_MULTISET + comb(X + 1, 2) * _ARRAY_BYTES_PER_PAIR
    else:
        needed = entries * _BYTES_PER_TABLE_ENTRY
    if needed > memory_budget_mb * (1 << 20):
        raise CapacityError(
            f"k={k}, X={X} needs ~{entries} table entries "
            f"(~{needed >> 20} MiB), over the {memory_budget_mb} MiB budget"
        )


def _require_int(name: str, value, least: int) -> None:
    # bool is an int subclass, but True is no count
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _settle(k: int, X: int, shift: Shift, memory_budget_mb: int):
    """The keyer and the numpy module (None for the dict backend) of a cell.

    Validates the arguments, builds the cell's keyer, picks the backend and
    applies the capacity guard before anything is enumerated.
    """
    _require_int("k", k, 1)
    if k > DEFAULT_MAX_K:
        raise ValueError(f"k={k} exceeds the configured maximum {DEFAULT_MAX_K}")
    _require_int("X", X, 1)
    if not isinstance(shift, (Transcendental, Algebraic, Rational)):
        raise TypeError(f"not a shift: {shift!r}")
    _require_int("memory budget (MiB)", memory_budget_mb, 1)
    keyer = _keyer_for(k, X, shift)
    np = _numpy_for(k, X)
    _check_capacity(k, X, memory_budget_mb, np is not None)
    return keyer, np


@dataclasses.dataclass
class ProductTable:
    """Frequency table of canonical products over [1, X]^k for one shift.

    Values are ordered-tuple multiplicities W.  The build sums them as it
    goes: their number is `distinct_products`, their sum is X^k and the sum
    of their squares is the mean value M.  `ordered_count` reads one W
    through the backend's lookup of a key.
    """

    k: int
    X: int
    shift: Shift
    _keyer: object
    distinct_products: int
    _total: int
    _mean_value: int
    _lookup: Callable[[int], int]

    def ordered_count(self, nu: CanonicalProduct) -> int:
        """Number of ordered k-tuples in [1, X]^k whose product has canonical form nu."""
        if nu.shift != self.shift:
            raise ValueError("canonical product belongs to a different shift")
        key = self._keyer.encode(nu)
        return 0 if key is None else self._lookup(key)

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
    sums = _dict_table(keyer, k, X) if np is None else _array_table(np, keyer, k, X)
    table = ProductTable(k, X, shift, keyer, *sums)
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

    def csv_fields(self) -> list[str]:
        return [str(v) for v in self.to_json_dict().values()]

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


def representation_count(
    nu: CanonicalProduct,
    k: int,
    X: int,
    shift: Shift,
    *,
    memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
) -> int:
    """Number of ordered k-tuples d in [1, X]^k with prod(d_i + theta) = nu.

    Builds the frequency table the mean value is computed from and reads nu
    off it.  For repeated queries on one cell, build the table once with
    `build_product_table(k, X, shift)` and call its `ordered_count(nu)`.
    """
    table = build_product_table(k, X, shift, memory_budget_mb=memory_budget_mb)
    return table.ordered_count(nu)


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
    if k < 1 or X < 1:
        raise ValueError("k and X must be positive")
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
) -> list[SolutionPair]:
    """Deduplicated non-diagonal witness pairs, sorted lexicographically.

    The array backend reads the colliding multisets off its one sorted
    enumeration.  The dict backend makes two passes over the multiset space:
    the first counts multisets per canonical product to find collisions
    (there are few), the second collects the colliding multisets.  Each
    colliding group of r multisets yields C(r, 2) unordered pairs, and
    CapacityError is raised if they would not fit the memory budget.
    Transcendental shifts are legal and return an empty list.  `limit`, if
    given, keeps the first `limit` pairs and must not be negative.
    """
    if limit is not None:
        _require_int("limit", limit, 0)
    keyer, np = _settle(k, X, shift, memory_budget_mb)
    groups = _dict_groups(keyer, k, X) if np is None else _array_groups(np, keyer, k, X)
    npairs = sum(comb(len(members), 2) for members in groups)
    needed = npairs * _BYTES_PER_WITNESS_PAIR
    if needed > memory_budget_mb * (1 << 20):
        raise CapacityError(
            f"k={k}, X={X} has {npairs} witness pairs "
            f"(~{needed >> 20} MiB), over the {memory_budget_mb} MiB budget"
        )
    # members are sorted tuples of ints, so each (first, second) is already
    # canonical; only the kept pairs become SolutionPairs
    pairs = sorted(pair for members in groups for pair in combinations(sorted(members), 2))
    return [SolutionPair._canonical(x, y) for x, y in pairs[:limit]]
