"""Command-line front end.

Subcommands: count, scan, witness, lemma-check, contrast.  Each calls the
engine directly: count, scan and contrast call `count_mean_value` once per
cell, witness calls `find_nondiagonal_witnesses`, and lemma-check calls
`witness_identities`, the integer kernel behind `verify_witness`, which
cancels shared values itself.  lemma-check holds its pairs flat in one
integer array (`_Witnesses`) and checks them in spans of pairs; an input of
`_POOL_MIN_PAIRS` pairs or more, with two spans and two CPUs or more, is
checked in a pool of forked workers that read the array they inherit and
are sent only each span's bounds (see `_checked_spans`).  `--format` (csv
or json) applies to count, scan and contrast; witness and lemma-check
always write JSON.  count, scan and contrast hand their rows to one writer,
whose CSV takes its header from the first row's keys and whose JSON is
`json.dumps(rows, indent=2)`; scan's JSON document, whose rows sit beside
the exponent fit, is `json.dumps` too.  witness and lemma-check stream
their lists, which run to many thousands of records: each pair or report is
filled straight into one cached template per record shape, byte-equal to
`json.dumps(indent=2)`.  Exit codes: 0 success / all checks pass, 1 usage
or configuration error, 2 capacity (memory budget) error, 3 check failure
(non-solution, failed identity, or diagonal input where a witness was
required).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import io
import json
import os
import sys
from array import array
from typing import Iterable, Iterator, Optional, Sequence

from .counting import (
    DEFAULT_MEMORY_BUDGET_MB,
    CapacityError,
    SolutionPair,
    canonical_sides,
    count_mean_value,
    find_nondiagonal_witnesses,
)
from .shifts import Transcendental, format_shift, minimal_polynomial_for, parse_shift
from .verify import (
    Identities,
    NotASolutionError,
    PreconditionViolationError,
    fit_growth_exponent,
    identities_hold,
    max_ratio,
    reference_exponent,
    witness_identities,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_CHECK = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_x_list(text: str) -> list[int]:
    try:
        xs = [int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad X list: {text!r}") from None
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise _UsageError("X list must be strictly increasing")
    return xs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftprod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_x=True):
        p.add_argument("--k", type=int, required=True, help="tuple length k")
        if with_x:
            p.add_argument("--X", type=int, required=True, help="range bound X")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility; every cell runs in one process",
        )
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--memory-budget-mb",
            type=int,
            default=DEFAULT_MEMORY_BUDGET_MB,
            help="frequency-table memory budget",
        )

    p = sub.add_parser("count", help="one exact count cell")
    add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--shift", required=True, help="shift descriptor")

    p = sub.add_parser("scan", help="count cells over an X grid plus exponent fit")
    add_common(p, with_x=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--X-list", required=True, help="comma-separated increasing X values")
    p.add_argument("--shift", required=True)

    p = sub.add_parser("witness", help="non-diagonal witness pairs as JSON")
    add_common(p)
    p.add_argument("--shift", required=True)
    p.add_argument("--limit", type=int, help="max pairs to emit")

    p = sub.add_parser("lemma-check", help="verify identities on witness JSON")
    p.add_argument("--shift", required=True, help="algebraic or rational shift")
    p.add_argument("--X", type=int, help="range bound (default: largest entry)")
    p.add_argument("--in", dest="infile", help="witness JSON path (default: stdin)")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("contrast", help="rational vs irrational non-diagonal counts")
    add_common(p, with_x=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--X-list", required=True)
    p.add_argument("--rational-shift", required=True)
    p.add_argument("--algebraic-shift", required=True)
    return parser


def _emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    """Write the chunks of text in turn, so a long output is never held whole."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_json_string = json.encoder.encode_basestring_ascii
_JSON_BOOL = ("false", "true")


@functools.lru_cache(maxsize=64)  # a few shapes per k, in practice
def _template(keys: tuple[str, ...], lengths: tuple[Optional[int], ...]) -> str:
    """The `%` template of one record of `json.dumps(indent=2)`'s list, by its shape.

    A key's length is that of its list field, which takes as many slots, or
    None for a field of one slot.  Every slot is `%s`, filled with an int
    (whose str is its JSON text) or with a value's JSON text.
    """
    fields = [
        _json_string(key) + ": " + ("%s" if n is None else _json_list(n))
        for key, n in zip(keys, lengths)
    ]
    return "  {\n    " + ",\n    ".join(fields) + "\n  }"


def _json_list(n: int) -> str:
    """A list field of `n` slots in a record, as `json.dumps(indent=2)` lays it out."""
    return "[\n      " + ",\n      ".join(["%s"] * n) + "\n    ]" if n else "[]"


def _pair_record(pair: SolutionPair) -> str:
    """The rendered record of `pair.to_json_dict()`."""
    return _template(("x", "y"), (len(pair.x), len(pair.y))) % (pair.x + pair.y)


def _ratio_text(coeffs: Sequence[int], X: int, n: int) -> str:
    """str(Fraction) of the ratio maximum `max_ratio` finds, as a JSON string."""
    num, den = max_ratio(coeffs, X, n)
    return f'"{num}"' if den == 1 else f'"{num}/{den}"'


_REPORT_KEYS = ("x", "y", "F_coeffs", "psi_coeffs", "rho", "C_a", "C_b", "norm_ok", "lemma_ok")


def _json_list_text(records: Iterable[str]) -> Iterator[str]:
    """`json.dumps(indent=2)`'s framing of a list, around records already rendered.

    A record and the text before it are yielded apart, so a long record,
    such as a span of lemma-check's records, is never copied.
    """
    opening = "[\n"
    for record in records:
        yield opening
        yield record
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


def _emit_rows(args, rows: Sequence[dict], trailer: Sequence[str] = ()) -> None:
    """Write flat rows in `args.format` to `args.out`.

    CSV takes its header from the first row's keys and ends with the trailer
    lines; JSON is `json.dumps` of the list of rows, as scan's document is.
    """
    if args.format == "json":
        _emit([json.dumps(rows, indent=2) + "\n"], args.out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)
    _emit([buf.getvalue()] + [line + "\n" for line in trailer], args.out)


def _cmd_count(args) -> int:
    shift = parse_shift(args.shift)
    report = count_mean_value(args.k, args.X, shift, memory_budget_mb=args.memory_budget_mb)
    _emit_rows(args, [report.to_json_dict()])
    return EXIT_OK


def _cmd_scan(args) -> int:
    xs = _parse_x_list(args.X_list)
    if len(xs) < 3:
        raise _UsageError("scan needs at least three X values for an exponent fit")
    shift = parse_shift(args.shift)
    reports = [
        count_mean_value(args.k, X, shift, memory_budget_mb=args.memory_budget_mb)
        for X in xs
    ]
    rows = [r.to_json_dict() for r in reports]
    alpha = fit_growth_exponent(reports)
    ref = reference_exponent(args.k, shift)
    if args.format == "json":
        payload = {
            "rows": rows,
            "fit": {
                "alpha": alpha,
                "zero_count": alpha is None,
                "reference_exponent": ref,
            },
        }
        _emit([json.dumps(payload, indent=2) + "\n"], args.out)
        return EXIT_OK
    alpha_text = "zero-count" if alpha is None else f"{alpha:.6f}"
    ref_text = "none" if ref is None else str(ref)
    _emit_rows(args, rows, [f"# fitted_alpha={alpha_text}", f"# reference_exponent={ref_text}"])
    return EXIT_OK


def _cmd_witness(args) -> int:
    shift = parse_shift(args.shift)
    pairs = find_nondiagonal_witnesses(
        args.k,
        args.X,
        shift,
        limit=args.limit,
        memory_budget_mb=args.memory_budget_mb,
    )
    _emit(_json_list_text(map(_pair_record, pairs)), args.out)
    return EXIT_OK


Sides = tuple[tuple[int, ...], tuple[int, ...]]

# lemma-check verifies and renders its pairs in spans, one task each.  A
# span holds 1024 pairs, or a sixteenth of the input if that is fewer, but
# no fewer than 256.  On rational:1/2 at k=2, X=400, spans of 256 took
# about 0.1 s longer than spans of 1024 in a pool of two on a 2-core
# machine.  A span's records are held as one text, about 440 B a pair at
# k=2, so a small input takes smaller spans, whose text stays small.
_SPAN_PAIRS = 1024
_MIN_SPAN_PAIRS = 256
# Inputs of fewer pairs are checked in this process.  Whole commands on
# rational:1/2, k=2 witness files, pinned to one CPU against a pool on two
# (2-core x86-64 machine, medians of 10 alternating runs): the pool took
# 1.27x as long at 411 pairs, 1.17x at 3,621, 1.05x at 6,886, 1.02x at
# 9,008, 0.95x at 11,576 and 0.86x at 33,439.
_POOL_MIN_PAIRS = 10_000


class _Witnesses:
    """Witness pairs held flat: the sides of every pair, one after another, in one sequence.

    Pair i's entries are `entries[offsets[i]:offsets[i + 1]]`: its canonical
    lower side x, then y, of the same length.  The entries are an
    `array('q')` of 8 B each, and become a list only if one does not fit in
    int64.  No Python object is held per pair, and reading an array's
    buffer touches no reference count, so a forked worker reads the store
    in place and its pages stay shared.
    """

    def __init__(self):
        self.entries = array("q")
        self.offsets = array("q", [0])

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def append(self, sides: Sides) -> None:
        values = sides[0] + sides[1]
        try:
            self.entries.extend(values)
        except OverflowError:  # an entry of 2^63 or more
            del self.entries[self.offsets[-1]:]  # extend stops part way
            self.entries = self.entries.tolist()
            self.entries.extend(values)
        self.offsets.append(len(self.entries))

    def sides(self, start: int, stop: int) -> Iterator[Sides]:
        """The sides (x, y) of pairs start to stop, as tuples."""
        ends = self.offsets[start:stop + 1]
        values = self.entries[ends[0]:ends[-1]]
        if isinstance(values, array):
            values = values.tolist()  # tuples are made fastest from list slices
        lo = 0
        for end in ends[1:]:
            hi = end - ends[0]
            mid = (lo + hi) >> 1
            yield tuple(values[lo:mid]), tuple(values[mid:hi])
            lo = hi


def _witness_sides(entry) -> Sides:
    """The canonical sides of one witness object, validated by `SolutionPair`'s rules."""
    return canonical_sides(tuple(entry["x"]), tuple(entry["y"]))


def _parse_witnesses(text: str) -> _Witnesses:
    """The witnesses in a JSON array, parsed whole by `json.loads`.

    Raises the first fault of the text: a JSON syntax error, a value that is
    not an array, or an entry that is no valid witness.
    """
    data = json.loads(text)
    if not isinstance(data, list):
        raise _UsageError("witness input must be a JSON array of {x, y} objects")
    store = _Witnesses()
    for entry in data:
        try:
            store.append(_witness_sides(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"bad witness entry {entry!r}: {exc}") from None
    return store


# What the decode hook of `_load_witnesses` leaves in place of each object: no
# JSON value is this object, so an array of nothing else held only witnesses.
_STORED = object()


def _load_witnesses(path: Optional[str]) -> _Witnesses:
    """The witnesses of a JSON array file (stdin: None or "-"), held flat.

    Each JSON object is validated and stored as it is parsed, so the array
    is never held as parsed JSON.  The parse is kept only if it made an
    array of nothing but stored objects, as many as the store holds: an
    object nested in another is stored too, but is then no element of the
    array.  On any fault the text is parsed again by `json.loads`, so that
    the error reported is the one a whole-text parse meets first.
    """
    if path and path != "-":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    store = _Witnesses()

    def stored(entry) -> object:
        store.append(_witness_sides(entry))
        return _STORED

    try:
        decoded = json.loads(text, object_hook=stored)
    except Exception:  # whatever the fault, the whole-text parse names it
        return _parse_witnesses(text)
    if type(decoded) is list and decoded.count(_STORED) == len(decoded) == len(store):
        return store
    return _parse_witnesses(text)


def _report_record(identities: Identities, X: int, d: int) -> str:
    """The rendered record of the `WitnessReport` that `identities` makes at this X and d."""
    x, y, f, psi, rho, norm_ok, lemma_ok = identities
    k = len(x)
    shape = (k, len(y), len(f), len(psi), len(rho), None, None, None, len(lemma_ok))
    ratios = (_ratio_text(f, X, k), _ratio_text(psi, X, k - d))
    bools = tuple(map(_JSON_BOOL.__getitem__, (norm_ok, *lemma_ok)))
    return _template(_REPORT_KEYS, shape) % (x + y + f + psi + rho + ratios + bools)


def _check_span(
    store: _Witnesses, m, x_cap: int, start: int, stop: int
) -> tuple[str, list[str]]:
    """Verify and render pairs start to stop: their records' text, and a stderr line per failure.

    `witness_identities` is looked up in this module when the span runs, so a
    replacement of it reaches forked workers too.
    """
    d = m.degree
    records, errors = [], []
    for x, y in store.sides(start, stop):
        try:
            identities = witness_identities(x, y, m, x_cap)
        except (NotASolutionError, PreconditionViolationError) as exc:
            error = str(exc)
            template = _template(("x", "y", "error"), (len(x), len(y), None))
            records.append(template % (x + y + (_json_string(error),)))
        else:
            records.append(_report_record(identities, x_cap, d))
            error = None if identities_hold(identities, d) else "identity check failed"
        if error is not None:
            errors.append(f"witness x={list(x)} y={list(y)}: {error}\n")
    return ",\n".join(records), errors


def _spans(n: int) -> list[tuple[int, int]]:
    """The (start, stop) pair ranges lemma-check checks as one task each."""
    size = min(_SPAN_PAIRS, max(_MIN_SPAN_PAIRS, n // 16))
    return [(i, min(i + size, n)) for i in range(0, n, size)]


# A forked worker's (store, m, x_cap), which it inherits as it starts.
_worker_job: tuple = ()


def _start_worker(*job) -> None:
    global _worker_job
    _worker_job = job


def _check_in_worker(span: tuple[int, int]) -> tuple[str, list[str]]:
    return _check_span(*_worker_job, *span)


@contextlib.contextmanager
def _checked_spans(store: _Witnesses, m, x_cap: int, spans: list[tuple[int, int]]):
    """An iterator over `_check_span`'s result for each span of pairs, in input order.

    With `_POOL_MIN_PAIRS` pairs or more, two or more spans and two or more
    usable CPUs, the spans run in a pool of forked workers, one per CPU up
    to one per span; otherwise they run in this process.  A worker inherits
    the store as it is forked, and each task it is sent is one span's
    (start, stop), so no pair is pickled.  A worker that dies, killed or by
    `os._exit`, fails the iterator with `BrokenProcessPool`.  On leaving the
    block the pool cancels the spans not yet started and joins its workers.
    """
    # without an affinity mask to read (as on macOS and Windows), one process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(spans)) if len(store) >= _POOL_MIN_PAIRS else 1
    if workers < 2:
        yield (_check_span(store, m, x_cap, *span) for span in spans)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked, the workers receive the initializer's arguments unpickled
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(store, m, x_cap))
    try:
        # one span waits queued, so a worker that finishes starts the next at once
        yield _in_order(pool, _check_in_worker, spans, workers + 1)
    finally:
        pool.shutdown(cancel_futures=True)


def _in_order(pool, fn, items: Iterable, ahead: int) -> Iterator:
    """`fn(item)` for each item, run by the pool and yielded in order.

    At most `ahead` items are submitted and not yet yielded, so at most
    `ahead` results, each a span's text, are held at once.
    """
    pending = collections.deque()
    for item in items:
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def _cmd_lemma_check(args) -> int:
    shift = parse_shift(args.shift)
    if isinstance(shift, Transcendental):
        raise _UsageError("lemma-check needs an algebraic or rational shift")
    m = minimal_polynomial_for(shift)
    if args.X is not None and args.X < 1:
        raise _UsageError(f"X must be an integer >= 1, got {args.X}")
    store = _load_witnesses(args.infile)
    spans = _spans(len(store))
    x_cap = args.X
    if x_cap is None:
        x_cap = max(store.entries, default=1)
    # witness_identities raises ValueError on a cancelled pair with an entry
    # above the cap; that pair is found before the first record, so none is
    # written.  Sides are sorted, so a side's last entry is its largest.
    elif max(store.entries, default=1) > x_cap:
        for span in spans:
            for x, y in store.sides(*span):
                if x and max(x[-1], y[-1]) > x_cap:
                    with contextlib.suppress(NotASolutionError, PreconditionViolationError):
                        witness_identities(x, y, m, x_cap)
    failures = 0

    with _checked_spans(store, m, x_cap, spans) as results:
        def records() -> Iterator[str]:
            nonlocal failures
            for text, errors in results:
                sys.stderr.writelines(errors)
                failures += len(errors)
                yield text

        _emit(_json_list_text(records()), args.out)
    return EXIT_CHECK if failures else EXIT_OK


def _cmd_contrast(args) -> int:
    xs = _parse_x_list(args.X_list)
    shifts = {
        "shift_rational_nondiag": parse_shift(args.rational_shift),
        "shift_algebraic_nondiag": parse_shift(args.algebraic_shift),
    }
    budget = args.memory_budget_mb
    rows = []
    for X in xs:
        row = {"X": X, "k": args.k}
        for key, s in shifts.items():
            row[key] = count_mean_value(args.k, X, s, memory_budget_mb=budget).nondiagonal
        rows.append(row)
    _emit_rows(args, rows)
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "scan": _cmd_scan,
    "witness": _cmd_witness,
    "lemma-check": _cmd_lemma_check,
    "contrast": _cmd_contrast,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # --workers changes nothing, but a count below 1 is still a usage error
        if getattr(args, "workers", 1) < 1:
            raise _UsageError(f"workers must be an integer >= 1, got {args.workers}")
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
