"""Command-line front end.

Subcommands: count, scan, witness, lemma-check, contrast.  Each calls the
engine directly: count, scan and contrast call `count_mean_value` once per
cell, witness calls `find_nondiagonal_witnesses`, and lemma-check calls
`verify_witness`, which cancels shared values itself, on chunks of its pairs,
in a pool of forked workers when there are two chunks and two CPUs or more
(see `_checked_chunks`).  `--format` (csv or json) applies to count, scan
and contrast; witness and lemma-check always write JSON.  count, scan and
contrast hand their rows to one writer, whose CSV takes its header from the
first row's keys and whose JSON is `json.dumps(rows, indent=2)`; scan's JSON
document, whose rows sit beside the exponent fit, is `json.dumps` too.
witness and lemma-check stream their lists, which run to many thousands of
records: each pair or report is filled straight into one cached template
per record shape, byte-equal to `json.dumps(indent=2)`.  Exit codes: 0
success / all checks pass, 1 usage or configuration error, 2 capacity
(memory budget) error, 3 check failure (non-solution, failed identity, or
diagonal input where a witness was required).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import gc
import io
import json
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence

from .counting import (
    DEFAULT_MEMORY_BUDGET_MB,
    CapacityError,
    SolutionPair,
    count_mean_value,
    find_nondiagonal_witnesses,
)
from .shifts import Transcendental, format_shift, minimal_polynomial_for, parse_shift
from .verify import (
    NotASolutionError,
    PreconditionViolationError,
    WitnessReport,
    fit_growth_exponent,
    max_ratio,
    reference_exponent,
    verify_witness,
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


def _report_record(report: WitnessReport) -> str:
    """The rendered record of `report.to_json_dict()`."""
    x, y = report.pair.x, report.pair.y
    f, psi, rho, X, k = report.f.coeffs, report.psi.coeffs, report.rho, report.x_cap, report.k
    shape = (len(x), len(y), len(f), len(psi), len(rho), None, None, None, len(report.lemma_ok))
    ratios = (_ratio_text(f, X, k), _ratio_text(psi, X, k - report.d))
    bools = tuple(map(_JSON_BOOL.__getitem__, (report.norm_identity_ok, *report.lemma_ok)))
    return _template(_REPORT_KEYS, shape) % (x + y + f + psi + rho + ratios + bools)


def _json_list_text(records: Iterable[str]) -> Iterator[str]:
    """`json.dumps(indent=2)`'s framing of a list, around records already rendered.

    A record and the text before it are yielded apart, so a long record,
    such as a chunk of lemma-check's records, is never copied.
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


# A pair crosses to lemma-check's workers as the tuple of its sorted sides:
# 1024 pairs at k=2 pickle and unpickle in about 0.35 ms as tuples, against
# 1.5 ms as `SolutionPair`s and 3.7 ms as a slotted dataclass (Python 3.11).
Sides = tuple[tuple[int, ...], tuple[int, ...]]

# lemma-check verifies and renders its pairs in chunks, one task each.  A
# chunk holds 1024 pairs, or a sixteenth of the input if that is fewer, but
# no fewer than 256.  On rational:1/2 at k=2, X=400, chunks of 256 took
# about 0.1 s longer than chunks of 1024 in a pool of two on a 2-core
# machine.  A chunk's records are held as one text, about 440 B a pair at
# k=2, against about 170 B for the pair's loaded tuples, so a small input
# takes smaller chunks, whose text stays small beside the input.
_CHUNK_PAIRS = 1024
_MIN_CHUNK_PAIRS = 256


def _witness_sides(entry) -> Sides:
    """The canonical sides of one witness object, validated by `SolutionPair`."""
    pair = SolutionPair(tuple(entry["x"]), tuple(entry["y"]))
    return pair.x, pair.y


def _parse_witnesses(text: str) -> list[Sides]:
    """The canonical sides of the witnesses in a JSON array, parsed whole by `json.loads`.

    Raises the first fault of the text: a JSON syntax error, a value that is
    not an array, or an entry that is no valid witness.
    """
    data = json.loads(text)
    if not isinstance(data, list):
        raise _UsageError("witness input must be a JSON array of {x, y} objects")
    pairs = []
    for entry in data:
        try:
            pairs.append(_witness_sides(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"bad witness entry {entry!r}: {exc}") from None
    return pairs


def _decode_witnesses(text: str) -> list[Sides]:
    """`_parse_witnesses(text)` on well-formed input, each object made sides as it is parsed.

    Every JSON object goes through `_witness_sides`, so only its sides are
    ever kept.  Raises on anything that is not an array of valid witnesses,
    without saying what: the caller reports the error `_parse_witnesses`
    finds.
    """
    pairs = json.loads(text, object_hook=_witness_sides)
    if not isinstance(pairs, list) or not all(type(pair) is tuple for pair in pairs):
        raise ValueError("not an array of witnesses")
    return pairs


def _load_witnesses(path: Optional[str]) -> list[Sides]:
    """The canonical sides `(x, y)` of each witness in a JSON array file (stdin: None or "-").

    Each entry is validated by the `SolutionPair` constructor as it is
    parsed, and only its sides are kept, so the whole array is never held as
    parsed JSON.  The kept tuples are in no reference cycle, so the cyclic
    collector pauses while they are built.  On any fault the text is parsed
    again by `json.loads`, so that the error reported is the one a
    whole-text parse meets first.
    """
    if path and path != "-":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _decode_witnesses(text)
    except Exception:  # whatever the fault, the whole-text parse names it
        return _parse_witnesses(text)
    finally:
        if enabled:
            gc.enable()


def _check_chunk(chunk: Sequence[Sides], m, x_cap: int) -> tuple[str, list[str]]:
    """Verify and render a chunk of pairs: its records' text, and a stderr line per failure.

    `verify_witness` is looked up in this module when the chunk runs, so a
    replacement of it reaches forked workers too.
    """
    records, errors = [], []
    for x, y in chunk:
        pair = SolutionPair._canonical(x, y)
        try:
            report = verify_witness(pair, m, x_cap)
        except (NotASolutionError, PreconditionViolationError) as exc:
            error = str(exc)
            template = _template(("x", "y", "error"), (len(x), len(y), None))
            records.append(template % (x + y + (_json_string(error),)))
        else:
            error = None if report.all_ok else "identity check failed"
            records.append(_report_record(report))
        if error is not None:
            errors.append(f"witness x={list(x)} y={list(y)}: {error}\n")
    return ",\n".join(records), errors


@contextlib.contextmanager
def _checked_chunks(pairs: list[Sides], m, x_cap: int):
    """An iterator over `_check_chunk`'s result for each chunk of pairs, in input order.

    With two or more chunks and two or more usable CPUs, the chunks run in a
    pool of forked workers, one per CPU up to one per chunk; otherwise they
    run in this process.  A worker that dies, killed or by `os._exit`, fails
    the iterator with `BrokenProcessPool`.  On leaving the block the pool
    cancels the chunks not yet started and joins its workers.
    """
    size = min(_CHUNK_PAIRS, max(_MIN_CHUNK_PAIRS, len(pairs) // 16))
    starts = range(0, len(pairs), size)
    chunks = (pairs[i:i + size] for i in starts)
    check = functools.partial(_check_chunk, m=m, x_cap=x_cap)
    # without an affinity mask to read (as on macOS and Windows), one process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(starts))
    if workers < 2:
        yield map(check, chunks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        # one chunk waits queued, so a worker that finishes starts the next at once
        yield _in_order(pool, check, chunks, workers + 1)
    finally:
        pool.shutdown(cancel_futures=True)


def _in_order(pool, fn, items: Iterable, ahead: int) -> Iterator:
    """`fn(item)` for each item, run by the pool and yielded in order.

    At most `ahead` items are submitted and not yet yielded, so at most
    `ahead` results, each a chunk's text, are held at once.
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
    pairs = _load_witnesses(args.infile)
    # sides are sorted, so a side's last entry is its largest
    x_cap = args.X
    if x_cap is None:
        x_cap = max((side[-1] for pair in pairs for side in pair if side), default=1)
    # verify_witness raises ValueError on a cancelled pair with an entry above
    # the cap; that pair is found before the first record, so none is written
    for x, y in pairs:
        if x and max(x[-1], y[-1]) > x_cap:
            with contextlib.suppress(NotASolutionError, PreconditionViolationError):
                verify_witness(SolutionPair._canonical(x, y), m, x_cap)
    failures = 0

    with _checked_chunks(pairs, m, x_cap) as results:
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
