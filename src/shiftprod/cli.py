"""Command-line front end.

Subcommands: count, scan, witness, lemma-check, contrast.  Each calls the
engine directly: count, scan and contrast call `count_mean_value` once per
cell, witness calls `find_nondiagonal_witnesses`, and lemma-check calls
`verify_witness`, which cancels shared values itself, on chunks of its pairs,
in a pool of forked workers when there are two chunks and two CPUs or more
(see `_checked_chunks`).  `--format` (csv or
json) applies to count, scan and contrast; witness and lemma-check always
write JSON.  count, scan and contrast hand their rows to one writer, whose
CSV takes its header from the first row's keys.  Every flat JSON list
(count, contrast, witness, lemma-check) comes from one fixed-schema writer,
byte-equal to `json.dumps(indent=2)`: count and contrast rows reach it as
dicts, witness pairs and lemma-check reports as their fields' text, rendered
straight from the pair or report.  scan's JSON document, whose rows sit
beside the exponent fit, comes from `json.dumps` itself.  Exit codes: 0
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


def _json_scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return _json_string(value)


def _json_list(values: Sequence, render) -> str:
    """A list field's value as `json.dumps(indent=2)` lays it out, each value by `render`."""
    if not values:
        return "[]"
    return "[\n      " + ",\n      ".join(map(render, values)) + "\n    ]"


def _json_field(value) -> str:
    if isinstance(value, list):
        return _json_list(value, _json_scalar)
    return _json_scalar(value)


def _pair_fields(pair: SolutionPair) -> list[str]:
    """The rendered fields of `pair.to_json_dict()`."""
    return ['"x": ' + _json_list(pair.x, int.__repr__),
            '"y": ' + _json_list(pair.y, int.__repr__)]


def _ratio_text(coeffs: Sequence[int], X: int, n: int) -> str:
    """str(Fraction) of the ratio maximum `max_ratio` finds, as a JSON string."""
    num, den = max_ratio(coeffs, X, n)
    return f'"{num}"' if den == 1 else f'"{num}/{den}"'


def _report_fields(report: WitnessReport) -> list[str]:
    """The rendered fields of `report.to_json_dict()`."""
    f, psi, X, k = report.f.coeffs, report.psi.coeffs, report.x_cap, report.k
    return _pair_fields(report.pair) + [
        '"F_coeffs": ' + _json_list(f, int.__repr__),
        '"psi_coeffs": ' + _json_list(psi, int.__repr__),
        '"rho": ' + _json_list(report.rho, int.__repr__),
        '"C_a": ' + _ratio_text(f, X, k),
        '"C_b": ' + _ratio_text(psi, X, k - report.d),
        '"norm_ok": ' + _json_scalar(report.norm_identity_ok),
        '"lemma_ok": ' + _json_list(report.lemma_ok, _json_scalar),
    ]


def _json_record(fields: list[str]) -> str:
    """One record of `json.dumps(indent=2)`'s list, from its rendered fields."""
    text = ",\n    ".join(fields)
    return "  {\n    " + text + "\n  }" if text else "  {}"


def _json_list_text(records: Iterable[str]) -> Iterator[str]:
    """The list of rendered records, framed as `_json_records` frames its own.

    A record and the text before it are yielded apart, so a long record,
    such as a chunk of lemma-check's records, is never copied.
    """
    opening = "[\n"
    for record in records:
        yield opening
        yield record
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


def _json_records(records: Iterable[dict | list[str]]) -> Iterator[str]:
    """`json.dumps(records, indent=2) + "\n"`, byte for byte, for flat records.

    This is the fixed schema of every flat JSON list the CLI writes (count,
    contrast, witness and lemma-check): a list of dicts with string keys,
    whose values are ints, bools, strings, or lists of ints and bools.
    Strings go through the escaper `json.dumps` uses.  The indenting encoder
    behind `json.dumps(indent=2)` is pure Python and was the slowest step of
    writing a large witness list, so this writer stands in for it and must
    stay byte-equal to it.  A record is a dict, or the list of its fields
    already rendered as `"key": value` text, as `_pair_fields` and
    `_report_fields` render witnesses and reports without building a dict.
    It yields the text one record at a time, so the records may come from a
    generator and neither they nor the text are ever held whole.
    """
    opening = "[\n"
    for record in records:
        if isinstance(record, dict):
            record = [_json_string(key) + ": " + _json_field(v) for key, v in record.items()]
        yield opening + _json_record(record)
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


def _emit_rows(args, rows: Sequence[dict], trailer: Sequence[str] = ()) -> None:
    """Write flat rows in `args.format` to `args.out`.

    CSV takes its header from the first row's keys and ends with the trailer
    lines; JSON is the list of rows, through `_json_records`.
    """
    if args.format == "json":
        _emit(_json_records(rows), args.out)
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
    fit = fit_growth_exponent(reports)
    ref = reference_exponent(args.k, shift)
    if args.format == "json":
        payload = {
            "rows": rows,
            "fit": {
                "alpha": fit.alpha,
                "zero_count": fit.zero_count,
                "reference_exponent": ref,
            },
        }
        _emit([json.dumps(payload, indent=2) + "\n"], args.out)
        return EXIT_OK
    alpha_text = "zero-count" if fit.zero_count else f"{fit.alpha:.6f}"
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
    _emit(_json_records(map(_pair_fields, pairs)), args.out)
    return EXIT_OK


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
            pair = SolutionPair(tuple(entry["x"]), tuple(entry["y"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"bad witness entry {entry!r}: {exc}") from None
        pairs.append((pair.x, pair.y))
    return pairs


def _decode_witnesses(text: str) -> list[Sides]:
    """`_parse_witnesses(text)` on well-formed input, one array element at a time.

    Raises on anything that is not an array of valid witnesses, without
    saying what: the caller reports the error `_parse_witnesses` finds.
    """
    skip = json.decoder.WHITESPACE.match
    decode = json.JSONDecoder().raw_decode
    pairs = []
    at = skip(text).end()
    if text[at:at + 1] != "[":
        raise ValueError("not an array")
    at = skip(text, at + 1).end()
    if text[at:at + 1] != "]":
        while True:
            entry, at = decode(text, at)
            pair = SolutionPair(tuple(entry["x"]), tuple(entry["y"]))
            pairs.append((pair.x, pair.y))
            at = skip(text, at).end()
            if text[at:at + 1] != ",":
                break
            at = skip(text, at + 1).end()
        if text[at:at + 1] != "]":
            raise ValueError("no delimiter")
    if skip(text, at + 1).end() != len(text):
        raise ValueError("extra data")
    return pairs


def _load_witnesses(path: Optional[str]) -> list[Sides]:
    """The canonical sides `(x, y)` of each witness in a JSON array file (stdin: None or "-").

    Each entry is validated by the `SolutionPair` constructor, and only its
    sides are kept.  The text is decoded an element at a time, so the whole
    array is never held as parsed JSON.  The kept tuples are in no reference
    cycle, so the cyclic collector pauses while they are built.  On any
    fault the text is parsed again by `json.loads`, so that the error
    reported is the one a whole-text parse meets first.
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


def _check_chunk(chunk: Sequence[Sides], m, x_cap: int) -> tuple[str, list[str], int]:
    """Verify and render a chunk of pairs: its records' text, its stderr lines, its failures.

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
            fields = _pair_fields(pair) + ['"error": ' + _json_string(error)]
        else:
            error = None if report.all_ok else "identity check failed"
            fields = _report_fields(report)
        if error is not None:
            errors.append(f"witness x={list(x)} y={list(y)}: {error}\n")
        records.append(_json_record(fields))
    return ",\n".join(records), errors, len(errors)


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
            for text, errors, failed in results:
                sys.stderr.writelines(errors)
                failures += failed
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
