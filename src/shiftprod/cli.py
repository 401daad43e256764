"""Command-line front end.

Subcommands: count, scan, witness, lemma-check, contrast.  Each calls the
engine directly: count, scan and contrast call `count_mean_value` once per
cell, witness calls `find_nondiagonal_witnesses`, and lemma-check calls
`verify_witness`, which cancels shared values itself.  `--format` (csv or
json) applies to count, scan and contrast; witness and lemma-check always
write JSON.  count, scan and contrast hand their rows to one writer, whose
CSV takes its header from the first row's keys.  Every flat JSON list
(count, contrast, witness, lemma-check) comes from one fixed-schema writer,
byte-equal to `json.dumps(indent=2)`; scan's JSON document, whose rows sit
beside the exponent fit, comes from `json.dumps` itself.  Exit codes: 0
success / all checks pass, 1 usage or configuration error, 2 capacity
(memory budget) error, 3 check failure (non-solution, failed identity, or
diagonal input where a witness was required).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
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
    fit_growth_exponent,
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


def _json_field(value) -> str:
    if not isinstance(value, list):
        return _json_scalar(value)
    if not value:
        return "[]"
    return "[\n      " + ",\n      ".join(map(_json_scalar, value)) + "\n    ]"


def _json_records(records: Iterable[dict]) -> Iterator[str]:
    """`json.dumps(records, indent=2) + "\n"`, byte for byte, for flat records.

    This is the fixed schema of every flat JSON list the CLI writes (count,
    contrast, witness and lemma-check): a list of dicts with string keys,
    whose values are ints, bools, strings, or lists of ints and bools.
    Strings go through the escaper `json.dumps` uses.  The indenting encoder
    behind `json.dumps(indent=2)` is pure Python and was the slowest step of
    writing a large witness list, so this writer stands in for it and must
    stay byte-equal to it.  It yields the text one record at a time, so the
    records may come from a generator and neither they nor the text are ever
    held whole.
    """
    opening = "[\n"
    for record in records:
        fields = ",\n    ".join(
            [_json_string(key) + ": " + _json_field(value) for key, value in record.items()]
        )
        yield opening + ("  {\n    " + fields + "\n  }" if fields else "  {}")
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
    _emit(_json_records(p.to_json_dict() for p in pairs), args.out)
    return EXIT_OK


def _load_witnesses(path: Optional[str]) -> list[SolutionPair]:
    if path and path != "-":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    if not isinstance(data, list):
        raise _UsageError("witness input must be a JSON array of {x, y} objects")
    pairs = []
    for entry in data:
        try:
            pairs.append(SolutionPair(tuple(entry["x"]), tuple(entry["y"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"bad witness entry {entry!r}: {exc}") from None
    return pairs


def _cmd_lemma_check(args) -> int:
    shift = parse_shift(args.shift)
    if isinstance(shift, Transcendental):
        raise _UsageError("lemma-check needs an algebraic or rational shift")
    m = minimal_polynomial_for(shift)
    pairs = _load_witnesses(args.infile)
    x_cap = args.X
    if x_cap is None:
        x_cap = max((v for p in pairs for v in p.x + p.y), default=1)
    # verify_witness raises ValueError on a cancelled pair with an entry above
    # the cap; that pair is found before the first record, so none is written
    for pair in pairs:
        if max(pair.x + pair.y, default=0) > x_cap:
            with contextlib.suppress(NotASolutionError, PreconditionViolationError):
                verify_witness(pair, m, x_cap)
    failures = 0

    def records() -> Iterator[dict]:
        nonlocal failures
        for pair in pairs:
            try:
                report = verify_witness(pair, m, x_cap)
            except (NotASolutionError, PreconditionViolationError) as exc:
                error = str(exc)
                record = pair.to_json_dict() | {"error": error}
            else:
                error = None if report.all_ok else "identity check failed"
                record = report.to_json_dict()
            if error is not None:
                failures += 1
                print(f"witness x={list(pair.x)} y={list(pair.y)}: {error}", file=sys.stderr)
            yield record

    _emit(_json_records(records()), args.out)
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
