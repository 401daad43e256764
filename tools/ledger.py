"""Re-derive every row of the ledger of known answers; exit 1 on any difference.

Usage: python3 tools/ledger.py

Each row of tools/ledger.json names a cell (k, X, shift) and what `count`
reports for it: M, T, nondiag and distinct_nu, and on some rows the number
of non-diagonal witness pairs `witness` writes.  Its `checked_by` says how
the row was first obtained (one backend or both); it is a note and is not
re-derived.  The cells reach far beyond the brute-force oracles of the test
suite, so a row guards against regressions, and one checked on both
backends against a bug of either, but not against a bug they share.  A
cell with k at most the degree of the shift (every transcendental cell)
re-derives from the paper's lemma, M = T in closed form, not from an
enumeration, whatever its first `checked_by`; such rows guard the
shortcut and the closed form.
Prints one line per row, with its wall time.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("ledger.json")
COUNT_FIELDS = ("M", "T", "nondiag", "distinct_nu")

sys.path.insert(0, str(ROOT / "src"))
from shiftprod import count_mean_value, find_nondiagonal_witnesses, parse_shift  # noqa: E402


def load_rows() -> list[dict]:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def rederive(row: dict) -> dict:
    """The row's figures as the engine gives them now."""
    k, X, shift = row["k"], row["X"], parse_shift(row["shift"])
    report = count_mean_value(k, X, shift).to_json_dict()
    got = {field: report[field] for field in COUNT_FIELDS}
    if "witness_pairs" in row:
        got["witness_pairs"] = sum(1 for _ in find_nondiagonal_witnesses(k, X, shift))
    return got


def differences(row: dict) -> list[str]:
    """One line per figure of the row that the engine no longer gives, or what it raised."""
    try:
        got = rederive(row)
    except Exception as exc:  # a cell that no longer settles differs too
        traceback.print_exc()
        return [f"raised {type(exc).__name__}: {exc}"]
    return [f"{field} {row[field]} != {value}" for field, value in got.items() if value != row[field]]


def main() -> int:
    rows = load_rows()
    failed = 0
    for row in rows:
        t0 = time.perf_counter()
        diffs = differences(row)
        cell = f"k={row['k']} X={row['X']} {row['shift']}"
        status = "ok" if not diffs else "DIFFERS: " + "; ".join(diffs)
        print(f"{cell}: {status} ({time.perf_counter() - t0:.1f} s)", flush=True)
        failed += bool(diffs)
    print(f"{failed} of {len(rows)} rows differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
