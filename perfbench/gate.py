"""The benchmark's correctness gate, exact and independent of timing.

    python3 perfbench/gate.py REQUEST_JSON

Runs in its own process after each pipeline, so the benchmark process never
holds the outputs: Linux carries a parent's peak RSS into the `ru_maxrss` of
a child it starts, and a large parent would leak into `peak_rss_mb`.

REQUEST_JSON holds the cell, the work directory, the exit code of each
command, the reference digests to compare with (or null) and, for a traced
run, `[spans_path, run_id, parent_span]`.  Prints one JSON object:
`{"errors": {command: [...]}, "facts": {...}, "digests": {...}}`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from collections import Counter, defaultdict
from math import comb, factorial, prod
from pathlib import Path

from tracing import Tracer
from workloads import KNOWN_ANSWERS, Cell


def ordering_count(multiset) -> int:
    """Number of distinct orderings of a multiset: k! / prod(mult!)."""
    return factorial(len(multiset)) // prod(factorial(m) for m in Counter(multiset).values())


def count_digest(text: str) -> str:
    """Digest of the count CSV without its elapsed_ms column."""
    rows = [",".join(row[:-1]) for row in csv.reader(text.splitlines())]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(cell: Cell, workdir: Path, exits: dict, expected: dict | None, recheck):
    """Check every output of a pipeline; return (errors per command, facts, digests).

    `recheck` is `shifts.shifted_product`, possibly traced; it re-derives both
    sides of every witness pair exactly.
    """
    from shiftprod.shifts import format_shift, parse_shift

    shift = parse_shift(cell.shift)
    known = KNOWN_ANSWERS.get(cell.key, {})
    errors = defaultdict(list)
    facts, digests = {}, {}

    if exits.get("count") == 0:
        err = errors["count"]
        text = (workdir / "count.out").read_text()
        digests["count"] = count_digest(text)
        rows = list(csv.DictReader(text.splitlines()))
        row = {key: int(v) for key, v in rows[0].items() if key != "shift"} if len(rows) == 1 else {}
        if not row or (row["k"], row["X"], rows[0]["shift"]) != (cell.k, cell.X, format_shift(shift)):
            err.append(f"count printed {text!r}")
        else:
            facts.update(nondiag=row["nondiag"], distinct_nu=row["distinct_nu"])
            if row["distinct_nu"] > comb(cell.X + cell.k - 1, cell.k):
                err.append("distinct_nu exceeds C(X+k-1, k)")
            if not cell.has_identities and row["M"] != row["T"]:
                err.append(f"transcendental M={row['M']} != T={row['T']}")
            for key in ("nondiag", "distinct_nu"):
                if key in known and row[key] != known[key]:
                    err.append(f"{key}={row[key]}, known answer {known[key]}")

    if exits.get("witness") == 0:
        err = errors["witness"]
        path = workdir / "witness.json"
        digests["witness"] = file_digest(path)
        pairs = [(tuple(p["x"]), tuple(p["y"])) for p in json.loads(path.read_text())]
        products = {}
        for x, y in pairs:
            px, py = recheck(x, shift), recheck(y, shift)
            if x == y or len(x) != cell.k or px != py:
                err.append(f"pair x={list(x)} y={list(y)} is not a non-diagonal solution")
                break
            products[x] = products[y] = px
        facts.update(
            witness_pairs=len(pairs),
            colliding_multisets=len(products),
            colliding_keys=len(set(products.values())),
        )
        if "nondiag" in facts:
            # Ties the closed-form T and the counting table to the collision pass.
            paired = 2 * sum(ordering_count(x) * ordering_count(y) for x, y in pairs)
            if paired != facts["nondiag"]:
                err.append(f"2*sum w(x)w(y) = {paired} != nondiag {facts['nondiag']}")
        if not cell.has_identities and pairs:
            err.append(f"transcendental cell has {len(pairs)} witnesses")
        if "witness_pairs" in known and len(pairs) != known["witness_pairs"]:
            err.append(f"{len(pairs)} witnesses, known answer {known['witness_pairs']}")

        if exits.get("lemma_check") == 0:
            path = workdir / "report.json"
            digests["lemma_check"] = file_digest(path)
            report = json.loads(path.read_text())
            if len(report) != len(pairs) or not all(
                r["norm_ok"] and all(r["lemma_ok"]) for r in report
            ):
                errors["lemma_check"].append("lemma-check report does not pass every witness")

    for name, digest in digests.items():
        if expected is not None and digest != expected.get(name):
            errors[name].append(f"{name} output differs from the reference digest")
    return {name: e for name, e in errors.items() if e}, facts, digests


def main() -> int:
    request = json.loads(sys.argv[1])
    cell = Cell(**request["cell"])
    from shiftprod.shifts import shifted_product

    recheck, tracer = shifted_product, None
    if request["trace"]:
        spans_path, run_id, parent = request["trace"]
        tracer = Tracer(run_id, parent)
        recheck = tracer.wrap("shifts.shifted_product", shifted_product)
    errors, facts, digests = check(
        cell, Path(request["workdir"]), request["exits"], request["expected"], recheck
    )
    if tracer is not None:
        tracer.dump(spans_path)
    print(json.dumps({"errors": errors, "facts": facts, "digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
