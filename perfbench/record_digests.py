"""Record the reference output digests that the benchmark's gate compares against.

    python3 perfbench/record_digests.py

Settles every cell of every workload family, full size and small, with one
worker, checks it with the gate (every check except the digests), and writes
`perfbench/digests.json`.  Run it only when a change to the CLI's output is
intended; the workers=2 workload is checked against these serial digests.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pipeline
from workloads import WORKLOADS


def main() -> int:
    cells = {
        w.cell(seed, small).key: dataclasses.replace(w.cell(seed, small), workers=1)
        for w in WORKLOADS.values()
        for seed in range(len(w.family)) for small in (True, False)
    }
    digests = {}
    pipeline.WORK.mkdir(exist_ok=True)
    for key, cell in sorted(cells.items()):
        with tempfile.TemporaryDirectory(dir=pipeline.WORK) as tmp:
            workdir = Path(tmp)
            ops = pipeline.run_pipeline(cell, workdir)
            _, digests[key] = pipeline.run_gate(cell, ops, workdir, None)
            errors = [f"{op.name}: {e}" for op in ops for e in op.errors]
            if errors:
                print(f"{key}: " + "; ".join(errors), file=sys.stderr)
                return 1
        print(key, file=sys.stderr)
    with open(pipeline.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
