"""Run one `shiftprod` CLI command with every layer's public calls traced.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID PARENT_SPAN -- <shiftprod arguments>

Exits with the command's exit code after writing the spans to SPANS_JSON.
`shiftprod` must be importable (the benchmark puts `src` on PYTHONPATH).
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, run_id, parent, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(run_id, parent)
    with tracer.span("cli.import"):
        import shiftprod.cli
    with tracer.installed():
        code = shiftprod.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
