"""Count code lines in Python files: lines that are not blank, comment or docstring.

Usage: python3 tools/code_lines.py [PATH ...]   (default: src/shiftprod)

Each PATH is a .py file or a directory searched recursively for them.  Prints
one line per file and then the total.  A line counts when some token other
than a comment or a docstring lies on it; a docstring is any string literal
that stands alone as a statement.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens after which a string literal starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        tokens = [
            t
            for t in tokenize.tokenize(fh.readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in _STATEMENT_START
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/shiftprod"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
