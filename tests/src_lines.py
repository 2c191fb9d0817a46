"""Line counts of the package sources, per module and in total.

    python tests/src_lines.py [DIR]

DIR defaults to ``src/ipstar`` beside this directory.  ``lines`` counts
newlines, as ``cat DIR/*.py | wc -l`` does; ``code`` counts the lines that
hold a token other than a comment, and other than a string that is a
statement of its own (a docstring), so blank, comment-only and docstring
lines are not code.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ipstar"
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tokens[i + 1].type == tokenize.NEWLINE and (
            i == 0 or tokens[i - 1].type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
        ):
            continue  # a string statement: a docstring
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else SRC
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<16} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
