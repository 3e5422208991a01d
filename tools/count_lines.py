"""Count the lines of the package source: all of them, and the code lines alone.

    python3 tools/count_lines.py [FILE ...]

With no FILE it reads ``src/renyiquant/*.py``.  It prints two numbers: every
line, as ``cat FILES | wc -l`` counts them, and the code lines, those that
hold a token other than a comment or a docstring.  A docstring is a string
that is a statement of its own; every line it spans, a blank one inside it
included, is a docstring line.  Blank lines and comment lines are not code,
and neither is a comment after code: that line counts once, as code.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "renyiquant"
# a logical line starts after one of these; none of them holds code
_STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STARTS | {tokenize.ENDMARKER}


def code_lines(text: str) -> set[int]:
    """Numbers of the lines of ``text`` that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for before, tok, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and (before is None or before.type in _STARTS)
                and after.type == tokenize.NEWLINE):
            continue  # a docstring: a string that is a whole logical line
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(paths) -> tuple[int, int]:
    """(every line, code lines) summed over the files ``paths``."""
    total = code = 0
    for path in paths:
        text = Path(path).read_text()
        total += text.count("\n")
        code += len(code_lines(text))
    return total, code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    total, code = count(args or sorted(PACKAGE.glob("*.py")))
    print(f"{total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
