"""Code lines of each module of a package, and their total.

    python scripts/code_lines.py [package_dir]

A code line is a physical line that holds part of a token other than a
comment, a docstring, an indent or a line break, as Python's tokenize
module reads the file; blank lines, comment lines and docstrings count for
nothing.  A docstring here is any string that stands alone as a statement.
package_dir defaults to src/cascadesim; its *.py files are counted,
subdirectories included, one line each in path order, then the total.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a string starts a statement of its own
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.NL,
                   tokenize.COMMENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines in source, Python text."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    previous = tokenize.ENCODING
    for i, tok in enumerate(tokens):
        kind = tok.type
        if kind in LAYOUT:
            if kind not in (tokenize.NL, tokenize.COMMENT):
                previous = kind
            continue
        following = next((t.type for t in tokens[i + 1:] if t.type != tokenize.COMMENT), None)
        docstring = (kind == tokenize.STRING and previous in STATEMENT_START
                     and following in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = kind
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package_dir", nargs="?", type=Path, default=ROOT / "src" / "cascadesim")
    args = parser.parse_args(argv)
    if not args.package_dir.is_dir():
        parser.error(f"{args.package_dir} is not a directory")
    total = 0
    for path in sorted(args.package_dir.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(args.package_dir).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
