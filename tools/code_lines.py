"""Print the code lines of each module of ``src/rkhs_reach``.

A code line holds at least one token that is neither a comment nor a
docstring; blank lines, comment lines and the lines of a docstring are
left out. A docstring here is any string statement standing alone, as
the first statement of a module, class or function is. Run from the
repository root:

    python tools/code_lines.py [PACKAGE_DIR]
"""

import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rkhs_reach"

# tokens that carry no code; NEWLINE, which ends a statement, is kept
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    tokens = [
        t for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in _LAYOUT
    ]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string that starts a statement and ends it is a docstring
        starts = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        ends = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts and ends:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
