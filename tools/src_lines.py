#!/usr/bin/env python3
"""Line counts of the package source: code, docstring, comment and blank.

Each physical line of ``src/microreserve/*.py`` gets one kind, read from
Python's own tokenizer: code if any token on it is code, else docstring
if a bare string statement (a docstring) covers it, else comment if it
holds a comment, else blank. Prints one row per module and a total.

    python tools/src_lines.py            # this tree's src/microreserve
    python tools/src_lines.py DIR        # the *.py files of another tree
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
# Tokens that mark no line: layout, and the end of a logical or physical line.
LAYOUT = {
    tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def count_lines(source: str) -> dict[str, int]:
    """How many of the source's lines are of each kind."""
    kind: dict[int, str] = {}

    def mark(first: int, last: int, what: str) -> None:
        for line in range(first, last + 1):
            if KINDS.index(what) < KINDS.index(kind.get(line, "blank")):
                kind[line] = what

    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            mark(tok.start[0], tok.end[0], "comment")
        elif tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            # A logical line made only of strings is a docstring.
            what = "docstring" if all(t.type == tokenize.STRING for t in statement) else "code"
            for t in statement:
                mark(t.start[0], t.end[0], what)
            statement = []
    n_lines = len(source.splitlines())
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, n_lines + 1):
        counts[kind.get(line, "blank")] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "microreserve"))
    args = parser.parse_args(argv)
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(Path(args.dir).glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.stem:<16}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
