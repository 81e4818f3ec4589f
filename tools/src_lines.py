#!/usr/bin/env python3
"""Line counts of the package source: code, docstring, comment and blank.

Each physical line of ``src/microreserve/*.py`` gets one kind, read from
Python's own tokenizer: code if any token on it is code, else docstring
if a bare string statement (a docstring) covers it, else comment if it
holds a comment, else blank. Prints one row per module and a total.

    python tools/src_lines.py                 # this tree's src/microreserve
    python tools/src_lines.py DIR             # the *.py files of another tree
    python tools/src_lines.py --against REV   # lines and code here, at REV and the change

With ``--against``, the revision is exported as ``tools/parity.py`` does,
and each module's lines and code lines are printed for both trees, with
this tree's count minus the revision's.
"""

from __future__ import annotations

import argparse
import io
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from parity import export_revision  # noqa: E402

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


def count_tree(directory: Path) -> dict[str, dict[str, int]]:
    """Each module's line counts, by module name."""
    return {
        path.stem: count_lines(path.read_text(encoding="utf-8"))
        for path in sorted(Path(directory).glob("*.py"))
    }


def with_total(counts: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    total = {k: sum(c[k] for c in counts.values()) for k in KINDS}
    return {**counts, "total": total}


def print_counts(counts: dict[str, dict[str, int]]) -> None:
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, c in with_total(counts).items():
        print(f"{name:<16}{sum(c.values()):>7}" + "".join(f"{c[k]:>11}" for k in KINDS))


def print_change(before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]) -> None:
    """Lines and code lines of each module before and after; a missing module counts 0."""
    print(f"{'module':<16}" + "".join(f"{h:>9}" for h in ("lines@rev", "lines", "change",
                                                         "code@rev", "code", "change")))
    empty = dict.fromkeys(KINDS, 0)
    names = sorted(set(before) | set(after)) + ["total"]
    before, after = with_total(before), with_total(after)
    for name in names:
        old, new = before.get(name, empty), after.get(name, empty)
        cells = []
        for measure in (lambda c: sum(c.values()), lambda c: c["code"]):
            cells += [measure(old), measure(new), f"{measure(new) - measure(old):+d}"]
        print(f"{name:<16}" + "".join(f"{cell:>9}" for cell in cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "microreserve"))
    parser.add_argument("--against", metavar="REV", default=None,
                        help="git revision whose src/microreserve to compare with")
    args = parser.parse_args(argv)
    after = count_tree(Path(args.dir))
    if args.against is None:
        print_counts(after)
        return 0
    with tempfile.TemporaryDirectory(prefix="src-lines-") as tmp:
        export_revision(args.against, Path(tmp))
        before = count_tree(Path(tmp) / "src" / "microreserve")
    print_change(before, after)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
