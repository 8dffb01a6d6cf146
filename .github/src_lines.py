"""Print the code, docstring, comment and blank lines of each source file.

    python .github/src_lines.py [ROOT] [--against BASE]

ROOT (default: the current directory) is a checkout of this repository;
the files counted are its ``src/stratavar/*.py``. Each line is of one
kind: a docstring line lies in a string literal that is a statement of its
own, a comment line holds only a comment, a blank line holds nothing (a
blank line inside a docstring too), and every other line is code. With
``--against BASE``, another checkout, the table gives instead each file's
change in every kind, ROOT minus BASE, and the total change.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SKIPPED = (tokenize.COMMENT, tokenize.NL)  # neither ends nor begins a statement
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(text: str) -> dict[str, int]:
    """Lines of each kind in one Python source text."""
    lines = text.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    statement_start = True  # the next token begins a statement
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.COMMENT:
            row = tok.start[0] - 1
            if not lines[row][: tok.start[1]].strip():
                kind[row] = "comment"
        elif tok.type == tokenize.STRING and statement_start:
            following = next(t for t in tokens[i + 1 :] if t.type not in _SKIPPED)
            if following.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                for row in range(tok.start[0] - 1, tok.end[0]):
                    if kind[row] != "blank":
                        kind[row] = "docstring"
        if tok.type not in _SKIPPED:
            statement_start = tok.type in _LAYOUT or tok.string == ";"
    return {k: kind.count(k) for k in KINDS}


def counts(root: Path) -> dict[str, dict[str, int]]:
    """{file name: line kinds} for every ``src/stratavar/*.py`` under ``root``."""
    files = sorted((root / "src" / "stratavar").glob("*.py"))
    return {path.name: line_kinds(path.read_text()) for path in files}


def _with_total(table: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    total = {k: sum(row[k] for row in table.values()) for k in KINDS}
    return {**table, "total": total}


def _print(table: dict[str, dict[str, int]], fmt: str) -> None:
    print(f"{'file':<18}" + "".join(f"{k:>11}" for k in KINDS))
    for name, row in table.items():
        print(f"{name:<18}" + "".join(format(row[k], fmt).rjust(11) for k in KINDS))


def main(argv: list[str]) -> int:
    args = list(argv)
    base = None
    if "--against" in args:
        at = args.index("--against")
        base = Path(args[at + 1]).resolve()
        del args[at : at + 2]
    head = counts(Path(args[0] if args else ".").resolve())
    if base is None:
        _print(_with_total(head), ",")
        return 0
    old, zero = counts(base), dict.fromkeys(KINDS, 0)
    delta = {
        name: {k: head.get(name, zero)[k] - old.get(name, zero)[k] for k in KINDS}
        for name in sorted(head.keys() | old.keys())
    }
    _print(_with_total(delta), "+,")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
