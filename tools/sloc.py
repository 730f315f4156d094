"""Print the code lines of each module of ``src/omegacoalg``, and their
total: the lines that hold a token, leaving out docstrings, comments and
blank lines.  Usage: ``python tools/sloc.py``."""

import ast
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in NOT_CODE]
    return len({n for t in tokens for n in range(t.start[0], t.end[0] + 1)} - docs)


total = 0
for path in sorted((Path(__file__).resolve().parent.parent / "src" / "omegacoalg").glob("*.py")):
    lines = code_lines(path)
    total += lines
    print(f"{lines:6} {path.name}")
print(f"{total:6} total")
