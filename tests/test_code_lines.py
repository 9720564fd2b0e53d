"""Tooling check: the runtime's code lines stay at or under a ceiling (ROADMAP aim 2, less code).

A code line is a line that holds a token of code (``tokenize``), less the
lines of module, class and function docstrings (``ast``); comments and blank
lines do not count. The runtime is every module under ``src/hqloc`` but
``reference``, as ROADMAP's Baseline counts it.

Lower ``CEILING`` freely when code goes. Raising it needs a CHANGES.md line
saying why.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hqloc"
CEILING = 1697
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code, docstrings and comments left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def runtime_lines() -> dict[str, int]:
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "reference"}


def test_the_runtime_stays_under_its_code_line_ceiling():
    counts = runtime_lines()
    assert sum(counts.values()) <= CEILING, counts


def test_the_counter_skips_docstrings_comments_and_blank_lines():
    source = '\n'.join([
        '"""Module',
        'docstring."""',
        '',
        '# a comment',
        'X = """not a',
        'docstring"""  # two lines of code, then a comment',
        'class A:',
        '    """Class docstring."""',
        '    def f(self):',
        '        """Function',
        '        docstring."""',
        '        return (1,',
        '                2)',
    ])
    assert code_lines(source) == 6
