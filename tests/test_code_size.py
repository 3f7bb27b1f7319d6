"""The code budget of src/simnorm: its code lines may only go down.

A code line is a line on which a token starts that is not a comment, a
docstring or layout (NEWLINE, NL, INDENT, DEDENT, ENDMARKER), as Python's
tokenize module splits the source.  A docstring is a string that stands
alone as a statement.  A token over several lines, such as a triple-quoted
string, counts on its first line only.

CEILING is the count the package last shrank to.  A change that adds code
stays under it by removing code; a change that shrinks the package lowers
CEILING to the new count.  It is never raised.
"""

import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "simnorm"
CEILING = 1446

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue
        lines.add(tok.start[0])
    return len(lines)


_SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment

TEXT = """a string value
that is no docstring"""


def f(sep):
    """A function docstring."""

    # a comment in the body
    return sep.join(
        "a string alone on its line, in a call"
    )
'''


def test_the_counter_skips_comments_docstrings_and_layout():
    # import, TEXT (its first line), def, and the call's three lines
    assert code_lines(_SAMPLE) == 6


def test_the_package_stays_within_its_code_budget():
    count = sum(code_lines(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py"))
    assert count <= CEILING, (
        f"src/simnorm has {count} code lines, over its budget of {CEILING}: "
        "remove as much code as the change adds"
    )
