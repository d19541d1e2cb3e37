"""Line-oriented lexer for the QASM dialect.

The language is simple enough that each line is tokenized independently into
identifiers, integers and commas.  Comments (``#`` or ``//`` to end of line)
and surrounding whitespace are stripped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import QasmError


class TokenKind(Enum):
    """Kinds of lexical tokens."""

    IDENT = auto()
    INTEGER = auto()
    COMMA = auto()


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def value(self) -> int:
        """Integer value of an :attr:`TokenKind.INTEGER` token."""
        if self.kind is not TokenKind.INTEGER:
            raise QasmError(f"token {self.text!r} is not an integer", self.line)
        return int(self.text)


_COMMENT_RE = re.compile(r"(#|//).*$")
# Identifiers may contain letters, digits, underscores, dashes and brackets so
# that gate mnemonics like ``C-X`` and names like ``[[5,1,3]]``-style prefixes
# remain single tokens.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comma>,)|(?P<int>\d+(?![\w\-]))|(?P<ident>[A-Za-z_][\w\-\[\]]*|\d+[\w\-\[\]]+))"
)


def strip_comment(line: str) -> str:
    """Return ``line`` with any trailing ``#`` or ``//`` comment removed."""
    return _COMMENT_RE.sub("", line)


def tokenize_line(line: str, line_number: int = 0) -> list[Token]:
    """Tokenize a single QASM source line.

    Args:
        line: The raw source line (may include a comment).
        line_number: 1-based line number used for error reporting.

    Returns:
        A list of :class:`Token`; empty for blank/comment-only lines.

    Raises:
        QasmError: If the line contains characters that are not part of any
            token.
    """
    text = strip_comment(line).rstrip()
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise QasmError(f"unexpected input {remainder!r}", line_number)
        if match.group("comma") is not None:
            tokens.append(Token(TokenKind.COMMA, ",", line_number, match.start("comma")))
        elif match.group("int") is not None:
            tokens.append(
                Token(TokenKind.INTEGER, match.group("int"), line_number, match.start("int"))
            )
        else:
            tokens.append(
                Token(TokenKind.IDENT, match.group("ident"), line_number, match.start("ident"))
            )
        pos = match.end()
    return tokens
