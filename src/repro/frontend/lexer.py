"""Tokenizer for MiniC: one regular expression, matched token by token."""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import ParseError

KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "unsigned", "signed",
        "if", "else", "while", "for", "do", "return", "break", "continue",
        "sizeof",
    }
)

#: The escapes a character constant accepts after a backslash, and
#: their values, position for position.
_ESCAPED, _ESCAPE_VALUES = "ntr0\\'", "\n\t\r\0\\'"

#: One alternative per token class, tried in order at each position, so
#: operators are listed longest first (maximal munch).  ``error`` starts
#: a token the earlier alternatives could not finish, ``stray`` is any
#: other character; every position matches exactly one alternative.
#: Compiled on first use (``re`` caches it), not at import.
_TOKEN = (
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<number>(?:0[xX][0-9a-fA-F]+|(?!0[xX])\d+)[uUlL]*)"
    r"|(?P<char>'(?:\\[ntr0\\']|[^\\])')"
    r"|(?P<error>0[xX]|/\*|')"
    r"|(?P<op><<=|>>=|[=!<>]=|&&|\|\||<<|>>|[-+*/%&|^]=|\+\+|--"
    r"|[-+*/%&|^~!<>=()\[\]{};,?:])"
    r"|(?P<stray>.)"
)


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of ``"ident"``, ``"number"``, ``"keyword"``, ``"op"``
    or ``"eof"``; ``text`` is the exact source spelling (for numbers, the
    literal); ``line``/``column`` are 1-based.
    """

    kind: str
    text: str
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.text in ops

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.text in words


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; the list always ends with an ``eof`` token.

    A character constant becomes a ``number`` token holding its value.
    """
    tokens: List[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first char
    for match in re.compile(_TOKEN, re.DOTALL).finditer(source):
        kind, text, start = match.lastgroup, match.group(), match.start()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "ident":
            if text in KEYWORDS:
                kind = "keyword"
            elif not (text[0].isalpha() or text[0] == "_"):  # e.g. "½"
                raise ParseError(
                    f"unexpected character {text[0]!r}", line, column
                )
        elif kind == "char":
            value = (
                text[1] if len(text) == 3
                else _ESCAPE_VALUES[_ESCAPED.index(text[2])]
            )
            tokens.append(Token("number", str(ord(value)), line, column))
            if text[1] == "\n":  # a newline between the quotes
                line, line_start = line + 1, start + 2
            continue
        elif kind == "error" or kind == "stray":
            raise _error(source, start, line, column)
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def _error(source: str, pos: int, line: int, column: int) -> ParseError:
    """The error for the token that cannot be finished at ``pos``, placed
    where scanning it gave up."""
    if source.startswith("/*", pos):
        return ParseError("unterminated block comment", line, column)
    if source.startswith(("0x", "0X"), pos):
        return ParseError("bad hex literal", line, column + 2)
    if source[pos] != "'":
        return ParseError(f"unexpected character {source[pos]!r}", line,
                          column)
    rest = source[pos + 1:pos + 3]
    if rest[:1] == "\\":
        if len(rest) < 2:
            return ParseError("bad escape", line, column + 2)
        if rest[1] not in _ESCAPED:
            return ParseError(f"unknown escape \\{rest[1]}", line,
                              column + 2)
        column += 1
    elif rest[:1] == "\n":
        return ParseError("unterminated character constant", line + 1, 1)
    return ParseError("unterminated character constant", line,
                      column + 1 + len(rest[:1]))
