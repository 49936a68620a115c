"""Tokenizer for the Cypher subset accepted by the GES frontend.

One compiled master regex reads the text, and two functions consume its
matches: :func:`tokenize` builds the parser's token list, and
:func:`normalize` rewrites a text into its literal-free *shape*, the key
under which the engine caches compiled plans.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, Iterator

from ...errors import CypherSyntaxError

KEYWORDS = {
    "MATCH",
    "OPTIONAL",
    "WHERE",
    "WITH",
    "RETURN",
    "ORDER",
    "BY",
    "LIMIT",
    "ASC",
    "DESC",
    "AND",
    "OR",
    "NOT",
    "AS",
    "DISTINCT",
    "IN",
    "IS",
    "NULL",
    "TRUE",
    "FALSE",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    PARAM = "param"  # $name
    SYMBOL = "symbol"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word

    def is_symbol(self, symbol: str) -> bool:
        return self.type is TokenType.SYMBOL and self.value == symbol


#: One alternative per token kind, tried in order after the leading
#: whitespace (backtracking into that whitespace exposes nothing: no
#: alternative matches a space).  Numbers are ASCII digits only, so ``²`` or
#: ``٣`` is junk, never a number.  ``uword`` is an identifier starting with
#: a non-ASCII character, which must also pass ``str.isalpha``; ``junk`` is
#: any other character, so the matches tile the text with no gaps.
_MASTER = re.compile(
    r"""\s*(?:
      (?P<word>[A-Za-z_]\w*)
    | (?P<comment>//[^\n]*)
    | (?P<symbol><=|>=|<>|->|<-|\.\.|[()\[\]{}:,.;\-<>=+*/|])
    | (?P<float>[0-9]+\.[0-9]+)
    | (?P<int>[0-9]+)
    | (?P<string>'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<param>\$\w+)
    | (?P<uword>[^\W\d]\w*)
    | (?P<junk>\S)
    )""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
#: Every literal starts with a digit or a quote.
_LITERAL_START = re.compile(r"[0-9'\"]")

_TYPES = {
    "float": TokenType.FLOAT,
    "int": TokenType.INT,
    "symbol": TokenType.SYMBOL,
}

#: Keywords that start the clause after a WHERE (OPTIONAL is followed by MATCH).
_WHERE_ENDS = frozenset({"MATCH", "WITH", "RETURN"})

#: Name prefix of the hidden parameters :func:`normalize` introduces.
_LITERAL_PARAM = "__lit"


def _scan(text: str) -> Iterator[re.Match[str]]:
    """The master regex's matches over *text*, in order.

    The scan stops before trailing whitespace: a match attempt there fails
    only after backtracking through the whole run, and ``finditer`` would
    retry it at every position, which is quadratic in the run's length.
    """
    return _MASTER.finditer(text, 0, len(text.rstrip()))


def _unquote(lexeme: str) -> str:
    """A string literal's value: quotes stripped, ``\\x`` read as ``x``."""
    body = lexeme[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _junk(char: str, position: int) -> CypherSyntaxError:
    if char in "'\"":
        return CypherSyntaxError("unterminated string literal", position)
    if char == "$":
        return CypherSyntaxError("empty parameter name", position)
    return CypherSyntaxError(f"unexpected character {char!r}", position)


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; raises CypherSyntaxError on junk."""
    tokens: list[Token] = []
    for match in _scan(text):
        kind = match.lastgroup
        lexeme = match[kind]
        start = match.start(kind)
        if kind == "word" or kind == "uword":
            if kind == "uword" and not lexeme[0].isalpha():
                raise _junk(lexeme[0], start)
            upper = lexeme.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENT, lexeme, start))
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, _unquote(lexeme), start))
        elif kind == "param":
            tokens.append(Token(TokenType.PARAM, lexeme[1:], start))
        elif kind == "junk":
            raise _junk(lexeme, start)
        elif kind != "comment":
            tokens.append(Token(_TYPES[kind], lexeme, start))
    tokens.append(Token(TokenType.EOF, "", len(text)))
    return tokens


def normalize(text: str) -> tuple[str, dict[str, Any]]:
    """The literal-free shape of *text*, and the values lifted out of it.

    Each INT / FLOAT / STRING literal inside a WHERE clause or a ``{...}``
    property map becomes a hidden parameter ``$__lit<i>``; its value is
    decoded as the parser decodes the token.  Every other literal stays: a
    LIMIT count or hop bound fixes the plan's structure, and a projection
    literal can name a column.  The text comes back unchanged, with no
    values, when there is nothing to lift, when it already uses a
    ``$__lit`` parameter, or when it holds a character no token starts
    with (compiling it then raises the lexer's error).
    """
    values: dict[str, Any] = {}
    if _LITERAL_START.search(text) is None:
        return text, values
    pieces: list[str] = []
    in_where = in_map = False
    copied = 0
    for match in _scan(text):
        kind = match.lastgroup
        if kind == "word" or kind == "uword":
            word = match[kind].upper()
            if word == "WHERE":
                in_where = True
            elif word in _WHERE_ENDS:
                in_where = False
        elif kind == "symbol":
            symbol = match["symbol"]
            if symbol == "{":
                in_map = True
            elif symbol == "}":
                in_map = False
            elif symbol == ";":
                in_where = False
        elif kind == "param":
            if match["param"].startswith(_LITERAL_PARAM, 1):
                return text, {}
        elif kind == "junk":
            return text, {}
        elif kind != "comment" and (in_where or in_map):
            lexeme = match[kind]
            if kind == "int":
                value: Any = int(lexeme)
            elif kind == "float":
                value = float(lexeme)
            else:
                value = _unquote(lexeme)
            name = f"{_LITERAL_PARAM}{len(values)}"
            values[name] = value
            start, end = match.span(kind)
            pieces.append(text[copied:start])
            pieces.append("$" + name)
            copied = end
    if not values:
        return text, values
    pieces.append(text[copied:])
    return "".join(pieces), values
