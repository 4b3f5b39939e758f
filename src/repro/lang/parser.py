"""Recursive-descent parser for the sequence query language.

Grammar (informal)::

    query     := seqexpr EOF
    seqexpr   := NAME | NAME '(' args ')'
    args      := arg (',' arg)*
    arg       := seqexpr ('as' NAME)?     -- when it looks like a call/name
               | valueexpr                -- otherwise
    valueexpr := orexpr
    orexpr    := andexpr ('or' andexpr)*
    andexpr   := notexpr ('and' notexpr)*
    notexpr   := 'not' notexpr | cmpexpr
    cmpexpr   := addexpr (('>'|'>='|'<'|'<='|'=='|'!=') addexpr)?
    addexpr   := mulexpr (('+'|'-') mulexpr)*
    mulexpr   := unary (('*'|'/') unary)*
    unary     := '-' unary | primary
    primary   := NAME | NUMBER | STRING | 'true' | 'false' | '(' valueexpr ')'

Whether an argument is a sequence expression or a value expression is
decided by the analyzer per operator signature; the parser produces a
uniform tree where a bare ``NAME`` is a :class:`ColumnRef` inside value
positions and a :class:`SequenceRef` in sequence positions.  To keep
the grammar unambiguous, the parser parses each argument as a *value*
expression, except that a name directly followed by ``(`` becomes a
nested :class:`Call`; the analyzer reinterprets plain names by
position.

Every produced node carries the :class:`~repro.lang.source.Pos` of the
token(s) it came from, and every :class:`~repro.errors.ParseError`
includes a caret excerpt pointing at the offending token.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.lang.ast_nodes import Binary, Call, ColumnRef, Literal, Unary
from repro.lang.lexer import Token, tokenize
from repro.lang.source import Pos, caret_excerpt

_COMPARISONS = (">", ">=", "<", "<=", "==", "!=")


class Parser:
    """A single-use recursive-descent parser."""

    def __init__(self, source: str):
        self._source = source
        self._tokens = tokenize(source)
        self._index = 0

    # -- token helpers ---------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current
        found = "end of input" if token.kind == "eof" else f"{token.kind} {token.text!r}"
        return ParseError(
            f"{message} (found {found})",
            line=token.line,
            column=token.column,
            excerpt=caret_excerpt(self._source, token.pos),
        )

    def _expect_symbol(self, text: str) -> Token:
        if not self._current.is_symbol(text):
            raise self._error(f"expected {text!r}")
        return self._advance()

    # -- entry -------------------------------------------------------------

    def parse_query(self):
        """Parse a full query; returns the root expression node."""
        expr = self.parse_value()
        if self._current.kind != "eof":
            raise self._error("unexpected trailing input")
        return expr

    # -- value expression grammar ------------------------------------------

    def parse_value(self):
        """Parse a value expression (the grammar's ``valueexpr``)."""
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self._current.is_keyword("or"):
            op_pos = self._advance().pos
            left = Binary("or", left, self._parse_and(), pos=op_pos)
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self._current.is_keyword("and"):
            op_pos = self._advance().pos
            left = Binary("and", left, self._parse_not(), pos=op_pos)
        return left

    def _parse_not(self):
        if self._current.is_keyword("not"):
            op_pos = self._advance().pos
            return Unary("not", self._parse_not(), pos=op_pos)
        return self._parse_cmp()

    def _parse_cmp(self):
        left = self._parse_add()
        if self._current.kind == "symbol" and self._current.text in _COMPARISONS:
            token = self._advance()
            return Binary(token.text, left, self._parse_add(), pos=token.pos)
        return left

    def _parse_add(self):
        left = self._parse_mul()
        while self._current.kind == "symbol" and self._current.text in ("+", "-"):
            token = self._advance()
            left = Binary(token.text, left, self._parse_mul(), pos=token.pos)
        return left

    def _parse_mul(self):
        left = self._parse_unary()
        while self._current.kind == "symbol" and self._current.text in ("*", "/"):
            token = self._advance()
            left = Binary(token.text, left, self._parse_unary(), pos=token.pos)
        return left

    def _parse_unary(self):
        if self._current.is_symbol("-"):
            op_pos = self._advance().pos
            return Unary("-", self._parse_unary(), pos=op_pos)
        return self._parse_primary()

    def _parse_primary(self):
        token = self._current
        if token.kind == "int":
            self._advance()
            return Literal(int(token.text), pos=token.pos)
        if token.kind == "float":
            self._advance()
            return Literal(float(token.text), pos=token.pos)
        if token.kind == "string":
            self._advance()
            return Literal(token.text, pos=token.pos)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True, pos=token.pos)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False, pos=token.pos)
        if token.kind == "name":
            name_token = self._advance()
            if self._current.is_symbol("("):
                return self._parse_call(name_token)
            return ColumnRef(name_token.text, pos=name_token.pos)
        if token.is_symbol("("):
            self._advance()
            inner = self.parse_value()
            self._expect_symbol(")")
            return inner
        raise self._error("expected an expression")

    def _parse_call(self, func_token: Token) -> Call:
        self._expect_symbol("(")
        args: list[object] = []
        aliases: list[Optional[str]] = []
        alias_positions: list[Optional[Pos]] = []
        if not self._current.is_symbol(")"):
            while True:
                args.append(self.parse_value())
                if self._current.is_keyword("as"):
                    self._advance()
                    if self._current.kind != "name":
                        raise self._error("expected an alias name after 'as'")
                    alias_token = self._advance()
                    aliases.append(alias_token.text)
                    alias_positions.append(alias_token.pos)
                else:
                    aliases.append(None)
                    alias_positions.append(None)
                if self._current.is_symbol(","):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        return Call(
            func_token.text,
            tuple(args),
            tuple(aliases),
            pos=func_token.pos,
            alias_positions=tuple(alias_positions),
        )


def parse(source: str):
    """Parse ``source`` into the language AST."""
    return Parser(source).parse_query()
