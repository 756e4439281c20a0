"""Parser for textual matrix entries over the declared parameters.

Grammar (the stable contract used by the system-file format and by the
certificate export):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)*            # non-negative integer exponents
    atom   := INT | IDENT | '(' expr ')'

'*' , '/', '+' and '-' are left associative; '^' binds tighter than unary
minus.  Ratio literals like 9/2 are just integer division expressions.
There is no implicit multiplication: "2z1" is a syntax error.

Every diagnostic carries the 1-based line/column of the offending token
inside the source text (offset by the ExprSource origin, so errors inside a
larger document point at the right place).
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import ParamSpace, RationalFunction

__all__ = ["ExprSource", "ParseError", "UnknownIdentifierError", "ZeroDivisorError",
           "parse_expr", "render"]


@dataclass(frozen=True)
class ExprSource:
    """A piece of expression text plus where it came from."""

    text: str
    origin: str = "<expr>"
    line: int = 1
    column: int = 1


class ParseError(ValueError):
    def __init__(self, message: str, origin: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.origin = origin
        self.line = line
        self.column = column
        self.expected = expected
        loc = f"{origin}:{line}:{column}"
        if expected:
            message = f"{message} (expected {' or '.join(expected)})"
        super().__init__(f"{loc}: {message}")


class UnknownIdentifierError(ParseError):
    pass


class ZeroDivisorError(ParseError):
    """Division by a subexpression that is identically zero."""


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, IDENT, OP, END
    value: str
    line: int
    column: int


_OPS = set("+-*/^()")


def _tokenize(src: ExprSource) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = src.line, src.column
    i = 0
    text = src.text
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            start = i
            start_col = col
            while i < len(text) and text[i].isdecimal():
                i += 1
                col += 1
            if i < len(text) and (text[i].isalpha() or text[i] == "_"):
                raise ParseError(
                    f"identifier may not immediately follow a number "
                    f"(implicit multiplication is not allowed)",
                    src.origin, line, col,
                )
            tokens.append(_Token("INT", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("IDENT", text[start:i], line, start_col))
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", src.origin, line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: ExprSource, space: ParamSpace):
        self.src = src
        self.space = space
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, self.src.origin, tok.line, tok.column, expected)

    def parse(self) -> RationalFunction:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise self.error(f"unexpected trailing input {tok.value!r}", tok,
                             ("end of expression",))
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.value == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.peek().kind == "OP" and self.peek().value in "*/":
            op = self.advance()
            rhs = self.unary()
            if op.value == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ZeroDivisorError(
                        "division by an expression that is identically zero",
                        self.src.origin, op.line, op.column,
                    )
                value = value / rhs
        return value

    def unary(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> RationalFunction:
        value = self.atom()
        while self.peek().kind == "OP" and self.peek().value == "^":
            self.advance()
            tok = self.advance()
            if tok.kind != "INT":
                raise self.error(f"exponent must be a non-negative integer literal, got {tok.value!r}",
                                 tok, ("integer",))
            value = value ** self.integer(tok)
        return value

    def integer(self, tok: _Token) -> int:
        try:
            return int(tok.value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error(f"integer literal too long ({len(tok.value)} digits)", tok) from None

    def atom(self) -> RationalFunction:
        tok = self.advance()
        if tok.kind == "INT":
            return RationalFunction.from_const(self.space, self.integer(tok))
        if tok.kind == "IDENT":
            if tok.value not in self.space.variables:
                raise UnknownIdentifierError(
                    f"unknown identifier {tok.value!r}; declared: "
                    f"{', '.join(self.space.variables)}",
                    self.src.origin, tok.line, tok.column,
                )
            return RationalFunction(self.space.var(tok.value))
        if tok.kind == "OP" and tok.value == "(":
            value = self.expr()
            closing = self.advance()
            if not (closing.kind == "OP" and closing.value == ")"):
                raise self.error("unbalanced parenthesis", closing, (")",))
            return value
        if tok.kind == "END":
            raise self.error("unexpected end of expression", tok,
                             ("integer", "identifier", "(", "-"))
        raise self.error(f"unexpected token {tok.value!r}", tok,
                         ("integer", "identifier", "(", "-"))


def parse_expr(src: ExprSource | str, space: ParamSpace) -> RationalFunction:
    """Parse an expression into an exact element of F(z)(s).

    Every bad input raises ParseError at its line:column, over-deep nesting
    and over-long integer literals included."""
    if isinstance(src, str):
        src = ExprSource(src)
    parser = _Parser(src, space)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression is nested too deeply", parser.peek()) from None


def render(value: RationalFunction) -> str:
    """Render a field element in the grammar above; reparses to an equal value."""
    return str(value)
