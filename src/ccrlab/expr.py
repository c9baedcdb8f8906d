"""Mini-language for algebra elements: words over q, p, q', p', i, rationals.

Products are written by juxtaposition or ``*``; ``+``/``-`` combine terms,
``^`` takes integer powers, parentheses group.  Examples: ``q p q p``,
``(q + i p)^2``, ``1/2 q p' - i``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exactcomplex import ComplexRational
from .heisenberg import AlgebraElement, P, P_PRIME, Q, Q_PRIME, UNIT, product


class ExprError(ValueError):
    """Parse error carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<gen>q'|p'|q|p)|(?P<i>i)"
    r"|(?P<plus>\+)|(?P<minus>-)|(?P<star>\*)|(?P<caret>\^)"
    r"|(?P<lparen>\()|(?P<rparen>\)))"
)

_GENERATORS = {"q": Q, "p": P, "q'": Q_PRIME, "p'": P_PRIME}

# Deepest nesting of parentheses and unary minus signs the parser accepts;
# it recurses per level, so this keeps it far below the interpreter's limit.
NESTING_LIMIT = 100
# Largest exponent, counted in degrees of the base (a scalar counts as degree 1):
# a power multiplies once per unit of its exponent, and q^10000 takes under a second.
POWER_LIMIT = 10_000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExprError(f"unsupported token {rest[0]!r}", len(text) - len(rest))
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.cursor = 0
        self.depth = 0

    def peek(self) -> str | None:
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor][0]
        return None

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def position(self) -> int:
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor][2]
        return len(self.text)

    def parse(self) -> AlgebraElement:
        value = self.expression()
        if self.peek() is not None:
            raise ExprError("unexpected trailing input", self.position())
        return value

    def expression(self) -> AlgebraElement:
        value = self.term()
        while self.peek() in ("plus", "minus"):
            kind, _, _ = self.next()
            rhs = self.term()
            value = value + rhs if kind == "plus" else value - rhs
        return value

    def term(self) -> AlgebraElement:
        factors = [self.power()]
        while self.peek() in ("star", "number", "gen", "i", "lparen", "minus"):
            if self.peek() == "star":
                self.next()
            elif self.peek() == "minus":
                break  # binary minus belongs to expression()
            factors.append(self.power())
        return product(factors)  # one product, so one term budget for the whole chain

    def power(self) -> AlgebraElement:
        base = self.primary()
        while self.peek() == "caret":
            self.next()
            if self.peek() != "number":
                raise ExprError("expected an integer exponent", self.position())
            _, text, pos = self.next()
            if "/" in text:
                raise ExprError("exponent must be an integer", pos)
            if len(text) > len(str(POWER_LIMIT)) or int(text) * max(base.degree(), 1) > POWER_LIMIT:
                raise ExprError(f"power above degree {POWER_LIMIT}", pos)
            base = base ** int(text)
        return base

    def primary(self) -> AlgebraElement:
        kind = self.peek()
        if kind is None:
            raise ExprError("unexpected end of input", self.position())
        if kind == "minus":
            self.next()
            return -self.nested(self.power)
        kind, text, pos = self.next()
        if kind == "number":
            try:
                return UNIT * ComplexRational(Fraction(text))
            except ZeroDivisionError:
                raise ExprError(f"zero denominator in {text!r}", pos) from None
            except ValueError:  # int() refuses past the interpreter's digit limit
                raise ExprError(f"number with more than {sys.get_int_max_str_digits()} digits", pos) from None
        if kind == "i":
            return UNIT * ComplexRational(0, 1)
        if kind == "gen":
            return _GENERATORS[text]
        if kind == "lparen":
            value = self.nested(self.expression)
            if self.peek() != "rparen":
                raise ExprError("missing closing parenthesis", self.position())
            self.next()
            return value
        raise ExprError(f"unexpected token {text!r}", pos)

    def nested(self, parse) -> AlgebraElement:
        if self.depth == NESTING_LIMIT:
            raise ExprError(f"expression nested deeper than {NESTING_LIMIT} levels", self.position())
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value


def parse_element(text: str) -> AlgebraElement:
    """Parse the mini-language into a canonical algebra element."""
    if not text.strip():
        raise ExprError("empty expression", 0)
    return _Parser(text).parse()
