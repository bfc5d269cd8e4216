"""Expression grammar shared by the library front ends.

Letters are ``v[i,j]``, ``u[i,j]``, ``u*[i,j]``; ``s`` is the crossed-product
flip; products by juxtaposition or ``*``; sums with ``+`` and ``-``;
coefficients are integers, fractions ``p/q`` and the imaginary unit ``i``;
parentheses group.  Context decides the value type: a word presentation
(``ao-star:n``, ``ah-star:n``, ``au-star-star:n``) yields a WordElement, the
crossed context (``crossed:n``) a CrossedElement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .crossed import CrossedElement, FunElement
from .errors import ParseError, check_count
from .scalars import GaussianRational, I
from .words import AU_STAR_STAR, Presentation, WordElement, ao_star, ah_star, au_star_star, letter

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<letter>[vu]\*?\[\s*(?:\d+\s*(?:,\s*(?:\d+\s*\]?)?)?)?)  # a letter, or its longest prefix
  | (?P<number>\d+(?:\s*/\s*\d+)?)
  | (?P<name>[a-zA-Z]+)
  | (?P<plus>\+)
  | (?P<minus>-)
  | (?P<star>\*)
  | (?P<lpar>\()
  | (?P<rpar>\))
    """,
    re.VERBOSE | re.ASCII,  # digits and spaces are ASCII ones
)

MAX_NESTING = 100  # parentheses an expression may nest, well inside the recursion limit
# term pairs the products of one expression may form, summed over its products;
# eight juxtaposed sums of the eight degree-1 letters of crossed:2 form 51,472
MAX_PRODUCT_PAIRS = 65_536


@dataclass(frozen=True)
class CrossedContext:
    n: int

    def __post_init__(self):
        check_count(self.n)
        object.__setattr__(self, "group", f"un:{self.n}")  # the crossed product lives over U(n)

    def __str__(self):
        return f"crossed:{self.n}"


def parse_context(text: str):
    """Context names: ao-star:N, ah-star:N, au-star-star:N, crossed:N; N is
    ASCII digits, signed so that a builder names the bound."""
    try:
        kind, raw_n = text.rsplit(":", 1)
        if not re.fullmatch("-?[0-9]+", raw_n):
            raise ValueError(raw_n)
        n = int(raw_n)
    except ValueError as exc:
        raise ParseError(f"bad context {text!r}; expected e.g. ao-star:2 or crossed:2") from exc
    builders = {
        "ao-star": ao_star,
        "ah-star": ah_star,
        "au-star-star": au_star_star,
        "crossed": CrossedContext,
    }
    if kind not in builders:
        raise ParseError(f"unknown context kind {kind!r}")
    return builders[kind](n)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        kind = m.lastgroup
        if kind == "letter" and not m.group().endswith("]"):
            pos = m.end()  # blame the character that breaks the letter, or the end
            what = f"character {text[pos]!r}" if pos < len(text) else "end of input"
            raise ParseError(f"unexpected {what}", position=pos)
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _term_count(value):
    if isinstance(value, CrossedElement):
        return len(value.f0.terms) + len(value.f1.terms)
    return len(value.terms)


class _Parser:
    """Recursive descent over: expr := [+-] term ((+|-) term)*;
    term := factor (['*'] factor)*; factor := number | i | letter | s | (expr).
    Only parentheses recurse; ``depth`` counts the open ones."""

    def __init__(self, text, context):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.context = context
        self.crossed = isinstance(context, CrossedContext)
        self.n = context.n
        self.depth = 0
        self.pairs = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", position=tok[2])
        return tok

    # value constructors -----------------------------------------------

    def one(self):
        if self.crossed:
            return CrossedElement.one(self.n)
        return WordElement.one(self.context)

    def scalar(self, c):
        return self.one() * GaussianRational.coerce(c)

    def letter_value(self, text, pos):
        name, star = text[0], text[1] == "*"
        row, col = map(int, re.findall("[0-9]+", text))
        if self.crossed:
            if name == "v":
                raise ParseError("v-generators belong to word contexts", position=pos)
            if not (1 <= row <= self.n and 1 <= col <= self.n):
                raise ParseError(f"index ({row},{col}) outside 1..{self.n}", position=pos)
            return CrossedElement.even(FunElement.coordinate(self.n, row, col, bar=star))
        pres: Presentation = self.context
        if name == "v":
            if star:
                raise ParseError("orthogonal generators are self-adjoint; v*[..] is invalid", position=pos)
            if pres.kind == AU_STAR_STAR:
                raise ParseError(f"v-generators are invalid in {pres}", position=pos)
        else:
            if pres.kind != AU_STAR_STAR:
                raise ParseError(f"u-generators are invalid in {pres}", position=pos)
        if not (1 <= row <= self.n and 1 <= col <= self.n):
            raise ParseError(f"index ({row},{col}) outside 1..{self.n}", position=pos)
        return WordElement.from_word(pres, (letter(pres, row, col, star),))

    def flip_value(self, pos):
        if not self.crossed:
            raise ParseError("the flip s only exists in the crossed context", position=pos)
        return CrossedElement.flip(self.n)

    # grammar ------------------------------------------------------------

    def parse(self):
        value = self.parse_expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])
        return value

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in ("plus", "minus"):
            sign = -1 if self.advance()[0] == "minus" else 1
        value = self.parse_term() * sign
        while self.peek()[0] in ("plus", "minus"):
            op = self.advance()[0]
            term = self.parse_term()
            value = value - term if op == "minus" else value + term
        return value

    def product(self, left, right):
        """left * right, once the term pairs of every product so far, these
        included, are counted against ``MAX_PRODUCT_PAIRS``."""
        self.pairs += _term_count(left) * _term_count(right)
        if self.pairs > MAX_PRODUCT_PAIRS:
            raise ValueError(
                f"the expression's products form {self.pairs} term pairs, above the cap of {MAX_PRODUCT_PAIRS}"
            )
        return left * right

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind = self.peek()[0]
            if kind == "star":
                self.advance()
                value = self.product(value, self.parse_factor())
            elif kind in ("number", "name", "letter", "lpar"):
                value = self.product(value, self.parse_factor())
            else:
                return value

    def parse_factor(self):
        kind, text, pos = self.advance()
        if kind == "number":
            if "/" in text:
                num, den = text.split("/")
                if int(den) == 0:
                    raise ParseError(f"zero denominator in {text!r}", position=pos)
                return self.scalar(Fraction(int(num), int(den)))
            return self.scalar(int(text))
        if kind == "name":
            if text == "i":
                return self.scalar(I)
            if text == "s":
                return self.flip_value(pos)
            raise ParseError(f"unknown symbol {text!r}", position=pos)
        if kind == "letter":
            return self.letter_value(text, pos)
        if kind == "lpar":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", position=pos)
            self.depth += 1
            value = self.parse_expr()
            self.expect("rpar")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {text!r}", position=pos)


def parse_expression(text: str, context):
    """Parse ``text`` in the given context (a Presentation or CrossedContext)."""
    if isinstance(context, str):
        context = parse_context(context)
    return _Parser(text, context).parse()
