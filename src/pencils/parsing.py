"""Text syntax for binary forms.

The grammar is a flat signed sum of monomial terms

    term := [coef] [*] [x1[^a]] [*] [x2[^b]]

with `coef` an integer or `p/q` fraction, `^1` elided, missing factors
elided, and whitespace insignificant.  Every term must have the same total
degree a+b; terms with equal exponents are combined.  `format_form` emits
the same syntax, so parse/format round-trips exactly.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .forms import BinaryForm

# Largest order `parse_form` accepts.  The coefficient list is allocated
# from the first term's degree, so a larger degree is refused before that.
MAX_ORDER = 10_000

_TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<var>x[12])|(?P<op>[+\-*^])")
_WS = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        pos = _WS.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, self.length)

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def done(self):
        return self.pos >= len(self.tokens)


def _exponent(cur: _Cursor) -> int:
    kind, value, pos = cur.peek()
    if kind != "op" or value != "^":
        return 1
    cur.advance()
    kind, value, pos = cur.peek()
    if kind != "num" or "/" in value:
        raise ParseError("expected an integer exponent after '^'", pos)
    cur.advance()
    return int(value)


def _star(cur: _Cursor) -> None:
    """Skip a `*`, which must be followed by a variable."""
    kind, value, _ = cur.peek()
    if kind == "op" and value == "*":
        cur.advance()
        kind, _, pos = cur.peek()
        if kind != "var":
            raise ParseError("expected a variable after '*'", pos)


def _term(cur: _Cursor, text: str) -> tuple[Fraction, int, int, str]:
    start = cur.peek()[2]
    coef = None
    e1 = None
    e2 = None
    kind, value, pos = cur.peek()
    if kind == "num":
        cur.advance()
        coef = Fraction(value)
        _star(cur)
    kind, value, pos = cur.peek()
    if kind == "var" and value == "x1":
        cur.advance()
        e1 = _exponent(cur)
        _star(cur)
    kind, value, pos = cur.peek()
    if kind == "var" and value == "x2":
        cur.advance()
        e2 = _exponent(cur)
        _star(cur)
    kind, value, pos = cur.peek()
    if kind == "var":
        message = (
            "x1 must come before x2 in a term" if value == "x1" else "repeated x2 factor"
        )
        raise ParseError(message, pos)
    if coef is None and e1 is None and e2 is None:
        raise ParseError("expected a term", start)
    end = cur.peek()[2]
    source = text[start:end].strip()
    return (
        Fraction(1) if coef is None else coef,
        e1 or 0,
        e2 or 0,
        source,
    )


def parse_coeffs(text: str) -> list[Fraction]:
    """Coefficient list of the form written as `text`; raises ParseError on bad input.

    Entry k belongs to x1^(d-k) * x2^k, as in `BinaryForm`.  The list is
    returned before a form is built, so callers can bound its size first.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    cur = _Cursor(tokens, len(text))
    terms = []
    first = True
    while not cur.done():
        sign = 1
        kind, value, pos = cur.peek()
        if kind == "op" and value in "+-":
            cur.advance()
            sign = -1 if value == "-" else 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        coef, e1, e2, source = _term(cur, text)
        terms.append((sign * coef, e1, e2, source, pos))
        first = False
    order = terms[0][1] + terms[0][2]
    if order > MAX_ORDER:
        raise ParseError(f"degree {order} exceeds the largest order {MAX_ORDER}", terms[0][4])
    coeffs = [Fraction(0)] * (order + 1)
    for coef, e1, e2, source, pos in terms:
        if e1 + e2 != order:
            raise ParseError(
                f"inhomogeneous term '{source}': degree {e1 + e2} differs from {order}",
                pos,
            )
        coeffs[e2] += coef
    return coeffs


def parse_form(text: str) -> BinaryForm:
    """Parse expression text into a BinaryForm; raises ParseError on bad input."""
    coeffs = parse_coeffs(text)
    return BinaryForm(len(coeffs) - 1, coeffs)


def format_form(form: BinaryForm) -> str:
    """Render a form in the grammar above; zero forms keep their order visible."""
    if form.is_zero():
        return "0" if form.order == 0 else f"0*x1^{form.order}"
    parts = []
    for k, coeff in enumerate(form.coeffs):
        if not coeff:
            continue
        e1, e2 = form.order - k, k
        factors = []
        if e1:
            factors.append("x1" if e1 == 1 else f"x1^{e1}")
        if e2:
            factors.append("x2" if e2 == 1 else f"x2^{e2}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = f"{magnitude}*" + "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)
