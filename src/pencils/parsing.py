"""Text syntax for binary forms.

The grammar is a flat signed sum of monomial terms

    term := [coef] [*] [x1[^a]] [*] [x2[^b]]

with `coef` an integer or `p/q` fraction, `^1` elided, missing factors
elided, and whitespace insignificant.  Every term must have the same total
degree a+b; terms with equal exponents are combined.  `format_form` emits
the same syntax, so parse/format round-trips exactly.

The language is regular and every part of a term is optional, so one
pattern, `_TERM`, matched greedily where the previous term ended, takes
exactly the tokens a token-by-token reader would; no tokenizer is needed.
The token after a term must be the next term's sign or the end of the
text, and `_refuse` names any other.  A prefix scan, `_TOKENS`, runs
first, so a character that starts no token is reported before any other
error.  Numerals are `forms.RATIONAL` (ASCII digits), and coefficients are
read by `to_fraction`, as in every other text reader.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .forms import RATIONAL, BinaryForm, to_fraction

# Largest order `parse_form` accepts.  The coefficient list is allocated
# from the first term's degree, so a larger degree is refused before that.
MAX_ORDER = 10_000

_WS = re.compile(r"\s*")
# Whitespace and tokens; where a match stops, a character starts no token.
_TOKENS = re.compile(rf"(?:\s*(?:{RATIONAL}|x[12]|[-+*^]))*\s*")
# A '*' belongs to a term only where a variable follows it.
_STAR = r"(?:\s*\*(?=\s*x[12]))?"
# One signed term and the whitespace after it; group `term` is the term
# without its sign.  An exponent that runs into '/' is left unmatched.
_TERM = re.compile(
    rf"\s*(?P<sign>[-+]?)\s*(?P<term>(?:(?P<coef>{RATIONAL}){_STAR})?"
    rf"(?:\s*(?P<x1>x1)(?:\s*\^\s*(?P<e1>[0-9]+(?![/0-9])))?{_STAR})?"
    rf"(?:\s*(?P<x2>x2)(?:\s*\^\s*(?P<e2>[0-9]+(?![/0-9])))?{_STAR})?)\s*"
)


def _power(m: re.Match, k: str) -> int:
    """The exponent of x`k` in the term `m`: 0 if absent, 1 if '^' is elided."""
    digits = m["e" + k]
    if digits is None:
        return 1 if m["x" + k] else 0
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads, sys.get_int_max_str_digits()
        message = f"exponent of {len(digits)} digits is too long"
        raise ParseError(message, m.start("e" + k)) from None


def _refuse(text: str, pos: int, term: str) -> None:
    """Raise the error for the token at `pos`, which cannot follow `term`."""
    if text[pos] == "x":
        message = (
            "x1 must come before x2 in a term" if text[pos + 1] == "1" else "repeated x2 factor"
        )
    elif text[pos] == "*":
        message, pos = "expected a variable after '*'", _WS.match(text, pos + 1).end()
    elif text[pos] == "^" and term.endswith(("x1", "x2")):
        message, pos = "expected an integer exponent after '^'", _WS.match(text, pos + 1).end()
    else:
        message = "expected '+' or '-' between terms"
    raise ParseError(message, pos)


def parse_coeffs(text: str) -> list[Fraction]:
    """Coefficient list of the form written as `text`; raises ParseError on bad input.

    Entry k belongs to x1^(d-k) * x2^k, as in `BinaryForm`.  The list is
    returned before a form is built, so callers can bound its size first.
    """
    pos = _TOKENS.match(text).end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    if not text.strip():
        raise ParseError("empty expression", 0)
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        term = m["term"]
        if not term:
            raise ParseError("expected a term", m.start("term"))
        try:
            coef = to_fraction(m["coef"]) if m["coef"] else Fraction(1)
        except ValueError as exc:  # a zero denominator or too many digits
            raise ParseError(str(exc), m.start("coef")) from None
        sign = -1 if m["sign"] == "-" else 1
        terms.append((sign * coef, _power(m, "1"), _power(m, "2"), term, m.start("sign")))
        pos = m.end()
        if pos < len(text) and text[pos] not in "+-":
            _refuse(text, pos, term)
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
