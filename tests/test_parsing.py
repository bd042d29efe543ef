"""Expression grammar and JSON serialization round-trips."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencils import (
    BinaryForm,
    LinearSymbol,
    ParseError,
    SyzygyTable,
    form_from_dict,
    form_to_dict,
    format_form,
    parse_form,
    syzygy_table,
    table_from_dict,
    table_to_dict,
)
from pencils.parsing import MAX_ORDER
from pencils.serialize import coeffs_from_dict

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=10)


@st.composite
def spelled_forms(draw):
    """A form and a random spelling of it: spacing, '*', a leading '+',
    '^1', 'x^0', a written or elided coefficient 1, unreduced fractions."""
    gap = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
    d = draw(st.integers(0, 6))
    coeffs = [Fraction(0)] * (d + 1)
    text = draw(gap)
    for k in range(draw(st.integers(1, 5))):
        coef, e2 = draw(small_fractions), draw(st.integers(0, d))
        coeffs[e2] += coef
        factors = []
        for var, e in (("x1", d - e2), ("x2", e2)):
            if e == 1 and draw(st.booleans()):
                factors.append(var)
            elif e or draw(st.booleans()):
                factors.append(f"{var}{draw(gap)}^{draw(gap)}{e}")
        items = factors
        magnitude, scale = abs(coef), draw(st.integers(1, 3))
        if magnitude != 1 or not factors or draw(st.booleans()):
            numeral = str(magnitude.numerator * scale)
            if magnitude.denominator * scale != 1 or draw(st.booleans()):
                numeral += f"/{magnitude.denominator * scale}"
            items = [numeral, *factors]
        for i, item in enumerate(items):
            if i:
                text += draw(gap) + (f"*{draw(gap)}" if draw(st.booleans()) else "")
            elif coef < 0:
                text += f"-{draw(gap)}"
            elif k or draw(st.booleans()):
                text += f"+{draw(gap)}"
            text += item
        text += draw(gap)
    return text, BinaryForm(d, coeffs)


class TestParseForm:
    def test_basic_cubic(self):
        f = parse_form("x1^3 - 2*x1*x2^2")
        assert f.order == 3
        assert f.coeffs == (1, 0, -2, 0)

    def test_fraction_coefficients(self):
        f = parse_form("1/2*x1^2*x2^2 + x1^4")
        assert f.order == 4
        assert f.coeffs == (1, 0, Fraction(1, 2), 0, 0)

    def test_constant(self):
        f = parse_form("-7/3")
        assert f.order == 0 and f.coeffs == (Fraction(-7, 3),)

    def test_order_cap(self):
        assert parse_form(f"x1^{MAX_ORDER - 1}*x2").order == MAX_ORDER
        with pytest.raises(ParseError, match="exceeds") as info:
            parse_form(f"2*x1^{MAX_ORDER}*x2 + x2^{MAX_ORDER + 1}")
        assert info.value.position == 0
        with pytest.raises(ParseError, match="exceeds"):
            parse_form(f"- x2^{MAX_ORDER + 1}")

    def test_whitespace_insignificant(self):
        assert parse_form("  x1 ^2+ 3 * x1 * x2  ") == parse_form("x1^2+3*x1*x2")

    def test_implicit_multiplication(self):
        assert parse_form("2x1x2") == parse_form("2*x1*x2")

    def test_terms_combine(self):
        f = parse_form("x1*x2 + 3*x1*x2 - x1^2")
        assert f.coeffs == (-1, 4, 0)

    # (text, message, position), as the token-by-token parser that the term
    # pattern replaced reported them, except the rows with a non-ASCII digit
    # or a zero denominator: that parser read such digits and raised
    # ZeroDivisionError on '3/00'.  The last row shows that an unexpected
    # character is still reported before a zero denominator.
    MALFORMED = [
        ("x1^2 + $", "unexpected character '$'", 7),
        ("x2*x1", "x1 must come before x2 in a term", 3),
        ("3*", "expected a variable after '*'", 2),
        ("x1^1/2", "expected an integer exponent after '^'", 3),
        ("x1^2^3", "expected '+' or '-' between terms", 4),
        ("+ - x1", "expected a term", 2),
        ("x2x2", "repeated x2 factor", 2),
        ("1/2/3", "unexpected character '/'", 3),
        ("2 - x1", "inhomogeneous term 'x1': degree 1 differs from 0", 2),
        ("x1^2 + x2", "inhomogeneous term 'x2': degree 1 differs from 2", 5),
        ("", "empty expression", 0),
        ("   ", "empty expression", 0),
        ("x1 +", "expected a term", 4),
        ("3 * * x1", "expected a variable after '*'", 4),
        ("x1*x1", "x1 must come before x2 in a term", 3),
        ("x1^", "expected an integer exponent after '^'", 3),
        ("x1 ^ x2", "expected an integer exponent after '^'", 5),
        ("x1^-1", "expected an integer exponent after '^'", 3),
        ("2 3", "expected '+' or '-' between terms", 2),
        ("x1 2", "expected '+' or '-' between terms", 3),
        ("3^2", "expected '+' or '-' between terms", 1),
        ("*x1", "expected a term", 0),
        ("x1*^2", "expected a variable after '*'", 3),
        ("x2 *", "expected a variable after '*'", 4),
        ("x1^2 x1*x2", "x1 must come before x2 in a term", 5),
        ("x3", "unexpected character 'x'", 0),
        ("1/ 2", "unexpected character '/'", 1),
        ("x2*x1 $", "unexpected character '$'", 6),
        ("1/2x1^2 - x1 x2^2", "inhomogeneous term 'x1 x2^2': degree 3 differs from 2", 8),
        ("\u0663*x1^\u0662", "unexpected character '\u0663'", 0),
        ("x1^\u0662", "unexpected character '\u0662'", 3),
        ("x1 - \uff13*x2", "unexpected character '\uff13'", 5),
        ("x1 - 3/00*x2", "zero denominator in '3/00'", 5),
        ("1/0 $", "unexpected character '$'", 4),
    ]

    @pytest.mark.parametrize("text, message, position", MALFORMED)
    def test_malformed_input_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_form(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    @settings(max_examples=300)
    @given(spelled_forms())
    def test_every_spelling_reads_as_its_terms(self, spelled):
        text, form = spelled
        assert parse_form(text) == form

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("1" * 4301 + "*x1", "numeral of 4301 characters is too long", 0),
            ("x1 + 2/" + "1" * 4301 + "*x2", "numeral of 4303 characters is too long", 5),
            ("x1^" + "1" * 4301, "exponent of 4301 digits is too long", 3),
            ("x1 - x2^" + "0" * 4301, "exponent of 4301 digits is too long", 8),
        ],
        ids=["numerator", "denominator", "exponent", "zero-padded exponent"],
    )
    def test_numerals_beyond_the_int_string_limit_are_refused(self, text, message, position):
        # 4301 digits is one more than Python's default int-string limit.
        with pytest.raises(ParseError, match=message) as info:
            parse_form(text)
        assert info.value.position == position


class TestFormatForm:
    def test_readable_output(self):
        f = BinaryForm(3, [1, 0, -2, 0])
        assert format_form(f) == "x1^3 - 2*x1*x2^2"

    def test_zero_forms_keep_order(self):
        assert format_form(BinaryForm.zero(0)) == "0"
        text = format_form(BinaryForm.zero(4))
        assert parse_form(text) == BinaryForm.zero(4)

    @settings(max_examples=80)
    @given(
        st.integers(0, 6).flatmap(
            lambda d: st.lists(small_fractions, min_size=d + 1, max_size=d + 1).map(
                lambda cs: BinaryForm(d, cs)
            )
        )
    )
    def test_round_trip(self, form):
        assert parse_form(format_form(form)) == form


class TestFormJson:
    def test_schema_shape(self):
        f = BinaryForm(2, [1, Fraction(-1, 2), 0])
        payload = form_to_dict(f)
        assert payload == {"order": 2, "coeffs": ["1", "-1/2", "0"]}
        assert json.loads(json.dumps(payload)) == payload

    @settings(max_examples=60)
    @given(
        st.integers(0, 6).flatmap(
            lambda d: st.lists(small_fractions, min_size=d + 1, max_size=d + 1).map(
                lambda cs: BinaryForm(d, cs)
            )
        )
    )
    def test_round_trip(self, form):
        assert form_from_dict(json.loads(json.dumps(form_to_dict(form)))) == form

    def test_integers_accepted_on_read(self):
        assert form_from_dict({"order": 1, "coeffs": [1, "2/3"]}) == BinaryForm(
            1, [1, Fraction(2, 3)]
        )

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            form_from_dict({"order": 0, "coeffs": [0.5]})
        with pytest.raises(ValueError):
            form_from_dict({"order": 0, "coeffs": ["0.5"]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            form_from_dict({"order": 2, "coeffs": ["1", "2"]})

    @pytest.mark.parametrize(
        "obj",
        [["1"], "x1^2", None, {"order": 2}, {"order": 0, "coeffs": ["1"], "name": "f"}],
        ids=["list", "str", "null", "missing-key", "extra-key"],
    )
    def test_wrong_shape_rejected(self, obj):
        with pytest.raises(ValueError, match="^expected an object with exactly 'order' and 'coeffs'$"):
            coeffs_from_dict(obj)

    @pytest.mark.parametrize(
        "order, shown", [(True, "True"), (-1, "-1"), (1.0, "1.0"), ("1", "'1'")]
    )
    def test_order_must_be_a_nonnegative_int(self, order, shown):
        message = f"^'order' must be a nonnegative integer, got {shown}$"
        with pytest.raises(ValueError, match=message):
            coeffs_from_dict({"order": order, "coeffs": ["1", "1"]})


@pytest.mark.parametrize("text", ["5e-1", "1e10000000", "1.5", " 1_000", "1/0", "-3/00"])
@pytest.mark.parametrize(
    "read",
    [
        lambda text: form_from_dict({"order": 1, "coeffs": [text, "1"]}),
        lambda text: LinearSymbol.parse(f"{text},1"),
        lambda text: table_from_dict(
            {"d": 7, "r": 3, "alphas": {"1,1": text, "1,2": "1", "2,2": "1", "1,3": "1"}}
        ),
        lambda text: parse_form(f"{text}*x1 + x2"),
    ],
    ids=["form_from_dict", "LinearSymbol.parse", "table_from_dict", "parse_form"],
)
def test_rational_readers_accept_only_digits_over_digits(read, text):
    # An exponent would let a short string stand for a huge number, and a
    # zero denominator is a malformed literal, not a ZeroDivisionError.
    with pytest.raises(ValueError):
        read(text)
    assert read("-0") == read("0")


class TestTableJson:
    def test_known_table_payload(self):
        payload = table_to_dict(syzygy_table(7, 3))
        assert payload == {
            "d": 7,
            "r": 3,
            "alphas": {"1,1": "10", "1,2": "-80/11", "2,2": "-175/121", "1,3": "20/21"},
        }

    def test_round_trip(self):
        for d, r in ((7, 3), (7, 4), (9, 5), (11, 4)):
            table = syzygy_table(d, r)
            assert table_from_dict(json.loads(json.dumps(table_to_dict(table)))) == table

    @pytest.mark.parametrize(
        "obj",
        [[7, 3], {"d": 7, "r": 3}, {"d": 7, "r": 3, "alphas": {}, "name": "t"}],
        ids=["list", "missing-key", "extra-key"],
    )
    def test_wrong_shape_rejected(self, obj):
        with pytest.raises(ValueError, match="^expected an object with exactly 'd', 'r' and 'alphas'$"):
            table_from_dict(obj)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("d", 7.0, "'d' must be an integer"),
            ("d", "7", "'d' must be an integer"),
            ("r", True, "'r' must be an integer"),
            ("alphas", [], "'alphas' must be an object"),
        ],
    )
    def test_malformed_fields_rejected(self, field, value, message):
        payload = {**table_to_dict(syzygy_table(7, 3)), field: value}
        with pytest.raises(ValueError, match=message):
            table_from_dict(payload)

    @pytest.mark.parametrize(
        "key, keep", [("01,1", True), ("01,1", False), (" 1,1", False), ("1_0,1", False), ("1, 1", False)]
    )
    def test_index_keys_must_be_canonical(self, key, keep):
        payload = table_to_dict(syzygy_table(7, 3))
        alphas = payload["alphas"]
        alphas[key] = alphas["1,1"] if keep else alphas.pop("1,1")
        with pytest.raises(ValueError, match="alpha keys must read"):
            table_from_dict(payload)

    def test_index_past_twenty_digits_is_refused_by_the_key_rule(self):
        alphas = {"1" * 5000 + ",1": "1"}
        with pytest.raises(ValueError) as info:
            table_from_dict({"d": 7, "r": 3, "alphas": alphas})
        message = str(info.value)
        assert message.startswith("alpha keys must read")
        assert message.endswith("a str of 5002 characters") and len(message) < 120
        # Twenty digits pass the key rule and reach the table's key-set check.
        with pytest.raises(ValueError, match="^entry keys do not match"):
            table_from_dict({"d": 7, "r": 3, "alphas": {"9" * 20 + ",1": "1"}})

    def test_float_alpha_refused(self):
        entries = dict(syzygy_table(7, 3).items())
        entries[(1, 1)] = 0.5
        with pytest.raises(TypeError, match="floating-point"):
            SyzygyTable(7, 3, entries)
