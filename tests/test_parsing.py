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

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=10)


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

    def test_inhomogeneous_rejected_with_term_named(self):
        with pytest.raises(ParseError, match="x2"):
            parse_form("x1^2 + x2")

    def test_malformed_token_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_form("x1^2 + $")
        assert info.value.position == 7

    def test_misordered_factors_rejected(self):
        with pytest.raises(ParseError, match="before"):
            parse_form("x2*x1")

    def test_dangling_star_rejected(self):
        with pytest.raises(ParseError):
            parse_form("3*")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_form("x1^1/2")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_form("   ")

    def test_missing_separator_rejected(self):
        with pytest.raises(ParseError):
            parse_form("x1^2 x1*x2")


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


@pytest.mark.parametrize("text", ["5e-1", "1e10000000", "1.5", " 1_000"])
@pytest.mark.parametrize(
    "read",
    [
        lambda text: form_from_dict({"order": 1, "coeffs": [text, "1"]}),
        lambda text: LinearSymbol.parse(f"{text},1"),
    ],
    ids=["form_from_dict", "LinearSymbol.parse"],
)
def test_rational_readers_accept_only_digits_over_digits(read, text):
    # An exponent would let a short string stand for a huge number.
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

    def test_float_alpha_refused(self):
        entries = dict(syzygy_table(7, 3).items())
        entries[(1, 1)] = 0.5
        with pytest.raises(TypeError, match="floating-point"):
            SyzygyTable(7, 3, entries)
