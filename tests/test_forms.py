"""Core exact-algebra contracts: rationals, BinaryForm, MultiForm, division."""
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencils import (
    BinaryForm,
    DegreeMismatchError,
    LinearSymbol,
    MultiForm,
    NotDivisibleError,
    SurdSum,
    SyzygyTable,
    exact_divide,
    h_factor,
    index_pairs,
    mu_factor,
    omega,
    random_form,
    random_pencil,
    syzygy_space_dim,
    theta,
    transvectant,
    wigner3j,
    wigner6j,
)
from pencils.forms import PAIRS, linear_power, slot_index, to_fraction
from pencils.omega import bracket

from helpers import (
    exact_divide_by_fractions,
    fraction_add,
    fraction_diff,
    fraction_mul,
    fraction_scale,
    random_multiform,
    tuple_add,
    tuple_mul,
    tuple_neg,
    tuple_omega,
    tuple_scale,
    tuple_substituted,
)

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def binary_forms(min_order=0, max_order=5):
    return st.integers(min_order, max_order).flatmap(
        lambda d: st.lists(small_fractions, min_size=d + 1, max_size=d + 1).map(
            lambda cs: BinaryForm(d, cs)
        )
    )


class TestRationalField:
    def test_lowest_terms_and_positive_denominator(self):
        q = Fraction(-6, -8)
        assert (q.numerator, q.denominator) == (3, 4)
        q = Fraction(6, -8)
        assert (q.numerator, q.denominator) == (-3, 4)

    def test_zero_is_canonical(self):
        assert Fraction(0, 7) == Fraction(0, 1)
        assert Fraction(0, 7).denominator == 1

    def test_string_round_trip(self):
        assert Fraction("-80/11") == Fraction(-80, 11)
        assert str(Fraction(-80, 11)) == "-80/11"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: to_fraction(True),
            lambda: BinaryForm(1, [True, False]),
            lambda: LinearSymbol(True, 0),
            lambda: MultiForm({"x": 1}, {(1,) + (0,) * 13: False}),
            lambda: SurdSum({2: True}),
            lambda: SyzygyTable(5, 3, {(1, 1): True, (1, 2): 0, (2, 2): 0, (1, 3): 0}),
        ],
        ids=["to_fraction", "BinaryForm", "LinearSymbol", "MultiForm", "SurdSum", "SyzygyTable"],
    )
    def test_bools_rejected(self, build):
        with pytest.raises(TypeError, match="bool coefficients are not supported"):
            build()


class TestBinaryFormBasics:
    def test_monomial_layout(self):
        f = BinaryForm.monomial(3, 1, 5)
        # 5 * x1^2 * x2
        assert f.coeffs == (0, 5, 0, 0)

    def test_coeff_length_enforced(self):
        with pytest.raises(DegreeMismatchError):
            BinaryForm(2, [1, 2])

    def test_add_identity_and_cancellation(self):
        f = random_form(4, 11)
        zero = BinaryForm.zero(4)
        assert f + zero == f
        diff = f + (-1) * f
        assert diff.is_zero()
        assert diff.order == 4

    def test_add_order_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            BinaryForm.zero(2) + BinaryForm.zero(3)

    def test_simple_sums_and_products(self):
        x1sq = BinaryForm.monomial(2, 0)
        x2sq = BinaryForm.monomial(2, 2)
        assert (x1sq + x2sq).coeffs == (1, 0, 1)
        x1 = BinaryForm.monomial(1, 0)
        x2 = BinaryForm.monomial(1, 1)
        assert (x1 * x2).coeffs == (0, 1, 0)
        assert ((x1 + x2) * (x1 + x2)).coeffs == (1, 2, 1)

    def test_mul_by_constant_form(self):
        f = random_form(3, 7)
        one = BinaryForm(0, [1])
        assert f * one == f

    def test_diff(self):
        cube = BinaryForm.monomial(3, 0)  # x1^3
        assert cube.diff(1) == BinaryForm(2, [3, 0, 0])
        assert cube.diff(2).is_zero()

    def test_linear_power_form(self):
        f = BinaryForm.of_linear_power(LinearSymbol(1, 1), 2)
        assert f.coeffs == (1, 2, 1)
        assert BinaryForm.of_linear_power(LinearSymbol(1, 0), 3).coeffs == (1, 0, 0, 0)
        assert BinaryForm.of_linear_power(LinearSymbol(2, 5), 0) == BinaryForm(0, [1])


@settings(max_examples=60)
@given(binary_forms(), binary_forms(), binary_forms())
def test_binaryform_ring_axioms(f, g, h):
    if f.order == g.order:
        assert f + g == g + f
        if g.order == h.order:
            assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    if g.order == h.order:
        assert f * (g + h) == f * g + f * h


@settings(max_examples=60)
@given(binary_forms(min_order=1), binary_forms(min_order=1))
def test_diff_is_linear_and_leibniz(f, g):
    for comp in (1, 2):
        if f.order == g.order:
            assert (f + g).diff(comp) == f.diff(comp) + g.diff(comp)
        assert (f * g).diff(comp) == f.diff(comp) * g + f * g.diff(comp)


coefficient_lists = st.integers(0, 5).flatmap(
    lambda d: st.lists(small_fractions, min_size=d + 1, max_size=d + 1)
)


@settings(max_examples=60)
@given(coefficient_lists, coefficient_lists, small_fractions)
@example([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)], [0, 0, 0], Fraction(0))
@example([0], [Fraction(3, 4), Fraction(-1, 6)], Fraction(0))
@example(
    [Fraction(7, 4), 0, Fraction(-7, 10)], [Fraction(1, 3), Fraction(5, 9), 0], Fraction(-2, 7)
)
def test_integer_layout_matches_fraction_oracle(cf, cg, q):
    f, g = BinaryForm(len(cf) - 1, cf), BinaryForm(len(cg) - 1, cg)
    assert f.coeffs == tuple(cf)
    if f.order == g.order:
        assert (f + g).coeffs == fraction_add(f, g).coeffs
        assert (f - g).coeffs == fraction_add(f, fraction_scale(g, -1)).coeffs
    assert (f * g).coeffs == fraction_mul(f, g).coeffs
    assert (f * q).coeffs == (q * f).coeffs == fraction_scale(f, q).coeffs
    for comp in (1, 2):
        assert f.diff(comp).coeffs == fraction_diff(f, comp).coeffs
    if not g.is_zero():
        product = fraction_mul(f, g)
        assert exact_divide(product, g).coeffs == exact_divide_by_fractions(product, g).coeffs
    # Equal forms built along different routes compare and hash equal.
    for left, right in (
        (f, BinaryForm(f.order, [3 * c for c in cf]) * Fraction(1, 3)),
        (f * 0, BinaryForm.zero(f.order)),
        (f - f, BinaryForm.zero(f.order)),
    ):
        assert left == right and hash(left) == hash(right)


def test_diff_mixed_partials_commute():
    for seed in range(5):
        f = random_form(6, seed)
        assert f.diff(1).diff(2) == f.diff(2).diff(1)


class TestExactDivide:
    def test_monomial_quotient(self):
        n = BinaryForm.monomial(4, 2)  # x1^2 x2^2
        d = BinaryForm.monomial(2, 1)  # x1 x2
        assert exact_divide(n, d) == BinaryForm.monomial(2, 1)

    def test_self_division(self):
        f = random_form(5, 3)
        assert exact_divide(f, f) == BinaryForm(0, [1])

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(random_form(3, 1), BinaryForm.zero(2))

    def test_order_precondition(self):
        with pytest.raises(DegreeMismatchError):
            exact_divide(random_form(2, 1), random_form(3, 1))

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            exact_divide(BinaryForm(2, [1, 0, 1]), BinaryForm(1, [1, 1]))

    @pytest.mark.parametrize(
        "num,den",
        [
            (BinaryForm(1, [0, 1]), BinaryForm(1, [1, 2])),
            (BinaryForm(1, [0, Fraction(1, 3)]), BinaryForm(1, [Fraction(1, 2), 1])),
        ],
    )
    def test_remainder_in_a_quotient_step(self, num, den):
        # x2 / (x1 + 2 x2): the one quotient step 1 // 2 is inexact, while the
        # final remainder of a floor division would be zero.
        for divide in (exact_divide, exact_divide_by_fractions):
            with pytest.raises(NotDivisibleError):
                divide(num, den)

    def test_zero_numerator(self):
        q = exact_divide(BinaryForm.zero(5), random_form(2, 9))
        assert q.is_zero() and q.order == 3

    def test_combinant_product_division(self):
        from pencils import combinant_sequence, random_pencil

        for seed in (21, 22, 23):
            seq = combinant_sequence(random_pencil(7, seed))
            c1, c5 = seq[0], seq[2]
            assert exact_divide(c1 * c5, c1) == c5

    @settings(max_examples=50)
    @given(binary_forms(max_order=4), binary_forms(max_order=4))
    def test_product_round_trip(self, d, q):
        if d.is_zero():
            return
        assert exact_divide(d * q, d) == q


class TestRandomForm:
    def test_deterministic(self):
        assert random_form(5, 42) == random_form(5, 42)

    def test_distinct_across_seeds(self):
        forms = {random_form(4, seed).coeffs for seed in range(100)}
        assert len(forms) > 95

    def test_never_zero_and_bounded(self):
        for seed in range(30):
            f = random_form(0, seed, 3)
            assert not f.is_zero()
            assert all(abs(c) <= 3 and c.denominator == 1 for c in f.coeffs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_form(-1, 0)
        with pytest.raises(ValueError):
            random_form(2, 0, 0)


class TestMultiForm:
    def test_constant(self):
        one = MultiForm.constant(1)
        assert one.degree("x") == 0 and not one.is_zero()
        assert MultiForm.constant(0).is_zero()

    def test_mul_adds_degrees(self):
        f = random_multiform({"x": 2, "y": 1}, 1)
        g = random_multiform({"x": 1, "z": 2}, 2)
        p = f * g
        assert p.degree("x") == 3 and p.degree("y") == 1 and p.degree("z") == 2
        assert p.is_homogeneous()

    def test_add_degree_mismatch(self):
        f = random_multiform({"x": 2}, 3)
        g = random_multiform({"x": 1}, 4)
        with pytest.raises(DegreeMismatchError):
            f + g

    def test_zero_form_is_additively_neutral(self):
        f = random_multiform({"x": 2, "y": 2}, 5)
        zero = MultiForm({"x": 2, "y": 2}, {})
        assert f + zero == f
        assert (f - f).is_zero()

    def test_homogeneity_of_operations(self):
        f = random_multiform({"x": 2, "y": 2}, 8)
        g = random_multiform({"x": 2, "y": 2}, 9)
        for value in (f + g, f * g, 3 * f):
            assert value.is_homogeneous()

    def test_ring_axioms_sampled(self):
        f = random_multiform({"x": 1, "y": 1}, 10)
        g = random_multiform({"x": 1, "y": 1}, 11)
        h = random_multiform({"x": 1, "y": 1}, 12)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) + h == f + (g + h)

    def test_substituted_merges_pairs(self):
        f = random_multiform({"x": 2, "y": 3}, 13)
        g = f.substituted("x", "y", "u")
        assert g.degree("u") == 5 and g.degree("x") == 0
        assert g.is_homogeneous()

    def test_substituted_rejects_active_target(self):
        f = random_multiform({"x": 1, "y": 1, "u": 1}, 14)
        with pytest.raises(ValueError):
            f.substituted("x", "y", "u")

    def test_substituted_accepts_exhausted_sources(self):
        constant = MultiForm.constant(7)
        assert constant.substituted("x", "y", "u") == constant

    def test_as_binary_form(self):
        f = linear_power(LinearSymbol(1, 2), "t", 3)
        b = f.as_binary_form("t")
        assert b == BinaryForm.of_linear_power(LinearSymbol(1, 2), 3)
        with pytest.raises(ValueError):
            random_multiform({"x": 1, "y": 1}, 15).as_binary_form("x")

    def test_as_binary_form_refuses_exponents_outside_the_pair(self):
        # x1 * t1 has the declared degree 1 in t, but also an x exponent
        # that no declared degree accounts for.
        x1t1, t1, t2 = monomial(x1=1, t1=1), monomial(t1=1), monomial(t2=1)
        for terms in ({x1t1: 1, t1: 5}, {x1t1: 1, t2: 2}):
            with pytest.raises(DegreeMismatchError):
                MultiForm({"t": 1}, terms).as_binary_form("t")

    def test_equality_ignores_zero_form_metadata(self):
        assert MultiForm({"x": 3}, {}) == MultiForm({"y": 1}, {})


class TestLinearPower:
    def test_zero_exponent(self):
        assert linear_power(LinearSymbol(3, 4), "z", 0) == MultiForm.constant(1)

    def test_binomial_expansion(self):
        f = linear_power(LinearSymbol(1, 1), "x", 2)
        s1, s2 = slot_index("x", 1), slot_index("x", 2)
        mono = lambda a, b: tuple(
            a if k == s1 else b if k == s2 else 0 for k in range(2 * len(PAIRS))
        )
        assert f.terms == {mono(2, 0): 1, mono(1, 1): 2, mono(0, 2): 1}

    def test_degenerate_symbol_rejected(self):
        with pytest.raises(ValueError):
            LinearSymbol(0, 0)


def monomial(**exponents) -> tuple:
    """Exponent tuple from keywords such as x1=2, y2=1."""
    mono = [0] * (2 * len(PAIRS))
    for name, e in exponents.items():
        mono[slot_index(name[0], int(name[1]))] = e
    return tuple(mono)


def tuple_forms(degrees: dict):
    """Sparse {exponent tuple: Fraction} maps homogeneous of the given degrees."""
    per_pair = [
        [{f"{pair}1": n - k, f"{pair}2": k} for k in range(n + 1)]
        for pair, n in degrees.items()
    ]
    keys = [
        monomial(**{name: e for part in parts for name, e in part.items()})
        for parts in itertools.product(*per_pair)
    ]
    return st.dictionaries(st.sampled_from(keys), small_fractions.filter(bool), max_size=8)


def with_forms(degree_maps, count):
    return degree_maps.flatmap(
        lambda deg: st.tuples(st.just(deg), *(tuple_forms(deg) for _ in range(count)))
    )


XYZ_DEGREES = st.fixed_dictionaries(
    {"x": st.integers(0, 3), "y": st.integers(0, 3), "z": st.integers(0, 2)}
)
XW_DEGREES = st.fixed_dictionaries({"x": st.integers(0, 2), "w": st.integers(0, 2)})
F = Fraction


class TestMultiFormMatchesTupleOracle:
    """MultiForm's int numerators over one denominator against the
    tuple/Fraction oracle, term for term."""

    @staticmethod
    def check(form, expected):
        assert form.terms == expected
        # Equal as stored forms too, so the numerators and denominator are
        # reduced exactly as the constructor reduces them.
        assert form == MultiForm(form.degrees, expected)

    @given(same=with_forms(XYZ_DEGREES, 2), other=with_forms(XW_DEGREES, 1), q=small_fractions)
    @example(same=({"x": 2, "y": 1, "z": 0}, {}, {}), other=({"x": 1, "w": 0}, {}), q=F(0))
    @example(
        same=(
            {"x": 1, "y": 1, "z": 0},
            {monomial(x1=1, y2=1): F(1, 2), monomial(x2=1, y1=1): F(-1, 2)},
            {monomial(x1=1, y2=1): F(-1, 2), monomial(x1=1, y1=1): F(3, 4)},
        ),
        other=({"x": 1, "w": 1}, {monomial(x2=1, w1=1): F(2, 3)}),
        q=F(0),
    )
    @settings(max_examples=150, deadline=None)
    def test_operations(self, same, other, q):
        degrees, a, b = same
        other_degrees, c = other
        fa, fb, fc = MultiForm(degrees, a), MultiForm(degrees, b), MultiForm(other_degrees, c)
        self.check(fa, a)
        self.check(fa + fb, tuple_add(a, b))
        self.check(fa - fb, tuple_add(a, tuple_neg(b)))
        self.check(-fa, tuple_neg(a))
        self.check(fa * q, tuple_scale(a, q))
        self.check(q * fa, tuple_scale(a, q))
        self.check(fa * fb, tuple_mul(a, b))
        self.check(fa * fc, tuple_mul(a, c))
        self.check(fa.substituted("x", "y", "u"), tuple_substituted(a, "x", "y", "u"))
        self.check(fa.substituted("z", "x", "t"), tuple_substituted(a, "z", "x", "t"))
        self.check(omega(fa, "x", "y"), tuple_omega(a, "x", "y"))
        self.check(omega(fa, "z", "x"), tuple_omega(a, "z", "x"))
        self.check(omega(fa * fc, "w", "y"), tuple_omega(tuple_mul(a, c), "w", "y"))


SMALL_XY = {monomial(x1=1, x2=1, y2=1): F(1, 2), monomial(x1=2, y1=1): F(-3, 4)}


class TestOmegaPower:
    """omega(form, p, q, n) in one pass against n single steps of the tuple oracle."""

    @given(
        case=with_forms(XYZ_DEGREES, 1),
        pairs=st.sampled_from(list(itertools.permutations("xyzw", 2))),
        n=st.integers(0, 5),
    )
    # n = 0 on non-integer coefficients gives the form itself; n = 2, above
    # the degree of y, the zero form.
    @example(case=({"x": 2, "y": 1, "z": 0}, SMALL_XY), pairs=("x", "y"), n=0)
    @example(case=({"x": 2, "y": 1, "z": 0}, SMALL_XY), pairs=("x", "y"), n=2)
    # Each k = 0..3 of the binomial sum comes from one of the terms.
    @example(
        case=(
            {"x": 3, "y": 3, "z": 1},
            {
                monomial(x1=3, y2=3, z2=1): F(3, 4),
                monomial(x1=2, x2=1, y1=1, y2=2, z1=1): F(2, 3),
                monomial(x1=1, x2=2, y1=2, y2=1, z2=1): F(-5, 7),
                monomial(x2=3, y1=3, z1=1): F(1, 9),
            },
        ),
        pairs=("x", "y"),
        n=3,
    )
    @example(case=({"x": 2, "y": 2, "z": 0}, {}), pairs=("x", "y"), n=3)
    @settings(max_examples=150, deadline=None)
    def test_matches_iterated_tuple_oracle(self, case, pairs, n):
        degrees, a = case
        fa = MultiForm(degrees, a)
        expected = a
        stepped = fa
        for _ in range(n):
            expected = tuple_omega(expected, *pairs)
            stepped = omega(stepped, *pairs)
        result = omega(fa, *pairs, n)
        TestMultiFormMatchesTupleOracle.check(result, expected)
        assert result.degrees == stepped.degrees

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            omega(MultiForm.constant(1), "x", "y", -1)


BIG = 2**16 - 1  # an exponent of 16 bits; BIG + 1 takes a 17th


class TestLargeExponentsStayExact:
    """Exponents at 2^16 - 1, at 2^16 and at 40000 + 40000 come back exact
    from every entry point: an exponent is a tuple entry, with no width."""

    def test_constructor(self):
        f = MultiForm({"x": BIG}, {monomial(x1=BIG): 3})
        assert f.terms[monomial(x1=BIG)] == 3
        g = MultiForm({"x": BIG + 1}, {monomial(x1=BIG + 1): 3})
        assert g.terms == {monomial(x1=BIG + 1): 3}
        with pytest.raises(DegreeMismatchError):
            MultiForm({"x": 1}, {monomial(x1=1): 1, monomial(t2=BIG + 1): 1})

    def test_linear_power(self):
        assert linear_power(LinearSymbol(2, 0), "x", BIG).terms == {monomial(x1=BIG): 2**BIG}
        assert linear_power(LinearSymbol(0, 1), "t", BIG).terms == {monomial(t2=BIG): 1}
        top = linear_power(LinearSymbol(0, 1), "t", BIG + 1)
        assert top.terms == {monomial(t2=BIG + 1): 1}
        assert top.degrees == {"t": BIG + 1}

    def test_product(self):
        x1 = MultiForm({"x": 1}, {monomial(x1=1): 1})
        high = MultiForm({"x": BIG - 1}, {monomial(x1=BIG - 1): 1})
        assert (high * x1).terms == {monomial(x1=BIG): 1}
        assert ((high * x1) * x1).terms == {monomial(x1=BIG + 1): 1}
        assert ((high * x1) * x1).degrees == {"x": BIG + 1}
        # Exponents in different slots do not add up.
        left = MultiForm({"x": 40000}, {monomial(x1=40000): 1})
        right = MultiForm({"x": 40000}, {monomial(x2=40000): 1})
        assert (left * right).terms == {monomial(x1=40000, x2=40000): 1}
        assert left * left == MultiForm({"x": 80000}, {monomial(x1=80000): 1})
        assert (left * left).degrees == {"x": 80000}

    def test_substituted(self):
        for rest in (BIG - 40000, BIG + 1 - 40000):
            form = MultiForm({"x": 40000, "y": rest}, {monomial(x1=40000, y1=rest): 1})
            merged = form.substituted("x", "y", "u")
            assert merged.terms == {monomial(u1=40000 + rest): 1}
            assert merged.degrees == {"u": 40000 + rest}
        # Large exponents that land in different target slots are fine.
        crossed = MultiForm(
            {"x": 40000, "y": 40000},
            {monomial(x1=40000, y2=40000): 1, monomial(x2=40000, y1=40000): -1},
        )
        assert crossed.substituted("x", "y", "u").terms == {}


def outcome(call):
    """What `call` returns, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


XYZW_DEGREES = st.one_of(
    st.fixed_dictionaries(
        {
            "x": st.integers(0, 3),
            "y": st.integers(0, 3),
            "z": st.integers(0, 2),
            "w": st.integers(0, 1),
        }
    ),
    st.integers(0, 3).flatmap(
        lambda e: st.fixed_dictionaries(
            {"x": st.just(e), "y": st.just(e), "z": st.integers(0, 2), "w": st.integers(0, 1)}
        )
    ),
)
NEAR_HALF = 2**15  # an exponent that, merged with one near it, passes BIG


class TestOmegaThenMerge:
    """omega then substituted, the step of the reference chain, against n
    single steps of the tuple oracle followed by the tuple merge."""

    @staticmethod
    def stepped(a, p, q, n):
        for _ in range(n):
            a = tuple_omega(a, p, q)
        return a

    def check(self, form, a, p, q, n, to):
        composed = outcome(lambda: omega(form, p, q, n).substituted(p, q, to))
        if not isinstance(composed, str):
            expected = tuple_substituted(self.stepped(a, p, q, n), p, q, to)
            TestMultiFormMatchesTupleOracle.check(composed, expected)
        return composed

    @given(
        case=with_forms(XYZW_DEGREES, 1),
        pairs=st.sampled_from(list(itertools.permutations("xyzw", 2))),
        n=st.integers(0, 5),
        to=st.sampled_from(PAIRS),
    )
    # n = 0, and n = 2 above the degree of both pairs, on equal degrees.
    @example(case=({"x": 1, "y": 1, "z": 1, "w": 0}, {
        monomial(x1=1, y2=1, z1=1): F(1, 2), monomial(x2=1, y1=1, z2=1): F(-3, 4),
    }), pairs=("x", "y"), n=0, to="u")
    @example(case=({"x": 1, "y": 1, "z": 1, "w": 0}, {
        monomial(x1=1, y2=1, z1=1): F(1, 2), monomial(x2=1, y1=1, z2=1): F(-3, 4),
    }), pairs=("x", "y"), n=2, to="u")
    # Every k = 0..2 of the binomial sum, with z active and w inactive.
    @example(case=({"x": 2, "y": 2, "z": 1, "w": 0}, {
        monomial(x1=2, y2=2, z1=1): F(2, 3),
        monomial(x1=1, x2=1, y1=1, y2=1, z2=1): F(-5, 7),
        monomial(x2=2, y1=2, z1=1): F(1, 9),
    }), pairs=("x", "y"), n=2, to="w")
    # The target is active, or one of the merged pairs.
    @example(case=({"x": 1, "y": 1, "z": 1, "w": 0}, {monomial(x1=1, y1=1, z1=1): F(1, 3)}),
             pairs=("x", "y"), n=1, to="z")
    @example(case=({"x": 1, "y": 1, "z": 0, "w": 0}, {monomial(x1=1, y1=1): F(1, 3)}),
             pairs=("x", "y"), n=1, to="y")
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_oracle(self, case, pairs, n, to):
        degrees, a = case
        self.check(MultiForm(degrees, a), a, *pairs, n, to)

    @given(
        s=st.integers(-3, 3),
        t=st.integers(-3, 3),
        coeffs=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            small_fractions.filter(bool),
            min_size=1,
            max_size=6,
        ),
        n=st.integers(0, 3),
        z=st.integers(0, 1),
        swap=st.booleans(),
    )
    # The merged x1 exponent is BIG + 1, or BIG exactly.
    @example(s=1, t=0, coeffs={(0, 0): F(1, 2)}, n=0, z=0, swap=False)
    @example(s=1, t=0, coeffs={(1, 0): F(1, 3)}, n=0, z=1, swap=False)
    @example(s=2, t=0, coeffs={(0, 0): F(1, 2), (1, 1): F(-2, 3)}, n=1, z=0, swap=True)
    @settings(max_examples=150, deadline=None)
    def test_merges_around_2_to_16(self, s, t, coeffs, n, z, swap):
        # Degrees just under and over 2^15 in x and y, so that merging them
        # reaches BIG or passes it: every case composes, exactly.
        da, db = NEAR_HALF + s, BIG - NEAR_HALF + t
        a = {
            monomial(x1=da - k, x2=k, y1=db - l, y2=l, z2=z): c for (k, l), c in coeffs.items()
        }
        p, q = ("y", "x") if swap else ("x", "y")
        composed = self.check(MultiForm({"x": da, "y": db, "z": z}, a), a, p, q, n, "u")
        assert isinstance(composed, MultiForm)


_CUBIC = BinaryForm(3, [1, 2, 3, 4])


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: BinaryForm(3.7, [1, 2, 3, 4]), "order must be an int, got 3.7", id="order-float"),
        pytest.param(lambda: BinaryForm(True, [1, 2]), "order must be an int, got True", id="order-bool"),
        pytest.param(lambda: MultiForm({"x": 1.9}, {}), "degree of pair 'x' must be an int, got 1.9", id="degree-float"),
        pytest.param(
            lambda: MultiForm({"x": 1}, {(1.5, 0) + (0,) * 12: 1}),
            "exponent must be an int, got 1.5",
            id="exponent-float",
        ),
        pytest.param(lambda: transvectant(_CUBIC, _CUBIC, True), "q must be an int, got True", id="q-bool"),
        pytest.param(lambda: transvectant(_CUBIC, _CUBIC, 1.0), "q must be an int, got 1.0", id="q-float"),
        pytest.param(lambda: BinaryForm.monomial(True, 0), "order must be an int, got True", id="monomial-order-bool"),
        pytest.param(lambda: BinaryForm.monomial(2.0, 1), "order must be an int, got 2.0", id="monomial-order-float"),
        pytest.param(
            lambda: BinaryForm.monomial(3, 1.0), "x2_exponent must be an int, got 1.0", id="monomial-exponent-float"
        ),
        pytest.param(
            lambda: BinaryForm.of_linear_power(LinearSymbol(1, 2), True), "n must be an int, got True", id="power-bool"
        ),
        pytest.param(
            lambda: BinaryForm.of_linear_power(LinearSymbol(1, 2), 2.0), "n must be an int, got 2.0", id="power-float"
        ),
        pytest.param(lambda: h_factor(3, 3, 1.0), "q must be an int, got 1.0", id="h-factor-float"),
        pytest.param(lambda: h_factor(True, 3, 1), "m must be an int, got True", id="h-factor-bool"),
        pytest.param(lambda: mu_factor(3, 3, 1.0, 0), "ell must be an int, got 1.0", id="mu-factor-float"),
        pytest.param(lambda: mu_factor(True, 3, 1, 0), "p must be an int, got True", id="mu-factor-bool"),
        pytest.param(lambda: index_pairs(3.0), "r must be an int, got 3.0", id="index-pairs-float"),
        pytest.param(lambda: random_form(2.0, 1), "order must be an int, got 2.0", id="random-form-float"),
        pytest.param(
            lambda: random_form(2, 1, True), "coefficient_bound must be an int, got True", id="random-form-bound-bool"
        ),
        pytest.param(lambda: random_pencil(3.0, 1), "order must be an int, got 3.0", id="random-pencil-float"),
        pytest.param(
            lambda: linear_power(LinearSymbol(1, 2), "x", 1.0), "n must be an int, got 1.0", id="linear-power-float"
        ),
        pytest.param(
            lambda: linear_power(LinearSymbol(1, 2), "x", True), "n must be an int, got True", id="linear-power-bool"
        ),
        pytest.param(
            lambda: omega(MultiForm({"x": 1, "y": 1}, {}), "x", "y", True), "n must be an int, got True", id="omega-bool"
        ),
        pytest.param(lambda: _CUBIC.diff(True), "component must be an int, got True", id="diff-bool"),
        pytest.param(lambda: _CUBIC.diff(1.0), "component must be an int, got 1.0", id="diff-float"),
        pytest.param(lambda: slot_index("x", True), "component must be an int, got True", id="slot-index-bool"),
        pytest.param(lambda: bracket("x", "y") ** True, "n must be an int, got True", id="pow-bool"),
    ],
)
def test_sizes_must_be_ints(build, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


def test_index_pairs_need_a_positive_weight():
    for r in (0, -1):
        with pytest.raises(ValueError, match=re.escape(f"r must be at least 1, got {r}")):
            index_pairs(r)


LONG = 10**3000


# A refused value of 3,001 digits at each argument that the range check
# guards and that can hold one (a form's order cannot), or a bound derived
# from one.  A check with an upper bound refuses +LONG; one with only a
# lower bound refuses -LONG, since +LONG would be accepted and worked on.
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: BinaryForm(-LONG, []), id="order"),
        pytest.param(lambda: BinaryForm.monomial(3, LONG), id="monomial"),
        pytest.param(lambda: BinaryForm.of_linear_power(LinearSymbol(1, 2), -LONG), id="of-linear-power"),
        pytest.param(lambda: _CUBIC.diff(LONG), id="diff"),
        pytest.param(lambda: slot_index("x", -LONG), id="slot-index"),
        pytest.param(lambda: MultiForm({"x": -LONG}, {}), id="degree"),
        pytest.param(lambda: MultiForm.constant(1) ** -LONG, id="pow"),
        pytest.param(lambda: linear_power(LinearSymbol(1, 2), "x", -LONG), id="linear-power"),
        pytest.param(lambda: random_form(-LONG, 1), id="random-form-order"),
        pytest.param(lambda: random_form(2, 1, -LONG), id="random-form-bound"),
        pytest.param(lambda: transvectant(_CUBIC, _CUBIC, LONG), id="transvectant"),
        pytest.param(lambda: random_pencil(5, 1).combinants(LONG), id="combinants"),
        pytest.param(lambda: random_pencil(5, 1).combinant(-LONG), id="combinant"),
        pytest.param(lambda: theta(7, LONG, 1, 1), id="weight-r"),
        pytest.param(lambda: theta(-LONG, 3, 1, 1), id="weight-d"),
        pytest.param(lambda: theta(7, 3, LONG, 1), id="index-i"),
        pytest.param(lambda: theta(7, 3, 1, -LONG), id="index-j"),
        pytest.param(lambda: index_pairs(-LONG), id="index-pairs"),
        pytest.param(lambda: syzygy_space_dim(7, LONG), id="dim-r"),
        pytest.param(lambda: syzygy_space_dim(LONG, -1), id="dim-long-bound"),
        pytest.param(lambda: syzygy_space_dim(-LONG, 3), id="dim-d"),
        pytest.param(lambda: omega(MultiForm.constant(1), "x", "y", -LONG), id="omega"),
        pytest.param(lambda: h_factor(3, 3, LONG), id="h-factor-q"),
        pytest.param(lambda: h_factor(-LONG, 3, 1), id="h-factor-m"),
        pytest.param(lambda: mu_factor(3, 3, 1, LONG), id="mu-factor-m"),
        pytest.param(lambda: mu_factor(-LONG, 3, 1, 0), id="mu-factor-p"),
        pytest.param(lambda: mu_factor(3, 3, LONG, 0), id="mu-factor-ell"),
        pytest.param(lambda: wigner3j(-LONG, 1, 1, 0, 1, 1), id="wigner3j"),
        pytest.param(lambda: wigner6j(2, 2, 2, 2, 2, -LONG), id="wigner6j"),
    ],
)
def test_long_values_are_named_by_digit_count(build):
    with pytest.raises(ValueError) as info:
        build()
    assert len(str(info.value)) <= 200, str(info.value)[:200]


# Refusals that are not range checks, naming a value of 3,001 digits.
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: BinaryForm(LONG, [1]), id="coefficient-count"),
        pytest.param(lambda: wigner3j(1, 1, 0, LONG, -1, 0), id="wigner3j-parity"),
    ],
)
def test_other_refusals_name_long_values_by_digit_count(build):
    with pytest.raises(ValueError) as info:
        build()
    assert len(str(info.value)) <= 200, str(info.value)[:200]
    assert "a number of 3001 digits" in str(info.value)


def test_long_non_int_is_named_by_its_type():
    with pytest.raises(TypeError) as info:
        index_pairs("9" * 3000)
    assert str(info.value) == "r must be an int, got a value of type str"
    with pytest.raises(TypeError, match=re.escape("r must be an int, got '99'")):
        index_pairs("99")
