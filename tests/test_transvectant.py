"""Transvectant contracts: frozen small cases, symmetry, equivariance, oracles."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencils import BinaryForm, random_form, transvectant
from pencils.transvectant import _packs, _product_sum, _transvectant, _transvectants, _weights

from helpers import (
    compose,
    random_unimodular,
    transvectant_by_derivatives,
    transvectant_ints_by_dot_products,
)

# Denominators of at least 2 keep most coefficients non-integer.
_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(2, 12))


def _rational_forms(order):
    dense = st.lists(_rationals, min_size=order + 1, max_size=order + 1)
    return st.just(BinaryForm.zero(order)) | dense.map(lambda cs: BinaryForm(order, cs))


@st.composite
def _transvectant_cases(draw):
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    top = min(m, n)
    q = draw(st.sampled_from((0, top)) | st.integers(0, top))
    return draw(_rational_forms(m)), draw(_rational_forms(n)), q


def test_zeroth_transvectant_is_product():
    for seed in range(5):
        f = random_form(3, seed)
        g = random_form(4, 100 + seed)
        assert transvectant(f, g, 0) == f * g


def test_squares_first_transvectant():
    x1sq = BinaryForm.monomial(2, 0)
    x2sq = BinaryForm.monomial(2, 2)
    assert transvectant(x1sq, x2sq, 1) == BinaryForm.monomial(2, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_pure_powers_first_transvectant(d):
    f = BinaryForm.monomial(d, 0)  # x1^d
    g = BinaryForm.monomial(d, d)  # x2^d
    assert transvectant(f, g, 1) == BinaryForm.monomial(2 * d - 2, d - 1)


def test_odd_self_transvectant_vanishes():
    for seed in range(5):
        f = random_form(5, seed)
        for q in (1, 3, 5):
            result = transvectant(f, f, q)
            assert result.is_zero()
            assert result.order == 10 - 2 * q


def test_index_out_of_range_is_an_error():
    f = random_form(2, 1)
    g = random_form(3, 2)
    with pytest.raises(ValueError):
        transvectant(f, g, 3)
    with pytest.raises(ValueError):
        transvectant(f, g, -1)


def test_order_arithmetic_even_for_zero_results():
    f = random_form(4, 9)
    t = transvectant(f, f, 3)
    assert t.is_zero() and t.order == 2


@settings(max_examples=40)
@given(
    st.integers(0, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(0, 10_000),
)
def test_bilinearity(q, a, b, seed):
    m = q + 2
    f = random_form(m, seed)
    f2 = random_form(m, seed + 77)
    g = random_form(m + 1, seed + 154)
    left = transvectant(a * f + b * f2, g, q)
    right = a * transvectant(f, g, q) + b * transvectant(f2, g, q)
    assert left == right


@settings(max_examples=40)
@given(st.integers(0, 4), st.integers(0, 10_000))
def test_sign_symmetry(q, seed):
    f = random_form(q + 1, seed)
    g = random_form(q + 2, seed + 31)
    sign = -1 if q % 2 else 1
    assert transvectant(f, g, q) == sign * transvectant(g, f, q)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_sl2_equivariance(q, seed):
    f = random_form(q + 1, seed, 5)
    g = random_form(q + 2, seed + 501, 5)
    matrix = random_unimodular(seed)
    left = transvectant(compose(f, matrix), compose(g, matrix), q)
    right = compose(transvectant(f, g, q), matrix)
    assert left == right


_SEVENTHS = BinaryForm(7, [Fraction(k - 3, k + 2) for k in range(8)])
_TWELFTHS = BinaryForm(12, [Fraction(k, 5) for k in range(13)])


@settings(max_examples=150, deadline=None)
@given(_transvectant_cases())
@example((_SEVENTHS, _TWELFTHS, 0))
@example((_TWELFTHS, _SEVENTHS, 7))
@example((_TWELFTHS, BinaryForm.zero(9), 9))
@example((_TWELFTHS, _TWELFTHS * Fraction(-3, 2), 12))
@example((BinaryForm.zero(0), BinaryForm.zero(0), 0))
def test_matches_derivative_sum_oracle(case):
    f, g, q = case
    result = transvectant(f, g, q)
    assert result == transvectant_by_derivatives(f, g, q)
    assert result.order == f.order + g.order - 2 * q


_NUMERATOR_MAX = 10**30
# 2 * _EDGE^2 has exactly 200 bits, so for order-1 inputs at +-_EDGE with
# q = 0 the output reaches the kernel's slot bound and the bound's sign bit
# is what adds a byte to each slot.
_EDGE = math.isqrt(2**199 - 1)


def _alternating(order, size):
    return [size if k % 2 == 0 else -size for k in range(order + 1)]


@st.composite
def _integer_cases(draw):
    m, n = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    top = min(m, n)
    q = draw(st.sampled_from((0, top)) | st.integers(0, top))

    def numerators(order):
        dense = st.lists(
            st.integers(-_NUMERATOR_MAX, _NUMERATOR_MAX), min_size=order + 1, max_size=order + 1
        )
        return draw(st.just([0] * (order + 1)) | dense)

    a, b = numerators(m), numerators(n)
    da, db = draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    return a, da, b, db, q


@settings(max_examples=200, deadline=None)
@given(_integer_cases())
@example(([0] * 13, 1, [0] * 9, 1, 0))
@example(([0] * 13, 4, [3, -1, 2, 7, 0, 1, 1, 5, -2], 9, 8))
@example(([0] * 25, 1, [0] * 25, 1, 24))
@example((_alternating(1, _EDGE), 1, _alternating(1, _EDGE), 1, 0))
@example((_alternating(1, _EDGE), 1, _alternating(1, -_EDGE), 1, 0))
@example((_alternating(24, _NUMERATOR_MAX), 1, _alternating(24, _NUMERATOR_MAX), 1, 0))
@example((_alternating(24, _NUMERATOR_MAX), 1, _alternating(23, -_NUMERATOR_MAX), 7, 11))
@example((_alternating(24, _NUMERATOR_MAX), 1, _alternating(24, _NUMERATOR_MAX), 1, 24))
def test_kernel_matches_dot_product_oracle(case):
    a, da, b, db, q = case
    nums, den = transvectant_ints_by_dot_products(a, da, b, db, q)
    expected = (tuple(nums), den)
    f = BinaryForm(len(a) - 1, [Fraction(x, da) for x in a])
    g = BinaryForm(len(b) - 1, [Fraction(y, db) for y in b])
    _weights.cache_clear()
    result = _transvectant(f, g, q)
    assert (result._nums, result._den) == expected
    # A second call reads both orders' weights from the cache.
    info = _weights.cache_info()
    assert info.currsize == len({len(a) - 1, len(b) - 1})
    result = _transvectant(f, g, q)
    assert (result._nums, result._den) == expected
    assert _weights.cache_info().misses == info.misses


def _pack_at(f, k, q, s):
    """P_s at order q straight from its definition: sum_u C(m-q,u) a'_{u+s} 2^(ku)."""
    m = f.order
    top = math.lcm(*(math.comb(m, j) for j in range(m + 1)))
    a = [x * top // math.comb(m, j) for j, x in enumerate(f._nums)]
    return sum(math.comb(m - q, u) * a[u + s] << (k * u) for u in range(m - q + 1))


@st.composite
def _pack_cases(draw):
    m = draw(st.integers(0, 14))
    dense = st.lists(st.integers(-(10**12), 10**12), min_size=m + 1, max_size=m + 1)
    nums = draw(st.just([0] * (m + 1)) | dense)
    f = BinaryForm(m, [Fraction(x, draw(st.integers(1, 50))) for x in nums])
    orders = draw(st.just({0, m}) | st.sets(st.integers(0, m), min_size=1))
    return f, 8 * draw(st.integers(1, 12)), orders


@settings(max_examples=150, deadline=None)
@given(_pack_cases())
@example((BinaryForm.zero(6), 8, {0, 6}))
@example((BinaryForm(5, [3, -1, 0, 7, -2, 1]), 16, {0, 1, 2, 3, 4, 5}))
@example((BinaryForm(0, [-4]), 8, {0}))
def test_every_pack_level_matches_its_definition(case):
    f, k, orders = case
    packs = _packs(f, k, orders)
    assert set(packs) == orders
    for q, level in packs.items():
        assert level == [_pack_at(f, k, q, s) for s in range(q + 1)]


@settings(max_examples=80, deadline=None)
@given(_pack_cases())
@example((BinaryForm(6, [1, -2, 3, 0, 5, -1, 2]), 8, {1, 3, 5}))
@example((BinaryForm.zero(4), 8, {0, 1, 2, 3, 4}))
def test_self_transvectant_pairs_its_terms(case):
    f, _, orders = case
    twin = BinaryForm._raw(list(f._nums), f._den)  # equal to f, but not f
    for q in orders:
        result = _transvectant(f, f, q)
        expected = _transvectant(f, twin, q)
        assert (result._nums, result._den) == (expected._nums, expected._den)
        assert result.order == 2 * f.order - 2 * q
        if q % 2:
            assert result.is_zero()
            packs = _packs(f, 8, {q})[q]
            assert _product_sum(packs, packs, q) == 0


@settings(max_examples=60, deadline=None)
@given(_integer_cases(), st.data())
def test_orders_sharing_one_width_match_dot_product_oracle(case, data):
    a, da, b, db, q = case
    top = min(len(a), len(b)) - 1
    orders = data.draw(st.sets(st.integers(0, top))) | {q}
    f = BinaryForm(len(a) - 1, [Fraction(x, da) for x in a])
    g = BinaryForm(len(b) - 1, [Fraction(y, db) for y in b])
    results = _transvectants(f, g, orders)
    assert set(results) == orders
    for p, result in results.items():
        nums, den = transvectant_ints_by_dot_products(a, da, b, db, p)
        assert (result._nums, result._den) == (tuple(nums), den)
