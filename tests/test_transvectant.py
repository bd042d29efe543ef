"""Transvectant contracts: frozen small cases, symmetry, equivariance, oracles."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencils import BinaryForm, random_form, transvectant
from pencils.transvectant import _packs, _product_sum, _transvectants, _weights

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
    result = transvectant(f, g, q)
    assert (result._nums, result._den) == expected
    # A second call reads both orders' weights from the cache.
    info = _weights.cache_info()
    assert info.currsize == len({len(a) - 1, len(b) - 1})
    result = transvectant(f, g, q)
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
        result = transvectant(f, f, q)
        expected = transvectant(f, twin, q)
        assert (result._nums, result._den) == (expected._nums, expected._den)
        assert result.order == 2 * f.order - 2 * q
        if q % 2:
            assert result.is_zero()
            packs = _packs(f, 8, {q})[q]
            assert _product_sum(packs, packs, q) == 0


@settings(max_examples=60, deadline=None)
@given(_integer_cases(), _integer_cases(), st.data())
def test_orders_sharing_one_width_match_dot_product_oracle(case, other, data):
    # Three forms, one kernel call: one-term sums of weight 1/1 across every
    # pair of them, with self terms (c, c, q), all unpacked from one shared
    # slot width.
    a, da, b, db, q = case
    nums, dens = (a, b, other[0]), (da, db, other[1])
    forms = [BinaryForm(len(x) - 1, [Fraction(y, dx) for y in x]) for x, dx in zip(nums, dens)]

    def term(pair):
        x, y = pair
        return st.tuples(st.just(x), st.just(y), st.integers(0, min(len(nums[x]), len(nums[y])) - 1))

    pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = [(0, 1, q), data.draw(term((2, 2)))] + data.draw(st.lists(pairs.flatmap(term), max_size=8))
    results = _transvectants(forms, [((x, y, p, 1, 1),) for x, y, p in terms])
    assert len(results) == len(terms)
    for (x, y, p), pair in zip(terms, results):
        result = BinaryForm._raw(*pair)
        want, den = transvectant_ints_by_dot_products(nums[x], dens[x], nums[y], dens[y], p)
        assert (result._nums, result._den) == (tuple(want), den)


_WEIGHT_MAX = 2**200


@st.composite
def _weighted_sums(draw):
    """Up to four forms and up to three sums over them, each sum a list of
    terms (a, b, q, p, d) of one output order.  Weights run up to 2^200
    in size and of both signs, and terms include self terms (a, a, q).  A
    sum may carry, for each of its terms, the mirror term
    (b, a, q, -(-1)^q p, d), which cancels it as (g, f)_q = (-1)^q (f, g)_q."""
    count = draw(st.integers(1, 4))
    orders = [draw(st.integers(0, 10)) for _ in range(count)]
    dense = [
        draw(st.just([0] * (m + 1)) | st.lists(st.integers(-(10**30), 10**30), min_size=m + 1, max_size=m + 1))
        for m in orders
    ]
    dens = [draw(st.integers(1, 10**6)) for _ in orders]
    numerator = st.integers(-3, 3) | st.integers(-_WEIGHT_MAX, _WEIGHT_MAX)
    denominator = st.integers(1, 3) | st.integers(1, _WEIGHT_MAX)
    sums = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
        out = orders[a] + orders[b] - 2 * draw(st.integers(0, min(orders[a], orders[b])))
        reach = [
            (x, y, (orders[x] + orders[y] - out) // 2)
            for x in range(count)
            for y in range(count)
            if orders[x] + orders[y] >= out
            and (orders[x] + orders[y] - out) % 2 == 0
            and orders[x] + orders[y] - out <= 2 * min(orders[x], orders[y])
        ]
        picked = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=6))
        terms = [(x, y, q, draw(numerator), draw(denominator)) for x, y, q in picked]
        if draw(st.booleans()):
            terms += [(y, x, q, p if q % 2 else -p, d) for x, y, q, p, d in terms]
        sums.append(draw(st.permutations(terms)))
    return dense, dens, sums


def _weighted_sum_by_dot_products(dense, dens, terms):
    """sum (p/d) (F_a, F_b)_q as a reduced form, one oracle transvectant per term."""
    a, b, q, _, _ = terms[0]
    total = [Fraction(0)] * (len(dense[a]) + len(dense[b]) - 2 * q - 1)
    for a, b, q, p, d in terms:
        out, den = transvectant_ints_by_dot_products(dense[a], dens[a], dense[b], dens[b], q)
        total = [t + Fraction(p * x, d * den) for t, x in zip(total, out)]
    return BinaryForm(len(total) - 1, total)


_SQUARE = ([[5, -7, 2], [-3, 0, 11]], [4, 9])


@settings(max_examples=120, deadline=None)
@given(_weighted_sums())
@example((*_SQUARE, [[(0, 1, 1, 1, 1), (1, 0, 1, 1, 1)]]))
@example((*_SQUARE, [[(0, 1, 1, 1, 1), (0, 0, 1, 1, 1)], [(0, 1, 0, 1, 1), (1, 1, 0, -1, 2)]]))
@example((*_SQUARE, [[(0, 0, 2, _WEIGHT_MAX, 3), (1, 1, 2, -_WEIGHT_MAX + 1, 1), (0, 1, 2, 7, _WEIGHT_MAX)]]))
@example((*_SQUARE, [[(0, 1, 0, _WEIGHT_MAX, 1), (0, 1, 0, -_WEIGHT_MAX, 1)]]))
@example(([[0, 0, 0], [1, 2]], [1, 1], [[(1, 1, 0, 3, 2), (0, 0, 1, -5, 1)], [(0, 1, 1, 5, 1)]]))
# (10x1 - 10x2, 10x1 + 10x2)_1 = 200 meets its term bound, so the sum,
# 8,388,800, meets its weighted bound, a 24-bit number: its wide slots need
# the bound's sign bit and a fourth byte.
@example(([[10, -10], [10, 10]], [1, 1], [[(0, 1, 1, 20972, 1), (0, 1, 1, 20972, 1)]]))
def test_weighted_sums_match_dot_product_oracle(case):
    # Each sum, unpacked once, from the call's slot width or from wider
    # slots where its weights need them, equals its terms summed one by one.
    dense, dens, sums = case
    forms = [BinaryForm(len(x) - 1, [Fraction(y, dx) for y in x]) for x, dx in zip(dense, dens)]
    results = _transvectants(forms, sums)
    assert len(results) == len(sums)
    for terms, pair in zip(sums, results):
        result = BinaryForm._raw(*pair)
        expected = _weighted_sum_by_dot_products(dense, dens, terms)
        assert (result.order, result._nums, result._den) == (expected.order, expected._nums, expected._den)
        mirrored = {(b, a, q, p if q % 2 else -p, d) for a, b, q, p, d in terms}
        if mirrored == set(terms):
            assert result.is_zero()


def test_slot_bound_identity():
    # The identity behind the kernel's slot bound: for every order m, index
    # q and slot u, sum_s C(q,s) C(m-q,u) / C(m,u+s) = (m+1)/(m-q+1).
    for m in range(41):
        for q in range(m + 1):
            for u in range(m - q + 1):
                total = sum(Fraction(math.comb(q, s) * math.comb(m - q, u), math.comb(m, u + s)) for s in range(q + 1))
                assert total == Fraction(m + 1, m - q + 1), (m, q, u)


def _extremal_cases(seed, count):
    """Pairs of forms of orders 1..5 whose coefficients are all +-A or +-B,
    so that each has height A or B, with a random index q >= 1."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        q = rng.randint(1, min(m, n))
        a, b = rng.randint(1, 16), rng.randint(1, 16)
        f = BinaryForm(m, [rng.choice((a, -a)) for _ in range(m + 1)])
        g = BinaryForm(n, [rng.choice((b, -b)) for _ in range(n + 1)])
        yield f, g, q


def test_extremal_heights_fit_the_slot_bound():
    # At extremal heights an output coefficient comes close to the kernel's
    # slot bound, and the first case meets it: 200 is exactly
    # (min(m,n)-q+1) H_f H_g (M+1)/(M-q+1), whose last factor, here 2, is
    # the sum of C(q,s) C(m-q,u) / C(m,u+s) over s.  Without that factor
    # the first case would raise OverflowError, and 12 of the sweep's 500
    # cases would fail: 10 by OverflowError and 2 with a wrong value.
    assert transvectant(BinaryForm(1, [10, -10]), BinaryForm(1, [10, 10]), 1) == BinaryForm(0, [200])
    f, g = BinaryForm(1, [-5, 5]), BinaryForm(2, [12, 12, -12])
    assert transvectant(f, g, 1) == BinaryForm(1, [-90, 30])
    for f, g, q in _extremal_cases(0, 500):
        assert transvectant(f, g, q) == transvectant_by_derivatives(f, g, q), (f, g, q)
