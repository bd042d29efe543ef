"""Exact recoupling coefficients: surd arithmetic, 3j/6j/9j, array checks."""
import functools
import itertools
import json
import math
import operator
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    _ninej_triads,
    child_env,
    delta_root_by_product_split,
    entry_sum_twice,
    fraction_racah_sum,
    orientations,
    sixj_keys,
    surd_wigner6j_tw,
    swapped_cols,
    swapped_rows,
    transposed,
    wigner9j_by_6j_products,
    wigner9j_by_fraction_xsum,
)
from pencils import (
    LinearSymbol,
    NineJArray,
    SurdSum,
    angular,
    combinant_9j_array,
    ninej_magnetic_sum,
    theta,
    wigner3j,
    wigner6j,
    wigner9j,
)
from pencils.angular import (
    SPLIT_BOUND,
    _delta_root,
    _delta_squared,
    _ninej_as_given,
    _squarefree_split,
    _triad,
    _wigner6j_tw,
)


def ninej(*twice):
    return wigner9j(NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]]))


def triangle_consistent_array(rng, top=3):
    """Random array satisfying every row and column triangle condition."""
    while True:
        tj1, tj2, tj4, tj5 = (rng.randint(0, top) for _ in range(4))
        tj3 = rng.choice(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
        tj6 = rng.choice(range(abs(tj4 - tj5), tj4 + tj5 + 1, 2))
        tj7 = rng.choice(range(abs(tj1 - tj4), tj1 + tj4 + 1, 2))
        tj8 = rng.choice(range(abs(tj2 - tj5), tj2 + tj5 + 1, 2))
        lo = max(abs(tj7 - tj8), abs(tj3 - tj6))
        hi = min(tj7 + tj8, tj3 + tj6)
        if lo > hi or (lo + tj7 + tj8) % 2 or (lo + tj3 + tj6) % 2:
            continue
        tj9 = rng.choice(range(lo, hi + 1, 2))
        return NineJArray.from_twice([[tj1, tj2, tj3], [tj4, tj5, tj6], [tj7, tj8, tj9]])


def six_j_tuple(rng, top):
    """A random 6j tuple with every 2j <= top whose four triads are triangles."""
    while True:
        ta, tb, te = (rng.randint(0, top) for _ in range(3))
        tc = rng.choice(range(abs(ta - tb), ta + tb + 1, 2))
        tf = rng.choice(range(abs(ta - te), ta + te + 1, 2))
        lo, hi = max(abs(tb - tf), abs(te - tc)), min(tb + tf, te + tc, top)
        if max(tc, tf) <= top and lo <= hi and (lo + tb + tf) % 2 == 0:
            return ta, tb, tc, rng.choice(range(lo, hi + 1, 2)), te, tf


def combinant_indices(d_max):
    """Every (d, r, i, j) of a combinant 9j pair with 5 <= d <= d_max."""
    return [
        (d, r, i, j)
        for d in range(5, d_max + 1)
        for r in range(3, (d + 1) // 2 + 1)
        for i in range(1, r + 1)
        for j in range(1, r + 2 - i)
    ]


def bounded_array(rng, top):
    """A random triangle-consistent array with every 2j <= top."""
    while True:
        arr = triangle_consistent_array(rng, top)
        if max(map(max, arr.twice_rows())) <= top:
            return arr


def half_integer_arrays(seed, count, top):
    """Seeded triangle-consistent arrays with every 2j <= top."""
    rng = random.Random(seed)
    return [bounded_array(rng, top) for _ in range(count)]


def six_3j_radicands(arr):
    """The set of radicands of the nonzero products of the three row and
    three column 3j symbols of the array, over all magnetic numbers, each
    3j from `wigner3j`.  A product's radicand is that of the product of
    the unit surds sqrt(n) of the six 3j radicands n, so the rational
    coefficients are left out."""
    rows = arr.twice_rows()
    triads = (*rows, *zip(*rows))
    if not all((a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b for a, b, c in triads):
        return set()
    # {(2m1, 2m2): radicand} of each triad's nonzero 3j, with 2m3 = -2m1 - 2m2.
    row1, row2, row3, col1, col2, col3 = [
        {
            (tm1, tm2): value.single_term()[1]
            for tm1 in range(-a, a + 1, 2)
            for tm2 in range(-b, b + 1, 2)
            if abs(tm1 + tm2) <= c
            and not (value := wigner3j(a, b, c, tm1, tm2, -tm1 - tm2)).is_zero()
        }
        for a, b, c in triads
    ]
    sixes = set()
    for (tm1, tm2), r1 in row1.items():
        for (tm4, tm5), r2 in row2.items():
            six = (
                r1,
                r2,
                row3.get((-tm1 - tm4, -tm2 - tm5)),
                col1.get((tm1, tm4)),
                col2.get((tm2, tm5)),
                col3.get((-tm1 - tm2, -tm4 - tm5)),
            )
            if None not in six:
                sixes.add(six)
    return {functools.reduce(product_radicand, six) for six in sixes}


@functools.cache
def product_radicand(r1, r2):
    """The radicand of sqrt(r1) * sqrt(r2), as `SurdSum` multiplies them."""
    return (SurdSum.sqrt(r1) * SurdSum.sqrt(r2)).single_term()[1]


def xsum_6j_tuples(arr):
    """The arguments of the three 6j symbols of each x of the x-sum of a
    triangle-consistent array."""
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = arr.twice_rows()
    _, pairs = _ninej_triads(arr)
    return [
        twice
        for tx in range(max(abs(a - b) for a, b in pairs), min(a + b for a, b in pairs) + 1, 2)
        for twice in (
            (tj1, tj4, tj7, tj8, tj9, tx),
            (tj2, tj5, tj8, tj4, tx, tj6),
            (tj3, tj6, tj9, tx, tj1, tj2),
        )
    ]


def ninej_triad_sets(arr):
    """The triad sets of a triangle-consistent array whose Delta^2 roots the
    6j/9j route takes: the six row and column triads, and the four triads
    of each 6j symbol of the x-sum."""
    triads, _ = _ninej_triads(arr)
    return [triads] + [
        ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
        for ta, tb, tc, td, te, tf in xsum_6j_tuples(arr)
    ]


class TestSurdSum:
    def test_sqrt_normalizes_to_squarefree(self):
        assert SurdSum.sqrt(8) == 2 * SurdSum.sqrt(2)
        assert SurdSum.sqrt(Fraction(2, 15)) == SurdSum.sqrt(30) / 15

    def test_product_of_roots(self):
        assert SurdSum.sqrt(6) * SurdSum.sqrt(10) == 2 * SurdSum.sqrt(15)
        assert SurdSum.sqrt(3) * SurdSum.sqrt(3) == SurdSum.from_rational(3)

    def test_sum_across_radicands_is_refused(self):
        with pytest.raises(ValueError, match="radicands 1 and 2"):
            SurdSum.from_rational(Fraction(1, 2)) + SurdSum.sqrt(2)
        with pytest.raises(ValueError, match="radicands 3 and 2"):
            SurdSum.sqrt(3) - SurdSum.sqrt(2)
        with pytest.raises(ValueError, match="radicands 2 and 1"):
            1 + SurdSum.sqrt(2)
        # Zero, kept with radicand 1, adds to a surd of any radicand.
        assert SurdSum.zero() + SurdSum.sqrt(2) == SurdSum.sqrt(2)
        assert SurdSum.sqrt(2) - 0 == SurdSum.sqrt(2)
        a = SurdSum.sqrt(8) + SurdSum.sqrt(2)
        assert a == 3 * SurdSum.sqrt(2)
        assert (a - a).is_zero()
        assert (a - a) + Fraction(1, 2) == Fraction(1, 2)

    def test_cancelling_terms_delete_their_radicand(self):
        a = SurdSum({5: -1})
        assert (a + (-a)).terms == {}
        assert (a * 0).terms == {} and (a * 0) + 1 == 1
        # sqrt(8) = 2 sqrt(2): the entries are summed by squarefree radicand
        # inside __init__, in any order.
        assert SurdSum({2: 1, 8: Fraction(-1, 2)}).terms == {}
        assert SurdSum({2: 1, 8: Fraction(-1, 2), 3: 4}).terms == {3: 4}
        assert SurdSum({3: 4, 2: 1, 8: Fraction(-1, 2)}).terms == {3: 4}
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            SurdSum({2: 3, 1: Fraction(1, 2)})

    # A radicand is never read through int(): 2.5 would give sqrt(2), "3"
    # sqrt(3) and True the rational 1.
    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_radicands_must_be_ints(self, bad):
        with pytest.raises(TypeError, match=re.escape(f"radicands must be ints, got {bad!r}")):
            SurdSum({bad: 1})
        with pytest.raises(TypeError, match=re.escape(f"radicands must be ints, got {bad!r}")):
            SurdSum({2: 1, bad: 0})

    def test_structural_equality(self):
        assert SurdSum.sqrt(18) == SurdSum({2: Fraction(3)})
        assert SurdSum.sqrt(2) != SurdSum.sqrt(3)

    def test_rational_sum_hashes_like_its_value(self):
        assert SurdSum.from_rational(3) == 3
        assert len({SurdSum.from_rational(3), 3}) == 1
        half = SurdSum.from_rational(Fraction(1, 2))
        assert hash(half) == hash(Fraction(1, 2))
        assert hash(SurdSum.zero()) == hash(0)
        assert hash(SurdSum.sqrt(3) * SurdSum.sqrt(3)) == hash(3)
        assert len({SurdSum.sqrt(2), SurdSum.sqrt(8) / 2, 2 * SurdSum.sqrt(2)}) == 2

    def test_division_by_single_term(self):
        v = SurdSum.sqrt(2) / SurdSum.sqrt(2)
        assert v == SurdSum.from_rational(1)
        with pytest.raises(ValueError):
            (SurdSum.sqrt(2) + SurdSum.sqrt(3)) / (SurdSum.sqrt(2) + 1)

    def test_division_by_zero_surd(self):
        for zero in (SurdSum.zero(), SurdSum.sqrt(2) - SurdSum.sqrt(2), 0):
            with pytest.raises(ZeroDivisionError):
                SurdSum.sqrt(2) / zero

    def test_str_format(self):
        assert str(SurdSum.from_rational(Fraction(1, 3))) == "1/3"
        assert str(SurdSum.from_rational(-3)) == "-3"
        assert str(Fraction(-2, 5) * SurdSum.sqrt(6)) == "-2/5*sqrt(6)"
        assert str(-SurdSum.sqrt(6)) == "-sqrt(6)"
        assert str(SurdSum.sqrt(24) / 2) == "sqrt(6)"
        assert repr(SurdSum.sqrt(Fraction(3, 2))) == "SurdSum(1/2*sqrt(6))"
        assert str(SurdSum.zero()) == "0"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=60, max_denominator=60), min_size=1, max_size=5))
    @example([Fraction(2), Fraction(8)])
    @example([Fraction(3, 2), Fraction(0)])
    def test_equal_products_hash_equal_and_rebuild_from_terms(self, values):
        v = functools.reduce(operator.mul, map(SurdSum.sqrt, values))
        u = functools.reduce(operator.mul, map(SurdSum.sqrt, reversed(values)))
        w = SurdSum.sqrt(math.prod(values))
        assert v == u == w and hash(v) == hash(u) == hash(w)
        rebuilt = SurdSum(v.terms)
        assert rebuilt == v and hash(rebuilt) == hash(v)
        if set(v.terms) <= {1}:
            rational = v.terms.get(1, 0)
            assert v == rational and hash(v) == hash(rational)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            SurdSum.sqrt(-1)

    def test_bounded_split_matches_trial_division(self):
        # Products of factorials, as in the square root of a Delta^2
        # product, whose prime factors are at most k.
        for k in range(1, 40):
            for m in range(k + 1):
                n = math.factorial(k) * math.factorial(m) ** 3
                outer, rad = _squarefree_split(n)
                assert outer**2 * rad == n, (k, m)
                assert all(rad % (p * p) for p in range(2, k + 1)), (k, m)

    def test_smooth_values_split_as_before(self):
        # Seeded products of primes below 200, against the outer part and
        # radicand read off their exponents.
        rng = random.Random(20)
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
        for _ in range(300):
            exponents = {p: rng.randrange(6) for p in rng.sample(primes, 5)}
            n = math.prod(p**e for p, e in exponents.items())
            outer = math.prod(p ** (e // 2) for p, e in exponents.items())
            rad = math.prod(p for p, e in exponents.items() if e % 2)
            assert _squarefree_split(n) == (outer, rad), exponents

    def test_split_past_the_bound_keeps_primes_and_squares(self):
        # Trial division stops below SPLIT_BOUND = 2**20.  The part left is
        # a prime below SPLIT_BOUND**2, or a square.
        p, q, big = 10**12 + 39, 1048583, 10**14 + 31  # primes
        assert q > SPLIT_BOUND and p < SPLIT_BOUND**2 < big
        assert _squarefree_split(p) == (1, p)
        assert _squarefree_split(12 * p) == (2, 3 * p)
        assert _squarefree_split(12 * p * p) == (2 * p, 3)
        assert _squarefree_split(7 * (q * big) ** 2) == (q * big, 7)
        assert SurdSum({p: 1}).terms == {p: 1}
        assert SurdSum.sqrt(Fraction(p * p, 3)) == SurdSum({3: Fraction(p, 3)})

    def test_split_refuses_a_large_part_that_is_not_a_square_quickly(self):
        # Past SPLIT_BOUND**2 a prime cannot be told from a product of two
        # primes above the bound, so both are refused by name of the bound.
        # Without the bound 10**14 + 31 is split in about 0.4 s, and
        # 2**89 - 1 never; each refusal takes about 0.1 s.
        for n in (10**14 + 31, 2**89 - 1, 1048583 * 1048589):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"SPLIT_BOUND = {SPLIT_BOUND} "):
                SurdSum({n: 1})
            with pytest.raises(ValueError, match=f"SPLIT_BOUND = {SPLIT_BOUND} "):
                SurdSum.sqrt(Fraction(5, n))
            assert time.perf_counter() - start < 2.0, n


class TestWigner3j:
    def test_all_zero(self):
        assert wigner3j(*[0] * 6) == SurdSum.from_rational(1)

    def test_magnetic_sum_rule(self):
        assert wigner3j(2, 2, 2, 2, 2, 2).is_zero()

    def test_known_values(self):
        assert wigner3j(2, 2, 0, 0, 0, 0) == -SurdSum.sqrt(3) / 3
        assert wigner3j(2, 2, 4, 0, 0, 0) == SurdSum.sqrt(30) / 15
        assert wigner3j(2, 2, 4, 2, -2, 0) == SurdSum.sqrt(30) / 30
        assert wigner3j(1, 1, 0, 1, -1, 0) == SurdSum.sqrt(2) / 2
        assert wigner3j(2, 2, 2, 0, 0, 0).is_zero()

    def test_parity_precondition(self):
        with pytest.raises(ValueError, match=re.escape("2j=1 and 2m=0 differ mod 2")):
            wigner3j(2, 2, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            wigner3j(1, 2, 1, 0, 0, 0)

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            wigner3j(-2, 2, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            wigner3j(2, 2, -2, 0, 0, 0)

    def test_magnitude_selection_rule(self):
        assert wigner3j(2, 2, 4, 2, 2, -4).is_zero() is False
        assert wigner3j(2, 4, 2, 2, 4, -6).is_zero()

    def test_orthogonality(self):
        # sum over m1, m2 of (2*j3+1) * 3j(...)^2 = 1, fixed j3 and m3.
        cases = [((2, 2, 2), 0), ((2, 2, 4), 2), ((1, 2, 3), 1), ((3, 3, 4), -2)]
        for (tj1, tj2, tj3), tm3 in cases:
            total = SurdSum.zero()
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = -tm3 - tm1
                if abs(tm2) > tj2:
                    continue
                value = wigner3j(tj1, tj2, tj3, tm1, tm2, tm3)
                total = total + (tj3 + 1) * value * value
            assert total == SurdSum.from_rational(1)

    # A bool, a float or a string is refused, not read as the int it
    # equals: True and 1.0 hash like 1 in the kernel's cache.
    @pytest.mark.parametrize("bad", [True, 1.0, "2"])
    def test_arguments_must_be_ints(self, bad):
        names = ("tj1", "tj2", "tj3", "tm1", "tm2", "tm3")
        for slot, name in enumerate(names):
            args = [1, 1, 0, 1, -1, 0]
            args[slot] = bad
            with pytest.raises(TypeError, match=re.escape(f"{name} must be an int, got {bad!r}")):
                wigner3j(*args)


class TestWigner6j:
    def test_all_zero(self):
        assert wigner6j(*[0] * 6) == SurdSum.from_rational(1)

    def test_triangle_violation_is_zero(self):
        assert wigner6j(2, 2, 6, 2, 2, 2).is_zero()
        # An odd triad sum is a selection rule, not an error.
        assert wigner6j(1, 1, 1, 1, 1, 1).is_zero()

    def test_known_values(self):
        assert wigner6j(2, 2, 2, 0, 2, 2) == SurdSum.from_rational(Fraction(-1, 3))
        assert wigner6j(*[2] * 6) == SurdSum.from_rational(Fraction(1, 6))

    def test_negative_momentum_rejected(self):
        for slot in range(6):
            args = [2] * 6
            args[slot] = -2
            with pytest.raises(ValueError, match="must be at least 0"):
                wigner6j(*args)

    @pytest.mark.parametrize("bad", [True, 1.0, "2"])
    def test_arguments_must_be_ints(self, bad):
        for slot, name in enumerate(("ta", "tb", "tc", "td", "te", "tf")):
            args = [2] * 6
            args[slot] = bad
            with pytest.raises(TypeError, match=re.escape(f"{name} must be an int, got {bad!r}")):
                wigner6j(*args)

    def test_against_3j_contraction(self):
        # Collapse the 9j brute-force identity with a zero corner:
        # {a b c; b a 0} relates directly to a 3j-only sum, so comparing the
        # two 9j routes on such arrays exercises the 6j against pure 3j data.
        rng = random.Random(4)
        for _ in range(12):
            ta, tb = rng.randint(0, 3), rng.randint(0, 3)
            for tc in range(abs(ta - tb), ta + tb + 1, 2):
                arr = NineJArray.from_twice(
                    [[ta, tb, tc], [tb, ta, tc], [0, 0, 0]]
                )
                assert wigner9j(arr) == ninej_magnetic_sum(arr)


class TestWigner9j:
    def test_all_zero_array(self):
        assert ninej(*[0] * 9) == SurdSum.from_rational(1)

    def test_triangle_violation(self):
        assert ninej(2, 2, 8, 2, 2, 2, 2, 2, 2).is_zero()

    def test_matches_magnetic_oracle_on_random_arrays(self):
        rng = random.Random(11)
        for _ in range(40):
            twice = [rng.randint(0, 3) for _ in range(9)]
            arr = NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]])
            assert wigner9j(arr) == ninej_magnetic_sum(arr)

    def test_transposition_invariance(self):
        rng = random.Random(12)
        hits = 0
        for _ in range(25):
            arr = triangle_consistent_array(rng)
            value = wigner9j(arr)
            assert value == wigner9j(transposed(arr))
            hits += not value.is_zero()
        assert hits > 10

    def test_even_row_permutation_invariance(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(20):
            arr = triangle_consistent_array(rng)
            value = wigner9j(arr)
            cycled = swapped_rows(swapped_rows(arr, 0, 1), 1, 2)
            assert value == wigner9j(cycled)
            cycled_cols = swapped_cols(swapped_cols(arr, 0, 1), 1, 2)
            assert value == wigner9j(cycled_cols)
            hits += not value.is_zero()
        assert hits > 8

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            NineJArray.from_twice([[0, 0, 0], [0, -2, 0], [0, 0, 0]])

    # An odd orientation is contracted along a cyclic row order of itself,
    # so its sign (-1)^S comes from the x-sum kernel alone.
    def test_every_orientation_gives_the_signed_value(self):
        odd_nonzero = 0
        for arr in half_integer_arrays(36, 12, 7):
            value = wigner9j_by_fraction_xsum(arr)
            odd = entry_sum_twice(arr) // 2 % 2
            odd_nonzero += odd and not value.is_zero()
            for oriented, parity in orientations(arr):
                assert wigner9j(oriented) == (-value if odd and parity else value), oriented
        assert odd_nonzero >= 3

    # `wigner9j` compares only the three cyclic row orders.
    def test_a_cyclic_row_order_has_the_shortest_x_range(self):
        def x_range(arr):
            (tj1, tj2, _), (tj4, _, tj6), (_, tj8, tj9) = arr.twice_rows()
            pairs = ((tj1, tj9), (tj4, tj8), (tj2, tj6))
            return min(a + b for a, b in pairs) - max(abs(a - b) for a, b in pairs)

        rng = random.Random(37)
        for _ in range(300):
            twice = [rng.randint(0, 12) for _ in range(9)]
            arr = NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]])
            cycled = swapped_rows(swapped_rows(arr, 0, 1), 1, 2)
            cyclic = (arr, cycled, swapped_rows(swapped_rows(cycled, 0, 1), 1, 2))
            assert min(map(x_range, cyclic)) == min(x_range(o) for o, _ in orientations(arr))

    @pytest.mark.parametrize("function", [wigner9j, ninej_magnetic_sum])
    @pytest.mark.parametrize("bad", [LinearSymbol(1, 2), ((1, 1, 0), (1, 1, 0), (0, 0, 0))])
    def test_non_array_argument_is_refused(self, function, bad):
        with pytest.raises(TypeError, match="^array must be a NineJArray, got "):
            function(bad)


class TestKernelMatchesSurdOracle:
    """The rational-Racah 6j kernel and the one-surd 9j contraction against
    the `SurdSum` 6j kernel and its 6j-product contraction."""

    def test_6j_every_small_tuple(self):
        nonzero = 0
        for twice in itertools.product(range(5), repeat=6):
            value = wigner6j(*twice)
            assert value == surd_wigner6j_tw(*twice), twice
            nonzero += not value.is_zero()
        assert nonzero > 500

    def test_6j_seeded_tuples_up_to_300(self):
        rng = random.Random(6)
        tuples = [six_j_tuple(rng, 300) for _ in range(300)]
        assert max(map(max, tuples)) > 280
        nonzero = 0
        for twice in tuples:
            value = wigner6j(*twice)
            assert value == surd_wigner6j_tw(*twice), twice
            nonzero += not value.is_zero()
        assert nonzero > 250

    def test_9j_every_combinant_pair_up_to_d12(self):
        for args in combinant_indices(12):
            for arr in combinant_9j_array(*args):
                assert wigner9j(arr) == wigner9j_by_6j_products(arr), args

    def test_9j_random_half_integer_arrays(self):
        arrays = half_integer_arrays(21, 150, 9)
        nonzero = 0
        for arr in arrays:
            value = wigner9j(arr)
            assert value == wigner9j_by_6j_products(arr), arr
            nonzero += not value.is_zero()
        assert nonzero > 100
        odd = sum(any(v % 2 for row in a.twice_rows() for v in row) for a in arrays)
        assert 20 < odd < len(arrays)

    def test_9j_every_combinant_pair_up_to_d21_matches_fraction_xsum(self):
        for args in combinant_indices(21):
            for arr in combinant_9j_array(*args):
                assert wigner9j(arr) == wigner9j_by_fraction_xsum(arr), args

    # Big-int x-sums, with terms of hundreds of digits, beyond d = 21.
    @pytest.mark.parametrize("args", [(60, 30, 15, 1), (120, 60, 30, 1)])
    def test_9j_large_combinant_pairs_match_fraction_xsum(self, args):
        base, permuted = combinant_9j_array(*args)
        value = wigner9j(base)
        assert not value.is_zero()
        assert value == wigner9j_by_fraction_xsum(base)
        assert wigner9j(permuted) == wigner9j_by_fraction_xsum(permuted) == value

    @settings(max_examples=200, deadline=None)
    @given(
        st.randoms(use_true_random=False).map(
            lambda rng: triangle_consistent_array(rng, 9).twice_rows()
        )
    )
    @example(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    # The only x term has a zero 6j symbol.
    @example(((0, 3, 3), (4, 3, 3), (4, 4, 4)))
    # Three nonzero x terms that cancel.
    @example(((7, 6, 7), (5, 8, 5), (2, 4, 2)))
    def test_9j_half_integer_arrays_match_fraction_xsum(self, rows):
        arr = NineJArray.from_twice(rows)
        value = wigner9j(arr)
        assert value == wigner9j_by_fraction_xsum(arr)
        assert len(value.terms) <= 1

    # On every array tried, the reduced x-terms of one 9j share one
    # denominator, so a plain sum of numerators would pass every test above.
    # Racah sums of 1 leave each term (-1)^(2x) (2x+1) over its three
    # x-dependent N, whose denominators differ across x.
    def test_9j_xsum_merges_unlike_denominators(self, monkeypatch):
        arr = NineJArray.from_twice([[4, 4, 4], [4, 4, 4], [4, 4, 4]])
        monkeypatch.setattr(angular, "_wigner6j_tw", lambda *twice: 1)
        terms = [
            Fraction(-(tx + 1) if tx % 2 else tx + 1, _triad(4, 4, tx) ** 3)
            for tx in range(0, 9, 2)
        ]
        assert len({term.denominator for term in terms}) > 1
        fixed = Fraction(1, _triad(4, 4, 4) ** 6)
        assert wigner9j(arr) == SurdSum.sqrt(fixed) * sum(terms)

    def test_9j_named_arrays_are_zero(self):
        for twice in ((0, 3, 3, 4, 3, 3, 4, 4, 4), (7, 6, 7, 5, 8, 5, 2, 4, 2)):
            arr = NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]])
            assert wigner9j(arr).is_zero()
            assert ninej_magnetic_sum(arr).is_zero()

    def test_9j_value_has_at_most_one_radicand(self):
        arrays = [arr for args in combinant_indices(12) for arr in combinant_9j_array(*args)]
        arrays += half_integer_arrays(22, 150, 9)
        arrays += [
            NineJArray.from_twice([t[0:3], t[3:6], t[6:9]])
            for t in itertools.product(range(3), repeat=9)
        ]
        for arr in arrays:
            assert len(wigner9j(arr).terms) <= 1, arr

    def test_six_3j_products_share_the_9j_radicand(self):
        # Each entry's (j+m)!(j-m)! is under the root of its row 3j and of
        # its column 3j, so every product has the radicand of the six
        # Delta^2, whatever the magnetic numbers.
        arrays = [arr for args in combinant_indices(9) for arr in combinant_9j_array(*args)]
        arrays += [
            NineJArray.from_twice([t[0:3], t[3:6], t[6:9]])
            for t in itertools.product(range(3), repeat=9)
        ]
        checked = 0
        for arr in arrays:
            value = wigner9j(arr)
            radicands = six_3j_radicands(arr)
            assert len(radicands) <= 1, arr
            if not value.is_zero():
                assert radicands == {value.single_term()[1]}, arr
                checked += 1
        assert checked > 300


def assert_integer_racah_sum(twice):
    value = _wigner6j_tw(*twice)
    assert type(value) is int, twice
    assert value == fraction_racah_sum(*twice), twice


class TestRacahSumIsAnInteger:
    """`_wigner6j_tw` returns Racah's sum as one `int`, equal to its textbook
    definition: `fraction_racah_sum` sums its terms in `Fraction` from
    `math.factorial`, with no binomial and no Horner step."""

    def test_every_tuple_up_to_8(self):
        # Uncached on both sides: 9^6 entries would stay in each cache.
        kernel, oracle = _wigner6j_tw.__wrapped__, fraction_racah_sum.__wrapped__
        nonzero = 0
        for twice in itertools.product(range(9), repeat=6):
            value = kernel(*twice)
            assert type(value) is int and value == oracle(*twice), twice
            nonzero += value != 0
        assert nonzero == 13_597

    @seed(34)
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False).map(lambda rng: six_j_tuple(rng, 60)))
    def test_seeded_tuples_up_to_60(self, twice):
        assert_integer_racah_sum(twice)

    def test_every_tuple_of_the_combinant_arrays_at_d21(self):
        tuples = {
            twice
            for args in combinant_indices(21)
            if args[0] == 21
            for arr in combinant_9j_array(*args)
            for twice in xsum_6j_tuples(arr)
        }
        assert len(tuples) == 4_295
        for twice in tuples:
            assert_integer_racah_sum(twice)


# The first angular call of a fresh interpreter: a 6j symbol near the 9j
# caps, whose Racah sum starts at lo = 748.
FRESH_6J = """
import json
from pencils import wigner6j
value = wigner6j(*{twice})
print(json.dumps({{str(rad): str(coeff) for rad, coeff in value.terms.items()}}))
"""


class TestTriadRoots:
    """Delta^2 as the reciprocal of an integer, and the Delta^2 roots
    combined triad by triad."""

    def test_triad_is_the_reciprocal_of_delta_squared(self):
        checked = 0
        for ta, tb in itertools.product(range(41), repeat=2):
            for tc in range(abs(ta - tb), min(ta + tb, 40) + 1, 2):
                assert Fraction(1, _triad(ta, tb, tc)) == _delta_squared(ta, tb, tc)
                checked += 1
        assert checked == 17_871

    def test_fresh_interpreter_6j_near_the_caps(self):
        twice = (500, 499, 497, 498, 495, 493)
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_6J.format(twice=twice)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        expected = surd_wigner6j_tw(*twice)
        assert not expected.is_zero()
        terms = {str(rad): str(coeff) for rad, coeff in expected.terms.items()}
        assert json.loads(proc.stdout) == terms

    def test_delta_root_matches_product_split_on_combinant_arrays(self):
        for args in combinant_indices(21):
            for arr in combinant_9j_array(*args):
                for triads in ninej_triad_sets(arr):
                    assert _delta_root(triads) == delta_root_by_product_split(triads), triads

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False).map(lambda rng: bounded_array(rng, 60)))
    def test_delta_root_matches_product_split_up_to_60(self, arr):
        for triads in ninej_triad_sets(arr):
            assert _delta_root(triads) == delta_root_by_product_split(triads), triads


@pytest.fixture(scope="module")
def oracle_values():
    """9j values, both routes agreeing, computed before any kernel is patched."""
    arrays = [arr for args in combinant_indices(7) for arr in combinant_9j_array(*args)]
    arrays += half_integer_arrays(23, 30, 3)
    values = {}
    for arr in arrays:
        value = wigner9j(arr)
        assert value == ninej_magnetic_sum(arr), arr
        values[arr.twice_rows()] = value
    assert sum(not v.is_zero() for v in values.values()) > 60
    return values


def unreachable(*args):
    raise AssertionError("an oracle reached a kernel of the route it checks")


class TestOracleIndependence:
    """The magnetic sum and the 6j route to the 9j symbol share no kernel."""

    def test_magnetic_sum_reaches_no_6j_route_kernel(self, oracle_values, monkeypatch):
        for name in ("_wigner6j_tw", "_triad", "_triad_root"):
            monkeypatch.setattr(angular, name, unreachable)
        # A fresh 3j cache, so every 3j body runs under the patch.
        monkeypatch.setattr(angular, "_wigner3j_tw", functools.cache(angular._wigner3j_tw.__wrapped__))
        for rows, value in oracle_values.items():
            assert ninej_magnetic_sum(NineJArray.from_twice(rows)) == value, rows

    def test_6j_route_reaches_no_3j_kernel(self, oracle_values, monkeypatch):
        for name in ("_wigner3j_tw", "_delta_squared", "factorial"):
            monkeypatch.setattr(angular, name, unreachable)
        for name in ("_wigner6j_tw", "_triad", "_triad_root"):
            monkeypatch.setattr(angular, name, functools.cache(getattr(angular, name).__wrapped__))
        for rows, value in oracle_values.items():
            assert wigner9j(NineJArray.from_twice(rows)) == value, rows

    def test_failed_selection_rule_reaches_no_kernel(self, monkeypatch):
        # Every array with all 2j <= 2 that fails a triangle test, or whose
        # x-pairs differ in parity, is zero before any 6j kernel runs.
        for name in ("_wigner6j_tw", "_triad", "_triad_root"):
            monkeypatch.setattr(angular, name, unreachable)
        rejected = 0
        for twice in itertools.product(range(3), repeat=9):
            arr = NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]])
            if _ninej_triads(arr) is None:
                assert wigner9j(arr).is_zero(), twice
                rejected += 1
        assert rejected > 15_000


class TestNineJArray:
    def test_doubled_entries_and_their_str(self):
        arr = NineJArray.from_twice([[7, 7, 12], [7, 7, 8], [12, 4, 16]])
        assert arr.twice_rows() == ((7, 7, 12), (7, 7, 8), (12, 4, 16))
        assert all(type(v) is int for row in arr.twice_rows() for v in row)
        assert str(arr) == "7/2 7/2 6; 7/2 7/2 4; 6 2 8"
        assert repr(arr) == "NineJArray(7/2 7/2 6; 7/2 7/2 4; 6 2 8)"
        assert entry_sum_twice(arr) == 80

    def test_equality_and_permutation_helpers(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        arr = NineJArray.from_twice(rows)
        assert arr == NineJArray.from_twice(tuple(map(tuple, rows)))
        assert arr != NineJArray.from_twice([[1, 2, 3], [4, 5, 6], [7, 8, 8]])
        assert transposed(arr) == NineJArray.from_twice([[1, 4, 7], [2, 5, 8], [3, 6, 9]])
        assert swapped_rows(arr, 0, 2) == NineJArray.from_twice([[7, 8, 9], [4, 5, 6], [1, 2, 3]])
        assert swapped_cols(arr, 0, 1) == NineJArray.from_twice([[2, 1, 3], [5, 4, 6], [8, 7, 9]])
        assert arr.twice_rows() == ((1, 2, 3), (4, 5, 6), (7, 8, 9))

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            NineJArray.from_twice([[0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="3x3"):
            NineJArray.from_twice([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="3x3"):
            NineJArray.from_twice([[0, 0, 0], [0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(ValueError, match="nonnegative"):
            NineJArray.from_twice([[0] * 3, [0, -1, 0], [0] * 3])

    # An entry is never read through int(): 7.9 would become 7 and give
    # the 9j value of another array.
    @pytest.mark.parametrize("bad", [7.9, "2", True])
    def test_entries_must_be_ints(self, bad):
        message = re.escape(f"array entries must be ints, got {bad!r}")
        with pytest.raises(TypeError, match=message):
            NineJArray.from_twice([[bad, 7, 12], [7, 7, 8], [12, 4, 16]])
        with pytest.raises(TypeError, match=message):
            NineJArray.from_twice([[7, 7, 12], [7, 7, 8], [12, 4, bad]])

    def test_direct_construction_refused(self):
        for args in ((), ([[0] * 3] * 3,)):
            with pytest.raises(TypeError, match="from_twice"):
                NineJArray(*args)


class TestBPrimeCheck:
    """`wigner9j` contracts B' along its shortest x-sum, as it does B, so the
    check of B against B' sums B' as given, by `_ninej_as_given`."""

    # At these pairs `wigner9j` takes the same 6j symbols for B' as for B,
    # so the key sets tell the two routes apart.
    @pytest.mark.parametrize("args", [(5, 3, 1, 1), (6, 3, 2, 2), (15, 6, 3, 3)])
    def test_the_check_compares_two_contractions(self, monkeypatch, args):
        base, permuted = combinant_9j_array(*args)
        keys = sixj_keys(monkeypatch, lambda: wigner9j(base))
        assert sixj_keys(monkeypatch, lambda: wigner9j(permuted)) == keys
        given = sixj_keys(monkeypatch, lambda: _ninej_as_given(permuted.twice_rows()))
        assert given != keys
        assert _ninej_as_given(permuted.twice_rows()) == wigner9j(base)

    def test_cold_6j_misses_at_the_cap_corner(self):
        base, permuted = combinant_9j_array(500, 250, 125, 1)

        def cold_misses(compute):
            _wigner6j_tw.cache_clear()
            compute()
            return _wigner6j_tw.cache_info().misses

        misses = cold_misses(lambda: wigner9j(base))
        assert cold_misses(lambda: wigner9j(permuted)) <= misses
        assert cold_misses(lambda: _ninej_as_given(permuted.twice_rows())) >= 100 * misses


class TestCombinantArrays:
    def test_degree_seven_example_rows(self):
        base, permuted = combinant_9j_array(7, 3, 1, 2)
        assert base.twice_rows() == ((7, 7, 12), (7, 7, 8), (12, 4, 16))
        assert permuted.twice_rows() == ((12, 16, 4), (7, 12, 7), (7, 8, 7))

    def test_equivalence_across_grid(self):
        for d in (5, 6, 7):
            for r in range(3, (d + 1) // 2 + 1):
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        if i + j > r + 1:
                            continue
                        base, permuted = combinant_9j_array(d, r, i, j)
                        assert wigner9j(base) == wigner9j(permuted), (d, r, i, j)

    def test_arrays_match_their_rows_written_out(self):
        for d, r, i, j in combinant_indices(40):
            a = [d, d, 2 * d - 4 * i + 2]
            b = [d, d, 2 * d - 4 * j + 2]
            c = [2 * d - 2, 2 * d - 4 * r + 2, 4 * d - 4 * r]
            expected = (
                NineJArray.from_twice([a, b, c]),
                NineJArray.from_twice([[c[0], c[2], c[1]], [a[0], a[2], a[1]], [b[0], b[2], b[1]]]),
            )
            arrays = combinant_9j_array(d, r, i, j)
            assert arrays == expected, (d, r, i, j)
            for arr in arrays:
                assert all(type(v) is int for row in arr.twice_rows() for v in row)

    def test_permuted_array_matches_row_and_column_swaps(self):
        for args in combinant_indices(12):
            base, permuted = combinant_9j_array(*args)
            swapped = swapped_rows(swapped_rows(base, 0, 1), 0, 2)
            assert permuted == swapped_cols(swapped, 1, 2)

    def test_entry_sum_parity_even(self):
        for d in (5, 6, 7, 9):
            for r in range(3, (d + 1) // 2 + 1):
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        if i + j > r + 1:
                            continue
                        base, _ = combinant_9j_array(d, r, i, j)
                        twice_sum = entry_sum_twice(base)
                        assert twice_sum == 2 * (8 * d - 2 * i - 2 * j - 4 * r + 2)
                        assert twice_sum % 4 == 0  # entry sum itself is even

    def test_values_collapse_to_single_surd(self):
        # At most one radicand holds by construction; that these values are
        # also nonzero is observed across the verification grid.
        for d in (5, 6, 7):
            for r in range(3, (d + 1) // 2 + 1):
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        if i + j > r + 1:
                            continue
                        base, _ = combinant_9j_array(d, r, i, j)
                        value = wigner9j(base)
                        assert value.single_term() is not None, (d, r, i, j)

    def test_ratio_to_theta_is_computable(self):
        base, _ = combinant_9j_array(7, 3, 1, 2)
        value = wigner9j(base)
        ratio = SurdSum.from_rational(theta(7, 3, 1, 2)) / value
        assert (ratio * value) == SurdSum.from_rational(theta(7, 3, 1, 2))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            combinant_9j_array(7, 2, 1, 1)
        with pytest.raises(ValueError):
            combinant_9j_array(7, 3, 3, 3)


def test_exhaustive_tiny_grid_agreement():
    # Every array with all doubled entries <= 1: both routes must agree.
    for twice in itertools.product(range(2), repeat=9):
        arr = NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]])
        assert wigner9j(arr) == ninej_magnetic_sum(arr)
