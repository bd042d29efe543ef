"""Exact recoupling coefficients: surd arithmetic, 3j/6j/9j, array checks."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import surd_wigner6j_tw, wigner9j_by_6j_products, wigner9j_by_fraction_xsum
from pencils import (
    HalfInt,
    NineJArray,
    SurdSum,
    combinant_9j_array,
    ninej_equivalent,
    ninej_magnetic_sum,
    theta,
    wigner3j,
    wigner6j,
    wigner9j,
)
from pencils.angular import _smooth_squarefree_split, _squarefree_split

H = HalfInt
W = HalfInt.whole


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


def combinant_indices(d_max):
    """Every (d, r, i, j) of a combinant 9j pair with 5 <= d <= d_max."""
    return [
        (d, r, i, j)
        for d in range(5, d_max + 1)
        for r in range(3, (d + 1) // 2 + 1)
        for i in range(1, r + 1)
        for j in range(1, r + 2 - i)
    ]


def half_integer_arrays(seed, count, top):
    """Seeded triangle-consistent arrays with every 2j <= top."""
    rng = random.Random(seed)
    arrays = []
    while len(arrays) < count:
        arr = triangle_consistent_array(rng, top)
        if max(map(max, arr.twice_rows())) <= top:
            arrays.append(arr)
    return arrays


class TestSurdSum:
    def test_sqrt_normalizes_to_squarefree(self):
        assert SurdSum.sqrt(8) == 2 * SurdSum.sqrt(2)
        assert SurdSum.sqrt(Fraction(2, 15)) == SurdSum.sqrt(30) / 15

    def test_product_of_roots(self):
        assert SurdSum.sqrt(6) * SurdSum.sqrt(10) == 2 * SurdSum.sqrt(15)
        assert SurdSum.sqrt(3) * SurdSum.sqrt(3) == SurdSum.from_rational(3)

    def test_mixed_sum_arithmetic(self):
        a = SurdSum.from_rational(Fraction(1, 2)) + SurdSum.sqrt(2)
        b = a - SurdSum.sqrt(2)
        assert b == SurdSum.from_rational(Fraction(1, 2))
        assert (a - a).is_zero()

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

    def test_str_format(self):
        value = SurdSum.from_rational(Fraction(1, 3)) - Fraction(2, 5) * SurdSum.sqrt(6)
        assert str(value) == "1/3 - 2/5*sqrt(6)"
        assert str(SurdSum.zero()) == "0"

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            SurdSum.sqrt(-1)

    def test_bounded_split_matches_trial_division(self):
        # Products of factorials, as in the square root of a Delta^2
        # product, bounded by their largest factorial argument.
        for k in range(1, 40):
            for m in range(k + 1):
                n = math.factorial(k) * math.factorial(m) ** 3
                assert _smooth_squarefree_split(n, k) == _squarefree_split(n), (k, m)
                assert _smooth_squarefree_split(n, k + 5) == _squarefree_split(n), (k, m)


class TestHalfInt:
    def test_str(self):
        assert str(H(7)) == "7/2"
        assert str(H(6)) == "3"

    def test_whole(self):
        assert W(3) == H(6)
        assert H(5).is_whole is False

    def test_order_with_other_types_raises_type_error(self):
        assert H(3) < H(4)
        assert not H(4) < H(3)
        for other in (2, Fraction(1, 2), "2"):
            with pytest.raises(TypeError):
                H(3) < other
            with pytest.raises(TypeError):
                other < H(3)


class TestWigner3j:
    def test_all_zero(self):
        assert wigner3j(*[H(0)] * 6) == SurdSum.from_rational(1)

    def test_magnetic_sum_rule(self):
        assert wigner3j(W(1), W(1), W(1), W(1), W(1), W(1)).is_zero()

    def test_known_values(self):
        assert wigner3j(W(1), W(1), W(0), W(0), W(0), W(0)) == -SurdSum.sqrt(3) / 3
        assert wigner3j(W(1), W(1), W(2), W(0), W(0), W(0)) == SurdSum.sqrt(30) / 15
        assert wigner3j(W(1), W(1), W(2), W(1), W(-1), W(0)) == SurdSum.sqrt(30) / 30
        assert wigner3j(H(1), H(1), H(0), H(1), H(-1), H(0)) == SurdSum.sqrt(2) / 2
        assert wigner3j(W(1), W(1), W(1), W(0), W(0), W(0)).is_zero()

    def test_parity_precondition(self):
        with pytest.raises(ValueError):
            wigner3j(H(1), H(2), H(1), H(0), H(0), H(0))

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            wigner3j(H(-2), H(2), H(0), H(0), H(0), H(0))

    def test_magnitude_selection_rule(self):
        assert wigner3j(W(1), W(1), W(2), W(1), W(1), W(-2)).is_zero() is False
        assert wigner3j(W(1), W(2), W(1), W(1), W(2), W(-3)).is_zero()

    def test_orthogonality(self):
        # sum over m1, m2 of (2*j3+1) * 3j(...)^2 = 1, fixed j3 and m3.
        cases = [((2, 2, 2), 0), ((2, 2, 4), 2), ((1, 2, 3), 1), ((3, 3, 4), -2)]
        for (tj1, tj2, tj3), tm3 in cases:
            total = SurdSum.zero()
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = -tm3 - tm1
                if abs(tm2) > tj2:
                    continue
                value = wigner3j(H(tj1), H(tj2), H(tj3), H(tm1), H(tm2), H(tm3))
                total = total + (tj3 + 1) * value * value
            assert total == SurdSum.from_rational(1)


class TestWigner6j:
    def test_all_zero(self):
        assert wigner6j(*[H(0)] * 6) == SurdSum.from_rational(1)

    def test_triangle_violation_is_zero(self):
        assert wigner6j(W(1), W(1), W(3), W(1), W(1), W(1)).is_zero()

    def test_known_values(self):
        assert wigner6j(W(1), W(1), W(1), W(0), W(1), W(1)) == SurdSum.from_rational(
            Fraction(-1, 3)
        )
        assert wigner6j(*[W(1)] * 6) == SurdSum.from_rational(Fraction(1, 6))

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
            assert value == wigner9j(arr.transposed())
            hits += not value.is_zero()
        assert hits > 10

    def test_even_row_permutation_invariance(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(20):
            arr = triangle_consistent_array(rng)
            value = wigner9j(arr)
            cycled = arr.swapped_rows(0, 1).swapped_rows(1, 2)
            assert value == wigner9j(cycled)
            cycled_cols = arr.swapped_cols(0, 1).swapped_cols(1, 2)
            assert value == wigner9j(cycled_cols)
            hits += not value.is_zero()
        assert hits > 8

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            NineJArray.from_twice([[0, 0, 0], [0, -2, 0], [0, 0, 0]])


class TestKernelMatchesSurdOracle:
    """The rational-Racah 6j kernel and the one-surd 9j contraction against
    the `SurdSum` 6j kernel and its 6j-product contraction."""

    def test_6j_every_small_tuple(self):
        nonzero = 0
        for twice in itertools.product(range(5), repeat=6):
            value = wigner6j(*map(H, twice))
            assert value == surd_wigner6j_tw(*twice), twice
            nonzero += not value.is_zero()
        assert nonzero > 500

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


class TestNineJArray:
    def test_rows_are_halfints_over_the_doubled_entries(self):
        arr = NineJArray.from_twice([[7, 7, 12], [7, 7, 8], [12, 4, 16]])
        assert arr.rows[0] == (H(7), H(7), H(12))
        assert arr.rows[2][1] == W(2)
        assert arr.twice_rows() == ((7, 7, 12), (7, 7, 8), (12, 4, 16))
        assert all(type(v) is int for row in arr.twice_rows() for v in row)
        assert str(arr) == "7/2 7/2 6; 7/2 7/2 4; 6 2 8"
        assert repr(arr) == "NineJArray(7/2 7/2 6; 7/2 7/2 4; 6 2 8)"
        assert arr.entry_sum_twice() == 80

    def test_halfint_constructor_matches_from_twice(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        arr = NineJArray([[H(v) for v in row] for row in rows])
        assert arr == NineJArray.from_twice(rows)
        assert arr != NineJArray.from_twice([[1, 2, 3], [4, 5, 6], [7, 8, 8]])
        assert arr.transposed() == NineJArray.from_twice([[1, 4, 7], [2, 5, 8], [3, 6, 9]])
        assert arr.swapped_rows(0, 2) == NineJArray.from_twice([[7, 8, 9], [4, 5, 6], [1, 2, 3]])
        assert arr.swapped_cols(0, 1) == NineJArray.from_twice([[2, 1, 3], [5, 4, 6], [8, 7, 9]])
        assert arr.twice_rows() == ((1, 2, 3), (4, 5, 6), (7, 8, 9))

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            NineJArray.from_twice([[0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            NineJArray.from_twice([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            NineJArray([[H(0)] * 3, [H(0), H(-1), H(0)], [H(0)] * 3])
        with pytest.raises(TypeError):
            NineJArray([[0] * 3] * 3)


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
                        assert ninej_equivalent(base, permuted), (d, r, i, j)

    def test_permuted_array_matches_row_and_column_swaps(self):
        for args in combinant_indices(12):
            base, permuted = combinant_9j_array(*args)
            assert permuted == base.swapped_rows(0, 1).swapped_rows(0, 2).swapped_cols(1, 2)

    def test_entry_sum_parity_even(self):
        for d in (5, 6, 7, 9):
            for r in range(3, (d + 1) // 2 + 1):
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        if i + j > r + 1:
                            continue
                        base, _ = combinant_9j_array(d, r, i, j)
                        twice_sum = base.entry_sum_twice()
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
