"""Syzygy engine: closed-form coefficients, vanishing, recovery, positivity."""
import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencils import (
    BinaryForm,
    DegeneratePencilError,
    FormulaViolationError,
    NotDivisibleError,
    Pencil,
    beta_chain,
    c_aggregate,
    c_constants,
    combinant_9j_array,
    combinant_sequence,
    evaluate_syzygy,
    exact_divide,
    gamma,
    index_pairs,
    omega_chain,
    positivity_certificate,
    random_pencil,
    recover_combinant,
    syzygy_space_dim,
    syzygy_table,
    theta,
    transvectant,
    verify_theta,
    zeta_image,
)

from pencils.syzygy import SyzygyTable, _alphas, _syzygy_sum

from helpers import (
    enumerated_syzygy_dims,
    evaluate_syzygy_by_fractions,
    exact_divide_by_fractions,
    gaussian_binomial_head,
    recover_by_fractions,
    syzygy_sum_by_fractions,
    syzygy_sum_by_terms,
)

syzygy_module = importlib.import_module("pencils.syzygy")


class TestTheta:
    def test_boundary_value_formula(self):
        for d in range(5, 26):
            for r in range(3, (d + 1) // 2 + 1):
                assert theta(d, r, 1, 1) == 2 * (r - 2) * (2 * r - 1)

    def test_degree_seven_weight_six_values(self):
        assert theta(7, 3, 1, 1) == 10
        assert theta(7, 3, 1, 2) == Fraction(-40, 11)
        assert theta(7, 3, 2, 2) == Fraction(-175, 121)
        assert theta(7, 3, 1, 3) == Fraction(10, 21)

    def test_symmetry(self):
        rng = random.Random(0)
        for _ in range(25):
            d = rng.randint(7, 20)
            r = rng.randint(3, (d + 1) // 2)
            i = rng.randint(1, r)
            j = rng.randint(1, min(r, r + 1 - i))
            assert theta(d, r, i, j) == theta(d, r, j, i)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            theta(7, 2, 1, 1)
        with pytest.raises(ValueError):
            theta(7, 5, 1, 1)
        with pytest.raises(ValueError):
            theta(7, 3, 0, 1)
        with pytest.raises(ValueError):
            theta(7, 3, 3, 2)  # i + j > r + 1

    def test_connection_to_gamma(self):
        for d in range(5, 20):
            for r in range(3, (d + 1) // 2 + 1):
                assert theta(d, r, 1, r) == 1 - gamma(r, d)


class TestSyzygyTable:
    def test_index_set(self):
        assert index_pairs(3) == [(1, 1), (1, 2), (2, 2), (1, 3)]
        assert index_pairs(4) == [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]

    def test_degree_seven_weight_six(self):
        table = syzygy_table(7, 3)
        assert table.entries == {
            (1, 1): Fraction(10),
            (1, 2): Fraction(-80, 11),
            (2, 2): Fraction(-175, 121),
            (1, 3): Fraction(20, 21),
        }

    def test_degree_seven_weight_eight_matches_recovery_identity(self):
        # Dividing by -alpha(1,4) and moving the C1*C7 term across must
        # reproduce the known five-term coefficient vector.
        table = syzygy_table(7, 4)
        expected = {
            (1, 1): Fraction(-28),
            (1, 2): Fraction(-210, 11),
            (1, 3): Fraction(8),
            (2, 2): Fraction(1960, 121),
            (2, 3): Fraction(35, 11),
        }
        pivot = table.alpha(1, 4)
        assert pivot > 0
        for key, value in expected.items():
            assert table.entries[key] == -pivot * value

    def test_leading_coefficient_positive(self):
        for d in range(5, 26):
            for r in range(3, (d + 1) // 2 + 1):
                assert syzygy_table(d, r).alpha(1, r) > 0

    def test_alpha_is_symmetrized_theta(self):
        table = syzygy_table(9, 4)
        for (i, j), value in table.items():
            eps = 1 if i == j else 2
            assert value == eps * theta(9, 4, i, j)

    # The table's one integer pass against `theta`'s own factorials: every
    # (d, r) with d <= 60, and a few larger orders.
    @pytest.mark.parametrize(
        "weights",
        [[(d, r) for r in range(3, (d + 1) // 2 + 1)] for d in range(5, 61)]
        + [[(101, 50), (211, 7), (300, 3), (300, 12)]],
        ids=[f"d={d}" for d in range(5, 61)] + ["large"],
    )
    def test_every_entry_is_symmetrized_theta(self, weights):
        for d, r in weights:
            table = syzygy_table(d, r)
            assert list(table.entries) == index_pairs(r)
            for (i, j), value in table.items():
                assert value == (1 if i == j else 2) * theta(d, r, i, j), (d, r, i, j)

    @pytest.mark.parametrize("spoil", [lambda num: -num, lambda num: 0], ids=["negative", "zero"])
    def test_nonpositive_pivot_is_refused_and_not_kept(self, monkeypatch, spoil):
        real = syzygy_module._theta_ratios

        def spoiled(d, r, pairs, fact):
            for (i, j), (num, den) in zip(pairs, real(d, r, pairs, fact)):
                yield (spoil(num) if (i, j) == (1, r) else num), den

        monkeypatch.setattr(syzygy_module, "_theta_ratios", spoiled)
        _alphas.cache_clear()
        with pytest.raises(FormulaViolationError, match=r"^alpha\(1,4\) is not positive at d=11$"):
            syzygy_table(11, 4)
        with pytest.raises(FormulaViolationError):
            _alphas(11, 4)
        assert _alphas.cache_info().currsize == 0
        monkeypatch.undo()
        assert _alphas(11, 4) == _alpha_ints(syzygy_table(11, 4))


class TestEvaluateSyzygy:
    def test_vanishes_for_degree_seven(self):
        for seed in range(1, 21):
            pencil = random_pencil(7, seed)
            value = evaluate_syzygy(pencil, 3)
            assert value.is_zero()
            assert value.order == 16

    def test_vanishes_for_degree_nine_all_weights(self):
        for r in (3, 4, 5):
            for seed in (1, 2):
                assert evaluate_syzygy(random_pencil(9, seed), r).is_zero()

    def test_range_checks(self):
        pencil = random_pencil(7, 1)
        with pytest.raises(ValueError):
            evaluate_syzygy(pencil, 5)


class TestRecovery:
    @pytest.mark.parametrize("d,r", [(5, 3), (7, 3), (7, 4), (8, 4), (9, 5)])
    def test_matches_direct_transvectant(self, d, r):
        pencil = random_pencil(d, 23 + d + r)
        recovered = recover_combinant(pencil, r)
        assert recovered == transvectant(pencil.a, pencil.b, 2 * r - 1)

    def test_weight_six_identity_form(self):
        # C1*C5 = -(21/2)(C1,C1)_4 + (84/11)(C1,C3)_2 + (735/484) C3^2
        pencil = random_pencil(7, 31)
        seq = combinant_sequence(pencil)
        c1, c3, c5 = seq[:3]
        rhs = (
            Fraction(-21, 2) * transvectant(c1, c1, 4)
            + Fraction(84, 11) * transvectant(c1, c3, 2)
            + Fraction(735, 484) * (c3 * c3)
        )
        assert c1 * c5 == rhs


def _alpha_ints(table):
    return tuple((i, j, a.numerator, a.denominator) for (i, j), a in table.items() if a)


def _scrambled(table):
    """The table with alpha_{i,j} = (i + 2j - 5) / (ij + 1): its sum does not
    vanish, so every term shows in it, and alpha_{1,2} = 0 drops a term."""
    entries = {(i, j): Fraction(i + 2 * j - 5, i * j + 1) for i, j in index_pairs(table.r)}
    return SyzygyTable(table.d, table.r, entries)


class TestSharedPackSum:
    """`_syzygy_sum` packs each combinant once for every order it meets;
    it must equal the per-term kernel sum and the `Fraction` sum exactly."""

    @pytest.mark.parametrize("d", range(5, 21))
    def test_matches_per_term_and_fraction_sums(self, d):
        seq = combinant_sequence(random_pencil(d, 40 + d, 10**6))
        for r in range(3, (d + 1) // 2 + 1):
            table = syzygy_table(d, r)
            assert _alphas(d, r) == _alpha_ints(table)
            for t in (table, _scrambled(table)):
                for skip in (None, (1, r)):
                    got = _syzygy_sum(d, r, _alpha_ints(t), seq, skip)
                    want = syzygy_sum_by_terms(t, seq, skip)
                    assert (got._nums, got._den) == (want._nums, want._den)
                    assert got == syzygy_sum_by_fractions(seq, t, skip)
                    assert got.order == 4 * (d - r)

    def test_empty_sum_is_the_zero_form_of_its_order(self):
        seq = combinant_sequence(random_pencil(9, 5))
        for alphas, skip in (((), None), (((1, 4, 5, 2),), (1, 4))):
            got = _syzygy_sum(9, 4, alphas, seq, skip)
            assert got.is_zero() and got.order == 20

    def test_alphas_are_kept_and_the_public_table_is_not(self):
        assert _alphas(16, 8) is _alphas(16, 8)
        table = syzygy_table(7, 3)
        table.entries[(1, 3)] = Fraction(0)
        assert syzygy_table(7, 3).alpha(1, 3) == 2 * theta(7, 3, 1, 3)
        pencil = random_pencil(7, 1)
        assert evaluate_syzygy(pencil, 3).is_zero()
        assert recover_combinant(pencil, 3) == pencil.combinant(3)


def _non_integer_forms(d):
    """Order-d forms whose coefficients are p/q with 2 <= q <= 12, some not integers."""
    coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(2, 12))
    forms = st.lists(coeff, min_size=d + 1, max_size=d + 1)
    return forms.filter(lambda cs: any(c.denominator > 1 for c in cs)).map(
        lambda cs: BinaryForm(d, cs)
    )


rational_pencil_forms = st.integers(3, 12).flatmap(
    lambda d: st.tuples(_non_integer_forms(d), _non_integer_forms(d))
)


class TestIntegerPipelineMatchesFractionOracle:
    """The integer syzygy pipeline against the `Fraction` arithmetic it replaced.

    The benchmark and most tests use integer pencils; these pencils have
    non-integer rational coefficients, so every denominator, content and
    scale in the integer bookkeeping is exercised.
    """

    @settings(max_examples=60, deadline=None)
    @given(rational_pencil_forms)
    @example((
        BinaryForm(12, [Fraction(k - 6, k % 5 + 2) for k in range(13)]),
        BinaryForm(12, [Fraction(7 - 2 * k, 3 * (k % 4) + 2) for k in range(13)]),
    ))
    @example((
        BinaryForm(5, [Fraction(1, 2), 0, 0, 0, 0, 0]),
        BinaryForm(5, [0, 0, 0, 0, 0, Fraction(-3, 7)]),
    ))
    # C3 of this pencil is the zero form.
    @example((
        BinaryForm(3, [0, 0, 0, Fraction(1, 2)]),
        BinaryForm(3, [0, 0, Fraction(1, 2), 0]),
    ))
    def test_pipeline(self, forms):
        a, b = forms
        try:
            pencil = Pencil(a, b)
        except DegeneratePencilError:
            return
        d = pencil.order
        seq = combinant_sequence(pencil)
        for r in range(3, (d + 1) // 2 + 1):
            zero = evaluate_syzygy(pencil, r)
            assert zero == evaluate_syzygy_by_fractions(seq, r)
            assert zero.is_zero() and zero.order == 4 * (d - r)
            expected = recover_by_fractions(seq, r)
            assert expected == seq[r - 1]
            assert recover_combinant(Pencil(a, b), r) == expected

        product = a * seq[1]
        assert exact_divide(product, a) == exact_divide_by_fractions(product, a) == seq[1]
        if seq[1].is_zero():
            with pytest.raises(ZeroDivisionError):
                exact_divide(product, seq[1])
        else:
            assert exact_divide(product, seq[1]) == a
        # a divides x1^n only if a is c*x1^d, and x2^n only if a is c*x2^d.
        n = product.order
        stray = BinaryForm.monomial(n, 0 if any(a.coeffs[1:]) else n, Fraction(1, 3))
        for divide in (exact_divide, exact_divide_by_fractions):
            with pytest.raises(NotDivisibleError):
                divide(product + stray, a)


class TestGamma:
    def test_boundary_is_two_over_r(self):
        for r in range(3, 11):
            assert gamma(r, 2 * r - 1) == Fraction(2, r)

    def test_value_at_three_seven(self):
        assert gamma(3, 7) == Fraction(11, 21)

    def test_strictly_decreasing_in_d(self):
        for r in range(3, 9):
            values = [gamma(r, d) for d in range(2 * r - 1, 41)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_below_one(self):
        for r in range(3, 13):
            for d in range(2 * r - 1, 51):
                assert gamma(r, d) < 1

    def test_range_checks(self):
        with pytest.raises(ValueError):
            gamma(2, 10)
        with pytest.raises(ValueError):
            gamma(3, 4)


class TestPositivityCertificate:
    def test_factorization_both_ways(self):
        cert = positivity_certificate(3, 7)
        assert cert.dn_difference == cert.dn_factored == 2 * 1 * 5 * (7 - 6 + 3)

    def test_boundary_order(self):
        cert = positivity_certificate(3, 5)
        assert cert.dn_factored == 2 * 1 * 5 * 2
        assert cert.boundary_value == Fraction(2, 3)

    def test_grid(self):
        for r in range(3, 13):
            for d in range(2 * r - 1, 51, 7):
                cert = positivity_certificate(r, d)
                assert cert.gamma < 1
                assert cert.dn_difference == cert.dn_factored > 0

    def test_r_two_rejected(self):
        with pytest.raises(ValueError):
            positivity_certificate(2, 5)

    def test_gamma_not_below_one_is_refused(self, monkeypatch):
        monkeypatch.setattr(syzygy_module, "gamma", lambda r, d: Fraction(1))
        with pytest.raises(FormulaViolationError, match=r"^gamma\(r=3, d=9\) = 1 is not below 1$"):
            positivity_certificate(3, 9)

    def test_wrong_boundary_value_is_refused(self, monkeypatch):
        real = syzygy_module.gamma
        monkeypatch.setattr(
            syzygy_module, "gamma", lambda r, d: real(r, d) + (Fraction(1, 9) if d == 2 * r - 1 else 0)
        )
        with pytest.raises(FormulaViolationError, match=r"^boundary value gamma\(3,5\) != 2/3$"):
            positivity_certificate(3, 9)


class TestSyzygySpaceDim:
    def test_degree_seven_values(self):
        assert syzygy_space_dim(7, 1) == 0
        assert syzygy_space_dim(7, 2) == 0
        assert syzygy_space_dim(7, 3) == 1
        assert syzygy_space_dim(7, 4) == 1

    def test_existence_across_grid(self):
        for d in range(5, 31):
            for r in range(3, (d + 1) // 2 + 1):
                assert syzygy_space_dim(d, r) >= 1

    def test_low_weights_empty(self):
        for d in range(5, 20):
            assert syzygy_space_dim(d, 1) == 0
            assert syzygy_space_dim(d, 2) == 0

    def test_matches_subset_enumeration(self):
        for d in range(4, 30):
            dims = [syzygy_space_dim(d, r) for r in range(1, (d + 1) // 2 + 1)]
            assert dims == enumerated_syzygy_dims(d), d

    def test_matches_gaussian_binomial(self):
        for d in range(4, 200):
            top = max(2 * ((d + 1) // 2) - 6, 0)
            counts = gaussian_binomial_head(d + 1, 4, top)
            for r in range(1, (d + 1) // 2 + 1):
                k = 2 * r - 6
                expected = 0 if k < 0 else counts[k] - (counts[k - 1] if k else 0)
                assert syzygy_space_dim(d, r) == expected, (d, r)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            syzygy_space_dim(3, 1)
        with pytest.raises(ValueError):
            syzygy_space_dim(7, 5)


# Every entry point of the (d, r, i, j) range checks, called as (d, r, i, j).
INDEX_ENTRY_POINTS = {
    "theta": theta,
    "c_constants": c_constants,
    "c_aggregate": c_aggregate,
    "omega_chain": omega_chain,
    "verify_theta": verify_theta,
    "beta_chain": lambda d, r, i, j: beta_chain(zeta_image(5, 3), d, r, i, j),
    "combinant_9j_array": combinant_9j_array,
}
# Every entry point of the (d, r) check alone, called as (d, r).
WEIGHT_ENTRY_POINTS = {
    "SyzygyTable": lambda d, r: SyzygyTable(d, r, {}),
    "syzygy_table": syzygy_table,
    "gamma": lambda d, r: gamma(r, d),
    "positivity_certificate": lambda d, r: positivity_certificate(r, d),
    "zeta_image": zeta_image,
    **{name: lambda d, r, f=f: f(d, r, 1, 1) for name, f in INDEX_ENTRY_POINTS.items()},
}
# Every entry point that refuses a d or r that is not an int.  The weight
# range of `syzygy_space_dim` starts at r = 1, so its range message differs.
INT_WEIGHT_ENTRY_POINTS = {**WEIGHT_ENTRY_POINTS, "syzygy_space_dim": syzygy_space_dim}


class TestRangeChecks:
    @pytest.mark.parametrize("name", sorted(WEIGHT_ENTRY_POINTS))
    def test_one_weight_message(self, name):
        message = "r must be in 3..3, got 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            WEIGHT_ENTRY_POINTS[name](6, 4)

    # Below d = 5 the range 3..(d+1)//2 of r is empty: whatever r is, the
    # message names d, not an empty range of r.
    @pytest.mark.parametrize("name", sorted(WEIGHT_ENTRY_POINTS))
    @pytest.mark.parametrize("r", [3, 9])
    def test_small_d_is_named_first(self, name, r):
        with pytest.raises(ValueError, match=re.escape("d must be at least 5, got 4")):
            WEIGHT_ENTRY_POINTS[name](4, r)

    @pytest.mark.parametrize("name", sorted(INDEX_ENTRY_POINTS))
    def test_one_index_message(self, name):
        message = "j must be in 1..2, got 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            INDEX_ENTRY_POINTS[name](6, 3, 2, 3)

    # A float or a bool is refused, not read as the int it equals: 7.0 and
    # True hash like 7 and 1 in the caches keyed by these arguments.
    @pytest.mark.parametrize("name", sorted(INT_WEIGHT_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "args, message",
        [
            ((7.0, 3), "d must be an int, got 7.0"),
            ((7, 3.0), "r must be an int, got 3.0"),
            ((True, 3), "d must be an int, got True"),
            ((7, True), "r must be an int, got True"),
        ],
    )
    def test_weight_arguments_must_be_ints(self, name, args, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            INT_WEIGHT_ENTRY_POINTS[name](*args)

    @pytest.mark.parametrize("name", sorted(INDEX_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "args, message",
        [
            ((7, 3, 1.0, 1), "i must be an int, got 1.0"),
            ((7, 3, 1, 2.0), "j must be an int, got 2.0"),
            ((7, 3, True, 1), "i must be an int, got True"),
            ((7, 3, 1, True), "j must be an int, got True"),
        ],
    )
    def test_index_arguments_must_be_ints(self, name, args, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            INDEX_ENTRY_POINTS[name](*args)

    # True and 1.0 equal 1, so the key set alone would match and re-key them.
    @pytest.mark.parametrize("key, message", [((True, True), "i must be an int, got True"),
                                              ((1.0, 1), "i must be an int, got 1.0"),
                                              ((1, True), "j must be an int, got True")])
    def test_table_keys_must_be_ints(self, key, message):
        entries = {key: 1, (1, 2): 0, (2, 2): 0, (1, 3): 0}
        with pytest.raises(TypeError, match=re.escape(message)):
            SyzygyTable(5, 3, entries)

    # The key count is compared before any pair is built: with the pair
    # builder failing on a huge r, a regression fails here instead of
    # allocating pairs until it is stopped.
    def test_table_counts_keys_before_building_pairs(self, monkeypatch):
        def bounded_pairs(r):
            assert r <= 10**6, "index_pairs built for a huge r"
            return index_pairs(r)

        monkeypatch.setattr("pencils.syzygy.index_pairs", bounded_pairs)
        message = "entry keys do not match the weight-2r index set"
        with pytest.raises(ValueError, match=re.escape(message)):
            SyzygyTable(10**5000, 10**30, {})
        with pytest.raises(ValueError, match=re.escape(message)):
            SyzygyTable(7, 3, {(1, 1): 0, (1, 2): 0, (2, 2): 0, (2, 3): 0})
