"""Differential-operator machinery: operator lemmas, the constructed
alternating form, the projection chain, and the coefficient oracle."""
import importlib
import random
import re
from fractions import Fraction
from math import factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencils import (
    BinaryForm,
    FormulaViolationError,
    LinearSymbol,
    MultiForm,
    beta_chain,
    c_aggregate,
    c_constants,
    h_factor,
    mu_factor,
    omega,
    omega_chain,
    theta,
    transvectant,
    verify_theta,
    zeta_image,
)
from pencils.omega import (
    _PAIR_INDEX,
    _SUMMANDS,
    ZERO_MONOMIAL,
    _contracted,
    _factor_terms,
    _power_terms,
    _proportionality,
    _stage_three_matrix,
    _stages_one_two,
    _weights,
    bracket,
    linear_power,
    slot_index,
    zeta_summand,
)

from helpers import (
    factors_by_products,
    pair_matrix,
    proportionality_by_fractions,
    random_multiform,
    stage_three_by_omega,
    tuple_zeta_image,
    tuple_zeta_summand,
    uv_form_of,
)

# `pencils.omega` is the operator; this is the module that defines it.
omega_module = importlib.import_module("pencils.omega")
F12 = LinearSymbol(1, 2)
# The two symbols of the benchmark's oracle-chain workload.
CHAIN_SYMBOLS = (F12, LinearSymbol(2, -3))
# Those two, a symbol of 4-bit numerators and denominators (the bit cap of
# `pencils oracle-theta --f`) and one whose powers have a single term.
FUSED_SYMBOLS = CHAIN_SYMBOLS + (LinearSymbol.parse("15/13,11/9"), LinearSymbol(0, 1))
ZETA_SUMMANDS = ("xyzw", "xzyw", "xwyz", "ywxz", "zwxy", "zyxw")
# (sign, pairs) of the summands of `zeta_image` whose factors each hold one
# pair of stage one (x, y) and one of stage two (z, w).
SPLIT_SUMMANDS = [(sign, pairs) for sign, pairs in _SUMMANDS if pairs not in ("xyzw", "zwxy")]


def chain_pairs(r):
    return [(i, j) for i in range(1, r + 1) for j in range(1, r + 2 - i)]


def merged(form, p, q, n, to):
    """omega_{pq}^n on a built form, then p,q merged into `to`."""
    return omega(form, p, q, n).substituted(p, q, to)


def contracted_stages(form, i, j):
    """Stages one and two of `beta_chain`, without their h factors."""
    return merged(merged(form, "x", "y", 2 * i - 1, "u"), "z", "w", 2 * j - 1, "v")


def uv_monomial(u1, u2, v1, v2):
    """The exponent tuple of u1^u1 u2^u2 v1^v1 v2^v2."""
    mono = [0] * len(ZERO_MONOMIAL)
    slots = (("u", 1), ("u", 2), ("v", 1), ("v", 2))
    for (pair, component), e in zip(slots, (u1, u2, v1, v2)):
        mono[slot_index(pair, component)] = e
    return tuple(mono)


def stage_three_degrees(d, i, j):
    """The degrees in u and v of the form stage three takes at (d, i, j)."""
    return 2 * (d - 2 * i + 1), 2 * (d - 2 * j + 1)


@st.composite
def stage_three_inputs(draw):
    """(d, r, i, j, form): a sparse rational form over u and v, possibly zero,
    of the degrees stage three takes at a drawn (d, r, i, j) with i != j."""
    d = draw(st.integers(5, 12))
    r = draw(st.integers(3, (d + 1) // 2))
    i, j = draw(st.sampled_from([(i, j) for i, j in chain_pairs(r) if i != j]))
    du, dv = stage_three_degrees(d, i, j)
    cells = st.tuples(st.integers(0, du), st.integers(0, dv))
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    terms = draw(st.dictionaries(cells, values, max_size=12))
    form = MultiForm(
        {"u": du, "v": dv},
        {uv_monomial(du - s, s, dv - t, t): c for (s, t), c in terms.items()},
    )
    return d, r, i, j, form


def fused_stages(d, r, i, j, f):
    """`_stages_one_two` as the form over u and v that its matrix holds."""
    return uv_form_of(*_stages_one_two(d, r, i, j, f))


FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def proportionality_inputs(draw):
    """(output, reference, proportional): a reference with a nonzero
    coefficient and an output that is a multiple of it, zero included, or
    that multiple with one coefficient off by one away from the reference's
    first nonzero one, or with one coefficient more."""
    coeffs = draw(st.lists(st.just(Fraction(0)) | FRACTIONS, min_size=1, max_size=9).filter(any))
    pivot = next(k for k, c in enumerate(coeffs) if c)
    multiple = draw(st.just(Fraction(0)) | FRACTIONS)
    out = [multiple * c for c in coeffs]
    others = [k for k in range(len(coeffs)) if k != pivot]
    kind = draw(st.sampled_from(["multiple", "order"] + (["off by one"] if others else [])))
    if kind == "off by one":
        out[draw(st.sampled_from(others))] += 1
    elif kind == "order":
        out.append(draw(FRACTIONS))
    reference = BinaryForm(len(coeffs) - 1, coeffs)
    return BinaryForm(len(out) - 1, out), reference, kind == "multiple"


def om_pow(form, n, p1="x", p2="y"):
    for _ in range(n):
        form = omega(form, p1, p2)
    return form


def swap_pairs(form, p1, p2):
    s1, s2 = 2 * _PAIR_INDEX[p1], 2 * _PAIR_INDEX[p2]
    terms = {}
    for mono, c in form.terms.items():
        swapped = list(mono)
        swapped[s1], swapped[s1 + 1] = mono[s2], mono[s2 + 1]
        swapped[s2], swapped[s2 + 1] = mono[s1], mono[s1 + 1]
        terms[tuple(swapped)] = c
    degrees = dict(form.degrees)
    degrees[p1], degrees[p2] = degrees.get(p2, 0), degrees.get(p1, 0)
    return MultiForm(degrees, terms)


class TestOmegaBasics:
    def test_on_bracket(self):
        assert omega(bracket("x", "y"), "x", "y") == MultiForm.constant(2)

    def test_kills_symmetric_monomial(self):
        mono = list(ZERO_MONOMIAL)
        mono[slot_index("x", 1)] = mono[slot_index("y", 1)] = 1
        m = MultiForm({"x": 1, "y": 1}, {tuple(mono): 1})
        assert omega(m, "x", "y").is_zero()

    def test_contraction_of_two_brackets(self):
        product = bracket("x", "u") * bracket("y", "v")
        assert omega(product, "x", "y") == bracket("u", "v")

    def test_same_pair_rejected(self):
        with pytest.raises(ValueError):
            omega(MultiForm.constant(1), "x", "x")


class TestBracket:
    def test_antisymmetry(self):
        assert bracket("x", "y") == -1 * bracket("y", "x")

    def test_same_pair_rejected(self):
        with pytest.raises(ValueError):
            bracket("z", "z")

    def test_vanishes_under_merging_substitution(self):
        assert bracket("x", "y").substituted("x", "y", "u").is_zero()


class TestSubstitution:
    def test_merges_linear_powers(self):
        f = linear_power(F12, "x", 2) * linear_power(F12, "y", 3)
        assert f.substituted("x", "y", "u") == linear_power(F12, "u", 5)

    def test_commutes_with_disjoint_operator(self):
        for seed in range(8):
            g = random_multiform({"x": 2, "y": 2, "z": 2, "w": 2}, 60_000 + seed, 3)
            left = omega(g, "z", "w").substituted("x", "y", "u")
            right = omega(g.substituted("x", "y", "u"), "z", "w")
            assert left == right

    def test_disjoint_operators_commute(self):
        g = random_multiform({"x": 2, "y": 2, "z": 2, "w": 2}, 61_000, 3)
        assert omega(omega(g, "x", "y"), "z", "w") == omega(omega(g, "z", "w"), "x", "y")


class TestScalarFactors:
    def test_h_small_values(self):
        for d in (3, 5, 9):
            assert h_factor(d, d, 1) == Fraction(1, 2 * d)
        assert h_factor(4, 6, 0) == 1

    def test_h_range(self):
        with pytest.raises(ValueError):
            h_factor(2, 3, 4)

    def test_mu_small_values(self):
        assert mu_factor(5, 7, 3, 0) == 1
        for p, q in ((2, 2), (3, 5)):
            assert mu_factor(p, q, 1, 1) == p + q + 2

    def test_mu_range(self):
        with pytest.raises(ValueError):
            mu_factor(3, 3, 1, 2)

    def test_two_stage_normalization_cancels(self):
        for d, r in ((5, 3), (7, 3), (7, 4), (9, 4)):
            product = (
                h_factor(d, d, 2 * r - 1)
                * h_factor(d, d, 1)
                * mu_factor(d - 2 * r + 1, d - 2 * r + 1, 2 * r - 1, 2 * r - 1)
                * mu_factor(d - 1, d - 1, 1, 1)
            )
            assert product == 1


class TestOperatorLemmas:
    def test_single_application_rewrite(self):
        # omega (xy)^m G = m(p+q+m+1)(xy)^{m-1} G + (xy)^m omega G
        br = bracket("x", "y")
        for seed in range(50):
            rng = random.Random(10_000 + seed)
            p, q, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 3)
            g = random_multiform({"x": p, "y": q}, seed)
            lhs = omega(br**m * g, "x", "y")
            rhs = (m * (p + q + m + 1)) * (br ** (m - 1) * g) + br**m * omega(g, "x", "y")
            assert lhs == rhs

    def test_iterated_application_rewrite(self):
        # omega^l (xy) G = l(p+q-l+3) omega^{l-1} G + (xy) omega^l G
        br = bracket("x", "y")
        for seed in range(50):
            rng = random.Random(20_000 + seed)
            p, q, ell = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            g = random_multiform({"x": p, "y": q}, 777 + seed)
            lhs = om_pow(br * g, ell)
            rhs = (ell * (p + q - ell + 3)) * om_pow(g, ell - 1) + br * om_pow(g, ell)
            assert lhs == rhs

    def test_substituted_collapse_with_mu(self):
        # [omega^l (xy)^m G]_{x,y->u} equals mu(p,q;l,m) [omega^{l-m} G]_{x,y->u}
        # when l >= m, and vanishes when l < m.
        br = bracket("x", "y")
        for seed in range(50):
            rng = random.Random(30_000 + seed)
            p, q = rng.randint(0, 4), rng.randint(0, 4)
            ell, m = rng.randint(0, 4), rng.randint(0, 3)
            g = random_multiform({"x": p, "y": q}, 999 + seed)
            lhs = om_pow(br**m * g, ell).substituted("x", "y", "u")
            if ell < m:
                assert lhs.is_zero()
                continue
            base = om_pow(g, ell - m).substituted("x", "y", "u")
            rhs = base if base.is_zero() else mu_factor(p, q, ell, m) * base
            assert lhs == rhs


class TestZetaImage:
    def test_alternating_in_adjacent_pairs(self):
        z = zeta_image(5, 3, F12)
        assert swap_pairs(z, "x", "y") == -1 * z
        assert swap_pairs(z, "z", "w") == -1 * z

    def test_invariant_under_block_swap(self):
        z = zeta_image(5, 3, F12)
        assert swap_pairs(swap_pairs(z, "x", "z"), "y", "w") == z

    def test_degrees(self):
        z = zeta_image(7, 3, F12)
        assert all(z.degree(p) == 7 for p in "xyzw")
        assert z.is_homogeneous()

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    @pytest.mark.parametrize("symbol", ["1,2", "2,-3", "1/2,-3/5", "0,1", "3,0"])
    def test_matches_tuple_oracle(self, d, symbol):
        r = (d + 1) // 2  # the top weight: 3 at d = 5, 6 and 4 at d = 7, 8
        f = LinearSymbol.parse(symbol)
        z = zeta_image(d, r, f)
        expected = tuple_zeta_image(d, r, f)
        assert z.terms == expected
        assert z == MultiForm(z.degrees, expected)
        assert z.degrees == {"x": d, "y": d, "z": d, "w": d}

    @pytest.mark.parametrize("pairs", ["xyzw", "zyxw", "utxv", "wvzx"])
    @pytest.mark.parametrize("symbol", ["1/2,-3/5", "3,0"])
    def test_summand_matches_tuple_oracle(self, pairs, symbol):
        f = LinearSymbol.parse(symbol)
        z = zeta_summand(6, 3, *pairs, f)
        expected = tuple_zeta_summand(6, 3, *pairs, f)
        assert z.terms == expected
        assert z == MultiForm(z.degrees, expected)
        assert z.degrees == dict.fromkeys(pairs, 6)

    def test_summand_needs_distinct_pairs(self):
        with pytest.raises(ValueError):
            zeta_summand(5, 3, "x", "y", "x", "w", F12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            zeta_image(5, 2, F12)
        with pytest.raises(ValueError):
            zeta_image(5, 4, F12)


class TestBetaChain:
    def test_straight_summand_hits_reference_at_corner(self):
        d, r = 5, 3
        summand = zeta_summand(d, r, "x", "y", "z", "w", F12)
        reference = BinaryForm.of_linear_power(F12, 4 * (d - r))
        assert beta_chain(summand, d, r, 1, r) == reference

    def test_straight_summand_dies_elsewhere(self):
        d, r = 5, 3
        summand = zeta_summand(d, r, "x", "y", "z", "w", F12)
        for i, j in ((1, 1), (1, 2), (2, 2), (2, 1), (3, 1)):
            assert beta_chain(summand, d, r, i, j).is_zero()

    def test_reversed_summand_mirrors_corner(self):
        d, r = 5, 3
        summand = zeta_summand(d, r, "z", "w", "x", "y", F12)
        reference = BinaryForm.of_linear_power(F12, 4 * (d - r))
        assert beta_chain(summand, d, r, r, 1) == reference
        assert beta_chain(summand, d, r, 1, r).is_zero()

    def test_full_image_gives_coefficients(self):
        d, r = 5, 3
        z = zeta_image(d, r, F12)
        reference = BinaryForm.of_linear_power(F12, 4 * (d - r))
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i + j > r + 1:
                    continue
                assert beta_chain(z, d, r, i, j) == theta(d, r, i, j) * reference

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            beta_chain(MultiForm.constant(1), 5, 3, 1, 1)

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_crossed_summand_matches_aggregate(self, d):
        # Acceptance criterion 8's identity, on both symbols of the
        # benchmark's oracle-chain workload and one degree more.
        for f in CHAIN_SYMBOLS:
            for r in range(3, (d + 1) // 2 + 1):
                crossed = zeta_summand(d, r, "x", "w", "y", "z", f)
                reference = BinaryForm.of_linear_power(f, 4 * (d - r))
                for i, j in chain_pairs(r):
                    expected = c_aggregate(d, r, i, j) * reference
                    assert beta_chain(crossed, d, r, i, j) == expected, (d, r, i, j, f)

    @pytest.mark.parametrize("f", FUSED_SYMBOLS, ids=str)
    def test_reference_shares_no_fused_kernel(self, f, monkeypatch):
        # The reference route must hold the fused chain to account, so it
        # may not reach any kernel of that chain.
        def fused_kernel(*args):
            raise AssertionError("the reference route reached a fused-chain kernel")

        for name in ("_weights", "_stage_three_matrix", "_factor_terms", "_contracted"):
            monkeypatch.setattr(omega_module, name, fused_kernel)
        d, r = 7, 3
        image = zeta_image(d, r, f)
        reference = BinaryForm.of_linear_power(f, 4 * (d - r))
        for i, j in chain_pairs(r):
            assert beta_chain(image, d, r, i, j) == theta(d, r, i, j) * reference, (i, j)


class TestFusedStages:
    """Stages one and two on the factors G and H, against the same stages
    applied by `omega` and `substituted` to the built summands and image."""

    @pytest.mark.parametrize("pairs", ZETA_SUMMANDS)
    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_summand_matches_contracted_product(self, pairs, d):
        # Each summand's part of `_stages_one_two`.  xyzw and zwxy are the
        # outer products of G and H, each contracted on its own; each split
        # summand, times its sign, is a quarter of what the fused stages
        # hold besides those two.
        sign = dict((p, s) for s, p in _SUMMANDS)[pairs]
        for f in FUSED_SYMBOLS:
            for r in range(3, (d + 1) // 2 + 1):
                g, h = factors_by_products(d, r, f)
                summand = zeta_summand(d, r, *pairs, f)
                for i, j in chain_pairs(r):
                    n, m = 2 * i - 1, 2 * j - 1
                    outer = {
                        "xyzw": merged(g, "x", "y", n, "u") * merged(h, "x", "y", m, "v"),
                        "zwxy": merged(h, "x", "y", n, "u") * merged(g, "x", "y", m, "v"),
                    }
                    expected = contracted_stages(summand, i, j)
                    if pairs in outer:
                        part = outer[pairs]
                    else:
                        rest = fused_stages(d, r, i, j, f) - outer["xyzw"] - outer["zwxy"]
                        part = rest * Fraction(sign, 4)
                    assert part == expected, (pairs, d, r, i, j, f)
                    assert part.degrees == expected.degrees

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_split_summands_give_one_form(self, d):
        # The alternation that lets `_stages_one_two` contract one split
        # summand for all four, pinned on the reference path alone.
        assert len(SPLIT_SUMMANDS) == 4
        for f in FUSED_SYMBOLS:
            for r in range(3, (d + 1) // 2 + 1):
                summands = [
                    (sign, zeta_summand(d, r, *pairs, f)) for sign, pairs in SPLIT_SUMMANDS
                ]
                for i, j in chain_pairs(r):
                    staged = [sign * contracted_stages(form, i, j) for sign, form in summands]
                    assert all(form == staged[0] for form in staged[1:]), (d, r, i, j, f)

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_matches_contracted_image(self, d):
        for f in FUSED_SYMBOLS:
            for r in range(3, (d + 1) // 2 + 1):
                image = zeta_image(d, r, f)
                for i, j in chain_pairs(r):
                    expected = contracted_stages(image, i, j)
                    fused = fused_stages(d, r, i, j, f)
                    assert fused == expected, (d, r, i, j, f)
                    assert fused.degrees == expected.degrees

    @pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 10])
    def test_chain_matches_beta_chain_on_image(self, d):
        for f in FUSED_SYMBOLS:
            for r in range(3, (d + 1) // 2 + 1):
                image = zeta_image(d, r, f)
                for i, j in chain_pairs(r):
                    expected = beta_chain(image, d, r, i, j)
                    output = _stage_three_matrix(*_stages_one_two(d, r, i, j, f), d, r, i, j)
                    assert output == expected, (d, r, i, j, f)

    @pytest.mark.parametrize("check", [omega_chain, verify_theta])
    def test_weight_out_of_range_message(self, check):
        message = "r must be in 3..3, got 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            check(6, 4, 1, 1)

    @pytest.mark.parametrize("check", [omega_chain, verify_theta])
    def test_indices_out_of_range_message(self, check):
        message = "j must be in 1..2, got 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            check(6, 3, 2, 3)


class TestWeightTables:
    @staticmethod
    def cell(dp, dq, n, k, l):
        return sum(factor for _, factor in _power_terms(dp - k, k, dq - l, l, n))

    @pytest.mark.parametrize("dp", range(13))
    def test_cells_are_power_term_sums(self, dp):
        for dq in range(13):
            for n in range(min(dp, dq) + 1):
                w = _weights(dp, dq, n)
                assert type(w) is tuple and all(type(row) is tuple for row in w)
                expected = [
                    [self.cell(dp, dq, n, k, l) for l in range(dq + 1)] for k in range(dp + 1)
                ]
                assert [list(row) for row in w] == expected, (dp, dq, n)

    def test_odd_power_antisymmetric(self):
        for d in range(13):
            for n in range(1, d + 1, 2):
                w = _weights(d, d, n)
                assert all(
                    w[l][k] == -w[k][l] for k in range(d + 1) for l in range(d + 1)
                ), (d, n)

    def test_cache_is_bounded(self):
        assert _weights.cache_info().maxsize is not None

    @pytest.mark.parametrize("dp, dq, n", [(64, 60, 11), (40, 17, 9), (36, 36, 35), (30, 0, 0)])
    def test_sampled_cells_at_larger_sizes(self, dp, dq, n):
        # Both edges of the band where the merged exponents k + l - n and
        # dp + dq - k - l - n are nonnegative, and cells drawn anywhere.
        w = _weights(dp, dq, n)
        assert len(w) == dp + 1 and all(len(row) == dq + 1 for row in w)
        cells = {
            (k, l) for k in range(dp + 1) for l in range(dq + 1) if k + l in (n, dp + dq - n)
        }
        rng = random.Random(dp * 10_000 + dq * 100 + n)
        cells |= {(rng.randint(0, dp), rng.randint(0, dq)) for _ in range(200)}
        for k, l in sorted(cells):
            assert w[k][l] == self.cell(dp, dq, n, k, l), (k, l)


    def test_contraction_is_a_scaled_transvectant(self):
        # The chain's pair contraction and the transvectant kernel share no
        # code: omega^n then the merge is perm(dp, n) perm(dq, n) times the
        # n-th transvectant of the two forms.
        rng = random.Random(26)
        for dp in range(9):
            for dq in range(9):
                for n in range(min(dp, dq) + 1):
                    a = [rng.choice((0, rng.randint(-9, 9))) for _ in range(dp + 1)]
                    b = [rng.choice((0, rng.randint(-9, 9))) for _ in range(dq + 1)]
                    p = [(k, c) for k, c in enumerate(a) if c]
                    q = [(l, c) for l, c in enumerate(b) if c]
                    v = _contracted(p, q, _weights(dp, dq, n), n, dp + dq - 2 * n + 1)
                    expected = transvectant(BinaryForm(dp, a), BinaryForm(dq, b), n).coeffs
                    assert v == [perm(dp, n) * perm(dq, n) * c for c in expected], (dp, dq, n)


class TestFactorTerms:
    """The signed outer products of the chain's G and H against the
    `MultiForm` factors of `zeta_image`, read as matrices of fractions."""

    # The numerators of the powers of 2/3 x1 + 4/9 x2 share the factor 3
    # with their denominators, and those of x1 have a single term.
    SYMBOLS = FUSED_SYMBOLS + (LinearSymbol(1, 0), LinearSymbol.parse("2/3,4/9"))

    @pytest.mark.parametrize("d", range(5, 13))
    def test_match_multiform_factors(self, d):
        for f in self.SYMBOLS:
            for r in range(1, (d + 1) // 2 + 1):
                pairs = zip(_factor_terms(d, r, f), factors_by_products(d, r, f), (2, 2 * r))
                for (terms, den), form, count in pairs:
                    assert len(terms) == count, (d, r, f)
                    matrix = [[0] * (d + 1) for _ in range(d + 1)]
                    for p, q in terms:
                        assert all(c for _, c in p) and all(c for _, c in q), (d, r, f)
                        for k, a in p:
                            for l, b in q:
                                matrix[k][l] += a * b
                    expected = pair_matrix(form, "x", "y")
                    for row, expected_row in zip(matrix, expected):
                        assert [Fraction(c, den) for c in row] == [
                            Fraction(c, form._den) for c in expected_row
                        ], (d, r, f)


class TestProportionality:
    """The integer cross-multiplication check against the `Fraction` route."""

    @settings(max_examples=300, deadline=None)
    @given(proportionality_inputs())
    @example((BinaryForm.zero(4), BinaryForm.of_linear_power(F12, 4), True))
    @example((BinaryForm(2, [1, 5, 4]), BinaryForm(2, [1, 4, 4]), False))
    @example((BinaryForm(2, [1, 2, 2]), BinaryForm(2, [0, 1, 1]), False))
    @example((BinaryForm(2, [0, 0, 3]), BinaryForm(1, [0, 1]), False))
    def test_matches_fraction_route(self, case):
        output, reference, proportional = case
        results = []
        for route in (_proportionality, proportionality_by_fractions):
            try:
                results.append(route(output, reference))
            except FormulaViolationError:
                results.append(None)
        assert results[0] == results[1]
        assert (results[0] is not None) == proportional
        if proportional:
            assert output == results[0] * reference


class TestStageThree:
    """The table-based stage three against omega_uv, the merge into t and
    the h factors on the form over u and v.  BinaryForm equality compares
    the order, `_den` and the numerators."""

    @pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 10])
    def test_matches_omega_route_on_chain(self, d):
        for f in FUSED_SYMBOLS:
            for r in range(3, (d + 1) // 2 + 1):
                for i, j in chain_pairs(r):
                    out, den = _stages_one_two(d, r, i, j, f)
                    expected = stage_three_by_omega(uv_form_of(out, den), d, r, i, j)
                    assert _stage_three_matrix(out, den, d, r, i, j) == expected, (d, r, i, j, f)

    @settings(max_examples=150, deadline=None)
    @given(stage_three_inputs())
    def test_matches_omega_route_on_drawn_forms(self, case):
        d, r, i, j, uv_form = case
        out = pair_matrix(uv_form, "u", "v")
        expected = stage_three_by_omega(uv_form, d, r, i, j)
        assert _stage_three_matrix(out, uv_form._den, d, r, i, j) == expected

    @pytest.mark.parametrize("d, r, i, j", [(5, 3, 1, 2), (8, 4, 3, 1), (9, 5, 5, 1)])
    def test_zero_form(self, d, r, i, j):
        du, dv = stage_three_degrees(d, i, j)
        zero = MultiForm({"u": du, "v": dv}, {})
        out = _stage_three_matrix(pair_matrix(zero, "u", "v"), 1, d, r, i, j)
        assert out.is_zero() and out.order == du + dv - 4 * (r - i - j + 1)
        assert out == stage_three_by_omega(zero, d, r, i, j)


class TestCConstants:
    def test_unconditional_form_matches_direct_form(self):
        for d in (5, 6, 7, 9):
            for r in range(3, (d + 1) // 2 + 1):
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        if i + j > r + 1:
                            continue
                        c = c_constants(d, r, i, j)
                        if 2 * i <= d:
                            direct = Fraction(
                                factorial(d - 1) * factorial(2 * r - 1),
                                factorial(d - 2 * i) * factorial(2 * r - 2 * i),
                            )
                            assert c.c3 == direct
                        else:
                            assert c.c3 == 0

    def test_indices_out_of_range_message(self):
        message = "j must be in 1..2, got 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            c_constants(6, 3, 2, 3)

    def test_boundary_vanishing(self):
        # i = r = (d+1)/2 makes the d-2i+1 factor vanish.
        assert c_constants(7, 4, 4, 1).c3 == 0

    def test_crossed_summand_aggregate_identity(self):
        for d in (5, 6):
            for r in range(3, (d + 1) // 2 + 1):
                reference = BinaryForm.of_linear_power(F12, 4 * (d - r))
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        if i + j > r + 1:
                            continue
                        summand = zeta_summand(d, r, "x", "w", "y", "z", F12)
                        lhs = beta_chain(summand, d, r, i, j)
                        assert lhs == c_aggregate(d, r, i, j) * reference


class TestVerifyTheta:
    def test_degree_five_full_grid(self):
        for i in range(1, 4):
            for j in range(1, 4):
                if i + j > 4:
                    continue
                assert verify_theta(5, 3, i, j) == theta(5, 3, i, j)

    @pytest.mark.parametrize("d", range(9, 19))
    def test_whole_grid(self, d):
        # Above d = 12 on the symbol of 4-bit numerators and denominators.
        f = F12 if d <= 12 else FUSED_SYMBOLS[2]
        for r in range(3, (d + 1) // 2 + 1):
            for i, j in chain_pairs(r):
                assert verify_theta(d, r, i, j, f) == theta(d, r, i, j), (d, r, i, j)

    def test_two_symbols_same_ratio(self):
        first = omega_chain(5, 3, 2, 2, LinearSymbol(1, 2))
        second = omega_chain(5, 3, 2, 2, LinearSymbol(2, -3))
        assert first == second == theta(5, 3, 2, 2)

    def test_degree_seven_matches_known_row(self):
        f = LinearSymbol(1, 3)
        expected = {
            (1, 1): Fraction(10),
            (1, 2): Fraction(-40, 11),
            (2, 2): Fraction(-175, 121),
            (1, 3): Fraction(10, 21),
        }
        for (i, j), value in expected.items():
            assert omega_chain(7, 3, i, j, f) == value

    def test_wrong_closed_form_is_refused(self, monkeypatch):
        real = omega_module.theta
        monkeypatch.setattr(omega_module, "theta", lambda d, r, i, j: real(d, r, i, j) + 1)
        with pytest.raises(FormulaViolationError, match=re.escape(
            "chain eigenvalue -175/121 != closed form -54/121 at d=7, r=3, (i,j)=(2,2)"
        )):
            verify_theta(7, 3, 2, 2)

    def test_mismatch_raises(self):
        with pytest.raises(FormulaViolationError):
            # Feeding a wrong reference through the private check.
            _proportionality(
                BinaryForm(1, [1, 1]), BinaryForm.of_linear_power(F12, 1)
            )
