"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every comparison is exact rational (or surd) equality; the only
tolerances are the stated runtime budgets.
"""
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pencils import (
    LinearSymbol,
    NineJArray,
    SurdSum,
    beta_chain,
    c_aggregate,
    combinant_9j_array,
    combinant_sequence,
    evaluate_syzygy,
    gamma,
    membership_defect,
    mu_factor,
    ninej_magnetic_sum,
    omega,
    positivity_certificate,
    random_form,
    random_pencil,
    recover_combinant,
    syzygy_space_dim,
    syzygy_table,
    theta,
    transvectant,
    verify_theta,
    wigner9j,
    wronskian,
)
from pencils.forms import BinaryForm
from pencils.omega import bracket, zeta_summand

from helpers import coefficient_rank, random_multiform


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {description}: PASS")


def valid_weights(d):
    return range(3, (d + 1) // 2 + 1)


def table_pairs(r):
    return [(i, j) for i in range(1, r + 1) for j in range(i, r + 1) if i + j <= r + 1]


def chain_pairs(r):
    return [(i, j) for i in range(1, r + 1) for j in range(1, r + 1) if i + j <= r + 1]


def test_criterion_01_weight_six_identity_at_degree_seven():
    with criterion(1, "d=7 weight-6 identity on 20 random pencils"):
        start = time.monotonic()
        for seed in range(1, 21):
            pencil = random_pencil(7, seed, 10)
            seq = combinant_sequence(pencil)
            c1, c3, c5 = seq[:3]
            value = (
                c1 * c5
                + Fraction(21, 2) * transvectant(c1, c1, 4)
                - Fraction(84, 11) * transvectant(c1, c3, 2)
                - Fraction(735, 484) * (c3 * c3)
            )
            assert value.is_zero(), f"seed {seed}"
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_weight_eight_identity_at_degree_seven():
    with criterion(2, "d=7 weight-8 identity on 20 random pencils"):
        for seed in range(1, 21):
            pencil = random_pencil(7, seed, 10)
            seq = combinant_sequence(pencil)
            c1, c3, c5, c7 = seq[:4]
            rhs = (
                Fraction(-28) * transvectant(c1, c1, 6)
                - Fraction(210, 11) * transvectant(c1, c3, 4)
                + Fraction(8) * transvectant(c1, c5, 2)
                + Fraction(1960, 121) * transvectant(c3, c3, 2)
                + Fraction(35, 11) * (c3 * c5)
            )
            assert (c1 * c7 - rhs).is_zero(), f"seed {seed}"


def test_criterion_03_coefficient_table_and_bridge():
    with criterion(3, "d=7,r=3 coefficient table and normalization bridge"):
        table = syzygy_table(7, 3)
        assert table.entries == {
            (1, 1): Fraction(10),
            (1, 2): Fraction(-80, 11),
            (2, 2): Fraction(-175, 121),
            (1, 3): Fraction(20, 21),
        }
        # Scaling by 21/20 = 1/alpha(1,3) pins the C1*C5 coefficient at one;
        # the remaining entries must then be the negated identity vector.
        bridge = Fraction(21, 20)
        assert bridge == 1 / table.alpha(1, 3)
        identity_coeffs = {
            (1, 1): Fraction(-21, 2),
            (1, 2): Fraction(84, 11),
            (2, 2): Fraction(735, 484),
        }
        assert bridge * table.alpha(1, 3) == 1
        for key, value in identity_coeffs.items():
            assert bridge * table.entries[key] == -value


def test_criterion_04_theta_boundary_value():
    with criterion(4, "theta(d,r,1,1) = 2(r-2)(2r-1) for d <= 25"):
        for d in range(5, 26):
            for r in valid_weights(d):
                assert theta(d, r, 1, 1) == 2 * (r - 2) * (2 * r - 1)


def test_criterion_05_general_vanishing():
    with criterion(5, "syzygy vanishes for 5 <= d <= 10, all weights, 3 pencils"):
        start = time.monotonic()
        for d in range(5, 11):
            for r in valid_weights(d):
                for seed in (1, 2, 3):
                    pencil = random_pencil(d, seed, 10)
                    value = evaluate_syzygy(pencil, r)
                    assert value.is_zero(), (d, r, seed)
                    assert value.order == 4 * (d - r)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_06_recovery():
    with criterion(6, "recovery equals the direct transvectant, 5 <= d <= 10"):
        for d in range(5, 11):
            for r in valid_weights(d):
                pencil = random_pencil(d, 100 + d + r, 10)
                # exact_divide raising would mean a nonzero remainder.
                recovered = recover_combinant(pencil, r)
                assert recovered == transvectant(pencil.a, pencil.b, 2 * r - 1), (d, r)


def test_criterion_07_oracle_equality():
    with criterion(7, "operator-chain eigenvalue equals theta, d in {5,6,7}"):
        start = time.monotonic()
        symbols = (LinearSymbol(1, 2), LinearSymbol(2, -3))
        for d in (5, 6, 7):
            for r in valid_weights(d):
                for i, j in chain_pairs(r):
                    for f in symbols:
                        assert verify_theta(d, r, i, j, f) == theta(d, r, i, j)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_08_crossed_summand_aggregate():
    with criterion(8, "crossed-summand aggregate identity, d in {5,6,7}"):
        f = LinearSymbol(1, 2)
        for d in (5, 6, 7):
            for r in valid_weights(d):
                reference = BinaryForm.of_linear_power(f, 4 * (d - r))
                for i, j in chain_pairs(r):
                    summand = zeta_summand(d, r, "x", "w", "y", "z", f)
                    assert beta_chain(summand, d, r, i, j) == c_aggregate(
                        d, r, i, j
                    ) * reference, (d, r, i, j)


def test_criterion_09_lemma_suite():
    with criterion(9, "operator lemmas on 50 random instances"):
        br = bracket("x", "y")

        def om_pow(form, n):
            for _ in range(n):
                form = omega(form, "x", "y")
            return form

        for seed in range(50):
            rng = random.Random(40_000 + seed)
            p, q = rng.randint(0, 4), rng.randint(0, 4)
            g = random_multiform({"x": p, "y": q}, 1_000 + seed)
            m = rng.randint(1, 3)
            lhs = omega(br**m * g, "x", "y")
            rhs = (m * (p + q + m + 1)) * (br ** (m - 1) * g) + br**m * omega(g, "x", "y")
            assert lhs == rhs, ("single", seed)
            ell = rng.randint(1, 4)
            lhs = om_pow(br * g, ell)
            rhs = (ell * (p + q - ell + 3)) * om_pow(g, ell - 1) + br * om_pow(g, ell)
            assert lhs == rhs, ("iterated", seed)
            ell, m = rng.randint(0, 4), rng.randint(0, 3)
            lhs = om_pow(br**m * g, ell).substituted("x", "y", "u")
            if ell < m:
                assert lhs.is_zero(), ("vanishing branch", seed)
            else:
                base = om_pow(g, ell - m).substituted("x", "y", "u")
                rhs = base if base.is_zero() else mu_factor(p, q, ell, m) * base
                assert lhs == rhs, ("collapse", seed)


def test_criterion_10_positivity():
    with criterion(10, "positivity certificate over 3 <= r <= 12, d <= 50"):
        for r in range(3, 13):
            assert gamma(r, 2 * r - 1) == Fraction(2, r)
            previous = None
            for d in range(2 * r - 1, 51):
                cert = positivity_certificate(r, d)
                assert cert.gamma < 1
                assert cert.dn_difference == cert.dn_factored
                assert cert.dn_factored == (r - 1) * (r - 2) * (2 * r - 1) * (
                    d - 2 * r + 3
                )
                if previous is not None:
                    assert cert.gamma < previous
                previous = cert.gamma
                assert theta(d, r, 1, r) == 1 - cert.gamma


def test_criterion_11_dimension_counts():
    with criterion(11, "syzygy space dimensions"):
        assert syzygy_space_dim(7, 1) == 0
        assert syzygy_space_dim(7, 2) == 0
        assert syzygy_space_dim(7, 3) == 1
        assert syzygy_space_dim(7, 4) == 1
        for d in range(5, 31):
            for r in valid_weights(d):
                assert syzygy_space_dim(d, r) >= 1, (d, r)


def test_criterion_12_ninej_checks():
    with criterion(12, "9j equivalence, selection rules, and contraction oracle"):
        for d in (5, 6, 7):
            for r in valid_weights(d):
                for i, j in chain_pairs(r):
                    base, permuted = combinant_9j_array(d, r, i, j)
                    assert wigner9j(base) == wigner9j(permuted), (d, r, i, j)
        zeros = NineJArray.from_twice([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert wigner9j(zeros) == SurdSum.from_rational(1)
        violating = NineJArray.from_twice([[2, 2, 8], [2, 2, 2], [2, 2, 2]])
        assert wigner9j(violating).is_zero()
        for twice in itertools.product(range(4), repeat=9):
            arr = NineJArray.from_twice([twice[0:3], twice[3:6], twice[6:9]])
            assert wigner9j(arr) == ninej_magnetic_sum(arr), twice


def test_criterion_13_membership_identity():
    with criterion(13, "membership defect against the Wronskian at d in {4,5,7}"):
        for d in (4, 5, 7):
            pencil = random_pencil(d, 7, 10)
            rng = random.Random(d)
            members = 0
            while members < 50:
                a = Fraction(rng.randint(-9, 9))
                b = Fraction(rng.randint(-9, 9))
                if not a and not b:
                    continue
                form = a * pencil.a + b * pencil.b
                assert membership_defect(pencil, form).is_zero()
                assert wronskian(pencil, form).is_zero()
                members += 1
            outsiders = 0
            seed = 0
            while outsiders < 50:
                seed += 1
                form = random_form(d, 10_000 * d + seed, 10)
                if coefficient_rank([pencil.a, pencil.b, form]) < 3:
                    continue
                defect = membership_defect(pencil, form)
                wron = wronskian(pencil, form)
                assert not defect.is_zero(), (d, seed)
                assert not wron.is_zero(), (d, seed)
                outsiders += 1
