"""Pencil and combinant contracts: invariance, Wronskian, membership defect."""
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from pencils import (
    BinaryForm,
    DegeneratePencilError,
    DegreeMismatchError,
    Pencil,
    combinant_sequence,
    membership_defect,
    random_form,
    random_pencil,
    transvectant,
    wronskian,
)

from helpers import coefficient_rank


def test_cubic_powers_example():
    a = BinaryForm.monomial(3, 0)  # x1^3
    b = BinaryForm.monomial(3, 3)  # x2^3
    seq = combinant_sequence(Pencil(a, b))
    assert seq[0] == BinaryForm.monomial(4, 2)  # x1^2 x2^2
    assert seq[1] == BinaryForm(0, [1])


def test_dependent_forms_rejected():
    a = random_form(4, 1)
    with pytest.raises(DegeneratePencilError):
        Pencil(a, 3 * a)


def test_order_mismatch_rejected():
    with pytest.raises(DegreeMismatchError):
        Pencil(random_form(3, 1), random_form(4, 1))


def test_combinant_orders_at_degree_seven():
    seq = combinant_sequence(random_pencil(7, 2))
    assert [c.order for c in seq] == [12, 8, 4, 0]


def test_invariance_under_pencil_change_of_basis():
    pencil = random_pencil(6, 4)
    rng = random.Random(17)
    for _ in range(5):
        a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        det = a * d - b * c
        if not det:
            continue
        new_a = a * pencil.a + b * pencil.b
        new_b = c * pencil.a + d * pencil.b
        for r in range(1, pencil.max_combinant_index() + 1):
            q = 2 * r - 1
            assert transvectant(new_a, new_b, q) == det * pencil.combinant(r)


def test_swapping_members_negates_every_combinant():
    pencil = random_pencil(7, 5)
    swapped = Pencil(pencil.b, pencil.a)
    for r in range(1, pencil.max_combinant_index() + 1):
        assert swapped.combinant(r) == -1 * pencil.combinant(r)


def test_combinants_match_the_transvectants():
    pencil = random_pencil(9, 4)
    kept = pencil.combinants(pencil.max_combinant_index())
    for r, c in enumerate(kept, start=1):
        assert c == transvectant(pencil.a, pencil.b, 2 * r - 1)
        assert c.order == 2 * pencil.order - 4 * r + 2
        assert pencil.combinant(r) == c
    for count in (0, pencil.max_combinant_index() + 1):
        with pytest.raises(ValueError):
            pencil.combinants(count)
        with pytest.raises(ValueError):
            pencil.combinant(count)


@pytest.mark.parametrize("index", [True, 2.0])
def test_combinant_index_must_be_an_int(index):
    # True is not read as 1, nor 2.0 as 2.
    pencil = random_pencil(7, 1)
    message = re.escape(f"count must be an int, got {index!r}")
    with pytest.raises(TypeError, match=message):
        pencil.combinants(index)
    with pytest.raises(TypeError, match=message):
        pencil.combinant(index)


@pytest.mark.parametrize("d", [3, 8, 13])
def test_combinants_extended_step_by_step_match_one_call(d):
    a, b = random_pencil(d, 50 + d, 10**6).a, random_pencil(d, 60 + d, 10**6).b
    top = (d + 1) // 2
    whole = Pencil(a, b).combinants(top)
    pencil = Pencil(a, b)
    for count in (1, 2, top):
        kept = pencil.combinants(count)
    assert [(c._nums, c._den) for c in kept] == [(c._nums, c._den) for c in whole]
    for r, c in enumerate(whole, start=1):
        assert c == transvectant(a, b, 2 * r - 1)


def test_combinants_shared_between_threads():
    # Threads extend one pencil's kept combinants to different lengths at
    # once; a lost or doubled extension would misplace an entry.
    a, b = random_pencil(13, 2).a, random_pencil(13, 3).b
    expected = Pencil(a, b).combinants(7)
    workers = 6
    for _ in range(10):
        pencil = Pencil(a, b)
        barrier = threading.Barrier(workers)
        seen, errors = [], []

        def work(k):
            try:
                barrier.wait(timeout=30)
                for count in (7 - k % 2, k, 1, 7):
                    seen.append((count, pencil.combinants(count)))
            except Exception as exc:  # reported below, after the join
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers + 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(seen) == 4 * workers
        for count, kept in seen:
            assert kept == expected[:count]
        assert pencil.combinants(7) == expected
        assert len(pencil._combinants) == 7  # each combinant kept once


class TestWronskian:
    def test_member_rows_vanish(self):
        pencil = random_pencil(5, 6)
        assert wronskian(pencil, pencil.a).is_zero()
        combo = 3 * pencil.a - 5 * pencil.b
        assert wronskian(pencil, combo).is_zero()

    def test_outside_forms_detected(self):
        pencil = random_pencil(5, 7)
        found = 0
        for seed in range(10):
            f = random_form(5, 300 + seed)
            if coefficient_rank([pencil.a, pencil.b, f]) == 3:
                assert not wronskian(pencil, f).is_zero()
                found += 1
        assert found >= 8

    def test_order_checks(self):
        pencil = random_pencil(5, 8)
        w = wronskian(pencil, random_form(5, 9))
        assert w.order == 3 * (5 - 2)
        with pytest.raises(DegreeMismatchError):
            wronskian(pencil, random_form(4, 9))


class TestMembershipDefect:
    def test_members_vanish(self):
        pencil = random_pencil(7, 10)
        assert membership_defect(pencil, pencil.a).is_zero()
        rng = random.Random(3)
        for _ in range(10):
            a, b = Fraction(rng.randint(-7, 7)), Fraction(rng.randint(-7, 7))
            if not a and not b:
                continue
            assert membership_defect(pencil, a * pencil.a + b * pencil.b).is_zero()

    def test_non_members_detected(self):
        pencil = random_pencil(5, 11)
        for seed in range(10):
            f = random_form(5, 400 + seed)
            if coefficient_rank([pencil.a, pencil.b, f]) == 3:
                assert not membership_defect(pencil, f).is_zero()

    def test_verdict_matches_wronskian(self):
        for d in (4, 5, 7):
            pencil = random_pencil(d, 12)
            for seed in range(15):
                f = random_form(d, 500 + seed)
                assert wronskian(pencil, f).is_zero() == membership_defect(pencil, f).is_zero()

    def test_needs_order_three(self):
        pencil = random_pencil(2, 13)
        with pytest.raises(ValueError):
            membership_defect(pencil, random_form(2, 1))

    def test_output_order(self):
        pencil = random_pencil(6, 14)
        assert membership_defect(pencil, random_form(6, 2)).order == 3 * 6 - 6


def test_random_pencil_deterministic_and_valid():
    p1 = random_pencil(7, 42)
    p2 = random_pencil(7, 42)
    assert p1.a == p2.a and p1.b == p2.b
    assert not transvectant(p1.a, p1.b, 1).is_zero()
