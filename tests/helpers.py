"""Shared deterministic generators and small oracles for the test suite."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from pencils.forms import BinaryForm, MultiForm, ZERO_MONOMIAL, slot_index


def random_multiform(pair_degrees: dict, seed: int, bound: int = 4) -> MultiForm:
    """Dense random multihomogeneous form with the given degree per pair."""
    rng = random.Random(seed)
    terms = {}

    def fill(pairs, mono):
        if not pairs:
            c = rng.randint(-bound, bound)
            if c:
                terms[tuple(mono)] = Fraction(c)
            return
        (pair, degree), rest = pairs[0], pairs[1:]
        s = slot_index(pair, 1)
        for k in range(degree + 1):
            nxt = list(mono)
            nxt[s] = degree - k
            nxt[s + 1] = k
            fill(rest, nxt)

    fill(list(pair_degrees.items()), [0] * len(ZERO_MONOMIAL))
    return MultiForm(pair_degrees, terms)


def random_unimodular(seed: int, shears: int = 4):
    """Random integer 2x2 matrix of determinant 1, as nested tuples."""
    rng = random.Random(seed)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(shears):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            # multiply by [[1, k], [0, 1]]
            a, b = a, a * k + b
            c, d = c, c * k + d
        else:
            a, b = a + b * k, b
            c, d = c + d * k, d
    assert a * d - b * c == 1
    return ((a, b), (c, d))


def coefficient_rank(forms) -> int:
    """Rank of the coefficient matrix of the given equal-order forms."""
    rows = [list(f.coeffs) for f in forms]
    rank = 0
    cols = len(rows[0]) if rows else 0
    row_idx = 0
    for col in range(cols):
        pivot = None
        for k in range(row_idx, len(rows)):
            if rows[k][col]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        lead = rows[row_idx][col]
        for k in range(len(rows)):
            if k != row_idx and rows[k][col]:
                factor = rows[k][col] / lead
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[row_idx])]
        row_idx += 1
        rank += 1
        if row_idx == len(rows):
            break
    return rank


def _diff_mixed(form: BinaryForm, d1: int, d2: int) -> BinaryForm:
    out = form
    for _ in range(d1):
        out = out.diff(1)
    for _ in range(d2):
        out = out.diff(2)
    return out


def transvectant_by_derivatives(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """Oracle: the alternating derivative sum with its factorial prefactor.

    (f, g)_q = (m-q)!(n-q)!/(m! n!) * sum_i (-1)^i C(q,i)
    * d^q f/(dx1^(q-i) dx2^i) * d^q g/(dx1^i dx2^(q-i)),
    with each mixed partial built by chained `BinaryForm.diff` over Fractions.
    """
    m, n = f.order, g.order
    if not 0 <= q <= min(m, n):
        raise ValueError(f"transvectant index {q} outside 0..min({m},{n})")
    prefactor = Fraction(
        math.factorial(m - q) * math.factorial(n - q),
        math.factorial(m) * math.factorial(n),
    )
    total = BinaryForm.zero(m + n - 2 * q)
    for i in range(q + 1):
        left = _diff_mixed(f, q - i, i)
        right = _diff_mixed(g, i, q - i)
        sign = -1 if i % 2 else 1
        total = total + (sign * math.comb(q, i)) * (left * right)
    return prefactor * total


def enumerated_syzygy_dims(d: int) -> list[int]:
    """Oracle: syzygy_space_dim(d, r) for r = 1..floor((d+1)/2), by enumeration.

    Counts the 4-element subsets of {0..d} with index sum 2r, minus those
    with sum 2r-1, over every subset.
    """
    sums = [0] * (4 * d)
    for subset in combinations(range(d + 1), 4):
        sums[sum(subset)] += 1
    return [sums[2 * r] - sums[2 * r - 1] for r in range(1, (d + 1) // 2 + 1)]
