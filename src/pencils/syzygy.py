"""Closed-form quadratic syzygies between the combinants of a pencil.

For every weight 2r with 3 <= r <= floor((d+1)/2) there is an identically
vanishing combination

    sum over (i, j)  alpha_{i,j} * (C_{2i-1}, C_{2j-1})_{2(r-i-j+1)}  =  0,

quantified over 1 <= i <= j <= r with i+j <= r+1.  The coefficients come
from the explicit `theta` formula below; since the (1, r) term is
C_1 * C_{2r-1} up to the positive factor alpha_{1,r}, the identity recovers
C_{2r-1} from the earlier combinants by one exact division.  A table is one
integer pass over that formula: one list of factorials, the factors every
entry shares formed once, and one `Fraction` per entry.

Both run in integers.  Each combinant, and each transvectant of two of
them, is a form of integer numerators over one denominator.  The whole sum
is one weighted sum of the transvectant kernel `_transvectants`, with a
term (C_{2i-1}, C_{2j-1})_q of weight alpha_{i,j} for each pair: the kernel
packs each combinant once for all the orders it meets and keeps the
integer accumulator over the lcm of the terms' denominators itself, so
the sum is unpacked once and this module keeps no loop.  Recovery divides
that sum by C_1 with `exact_divide`, where Gauss's lemma makes every
quotient step an exact `//`, and scales the quotient by -1/alpha_{1,r}.

The module also computes the ratio `gamma` controlling positivity of
alpha_{1,r}, its telescoping certificate, and the dimension of the space of
weight-2r syzygies by weight multiplicity counting.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import mul

from .combinant import Pencil
from .errors import FormulaViolationError
from .forms import BinaryForm, _check_range, exact_divide, to_fraction
from .transvectant import _transvectants


def _check_weight(d: int, r: int) -> None:
    """3 <= r <= (d+1)/2, so d >= 5; a smaller d is named before r."""
    _check_range("d", d, 5)
    _check_range("r", r, 3, (d + 1) // 2)


def _check_indices(d: int, r: int, i: int, j: int) -> None:
    """1 <= i, j <= r with i + j <= r + 1: the bound on j carries the sum."""
    _check_weight(d, r)
    _check_range("i", i, 1, r)
    _check_range("j", j, 1, r + 1 - i)


def theta(d: int, r: int, i: int, j: int) -> Fraction:
    """Coefficient of the (C_{2i-1}, C_{2j-1}) term before symmetrization.

    Value: delta_{i,1}*delta_{j,r} + delta_{i,r}*delta_{j,1} - 8*N1/N2, with

      N1 = (2di + 2dj - dr - 2i^2 - 2j^2 - 2d + 3i + 3j - 2)
           * d! (d-1)! (2r-1)! (2d-4i+3)! (2d-4j+3)!
      N2 = (2i-1)! (2j-1)! (d-2i+1)! (d-2j+1)!
           * (2d-2i+2)! (2d-2j+2)! (2r-2i-2j+2)!

    Symmetric in i and j; i > j is allowed.
    """
    _check_indices(d, r, i, j)
    ((num, den),) = _theta_ratios(d, r, ((i, j),), factorial)
    return Fraction(num, den)


def _theta_ratios(d: int, r: int, pairs, fact):
    """`theta(d, r, i, j)` for each (i, j) of `pairs`, as an unreduced
    (numerator, denominator) pair of ints, with fact(n) = n!; unchecked.

    The one implementation of the formula: 8 d! (d-1)! (2r-1)! is shared by
    every pair, so it is formed once.
    """
    shared = 8 * fact(d) * fact(d - 1) * fact(2 * r - 1)
    for i, j in pairs:
        head = 2 * d * i + 2 * d * j - d * r - 2 * i * i - 2 * j * j - 2 * d + 3 * i + 3 * j - 2
        n1 = head * shared * fact(2 * d - 4 * i + 3) * fact(2 * d - 4 * j + 3)
        n2 = (
            fact(2 * i - 1)
            * fact(2 * j - 1)
            * fact(d - 2 * i + 1)
            * fact(d - 2 * j + 1)
            * fact(2 * d - 2 * i + 2)
            * fact(2 * d - 2 * j + 2)
            * fact(2 * r - 2 * i - 2 * j + 2)
        )
        delta = int(i == 1 and j == r) + int(i == r and j == 1)
        yield delta * n2 - n1, n2


def index_pairs(r: int) -> list[tuple[int, int]]:
    """Ordered index set {(i,j): 1 <= i <= j <= r, i+j <= r+1} of a weight-2r table."""
    _check_range("r", r, 1)
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i, r + 2 - i)]
    pairs.sort(key=lambda p: (p[0] + p[1], p[1]))
    return pairs


class SyzygyTable:
    """Symmetrized coefficients alpha_{i,j} of the weight-2r syzygy at order d."""

    __slots__ = ("d", "r", "entries")

    def __init__(self, d: int, r: int, entries: dict):
        _check_weight(d, r)
        # The index set has (r+1)^2 // 4 pairs; counting first keeps a huge
        # r from building them.
        if len(entries) != (r + 1) ** 2 // 4 or set(entries) != set(index_pairs(r)):
            raise ValueError("entry keys do not match the weight-2r index set")
        for i, j in entries:  # True and 1.0 equal 1, so the match lets them in
            _check_range("i", i)
            _check_range("j", j)
        self.d = d
        self.r = r
        self.entries = {key: to_fraction(entries[key]) for key in index_pairs(r)}

    @classmethod
    def _raw(cls, d: int, r: int, entries: dict) -> "SyzygyTable":
        # Internal fast path: `entries` maps `index_pairs(r)`, in its order,
        # to Fractions and becomes the table's own dict, with no check.
        obj = object.__new__(cls)
        obj.d = d
        obj.r = r
        obj.entries = entries
        return obj

    def alpha(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        return self.entries[(i, j)]

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        if not isinstance(other, SyzygyTable):
            return NotImplemented
        return (self.d, self.r, self.entries) == (other.d, other.r, other.entries)

    def __repr__(self):
        return f"SyzygyTable(d={self.d}, r={self.r}, {self.entries})"


def syzygy_table(d: int, r: int) -> SyzygyTable:
    """alpha_{i,j} = theta_{i,j}, doubled off the diagonal where (i,j) and (j,i) merge.

    One integer pass: every factorial comes from one list of 0! .. (2d)!,
    and each entry is reduced once, as one `Fraction`.
    """
    _check_weight(d, r)
    fact = list(accumulate(range(1, 2 * d + 1), mul, initial=1))
    pairs = index_pairs(r)
    entries = {
        (i, j): Fraction(num if i == j else 2 * num, den)
        for (i, j), (num, den) in zip(pairs, _theta_ratios(d, r, pairs, fact.__getitem__))
    }
    if entries[(1, r)] <= 0:
        raise FormulaViolationError(f"alpha(1,{r}) is not positive at d={d}")
    return SyzygyTable._raw(d, r, entries)


@lru_cache(maxsize=256)
def _alphas(d: int, r: int) -> tuple:
    """The nonzero alpha_{i,j} of `syzygy_table(d, r)` as (i, j, numerator, denominator).

    Kept per (d, r) as an immutable tuple; `syzygy_table` checks that
    alpha_{1,r} is positive, and raises before anything is kept.
    """
    return tuple(
        (i, j, alpha.numerator, alpha.denominator)
        for (i, j), alpha in syzygy_table(d, r).items()
        if alpha
    )


def _syzygy_sum(d: int, r: int, alphas, combinants, skip=None) -> BinaryForm:
    """sum alpha_{i,j} (C_{2i-1}, C_{2j-1})_{2(r-i-j+1)} over `alphas` but `skip`.

    `alphas` is `_alphas(d, r)` and `combinants[i-1]` is C_{2i-1}; the sum
    is one weighted sum of the transvectant kernel.
    """
    terms = [(i - 1, j - 1, 2 * (r - i - j + 1), p, a) for i, j, p, a in alphas if (i, j) != skip]
    if not terms:
        return BinaryForm.zero(4 * (d - r))
    return BinaryForm._raw(*_transvectants(combinants, (terms,))[0])


def evaluate_syzygy(pencil: Pencil, r: int) -> BinaryForm:
    """The weight-2r syzygy combination for this pencil: always the zero form.

    Returned explicitly (order 4(d-r)) so callers can assert the vanishing.
    """
    d = pencil.order
    return _syzygy_sum(d, r, _alphas(d, r), pencil.combinants(r))


def recover_combinant(pencil: Pencil, r: int) -> BinaryForm:
    """Reconstruct C_{2r-1} from the earlier combinants via the weight-2r syzygy.

    The (1, r) term of the syzygy is alpha_{1,r} * C_1 * C_{2r-1}; moving the
    rest, S, across and dividing exactly by C_1 isolates
    C_{2r-1} = -S / (alpha_{1,r} C_1).  The result always equals the direct
    transvectant (A, B)_{2r-1}.  Only C_1 .. C_{2r-3} are computed.
    """
    d = pencil.order
    alphas = _alphas(d, r)
    p, a = next((p, a) for i, j, p, a in alphas if (i, j) == (1, r))
    combinants = pencil.combinants(r - 1)
    rest = _syzygy_sum(d, r, alphas, combinants, skip=(1, r))
    return exact_divide(rest, combinants[0]) * Fraction(-a, p)


def gamma(r: int, d: int) -> Fraction:
    """4*(dr - 2r^2 + 3r - 1) * (d-1)! (2d-4r+3)! / ((d-2r+1)! (2d-2r+2)!).

    Strictly below 1 on r >= 3, d >= 2r - 1; equals 1 - theta(d, r, 1, r).
    """
    _check_weight(d, r)
    head = 4 * (d * r - 2 * r * r + 3 * r - 1)
    return Fraction(
        head * factorial(d - 1) * factorial(2 * d - 4 * r + 3),
        factorial(d - 2 * r + 1) * factorial(2 * d - 2 * r + 2),
    )


PositivityCertificate = namedtuple(
    "PositivityCertificate", "r d gamma boundary_value dn_difference dn_factored"
)
PositivityCertificate.__doc__ = """Exact witnesses that gamma(r, d) < 1, hence alpha_{1,r} > 0.

`dn_difference` is D - N computed from the two displayed products in the
ratio gamma(r, d+1)/gamma(r, d) = N/D; `dn_factored` is the closed form
(r-1)(r-2)(2r-1)(d-2r+3).  The two must agree, and gamma must sit below
its boundary value gamma(r, 2r-1) = 2/r once d > 2r-1.
"""


def positivity_certificate(r: int, d: int) -> PositivityCertificate:
    """Build and check the telescoping certificate for gamma(r, d) < 1.

    `gamma` refuses (r, d) outside the weight range.
    """
    g = gamma(r, d)
    boundary = gamma(r, 2 * r - 1)
    n_val = d * (d * r + 4 * r - 2 * r * r - 1) * (2 * d - 4 * r + 5)
    d_val = (d * r - 2 * r * r + 3 * r - 1) * (2 * d - 2 * r + 3) * (d - r + 2)
    difference = Fraction(d_val - n_val)
    factored = Fraction((r - 1) * (r - 2) * (2 * r - 1) * (d - 2 * r + 3))
    if difference != factored:
        raise FormulaViolationError(
            f"D-N factorization failed at r={r}, d={d}: {difference} != {factored}"
        )
    if not g < 1:
        raise FormulaViolationError(f"gamma(r={r}, d={d}) = {g} is not below 1")
    if boundary != Fraction(2, r):
        raise FormulaViolationError(f"boundary value gamma({r},{2 * r - 1}) != 2/{r}")
    return PositivityCertificate(r, d, g, boundary, difference, factored)


def syzygy_space_dim(d: int, r: int) -> int:
    """Dimension of the space of weight-2r quadratic syzygies at order d.

    Counted as the multiplicity of the order-4(d-r) irreducible inside the
    fourth exterior power of the order-d space: the number of 4-element
    exponent subsets of {0..d} with index sum 2r, minus the number with
    index sum 2r-1.  Those counts are the coefficients of q^(2r-6) and
    q^(2r-7) in the Gaussian binomial [d+1 choose 4]_q.

    The bound d never binds: a subset with index sum at most 2r has its
    largest index at most 2r - 3 <= d - 2, because the other three sum to
    at least 0+1+2 and 2r <= d+1.  So the two counts are the numbers of
    partitions of 2r-6 and 2r-7 into at most four parts, and their
    difference counts the partitions of 2r-6 into parts 2, 3 and 4.  The
    3s come in pairs, so halving gives the partitions of r-3 into parts
    1, 2 and 3, whose number is the integer nearest (r-3+3)^2/12, that is
    (r*r + 6) // 12.  This is 0 for r = 1, 2, where no syzygy exists.
    """
    _check_range("d", d, 4)
    _check_range("r", r, 1, (d + 1) // 2)
    return (r * r + 6) // 12
