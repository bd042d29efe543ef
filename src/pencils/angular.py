"""Exact Wigner 3j/6j/9j symbols over rational-surd arithmetic.

Every angular momentum j or projection m is passed and kept as the int 2j
or 2m, as the paper indexes each irreducible by its order d = 2j, so every
triangle and phase condition is plain integer arithmetic:
`wigner3j(tj1, tj2, tj3, tm1, tm2, tm3)`, `wigner6j(ta, tb, tc, td, te, tf)`
and `wigner9j(NineJArray.from_twice(rows))` take doubled ints only, and
refuse a bool, a float or a string with `TypeError`; `wigner9j` and
`ninej_magnetic_sum` refuse anything but a `NineJArray` in the same way.
Values are `SurdSum`s: one surd c*sqrt(n), c rational and n squarefree,
so equality tests are decisive.  Each symbol is one surd by construction,
and so is each product of six 3j symbols in the magnetic sum: each
entry's (j+m)!(j-m)! is under the root of its row 3j and of its column
3j, so the product's radicand is that of the six row and column Delta^2
for every m, the single-root form of Johansson & Forssen (SIAM J. Sci.
Comput. 38, 2016).  A sum across radicands raises, so the magnetic sum
also checks that identity.  Selection-rule violations (triangle or
magnetic) are values equal to zero, not errors; only genuinely
non-physical input (negative momenta, mismatched j/m parity) raises.

A 6j symbol is Delta(abc) Delta(aef) Delta(dbf) Delta(dec) times the
Racah sum R, where each triangle coefficient Delta is the square root of a
ratio of factorials.  R is an integer, and the 6j kernel returns it as one
`int`.  The 9j symbol is the single-sum contraction
sum_x (-1)^(2x) (2x+1) {j1 j4 j7; j8 j9 x} {j2 j5 j8; j4 x j6}
{j3 j6 j9; x j1 j2}.  Of the twelve Deltas in each product, the six row and
column triads of the array occur once each and do not depend on x, while
each x-dependent triad (j1 j9 x), (j4 j8 x), (j2 j6 x) occurs in two of the
three 6j symbols, so its two square roots multiply to the rational Delta^2.
So a 9j value is one square root, of the product of the six fixed Delta^2,
times one rational sum over x: a single surd, with no surd arithmetic in
the loop.  The x-sum runs in `int`, in one pass: each term, (2x+1) R1 R2 R3
over the three x-dependent N, is reduced by one gcd (the Racah sums cancel
most of the Delta^2 denominators, which keeps large arrays cheap), then
merged into one running fraction whose denominator is the lcm of those so
far, and one `Fraction` is built per 9j value; the former `Fraction` x-sum
is the test oracle `wigner9j_by_fraction_xsum`.
The 72 orientations of a 9j array (row and column permutations and the
transpose; Varshalovich, Moskalev & Khersonskii, Quantum Theory of Angular
Momentum, 1988, ch. 10) give six distinct x-sums, one per row order.  The
three cyclic row orders keep the value; the three odd ones multiply it by
(-1)^S, S the sum of the nine j, and never reach a shorter x-sum.  The span
of an x-sum, min sum less max |difference| over its three pairs, is the
least of u+v-|w-z| over the pairs (u v) and (w z) of that x-sum, equal or
not, and the 45 linear forms u+v+w-z and u+v-w+z of the cyclic orders are
the 45 of the odd ones.  So `wigner9j` compares the three cyclic spans in
integers, before any 6j, and contracts along the shortest, the shortest of
all six, with no sign; the first of equal spans keeps the given order.
It compares them only once the row and column triads hold, so an array
that fails the selection rules costs no more than before.  A 9j is equal
along every x-sum, so the permuted companion B' of a combinant array is
checked against B by `_ninej_as_given`, the same triad checks and x-sum
kernel run along B' as given: `wigner9j(B')` takes the shortest x-sum of
B', which is that of `wigner9j(B)` or as short, so the check could
compare one contraction with itself.  `combinant_9j_array`
builds its arrays through `NineJArray._raw`, unchecked, as its checked
indices already make every entry a nonnegative int; every other array
comes through the checks of `from_twice`.
Every factorial ratio of the 6j/9j route is a product of binomials.  The
three factorials of a triad's Delta^2 take arguments that sum to its
half-sum s = a+b+c, so Delta^2 = 1/((s+1) C(s, 2c) C(2c, a-b+c)), the
reciprocal of an integer.  Likewise the seven parts of the term t of the
Racah sum sum to t, so that term is (t+1) times a multinomial coefficient:
R is an integer, and its t = lo term is six `math.comb` factors.  So the
route reads no factorial, and the angular layer keeps no state but its
`lru_cache`s.
Each distinct triad's Delta^2 is computed once, as the integer N with
Delta^2 = 1/N (`_triad`).  A triad whose root is taken, such as a row or
column of a 9j array, also keeps the squarefree split of N
(`_triad_root`), by trial division by 2, 3 and the numbers 6k-1 and
6k+1 below `SPLIT_BOUND`, the split that normalizes every `SurdSum`
radicand.  The root of a product of Delta^2 combines those split roots,
two squarefree radicands r and s by g = gcd(r, s) into
g * sqrt((r/g)(s/g)), so no product is ever factored.  The selection
rules are tested inline, in plain integer arithmetic.

An independent brute-force contraction of six 3j symbols over all magnetic
numbers is provided as a cross-check oracle.  It lists each row's and
column's nonzero 3j symbols once, after all six triangle tests pass.  Its
3j symbols alone read `math.factorial`, through `_delta_squared`, so it
reaches neither the binomials nor the triad caches of the 6j route: it
shares only `SurdSum` and its squarefree split with that route.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt

from .forms import _check_range, _shown, to_fraction
from .syzygy import _check_indices

# `_squarefree_split` trial-divides only by factors below this bound: at most
# about 350,000 divisions, 60-100 ms with CPython 3.11.  The integers of
# the 9j route have no prime factor above a triad's s + 1, so no array it
# can sum in practice meets the bound.
SPLIT_BOUND = 2**20


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = outer^2 * radicand with radicand squarefree; n must be positive.

    Trial division stops below SPLIT_BOUND.  What is left of n then has no
    prime factor below the bound, so it is 1 or a prime when it is below
    SPLIT_BOUND**2; above, it is split only if it is a square, and any
    other n raises ValueError.
    """
    given = n
    outer, radicand = 1, 1
    f = 2
    while f * f <= n and f < SPLIT_BOUND:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            outer *= f ** (e // 2)
            if e % 2:
                radicand *= f
        # 2, 3, then only the numbers 6k-1 and 6k+1.
        f += 1 if f == 2 else 4 if f % 6 == 1 else 2
    if f * f <= n:  # stopped at the bound
        root = isqrt(n)
        if root * root != n:
            raise ValueError(
                f"cannot split {_shown(given)} into a square and a squarefree part: "
                f"trial division below SPLIT_BOUND = {SPLIT_BOUND} leaves a part above "
                f"SPLIT_BOUND**2 that is not a square"
            )
        return outer * root, radicand
    if n > 1:
        radicand *= n
    return outer, radicand


_ZERO = Fraction(0)


class SurdSum:
    """Exact surd c*sqrt(n), c rational and n >= 1 squarefree, with zero kept
    as (0, 1).  `SurdSum({n: c, ...})` sums its entries by squarefree
    radicand, which must be an int; it, `+` and `-` refuse two nonzero
    radicands with ValueError.  It and `SurdSum.sqrt` also refuse a
    radicand that `_squarefree_split` cannot split below SPLIT_BOUND."""

    __slots__ = ("_coeff", "_rad")

    def __init__(self, terms: dict | None = None):
        sums: dict[int, Fraction] = {}
        for radicand, coeff in (terms or {}).items():
            # Never read through int(): 2.5 would become 2 and "3" would parse.
            if type(radicand) is not int:
                raise TypeError(f"radicands must be ints, got {_shown(radicand)}")
            coeff = to_fraction(coeff)
            if not coeff:
                continue
            if radicand < 1:
                raise ValueError("radicands must be positive integers")
            outer, rad = _squarefree_split(radicand)
            sums[rad] = sums.get(rad, 0) + coeff * outer
        left = sorted(rad for rad, coeff in sums.items() if coeff)
        if len(left) > 1:
            raise ValueError(f"a SurdSum holds one radicand, got {_shown(left)}")
        self._coeff, self._rad = (sums[left[0]], left[0]) if left else (_ZERO, 1)

    @classmethod
    def _raw(cls, coeff: Fraction, rad: int) -> "SurdSum":
        obj = object.__new__(cls)
        obj._coeff, obj._rad = coeff, rad
        return obj

    @classmethod
    def zero(cls) -> "SurdSum":
        return cls._raw(_ZERO, 1)

    @classmethod
    def from_rational(cls, value) -> "SurdSum":
        return cls._raw(to_fraction(value), 1)

    @classmethod
    def sqrt(cls, value) -> "SurdSum":
        """Exact square root of a nonnegative rational."""
        value = to_fraction(value)
        if value < 0:
            raise ValueError("cannot take the square root of a negative rational")
        if not value:
            return cls.zero()
        outer, rad = _squarefree_split(value.numerator * value.denominator)
        return cls._raw(Fraction(outer, value.denominator), rad)

    @property
    def terms(self) -> dict:
        """{radicand: coefficient}, or {} for zero."""
        return {self._rad: self._coeff} if self._coeff else {}

    def is_zero(self) -> bool:
        return not self._coeff

    def single_term(self) -> tuple[Fraction, int] | None:
        """(coefficient, radicand), or None for zero."""
        return (self._coeff, self._rad) if self._coeff else None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SurdSum.from_rational(other)
        elif not isinstance(other, SurdSum):
            return NotImplemented
        if self._rad == other._rad:
            coeff = self._coeff + other._coeff
            return SurdSum._raw(coeff, self._rad if coeff else 1)
        if not other._coeff:
            return self
        if not self._coeff:
            return other
        radicands = f"{_shown(self._rad)} and {_shown(other._rad)}"
        raise ValueError(f"cannot add surds of radicands {radicands}")

    __radd__ = __add__

    def __neg__(self):
        return SurdSum._raw(-self._coeff, self._rad)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, SurdSum)):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            coeff = self._coeff * to_fraction(other)  # refuses a bool
            return SurdSum._raw(coeff, self._rad if coeff else 1)
        if not isinstance(other, SurdSum):
            return NotImplemented
        r1, r2 = self._rad, other._rad
        g = gcd(r1, r2)
        coeff = self._coeff * other._coeff * g
        return SurdSum._raw(coeff, (r1 // g) * (r2 // g) if coeff else 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / to_fraction(other))
        if not isinstance(other, SurdSum):
            return NotImplemented
        # 1/(c*sqrt(n)) = sqrt(n)/(c*n); a zero c raises ZeroDivisionError.
        return self * SurdSum._raw(Fraction(1) / (other._coeff * other._rad), other._rad)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._rad == 1 and self._coeff == other
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self._coeff == other._coeff and self._rad == other._rad

    def __hash__(self):
        # A rational surd equals its Fraction, so it must hash like one.
        return hash(self._coeff) if self._rad == 1 else hash((self._coeff, self._rad))

    def __str__(self):
        coeff, rad = self._coeff, self._rad
        if rad == 1:
            return str(coeff)
        body = f"sqrt({rad})" if abs(coeff) == 1 else f"{abs(coeff)}*sqrt({rad})"
        return f"-{body}" if coeff < 0 else body

    def __repr__(self):
        return f"SurdSum({self})"


def _twice_str(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def _delta_squared(ta: int, tb: int, tc: int) -> Fraction:
    """(a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)! for a valid triangle."""
    return Fraction(
        factorial((ta + tb - tc) // 2)
        * factorial((ta - tb + tc) // 2)
        * factorial((-ta + tb + tc) // 2),
        factorial((ta + tb + tc) // 2 + 1),
    )


@lru_cache(maxsize=None)
def _triad(ta: int, tb: int, tc: int) -> int:
    """The integer N with Delta^2 = 1/N for a valid triangle: with s the
    half-sum, N = (s+1) s!/((s-ta)! (s-tb)! (s-tc)!), whose three parts sum
    to s, so N = (s+1) C(s, tc) C(tc, s-tb)."""
    s = (ta + tb + tc) >> 1
    return (s + 1) * comb(s, tc) * comb(tc, s - tb)


@lru_cache(maxsize=None)
def _triad_root(ta: int, tb: int, tc: int) -> tuple[int, int, int]:
    """(outer, radicand, den) with the root of the triad's Delta^2 equal to
    outer * sqrt(radicand) / den, radicand squarefree: the root of 1/N is
    sqrt(N)/N.  Kept apart from `_triad`, whose x-dependent triads in a 9j
    sum need no root."""
    n = _triad(ta, tb, tc)
    return (*_squarefree_split(n), n)


def _delta_root(triads) -> tuple[int, int, int]:
    """(outer, radicand, den) with the square root of the product of the
    triads' Delta^2 equal to outer * sqrt(radicand) / den, radicand
    squarefree.

    Two squarefree radicands r and s with g = gcd(r, s) multiply to
    g^2 * (r/g) * (s/g), and (r/g) * (s/g) is squarefree.
    """
    outer = radicand = den = 1
    for ta, tb, tc in triads:
        o, s, d = _triad_root(ta, tb, tc)
        g = gcd(radicand, s)
        outer *= o * g
        radicand = (radicand // g) * (s // g)
        den *= d
    return outer, radicand, den


def _phase(exponent_twice: int) -> int:
    assert exponent_twice % 2 == 0, "phase exponent must be an integer"
    return -1 if (exponent_twice // 2) % 2 else 1


@lru_cache(maxsize=None)
def _wigner3j_tw(tj1, tj2, tj3, tm1, tm2, tm3) -> SurdSum:
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        # m outside the projection lattice of its j; contributes nothing.
        return SurdSum.zero()
    if tm1 + tm2 + tm3 != 0:
        return SurdSum.zero()
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return SurdSum.zero()
    if not _triangle_ok(tj1, tj2, tj3):
        return SurdSum.zero()
    radicand = (
        _delta_squared(tj1, tj2, tj3)
        * factorial((tj1 + tm1) // 2)
        * factorial((tj1 - tm1) // 2)
        * factorial((tj2 + tm2) // 2)
        * factorial((tj2 - tm2) // 2)
        * factorial((tj3 + tm3) // 2)
        * factorial((tj3 - tm3) // 2)
    )
    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    k_max = min(
        (tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    )
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            factorial(k)
            * factorial((tj1 + tj2 - tj3) // 2 - k)
            * factorial((tj1 - tm1) // 2 - k)
            * factorial((tj2 + tm2) // 2 - k)
            * factorial((tj3 - tj2 + tm1) // 2 + k)
            * factorial((tj3 - tj1 - tm2) // 2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, denom)
    if not total:
        return SurdSum.zero()
    return SurdSum.sqrt(radicand) * (_phase(tj1 - tj2 - tm3) * total)


def wigner3j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> SurdSum:
    """Exact 3j symbol (j1 j2 j3; m1 m2 m3) of the doubled momenta 2j and
    2m; zero on any selection-rule violation."""
    for k, (tj, tm) in enumerate(((tj1, tm1), (tj2, tm2), (tj3, tm3)), 1):
        _check_range(f"tj{k}", tj, 0)
        _check_range(f"tm{k}", tm)
        if (tj + tm) % 2:
            raise ValueError(
                f"non-physical parity: 2j={_shown(tj)} and 2m={_shown(tm)} differ mod 2"
            )
    return _wigner3j_tw(tj1, tj2, tj3, tm1, tm2, tm3)


@lru_cache(maxsize=None)
def _wigner6j_tw(ta, tb, tc, td, te, tf) -> int:
    """Racah sum R of {a b c; d e f}: the 6j symbol over the product of the
    square roots of its four triangle coefficients, an `int`.  0 when R is
    zero, which includes a triad that fails the triangle condition.

    R = sum_t (-1)^t (t+1)! / (prod_i (t-alpha_i)! prod_j (beta_j-t)!) over
    alpha = the four triad half-sums and beta = the three quad half-sums.
    The seven parts t-alpha_i and beta_j-t sum to t for every t, as the
    alpha_i and the beta_j both sum to a+b+c+d+e+f, so each term is (t+1)
    times the multinomial coefficient of t over them, and R is an integer.
    Consecutive terms differ by the factor
    -(t+2) prod_j (beta_j-t) / prod_i (t+1-alpha_i), so the sum over its
    t = lo term is num/den by Horner's rule in `int`; that term is six
    binomials, and R = num * term / den divides exactly.
    """
    a1, a2, a3, a4 = ta + tb + tc, ta + te + tf, td + tb + tf, td + te + tc
    if (a1 | a2 | a3 | a4) & 1:
        return 0
    a1, a2, a3, a4 = a1 >> 1, a2 >> 1, a3 >> 1, a4 >> 1
    # A triad x y z with half-sum s is a triangle when each entry is <= s.
    if (
        ta > a1 or tb > a1 or tc > a1
        or ta > a2 or te > a2 or tf > a2
        or td > a3 or tb > a3 or tf > a3
        or td > a4 or te > a4 or tc > a4
    ):
        return 0
    b1 = (ta + tb + td + te) >> 1
    b2 = (tb + tc + te + tf) >> 1
    b3 = (ta + tc + td + tf) >> 1
    # Inline bounds: most sums have one or two terms, whose cost is fixed.
    lo = a1 if a1 > a2 else a2
    lo = lo if lo > a3 else a3
    lo = lo if lo > a4 else a4
    hi = b1 if b1 < b2 else b2
    hi = hi if hi < b3 else b3
    num = den = 1
    for t in range(hi - 1, lo - 1, -1):
        q = (t + 1 - a1) * (t + 1 - a2) * (t + 1 - a3) * (t + 1 - a4)
        num, den = den * q - (t + 2) * (b1 - t) * (b2 - t) * (b3 - t) * num, den * q
    if not num:
        return 0
    # The t = lo term, (lo+1) lo!/prod(parts!): one binomial per part but
    # the last, b3 - lo, which is what remains of lo.
    term, rest = lo + 1, lo
    for part in (lo - a1, lo - a2, lo - a3, lo - a4, b1 - lo, b2 - lo):
        term *= comb(rest, part)
        rest -= part
    return (-num if lo & 1 else num) * term // den


def wigner6j(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> SurdSum:
    """Exact 6j symbol {a b c; d e f} of the doubled momenta 2a, ..., 2f;
    zero on triangle violations."""
    for name, tj in zip(("ta", "tb", "tc", "td", "te", "tf"), (ta, tb, tc, td, te, tf)):
        _check_range(name, tj, 0)
    racah = _wigner6j_tw(ta, tb, tc, td, te, tf)
    if not racah:
        return SurdSum.zero()
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    outer, radicand, den = _delta_root(triads)
    return SurdSum._raw(Fraction(outer * racah, den), radicand)


class NineJArray:
    """A 3x3 array of nonnegative doubled momenta 2j for the 9j symbol,
    kept as a tuple of three int triples.  `from_twice` builds it."""

    __slots__ = ("_twice",)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a NineJArray with NineJArray.from_twice(twice_rows)")

    @classmethod
    def from_twice(cls, twice_rows) -> "NineJArray":
        """The array of three rows of three nonnegative ints, each a 2j."""
        rows = tuple([tuple(row) for row in twice_rows])
        try:
            (a, b, c), (d, e, f), (g, h, i) = rows
        except ValueError:
            raise ValueError("need a 3x3 array") from None
        entries = (a, b, c, d, e, f, g, h, i)
        for v in entries:
            if type(v) is not int:
                raise TypeError(f"array entries must be ints, got {_shown(v)}")
        if min(entries) < 0:
            raise ValueError("array entries must be nonnegative")
        return cls._raw(rows)

    @classmethod
    def _raw(cls, rows) -> "NineJArray":
        # Internal fast path: `rows` is a tuple of three triples of
        # nonnegative ints and becomes the array's own, with no check.
        obj = object.__new__(cls)
        obj._twice = rows
        return obj

    def twice_rows(self) -> tuple:
        return self._twice

    def __eq__(self, other):
        if not isinstance(other, NineJArray):
            return NotImplemented
        return self._twice == other._twice

    def __str__(self):
        return "; ".join(" ".join(map(_twice_str, row)) for row in self._twice)

    def __repr__(self):
        return f"NineJArray({self})"


def wigner9j(array: NineJArray) -> SurdSum:
    """Exact 9j symbol by the single-sum contraction of three 6j symbols,
    taken as one square root times one rational sum over x, along the
    shortest of the array's six x-sums.

    Zero whenever any row or column triad fails the triangle condition.
    """
    if not isinstance(array, NineJArray):
        raise TypeError(f"array must be a NineJArray, got {_shown(array)}")
    rows = array._twice
    if not _triads_hold(rows):
        return SurdSum.zero()
    (a, b, c), (d, e, f), (g, h, i) = rows
    # Rows P, Q, R bound x by the pairs (P1 R3), (Q1 R2), (P2 Q3), so x
    # runs from max |difference| to min sum; one span per cyclic row order.
    spans = (
        min(a + i, d + h, b + f) - max(abs(a - i), abs(d - h), abs(b - f)),
        min(d + c, g + b, e + i) - max(abs(d - c), abs(g - b), abs(e - i)),
        min(g + f, a + e, h + c) - max(abs(g - f), abs(a - e), abs(h - c)),
    )
    k = spans.index(min(spans))
    return _xsum(rows[k:] + rows[:k])


def _ninej_as_given(rows) -> SurdSum:
    """The 9j symbol of the three rows of doubled ints, summed over x along
    the array as given.  Called only where a second contraction is wanted:
    to check B against B'."""
    return _xsum(rows) if _triads_hold(rows) else SurdSum.zero()


def _triads_hold(rows) -> bool:
    """Whether each row and column of the array is a triangle of doubled
    ints with an even sum."""
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = rows
    # The row sums s1, s2, s3 and column sums s4, s5, s6, halved once even.
    s1, s2, s3 = tj1 + tj2 + tj3, tj4 + tj5 + tj6, tj7 + tj8 + tj9
    s4, s5, s6 = tj1 + tj4 + tj7, tj2 + tj5 + tj8, tj3 + tj6 + tj9
    # Even sums also give the x-pairs (j1 j9), (j4 j8), (j2 j6) one parity:
    # tj1 + tj9 + tj4 + tj8 = s4 + s3 - 2 tj7, tj1 + tj9 + tj2 + tj6 = s1 + s6 - 2 tj3.
    if (s1 | s2 | s3 | s4 | s5 | s6) & 1:
        return False
    s1, s2, s3, s4, s5, s6 = s1 >> 1, s2 >> 1, s3 >> 1, s4 >> 1, s5 >> 1, s6 >> 1
    return not (
        tj1 > s1 or tj2 > s1 or tj3 > s1
        or tj4 > s2 or tj5 > s2 or tj6 > s2
        or tj7 > s3 or tj8 > s3 or tj9 > s3
        or tj1 > s4 or tj4 > s4 or tj7 > s4
        or tj2 > s5 or tj5 > s5 or tj8 > s5
        or tj3 > s6 or tj6 > s6 or tj9 > s6
    )


def _xsum(rows) -> SurdSum:
    """The x-sum kernel: the 9j symbol of rows whose triads hold, summed
    over x along the array as given."""
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = rows
    tx_min = max(abs(tj1 - tj9), abs(tj4 - tj8), abs(tj2 - tj6))
    tx_max = min(tj1 + tj9, tj4 + tj8, tj2 + tj6)
    # The running sum total/common, with common the lcm of the terms'
    # denominators so far.
    total, common = 0, 1
    for tx in range(tx_min, tx_max + 1, 2):
        r1 = _wigner6j_tw(tj1, tj4, tj7, tj8, tj9, tx)
        r2 = r1 and _wigner6j_tw(tj2, tj5, tj8, tj4, tx, tj6)
        r3 = r2 and _wigner6j_tw(tj3, tj6, tj9, tx, tj1, tj2)
        if not r3:
            continue
        # The x-dependent triads' square roots pair up across the three 6j,
        # each into its Delta^2 = 1/N.
        num = (-(tx + 1) if tx % 2 else tx + 1) * r1 * r2 * r3
        den = _triad(tj1, tj9, tx) * _triad(tj4, tj8, tx) * _triad(tj2, tj6, tx)
        g = gcd(num, den)
        num, den = num // g, den // g
        g = gcd(common, den)
        total = total * (den // g) + num * (common // g)
        common = common // g * den
    if not total:
        return SurdSum.zero()
    outer, radicand, den = _delta_root((*rows, *zip(*rows)))
    return SurdSum._raw(Fraction(outer * total, den * common), radicand)


def _nonzero_3j(tj1: int, tj2: int, tj3: int) -> dict:
    """{(2m1, 2m2): value} over the nonzero 3j symbols (j1 j2 j3; m1 m2 m3),
    with m3 = -m1 - m2."""
    values = {}
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(max(-tj2, -tj3 - tm1), min(tj2, tj3 - tm1) + 1, 2):
            value = _wigner3j_tw(tj1, tj2, tj3, tm1, tm2, -tm1 - tm2)
            if not value.is_zero():
                values[tm1, tm2] = value
    return values


def ninej_magnetic_sum(array: NineJArray) -> SurdSum:
    """Brute-force 9j value: sum over all magnetic numbers of the product of
    the three row 3j symbols and the three column 3j symbols.

    Zero before any 3j symbol is listed when a row or column fails the
    triangle test.  Otherwise each row's and column's nonzero 3j symbols are
    listed once, and the sum runs over the pairs of a row-1 and a row-2
    entry, which fix every other magnetic number.  Independent of the 6j
    contraction route; intended as a test oracle for small momenta.
    """
    if not isinstance(array, NineJArray):
        raise TypeError(f"array must be a NineJArray, got {_shown(array)}")
    rows = array.twice_rows()
    triads = (*rows, *zip(*rows))
    if not all(_triangle_ok(*triad) for triad in triads):
        return SurdSum.zero()
    row1, row2, row3, col1, col2, col3 = [_nonzero_3j(*triad) for triad in triads]
    total = SurdSum.zero()
    for (tm1, tm2), v1 in row1.items():
        for (tm4, tm5), v2 in row2.items():
            v3 = row3.get((-tm1 - tm4, -tm2 - tm5))
            if v3 is None:
                continue
            c1 = col1.get((tm1, tm4))
            c2 = col2.get((tm2, tm5))
            c3 = col3.get((-tm1 - tm2, -tm4 - tm5))
            if c1 is None or c2 is None or c3 is None:
                continue
            total = total + v1 * v2 * v3 * c1 * c2 * c3
    return total


def combinant_9j_array(d: int, r: int, i: int, j: int) -> tuple[NineJArray, NineJArray]:
    """The recoupling array attached to the syzygy coefficient at (d, r, i, j),
    together with its permuted companion (rows 1,2 swapped, then rows 1,3,
    then columns 2,3).  The permutation is even up to a column swap whose
    sign exponent is the (always even) entry sum, so both arrays carry the
    same 9j value.
    """
    _check_indices(d, r, i, j)
    # The checked indices make all nine entries nonnegative ints: 2i, 2j and
    # 2r are at most d + 1.
    a = (d, d, 2 * (d - 2 * i + 1))
    b = (d, d, 2 * (d - 2 * j + 1))
    c = (2 * (d - 1), 2 * (d - 2 * r + 1), 2 * (2 * d - 2 * r))
    base = NineJArray._raw((a, b, c))
    permuted = NineJArray._raw(tuple((x, z, y) for x, y, z in (c, a, b)))
    return base, permuted
