"""Exact Wigner 3j/6j/9j symbols over rational-surd arithmetic.

Angular momenta are half-integers stored as doubled integers (`HalfInt`),
which keeps every triangle and phase condition in plain integer arithmetic.
Values are `SurdSum`s: finite sums q0 + q1*sqrt(n1) + ... with rational
coefficients and squarefree integer radicands, so equality tests are
decisive.  Selection-rule violations (triangle or magnetic) are values equal
to zero, not errors; only genuinely non-physical input (negative momenta,
mismatched j/m parity) raises.

A 6j symbol is Delta(abc) Delta(aef) Delta(dbf) Delta(dec) times a rational
Racah sum R, where each triangle coefficient Delta is the square root of a
ratio of factorials.  The 6j kernel returns only R, computed in `int` as a
reduced (numerator, denominator) pair.  The 9j symbol is the single-sum
contraction sum_x (-1)^(2x) (2x+1) {j1 j4 j7; j8 j9 x} {j2 j5 j8; j4 x j6}
{j3 j6 j9; x j1 j2}.  Of the twelve Deltas in each product, the six row and
column triads of the array occur once each and do not depend on x, while
each x-dependent triad (j1 j9 x), (j4 j8 x), (j2 j6 x) occurs in two of the
three 6j symbols, so its two square roots multiply to the rational Delta^2.
So a 9j value is one square root, of the product of the six fixed Delta^2,
times one rational sum over x: a single surd, with no surd arithmetic in
the loop.  The x-sum runs in `int`: each term is a numerator and a
denominator reduced by one gcd (the Racah sums cancel most of the
Delta^2 denominators, which keeps large arrays cheap), the terms meet
over one `math.lcm`, and one `Fraction` is built per 9j value.  The fixed
Delta^2 product is a ratio of factorials, so its squarefree part needs
trial division by the primes up to the largest factorial argument only.
Against the former `Fraction` x-sum (now the test oracle
`wigner9j_by_fraction_xsum`), this took the benchmark's recoupling
workload (cold-cache 9j pairs for d <= 21) from a median of 4,568 to
6,201 ops/s, in ten alternating 10 s pairs on a shared 2-core host with
Python 3.11.7.  The entries are kept doubled (`NineJArray`), with
`HalfInt` only at the API boundary.

An independent brute-force contraction of six 3j symbols over all magnetic
numbers is provided as a cross-check oracle.  It lists each row's and
column's nonzero 3j symbols once, and shares nothing with the 6j route
but the triangle test.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm

from .forms import to_fraction


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = outer^2 * radicand with radicand squarefree; n must be positive."""
    outer, radicand = 1, 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            outer *= f ** (e // 2)
            if e % 2:
                radicand *= f
        f += 1 if f == 2 else 2
    if n > 1:
        radicand *= n
    return outer, radicand


@lru_cache(maxsize=None)
def _primes_below(limit: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, limit) if all(p % q for q in range(2, isqrt(p) + 1)))


def _smooth_squarefree_split(n: int, bound: int) -> tuple[int, int]:
    """`_squarefree_split(n)` for a positive n with no prime factor above
    bound, by trial division by the primes up to bound only."""
    outer, radicand = 1, 1
    # List the primes up to the next power of two, so that few lists are kept.
    for p in _primes_below(1 << bound.bit_length()):
        if p > bound or n == 1:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        outer *= p ** (e // 2)
        if e % 2:
            radicand *= p
    assert n == 1, "n has a prime factor above the bound"
    return outer, radicand


class SurdSum:
    """Exact finite sum of rational multiples of square roots of squarefree
    positive integers; radicand 1 carries the rational part."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[int, Fraction] = {}
        for radicand, coeff in (terms or {}).items():
            coeff = to_fraction(coeff)
            if not coeff:
                continue
            radicand = int(radicand)
            if radicand < 1:
                raise ValueError("radicands must be positive integers")
            outer, rad = _squarefree_split(radicand)
            total = clean.get(rad, Fraction(0)) + coeff * outer
            if total:
                clean[rad] = total
            elif rad in clean:
                del clean[rad]
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "SurdSum":
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "SurdSum":
        return cls._raw({})

    @classmethod
    def from_rational(cls, value) -> "SurdSum":
        value = to_fraction(value)
        return cls._raw({1: value} if value else {})

    @classmethod
    def sqrt(cls, value) -> "SurdSum":
        """Exact square root of a nonnegative rational."""
        value = to_fraction(value)
        if value < 0:
            raise ValueError("cannot take the square root of a negative rational")
        if not value:
            return cls.zero()
        outer, rad = _squarefree_split(value.numerator * value.denominator)
        return cls._raw({rad: Fraction(outer, value.denominator)})

    @property
    def terms(self) -> dict:
        """Radicand -> coefficient map.  Treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms.get(1, Fraction(0))

    def single_term(self) -> tuple[Fraction, int] | None:
        """(coefficient, radicand) when the sum has exactly one term, else None."""
        if len(self._terms) != 1:
            return None
        ((rad, coeff),) = self._terms.items()
        return coeff, rad

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SurdSum.from_rational(other)
        if not isinstance(other, SurdSum):
            return NotImplemented
        terms = dict(self._terms)
        for rad, coeff in other._terms.items():
            total = terms.get(rad, Fraction(0)) + coeff
            if total:
                terms[rad] = total
            elif rad in terms:
                del terms[rad]
        return SurdSum._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return SurdSum._raw({r: -c for r, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SurdSum.from_rational(other)
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = to_fraction(other)
            if not q:
                return SurdSum.zero()
            return SurdSum._raw({r: c * q for r, c in self._terms.items()})
        if not isinstance(other, SurdSum):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                g = gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                coeff = c1 * c2 * g
                if rad in out:
                    coeff += out[rad]
                    if not coeff:
                        del out[rad]
                        continue
                out[rad] = coeff
        return SurdSum._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / to_fraction(other))
        if isinstance(other, SurdSum):
            single = other.single_term()
            if single is None:
                raise ValueError("division is only supported by single-term surd sums")
            coeff, rad = single
            # 1/(c*sqrt(n)) = sqrt(n)/(c*n)
            return self * SurdSum._raw({rad: Fraction(1) / (coeff * rad)})
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SurdSum.from_rational(other)
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A rational sum equals its Fraction, so it must hash like one.
        if self.is_rational():
            return hash(self._terms.get(1, 0))
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for rad in sorted(self._terms):
            coeff = self._terms[rad]
            mag = abs(coeff)
            if rad == 1:
                body = str(mag)
            elif mag == 1:
                body = f"sqrt({rad})"
            else:
                body = f"{mag}*sqrt({rad})"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"SurdSum({self})"


class HalfInt:
    """A half-integer stored as its doubled value, e.g. HalfInt(7) is 7/2."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise TypeError("HalfInt takes the doubled value as an int")
        self.twice = twice

    @classmethod
    def whole(cls, value: int) -> "HalfInt":
        return cls(2 * value)

    @property
    def is_whole(self) -> bool:
        return self.twice % 2 == 0

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))

    def __eq__(self, other):
        if not isinstance(other, HalfInt):
            return NotImplemented
        return self.twice == other.twice

    def __lt__(self, other):
        if not isinstance(other, HalfInt):
            return NotImplemented
        return self.twice < other.twice

    def __hash__(self):
        return hash(("HalfInt", self.twice))

    def __str__(self):
        return _twice_str(self.twice)

    def __repr__(self):
        return f"HalfInt({self.twice})"


def _twice_str(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _twice(value) -> int:
    if isinstance(value, HalfInt):
        return value.twice
    raise TypeError(f"expected HalfInt, got {type(value).__name__}")


def _check_momentum(tj: int) -> None:
    if tj < 0:
        raise ValueError("angular momenta must be nonnegative")


def _check_jm(tj: int, tm: int) -> None:
    _check_momentum(tj)
    if (tj + tm) % 2:
        raise ValueError(f"non-physical parity: 2j={tj} and 2m={tm} differ mod 2")


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
def _delta_squared_pair(ta: int, tb: int, tc: int) -> tuple[int, int]:
    """`_delta_squared` as a reduced (numerator, denominator) pair."""
    value = _delta_squared(ta, tb, tc)
    return value.numerator, value.denominator


def _delta_root(triads) -> tuple[int, int, int]:
    """(outer, radicand, den) with the square root of the product of the
    triads' Delta^2 equal to outer * sqrt(radicand) / den, radicand
    squarefree.

    With the product num/den, the root is sqrt(num * den) / den.  The
    product num * den is a product of factorials, the largest of
    (a+b+c+1)!, so only the primes up to a+b+c+1 can divide it.
    """
    num = den = 1
    bound = 1
    for ta, tb, tc in triads:
        n, d = _delta_squared_pair(ta, tb, tc)
        num *= n
        den *= d
        bound = max(bound, (ta + tb + tc) // 2 + 1)
    outer, radicand = _smooth_squarefree_split(num * den, bound)
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


def wigner3j(j1, j2, j3, m1, m2, m3) -> SurdSum:
    """Exact 3j symbol; zero on any selection-rule violation."""
    tjs = tuple(_twice(j) for j in (j1, j2, j3))
    tms = tuple(_twice(m) for m in (m1, m2, m3))
    for tj, tm in zip(tjs, tms):
        _check_jm(tj, tm)
    return _wigner3j_tw(*tjs, *tms)


@lru_cache(maxsize=None)
def _wigner6j_tw(ta, tb, tc, td, te, tf) -> tuple[int, int] | int:
    """Racah sum R of {a b c; d e f}: the 6j symbol over the product of the
    square roots of its four triangle coefficients, as a reduced
    (numerator, positive denominator) pair.  The falsy 0 when R is zero,
    which includes a triad that fails the triangle condition.

    R = sum_t (-1)^t (t+1)! / (prod_i (t-alpha_i)! prod_j (beta_j-t)!) over
    alpha = the four triad half-sums and beta = the three quad half-sums.
    Consecutive terms differ by the factor
    -(t+2) prod_j (beta_j-t) / prod_i (t+1-alpha_i), so the sum is evaluated
    by Horner's rule in `int` over one denominator, reduced by one gcd at
    the end.
    """
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for triad in triads:
        if not _triangle_ok(*triad):
            return 0
    a1, a2, a3, a4 = ((x + y + z) // 2 for x, y, z in triads)
    b1 = (ta + tb + td + te) // 2
    b2 = (tb + tc + te + tf) // 2
    b3 = (ta + tc + td + tf) // 2
    lo, hi = max(a1, a2, a3, a4), min(b1, b2, b3)
    # The sum divided by its t = lo term is num/den.
    num = den = 1
    for t in range(hi - 1, lo - 1, -1):
        q = (t + 1 - a1) * (t + 1 - a2) * (t + 1 - a3) * (t + 1 - a4)
        num, den = den * q - (t + 2) * (b1 - t) * (b2 - t) * (b3 - t) * num, den * q
    if not num:
        return 0
    for k in (lo - a1, lo - a2, lo - a3, lo - a4, b1 - lo, b2 - lo, b3 - lo):
        den *= factorial(k)
    num *= -factorial(lo + 1) if lo % 2 else factorial(lo + 1)
    g = gcd(num, den)
    return num // g, den // g


def wigner6j(j1, j2, j3, j4, j5, j6) -> SurdSum:
    """Exact 6j symbol {j1 j2 j3; j4 j5 j6}; zero on triangle violations."""
    tjs = tuple(_twice(j) for j in (j1, j2, j3, j4, j5, j6))
    for tj in tjs:
        _check_momentum(tj)
    racah = _wigner6j_tw(*tjs)
    if not racah:
        return SurdSum.zero()
    ta, tb, tc, td, te, tf = tjs
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    outer, radicand, den = _delta_root(triads)
    return SurdSum._raw({radicand: Fraction(outer * racah[0], den * racah[1])})


class NineJArray:
    """A 3x3 array of nonnegative half-integers for the 9j symbol.

    The entries are kept doubled, as a tuple of three int triples; `rows`
    builds the `HalfInt`s on access.
    """

    __slots__ = ("_twice",)

    def __init__(self, rows):
        self._twice = _checked(tuple([tuple(map(_twice, row)) for row in rows]))

    @classmethod
    def _of(cls, twice: tuple) -> "NineJArray":
        obj = object.__new__(cls)
        obj._twice = twice
        return obj

    @classmethod
    def from_twice(cls, twice_rows) -> "NineJArray":
        return cls._of(_checked(tuple([tuple(map(int, row)) for row in twice_rows])))

    @property
    def rows(self) -> tuple:
        return tuple(tuple(HalfInt(v) for v in row) for row in self._twice)

    def twice_rows(self) -> tuple:
        return self._twice

    def entry_sum_twice(self) -> int:
        return sum(map(sum, self._twice))

    def transposed(self) -> "NineJArray":
        return NineJArray._of(tuple(zip(*self._twice)))

    def swapped_rows(self, a: int, b: int) -> "NineJArray":
        rows = list(self._twice)
        rows[a], rows[b] = rows[b], rows[a]
        return NineJArray._of(tuple(rows))

    def swapped_cols(self, a: int, b: int) -> "NineJArray":
        return self.transposed().swapped_rows(a, b).transposed()

    def __eq__(self, other):
        if not isinstance(other, NineJArray):
            return NotImplemented
        return self._twice == other._twice

    def __str__(self):
        return "; ".join(" ".join(map(_twice_str, row)) for row in self._twice)

    def __repr__(self):
        return f"NineJArray({self})"


def _checked(twice_rows: tuple) -> tuple:
    """The doubled rows, once they are known to form a 3x3 nonnegative array."""
    if tuple(map(len, twice_rows)) != (3, 3, 3):
        raise ValueError("need a 3x3 array")
    if min(map(min, twice_rows)) < 0:
        raise ValueError("array entries must be nonnegative")
    return twice_rows


def wigner9j(array: NineJArray) -> SurdSum:
    """Exact 9j symbol by the single-sum contraction of three 6j symbols,
    taken as one square root times one rational sum over x.

    Zero whenever any row or column triad fails the triangle condition.
    """
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = array.twice_rows()
    triads = (
        (tj1, tj2, tj3),
        (tj4, tj5, tj6),
        (tj7, tj8, tj9),
        (tj1, tj4, tj7),
        (tj2, tj5, tj8),
        (tj3, tj6, tj9),
    )
    if any(not _triangle_ok(*t) for t in triads):
        return SurdSum.zero()
    pairs = ((tj1, tj9), (tj4, tj8), (tj2, tj6))
    parities = {(a + b) % 2 for a, b in pairs}
    if len(parities) != 1:
        return SurdSum.zero()
    tx_min = max(abs(a - b) for a, b in pairs)
    tx_max = min(a + b for a, b in pairs)
    nums, dens = [], []
    for tx in range(tx_min, tx_max + 1, 2):
        r1 = _wigner6j_tw(tj1, tj4, tj7, tj8, tj9, tx)
        r2 = r1 and _wigner6j_tw(tj2, tj5, tj8, tj4, tx, tj6)
        r3 = r2 and _wigner6j_tw(tj3, tj6, tj9, tx, tj1, tj2)
        if not r3:
            continue
        # The x-dependent triads' square roots pair up across the three 6j.
        n1, d1 = _delta_squared_pair(tj1, tj9, tx)
        n2, d2 = _delta_squared_pair(tj4, tj8, tx)
        n3, d3 = _delta_squared_pair(tj2, tj6, tx)
        num = (-(tx + 1) if tx % 2 else tx + 1) * r1[0] * r2[0] * r3[0] * n1 * n2 * n3
        den = r1[1] * r2[1] * r3[1] * d1 * d2 * d3
        g = gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    common = lcm(*dens)
    total = sum(n * (common // d) for n, d in zip(nums, dens))
    if not total:
        return SurdSum.zero()
    outer, radicand, den = _delta_root(triads)
    return SurdSum._raw({radicand: Fraction(outer * total, den * common)})


def _nonzero_3j(tj1: int, tj2: int, tj3: int) -> dict:
    """{(2m1, 2m2): value} over the nonzero 3j symbols (j1 j2 j3; m1 m2 m3),
    with m3 = -m1 - m2."""
    if not _triangle_ok(tj1, tj2, tj3):
        return {}
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

    Each row's and column's nonzero 3j symbols are listed once, and the sum
    runs over the pairs of a row-1 and a row-2 entry, which fix every other
    magnetic number.  Independent of the 6j contraction route; intended as
    a test oracle for small momenta.
    """
    rows = array.twice_rows()
    lists = []
    for triad in (*rows, *zip(*rows)):
        values = _nonzero_3j(*triad)
        if not values:
            return SurdSum.zero()
        lists.append(values)
    row1, row2, row3, col1, col2, col3 = lists
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
    if r < 3 or 2 * r > d + 1:
        raise ValueError(f"weight index r={r} outside 3..floor((d+1)/2) for d={d}")
    if not (1 <= i <= r and 1 <= j <= r and i + j <= r + 1):
        raise ValueError(f"indices (i,j)=({i},{j}) out of range for r={r}")
    a = (d, d, 2 * (d - 2 * i + 1))
    b = (d, d, 2 * (d - 2 * j + 1))
    c = (2 * (d - 1), 2 * (d - 2 * r + 1), 2 * (2 * d - 2 * r))
    base = NineJArray.from_twice((a, b, c))
    permuted = NineJArray.from_twice(tuple((x, z, y) for x, y, z in (c, a, b)))
    return base, permuted


def ninej_equivalent(a: NineJArray, b: NineJArray) -> bool:
    """Whether two arrays evaluate to the same exact 9j value."""
    return wigner9j(a) == wigner9j(b)
