"""Independent verification of the syzygy coefficients by differential operators.

The coefficient theta_{i,j} is, by Schur's lemma, the eigenvalue of a chain
of equivariant maps acting on a single explicitly constructed alternating
quadrihomogeneous form (`zeta_image`): powers of the operator

    omega_{pq} = d^2/(dp1 dq2) - d^2/(dq1 dp2),

each followed by merging p and q into one pair.  The eigenvalue is read
off as an exact rational.  Nothing here shares code with the factorial
formula of `syzygy.theta`; only the (d, r, i, j) argument checks come from
`syzygy`.  The two terms of omega commute, so `omega(form, p, q, n)` maps
each monomial straight to its n+1 images under
omega^n = sum_k (-1)^k C(n,k) (d_p1 d_q2)^(n-k) (d_q1 d_p2)^k.

The reference route is the textbook Omega-process construction (Olver,
*Classical Invariant Theory*, ch. 5), written as its definition on sparse
`MultiForm`s, which live here with it.  A MultiForm is a multihomogeneous
form over pairs named by single letters from `PAIRS`: pair ``"x"`` stands
for the scalar variables x1, x2, and so on.  A monomial is its exponent
tuple over the fixed ordering x1,x2,y1,y2,...,t1,t2 (`slot_index`), and a
form keeps ``{exponent tuple: int numerator}`` over one positive
denominator, reduced as a `BinaryForm`'s numerators are; `Fraction`s are
built only at its public surface, `MultiForm(degrees, terms)` and `.terms`,
which speak in those 14-slot tuples.  `zeta_summand` multiplies out its
brackets and linear powers, `zeta_image` sums the six signed summands,
and `beta_chain` makes three passes of `omega` then
`MultiForm.substituted`, each scaled by its `h_factor`.  It shares no
kernel with the fused route, which the tests hold to it.

The fused route, `omega_chain` behind `verify_theta`, never builds the
image.  Each summand is G(a, b) * H(c, e) over disjoint pairs, with
G(a, b) = (ab) f_a^(d-1) f_b^(d-1) and H(c, e) = (ce)^(2r-1) f_c^(d-2r+1)
f_e^(d-2r+1).  Expanding the brackets makes G 2 and H 2r signed outer
products of a form over one pair and a form over the other, each a sparse
list of integer numerators (`_factor_terms`).  After omega^n the k-th
image of p1^a1 p2^a2 q1^b1 q2^b2 merges onto t1^(a1+b1-n) t2^(a2+b2-n)
whatever k is, so a power and its merge weight each monomial by the sum of
its n+1 factors: one cell of a table per (degrees, power) (`_weights`),
built as n+1 outer products of integer vectors, since each factor is a
part in the p exponents times a part in the q exponents.  An outer product
over the two merged pairs then contracts to one vector (`_contracted`).
Stage one (omega_{xy}^(2i-1), x,y into u) and stage two (omega_{zw}^(2j-1),
z,w into v) each see only their own pairs, so `_stages_one_two` runs them
on the terms.  In G(x, y) * H(z, w) and G(z, w) * H(x, y) each factor
holds both pairs of one stage, so each summand is one outer product of
summed contractions.  The other four summands give one form over u and v:
G, H, omega_{xy}^(2i-1) and omega_{zw}^(2j-1) are odd in their two pairs
and the merges are symmetric, so relabelling carries each, times its sign,
onto -G(x, z) * H(y, w), counted four times.  Each of its 4r term pairs
contracts its x and y sides in stage one and its z and w sides in stage
two, into one more outer product.  The sum is a (2d-4i+3) x (2d-4j+3)
matrix of integer numerators, against about (d+1)^4 terms in the image;
`_stage_three_matrix` weights it by one more table onto the numerators
over t and applies the three h factors as one fraction, and the ratio to
the reference power is read by cross-multiplying integer numerators.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm
from operator import add, mul

from .errors import DegreeMismatchError, FormulaViolationError
from .forms import (
    _SCALARS, BinaryForm, LinearSymbol, _check_range, _linear_pow_ints, _shown, to_fraction
)
from .syzygy import _check_indices, _check_weight, theta

PAIRS = ("x", "y", "z", "w", "u", "v", "t")
_PAIR_INDEX = {pair: k for k, pair in enumerate(PAIRS)}
_NSLOTS = 2 * len(PAIRS)
ZERO_MONOMIAL = (0,) * _NSLOTS


def _slot(pair: str) -> int:
    """The flat slot of scalar variable 1 of `pair`; variable 2 sits in the next one."""
    if pair not in _PAIR_INDEX:
        raise ValueError(f"unknown variable pair {_shown(pair)}; expected one of {PAIRS}")
    return 2 * _PAIR_INDEX[pair]


def _distinct_slots(pairs: tuple, repeated: str) -> list:
    """`_slot` of each of `pairs`; raises ValueError(repeated) if a pair repeats."""
    slots = [_slot(pair) for pair in pairs]
    if len(set(slots)) != len(slots):
        raise ValueError(repeated)
    return slots


def slot_index(pair: str, component: int) -> int:
    """Flat slot of scalar variable `component` (1 or 2) of `pair`."""
    slot = _slot(pair)
    _check_range("component", component, 1, 2)
    return slot + component - 1


def _shown_degrees(degrees: dict) -> str:
    """A degree declaration as an error line names it: each degree by `_shown`."""
    return "{" + ", ".join(f"{_shown(pair)}: {_shown(n)}" for pair, n in degrees.items()) + "}"


class MultiForm:
    """Sparse multihomogeneous form over named variable pairs.

    `degrees` declares the homogeneous degree in each active pair, and every
    term must have it: the constructor refuses one that does not with
    `DegreeMismatchError`.  A zero form keeps whatever degrees it was
    declared with.  Equality compares the stored monomials only; the degree
    declaration is metadata (two zero forms produced along different routes
    always compare equal).

    The form is stored as ``{exponent tuple: int numerator}`` over one
    positive denominator `_den`, kept reduced so that
    ``gcd(_den, *numerators) == 1`` and ``_den == 1`` for the zero form;
    the stored pair is therefore canonical.
    """

    __slots__ = ("_degrees", "_terms", "_den")

    def __init__(self, degrees: dict, terms: dict):
        clean_deg = {}
        for pair, n in degrees.items():
            _slot(pair)
            _check_range(f"degree of pair {_shown(pair)}", n, 0)
            if n:
                clean_deg[pair] = n
        fracs = {}
        for mono, coeff in terms.items():
            coeff = to_fraction(coeff)
            if not coeff:
                continue
            mono = tuple(mono)
            # A full vector's repr is too long to show, so its negative entry is named.
            full = len(mono) == _NSLOTS
            for e in mono:
                _check_range("exponent", e, 0 if full else None)
            if not full:
                raise ValueError(f"bad exponent vector {_shown(mono)}")
            fracs[mono] = coeff
        # Over the lcm of reduced denominators, gcd(den, *numerators) is 1.
        den = lcm(*(c.denominator for c in fracs.values()))
        clean_terms = {m: c.numerator * (den // c.denominator) for m, c in fracs.items()}
        self._degrees = clean_deg
        self._terms = clean_terms
        self._den = den
        if not self.is_homogeneous():
            raise DegreeMismatchError(
                f"a term does not have the declared degrees {_shown_degrees(clean_deg)}"
            )

    @classmethod
    def _raw(cls, degrees: dict, terms: dict, den: int) -> "MultiForm":
        # Internal fast path: `terms` maps exponent tuples to int numerators
        # over den > 0 and becomes the form's own dict.  Zero numerators are
        # deleted in place, which hashes no other key again.
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        obj = object.__new__(cls)
        obj._degrees = degrees
        obj._terms = terms
        obj._den = den
        return obj

    @classmethod
    def constant(cls, value) -> "MultiForm":
        value = to_fraction(value)
        return cls._raw({}, {ZERO_MONOMIAL: value.numerator} if value else {}, value.denominator)

    @property
    def terms(self) -> dict:
        """Exponent tuple -> Fraction coefficient map, built on each call."""
        den = self._den
        return {m: Fraction(c, den) for m, c in self._terms.items()}

    @property
    def degrees(self) -> dict:
        """Declared degree per active pair.  Treat as read-only."""
        return self._degrees

    def degree(self, pair: str) -> int:
        _slot(pair)
        return self._degrees.get(pair, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self) -> bool:
        """Check every monomial against the declared multidegree."""
        for mono in self._terms:
            for k, pair in enumerate(PAIRS):
                if mono[2 * k] + mono[2 * k + 1] != self._degrees.get(pair, 0):
                    return False
        return True

    def _merged_add_degrees(self, other: "MultiForm") -> dict:
        if self._degrees == other._degrees:
            return dict(self._degrees)
        if not self._terms:
            return dict(other._degrees)
        if not other._terms:
            return dict(self._degrees)
        raise DegreeMismatchError(
            f"cannot add multidegrees {_shown_degrees(self._degrees)} and "
            f"{_shown_degrees(other._degrees)}"
        )

    def __add__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        deg = self._merged_add_degrees(other)
        den = lcm(self._den, other._den)
        scale, other_scale = den // self._den, den // other._den
        terms = {m: c * scale for m, c in self._terms.items()}
        get = terms.get
        for mono, coeff in other._terms.items():
            terms[mono] = get(mono, 0) + coeff * other_scale
        return MultiForm._raw(deg, terms, den)

    def __sub__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        terms = {m: -c for m, c in self._terms.items()}
        return MultiForm._raw(dict(self._degrees), terms, self._den)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            q = to_fraction(other)  # refuses a bool
            n = q.numerator
            terms = {m: c * n for m, c in self._terms.items()}
            return MultiForm._raw(dict(self._degrees), terms, self._den * q.denominator)
        if not isinstance(other, MultiForm):
            return NotImplemented
        deg = dict(self._degrees)
        for pair, n in other._degrees.items():
            deg[pair] = deg.get(pair, 0) + n
        out: dict = {}
        get = out.get
        inner = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in inner:
                key = tuple(map(add, m1, m2))
                out[key] = get(key, 0) + c1 * c2
        return MultiForm._raw(deg, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _check_range("n", n, 0)
        result = MultiForm.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def substituted(self, from1: str, from2: str, to: str) -> "MultiForm":
        """Replace both source pairs' variables by the target pair's.

        The target pair must be distinct from the sources and not already
        active.  Source pairs of degree zero substitute trivially.
        """
        repeated = "substitution pairs must be three distinct pairs"
        sa, sb, st = _distinct_slots((from1, from2, to), repeated)
        if to in self._degrees:
            raise ValueError(f"target pair {_shown(to)} is already active")
        deg = dict(self._degrees)
        merged_degree = deg.pop(from1, 0) + deg.pop(from2, 0)
        if merged_degree:
            deg[to] = merged_degree
        out: dict = {}
        get = out.get
        for mono, coeff in self._terms.items():
            key = list(mono)
            key[sa] = key[sa + 1] = key[sb] = key[sb + 1] = 0
            key[st], key[st + 1] = mono[sa] + mono[sb], mono[sa + 1] + mono[sb + 1]
            key = tuple(key)
            out[key] = get(key, 0) + coeff
        return MultiForm._raw(deg, out, self._den)

    def as_binary_form(self, pair: str) -> BinaryForm:
        """Convert a form whose only active pair is `pair` to a BinaryForm.

        Every term must be a monomial in that pair alone, of its declared
        degree; any other term raises `DegreeMismatchError`.
        """
        s = _slot(pair)
        stray = [p for p in self._degrees if p != pair]
        if stray:
            raise ValueError(f"form still involves pairs {stray}")
        order = self._degrees.get(pair, 0)
        head, tail = ZERO_MONOMIAL[:s], ZERO_MONOMIAL[s + 2 :]
        nums = [0] * (order + 1)
        for mono, coeff in self._terms.items():
            k = mono[s + 1]
            # Two terms that differ outside the pair would land on one k.
            if mono != (*head, order - k, k, *tail):
                raise DegreeMismatchError("form is not homogeneous of its declared degree")
            nums[k] = coeff
        return BinaryForm._raw(nums, self._den)

    def __eq__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __repr__(self):
        return f"<MultiForm degrees={self._degrees} terms={len(self._terms)}>"


def linear_power(f: LinearSymbol, pair: str, n: int) -> MultiForm:
    """(f1*p1 + f2*p2)^n for the given pair, expanded with binomial coefficients."""
    s = _slot(pair)
    _check_range("n", n, 0)
    nums, den = _linear_pow_ints(f, n)
    head, tail = ZERO_MONOMIAL[:s], ZERO_MONOMIAL[s + 2 :]
    terms = {(*head, n - k, k, *tail): c for k, c in enumerate(nums) if c}
    return MultiForm._raw({pair: n} if n else {}, terms, den)


DEFAULT_SYMBOL = LinearSymbol(1, 2)


def bracket(pair1: str, pair2: str) -> MultiForm:
    """The determinant form p1*q2 - q1*p2 of two distinct pairs."""
    p, q = _distinct_slots((pair1, pair2), "bracket needs two distinct pairs")
    plus, minus = [0] * _NSLOTS, [0] * _NSLOTS
    plus[p] = plus[q + 1] = minus[q] = minus[p + 1] = 1
    return MultiForm._raw({pair1: 1, pair2: 1}, {tuple(plus): 1, tuple(minus): -1}, 1)


def _power_terms(p1: int, p2: int, q1: int, q2: int, n: int) -> list:
    """(k, integer factor) of each term of omega^n that survives on one monomial.

    p1, p2, q1, q2 are the monomial's exponents in the two pairs.  The m-th
    derivative maps an exponent e to perm(e, m), so the k-th term,
    (-1)^k C(n,k) (d_p1 d_q2)^(n-k) (d_q1 d_p2)^k, survives when
    n - k <= min(p1, q2) and k <= min(q1, p2).
    """
    return [
        (
            k,
            (-1) ** k * comb(n, k)
            * perm(p1, n - k) * perm(q2, n - k) * perm(q1, k) * perm(p2, k),
        )
        for k in range(max(n - min(p1, q2), 0), min(n, q1, p2) + 1)
    ]


def omega(form: MultiForm, pair1: str, pair2: str, n: int = 1) -> MultiForm:
    """Apply the alternating second-order operator for (pair1, pair2) n times.

    Each application drops the form's degree in both pairs by one, so a
    power n above either degree gives the zero form; n = 0 returns the
    form unchanged.
    """
    a, b = _distinct_slots((pair1, pair2), "operator needs two distinct pairs")
    _check_range("n", n, 0)
    # A monomial's image depends only on its exponents p1, p2, q1, q2 in the
    # two pairs: `images` keeps, per such four, the new four and the integer
    # factor of each term.
    images: dict = {}
    out: dict = {}
    get = out.get
    for mono, coeff in form._terms.items():
        exponents = mono[a], mono[a + 1], mono[b], mono[b + 1]
        image = images.get(exponents)
        if image is None:
            p1, p2, q1, q2 = exponents
            image = images[exponents] = [
                ((p1 - n + k, p2 - k, q1 - k, q2 - n + k), factor)
                for k, factor in _power_terms(*exponents, n)
            ]
        slots = list(mono)
        for new, factor in image:
            slots[a], slots[a + 1], slots[b], slots[b + 1] = new
            key = tuple(slots)
            out[key] = get(key, 0) + coeff * factor
    deg = dict(form._degrees)
    for pair in (pair1, pair2):
        old = deg.pop(pair, 0)
        if old > n:
            deg[pair] = old - n
    return MultiForm._raw(deg, out, form._den)


def h_factor(m: int, n: int, q: int) -> Fraction:
    """(m + n - 2q + 1)! / ((m + n - q + 1)! * q!)."""
    _check_range("m", m)
    _check_range("n", n)
    _check_range("q", q, 0, min(m, n))
    return Fraction(
        factorial(m + n - 2 * q + 1), factorial(m + n - q + 1) * factorial(q)
    )


def mu_factor(p: int, q: int, ell: int, m: int) -> Fraction:
    """ell!/(ell-m)! * (p+q-ell+2m+1)!/(p+q-ell+m+1)! for ell >= m >= 0.

    The complementary case ell < m corresponds to a map that is identically
    zero after substitution; callers handle that branch themselves.
    """
    _check_range("p", p)
    _check_range("q", q)
    _check_range("m", m, 0)
    # The upper bound on ell is p + q - ell + m + 1 >= 0.
    _check_range("ell", ell, m, p + q + m + 1)
    return Fraction(
        factorial(ell) * factorial(p + q - ell + 2 * m + 1),
        factorial(ell - m) * factorial(p + q - ell + m + 1),
    )


# (sign, pairs a, b, c, e) of each summand sign * G(a, b) * H(c, e) of zeta_image.
_SUMMANDS = ((1, "xyzw"), (-1, "xzyw"), (1, "xwyz"), (-1, "ywxz"), (1, "zwxy"), (-1, "zyxw"))


def _factor_terms(d: int, r: int, f: LinearSymbol) -> tuple:
    """(G's terms, G's denominator) and (H's terms, H's denominator) on the pairs x and y.

    A term (p, q) is the outer product of the form over x listed by p and
    the form over y listed by q, each as (x2 exponent, integer numerator)
    with no zero numerator; the terms sum to the factor's numerators.  With
    a the numerators of f^(d-1), (xy) = x1 y2 - x2 y1 makes G the two
    products (x1 a)(y2 a) - (x2 a)(y1 a).  With b those of f^(d-2r+1),
    (xy)^(2r-1) = sum_c (-1)^c C(2r-1, c) x2^c x1^(2r-1-c) y1^c y2^(2r-1-c)
    makes H the 2r products (-1)^c C(2r-1, c) (x2^c b)(y2^(2r-1-c) b).
    """
    a, den = _linear_pow_ints(f, d - 1)
    a = [(k, c) for k, c in enumerate(a) if c]
    g = [(a, [(k + 1, c) for k, c in a]), ([(k + 1, -c) for k, c in a], a)]
    b, den_b = _linear_pow_ints(f, d - 2 * r + 1)
    b = [(k, c) for k, c in enumerate(b) if c]
    m = 2 * r - 1
    h = [
        ([(k + c, (-1) ** c * comb(m, c) * x) for k, x in b], [(k + m - c, x) for k, x in b])
        for c in range(m + 1)
    ]
    return (g, den * den), (h, den_b * den_b)


def zeta_summand(
    d: int, r: int, pair_a: str, pair_b: str, pair_c: str, pair_e: str, f: LinearSymbol
) -> MultiForm:
    """(ab) * (ce)^(2r-1) * f_a^(d-1) * f_b^(d-1) * f_c^(d-2r+1) * f_e^(d-2r+1).

    The four pairs must be distinct.
    """
    pairs = (pair_a, pair_b, pair_c, pair_e)
    if len(set(pairs)) != 4:
        raise ValueError(f"a zeta summand needs four distinct pairs, got {_shown(pairs)}")
    e = d - 2 * r + 1
    # Grouped as G(a, b) * H(c, e), the factors of the module docstring, so
    # that only the last product is large.
    g = bracket(pair_a, pair_b) * linear_power(f, pair_a, d - 1) * linear_power(f, pair_b, d - 1)
    h = bracket(pair_c, pair_e) ** (2 * r - 1) * linear_power(f, pair_c, e)
    return g * (h * linear_power(f, pair_e, e))


def zeta_image(d: int, r: int, f: LinearSymbol = DEFAULT_SYMBOL) -> MultiForm:
    """The alternating six-term quadrihomogeneous form of order d in x, y, z, w.

    This is the image of f_t^(4(d-r)) under the specific equivariant map
    whose chain eigenvalues are the syzygy coefficients.  Alternating in all
    four pairs by construction.
    """
    _check_weight(d, r)
    summands = (sign * zeta_summand(d, r, *pairs, f) for sign, pairs in _SUMMANDS)
    return sum(summands, MultiForm.constant(0))


def beta_chain(q_form: MultiForm, d: int, r: int, i: int, j: int) -> BinaryForm:
    """Project a quadrihomogeneous form of order d in x, y, z, w down to the t pair.

    Stage one applies omega_{xy}^(2i-1), merges x,y into u and scales by
    h(d,d;2i-1); stage two does the same with omega_{zw}^(2j-1), z,w into v
    and h(d,d;2j-1).  Stage three applies omega_{uv}^(2(r-i-j+1)), merges
    u,v into t, and scales by the matching h factor.  The result is a binary
    form of order 4(d-r).
    """
    _check_indices(d, r, i, j)
    for pair in ("x", "y", "z", "w"):
        if q_form.degree(pair) != d:
            raise ValueError(
                f"input must have degree {d} in pair {_shown(pair)}, got {q_form.degree(pair)}"
            )
    n, m, q3 = 2 * i - 1, 2 * j - 1, 2 * (r - i - j + 1)
    out = omega(q_form, "x", "y", n).substituted("x", "y", "u") * h_factor(d, d, n)
    out = omega(out, "z", "w", m).substituted("z", "w", "v") * h_factor(d, d, m)
    h3 = h_factor(2 * (d - n), 2 * (d - m), q3)  # on the degrees in u and v
    return (omega(out, "u", "v", q3).substituted("u", "v", "t") * h3).as_binary_form("t")


def _stage_three_matrix(out: list, den: int, d: int, r: int, i: int, j: int) -> BinaryForm:
    """Stage three of `beta_chain` on out[s][t] / den, the coefficient of
    u1^(du-s) u2^s v1^(dv-t) v2^t: each entry goes to t2^(s+t-q3) weighted by
    `_weights(du, dv, q3)[s][t]`, with q3 = 2(r-i-j+1), and the three h
    factors scale the result as one fraction.
    """
    q3 = 2 * (r - i - j + 1)
    du, dv = 2 * (d - 2 * i + 1), 2 * (d - 2 * j + 1)
    nums = [0] * (du + dv - 2 * q3 + 1)
    for s, (row, w_row) in enumerate(zip(out, _weights(du, dv, q3))):
        for t, (c, weight) in enumerate(zip(row, w_row)):
            if c and weight:
                nums[s + t - q3] += c * weight
    h = h_factor(d, d, 2 * i - 1) * h_factor(d, d, 2 * j - 1) * h_factor(du, dv, q3)
    return BinaryForm._raw([c * h.numerator for c in nums], den * h.denominator)


@lru_cache(maxsize=256)
def _weights(dp: int, dq: int, n: int) -> tuple:
    """w[k][l]: the factor omega^n, then p,q merged into t, gives p1^(dp-k) p2^k q1^(dq-l) q2^l.

    A cell is the sum of its monomial's `_power_terms` factors, and the a-th
    factor is a part in k times a part in l:

        w[k][l] = sum_a (-1)^a C(n,a) [perm(dp-k, n-a) perm(k, a)] [perm(l, n-a) perm(dq-l, a)],

    so a table is the sum of n+1 outer products of integer vectors, the
    transvectant's structure.  The a-th product is nonzero exactly on
    a <= k <= dp-n+a and n-a <= l <= dq-a, and only that block is summed.
    """
    rows = [[0] * (dq + 1) for _ in range(dp + 1)]
    for a in range(n + 1):
        scale = (-1) ** a * comb(n, a)
        lo, hi = n - a, dq - a + 1
        right = [scale * perm(l, n - a) * perm(dq - l, a) for l in range(lo, hi)]
        for k in range(a, dp - n + a + 1):
            x = perm(dp - k, n - a) * perm(k, a)
            row = rows[k]
            row[lo:hi] = [c + x * y for c, y in zip(row[lo:hi], right)]
    return tuple(map(tuple, rows))


def _contracted(p: list, q: list, w: tuple, n: int, size: int) -> list:
    """v[s]: the numerator of t1^(size-1-s) t2^s after omega^n and the merge
    into t of the outer product of the sparse forms p over one pair and q
    over the other, with w = `_weights` of their degrees and n."""
    v = [0] * size
    for k, a in p:
        w_row = w[k]
        for l, b in q:
            weight = w_row[l]
            if weight:
                v[k + l - n] += a * b * weight
    return v


def _stages_one_two(d: int, r: int, i: int, j: int, f: LinearSymbol) -> tuple:
    """Stages one and two of `beta_chain` on `zeta_image(d, r, f)`: (out, den).

    out[s][t] / den is the coefficient of u1^(du-s) u2^s v1^(dv-t) v2^t after
    those two stages, built as a sum of outer products of contracted terms
    of G and H (see the module docstring).
    """
    n, m = 2 * i - 1, 2 * j - 1
    (g, g_den), (h, h_den) = _factor_terms(d, r, f)
    w1, w2 = _weights(d, d, n), _weights(d, d, m)
    su, sv = 2 * (d - n) + 1, 2 * (d - m) + 1

    def summed(terms, w, k, size):
        return [sum(c) for c in zip(*(_contracted(p, q, w, k, size) for p, q in terms))]

    # G(x, y) * H(z, w) and G(z, w) * H(x, y): each factor holds both pairs
    # of one stage and is contracted on its own.
    products = [
        (summed(g, w1, n, su), summed(h, w2, m, sv)),
        (summed(h, w1, n, su), summed(g, w2, m, sv)),
    ]
    # The four split summands, each -G(x, z) * H(y, w): a term pair's x and
    # y sides meet in stage one and its z and w sides in stage two.
    products += [
        ([-4 * c for c in _contracted(gx, hy, w1, n, su)], _contracted(gz, hw, w2, m, sv))
        for gx, gz in g
        for hy, hw in h
    ]
    u_sides, v_sides = zip(*products)
    out = [[sum(map(mul, us, vs)) for vs in zip(*v_sides)] for us in zip(*u_sides)]
    return out, g_den * h_den


CConstants = namedtuple("CConstants", "c1 c1p c2 c2p c3 c3p c3pp")
CConstants.__doc__ = """The seven contraction constants of the two-stage evaluation of one
zeta summand; primes mark the second stage, with the last two in their
boundary-safe unconditional forms."""


def c_constants(d: int, r: int, i: int, j: int) -> CConstants:
    """Closed-form contraction constants for one summand's two-stage collapse."""
    _check_indices(d, r, i, j)
    c1 = Fraction(
        (2 * i - 1)
        * (d - 2 * r + 1)
        * factorial(d - 1)
        * factorial(2 * r - 1),
        factorial(d - 2 * i + 1) * factorial(2 * r - 2 * i + 1),
    )
    c1p = Fraction(
        factorial(2 * r - 2 * i + 1) * factorial(d),
        factorial(2 * r - 2 * i - 2 * j + 2) * factorial(d - 2 * j + 1),
    )
    c2 = Fraction(
        (2 * i - 1) * factorial(d - 1) * factorial(2 * r - 1),
        factorial(d - 2 * i + 1) * factorial(2 * r - 2 * i),
    )
    c2p = Fraction(
        factorial(2 * r - 2 * i) * factorial(d - 1),
        factorial(2 * r - 2 * i - 2 * j + 2) * factorial(d - 2 * j + 1),
    )
    c3 = Fraction(
        (d - 2 * i + 1) * factorial(d - 1) * factorial(2 * r - 1),
        factorial(d - 2 * i + 1) * factorial(2 * r - 2 * i),
    )
    c3p = Fraction(
        (2 * j - 1)
        * (d - 2 * r + 2 * i)
        * factorial(2 * r - 2 * i)
        * factorial(d - 1),
        factorial(2 * r - 2 * i - 2 * j + 2) * factorial(d - 2 * j + 1),
    )
    c3pp = Fraction(
        (d - 2 * j + 1)
        * (2 * r - 2 * i - 2 * j + 2)
        * factorial(2 * r - 2 * i)
        * factorial(d - 1),
        factorial(2 * r - 2 * i - 2 * j + 2) * factorial(d - 2 * j + 1),
    )
    return CConstants(c1, c1p, c2, c2p, c3, c3p, c3pp)


def c_aggregate(d: int, r: int, i: int, j: int) -> Fraction:
    """Predicted eigenvalue contribution of the crossed summand (xw)(yz)^(2r-1)...

    h(d,d;2i-1)*h(d,d;2j-1) times the signed combination of the contraction
    constants; `beta_chain` applied to that summand must reproduce exactly
    this multiple of f_t^(4(d-r)).
    """
    c = c_constants(d, r, i, j)
    inner = (
        -c.c1 * c.c1p
        - (2 * d - 2 * j + 2) * (2 * j - 1) * c.c2 * c.c2p
        - c.c3 * c.c3p
        + c.c3 * c.c3pp
    )
    return h_factor(d, d, 2 * i - 1) * h_factor(d, d, 2 * j - 1) * inner


def _proportionality(output: BinaryForm, reference: BinaryForm) -> Fraction:
    """The ratio of output to reference; raises unless the forms are proportional.

    With p the first nonzero numerator of the reference, out[k] * ref[p] ==
    ref[k] * out[p] must hold for every k, in integers.
    """
    if output.order == reference.order:
        out, ref = output._nums, reference._nums
        pivot = next(k for k, c in enumerate(ref) if c)
        a, b = out[pivot], ref[pivot]
        if all(x * b == y * a for x, y in zip(out, ref)):
            return Fraction(a * reference._den, b * output._den)
    raise FormulaViolationError("chain output is not proportional to the reference power")


def omega_chain(d: int, r: int, i: int, j: int, f: LinearSymbol = DEFAULT_SYMBOL) -> Fraction:
    """The chain eigenvalue theta_{i,j}: the ratio of the chain's output to
    the reference power f_t^(4(d-r)).

    The output equals `beta_chain(zeta_image(d, r, f), d, r, i, j)`; stages
    one and two run on the terms of the factors G and H (`_stages_one_two`),
    and stage three takes their matrix of numerators.  Raises `FormulaViolationError`
    unless the output is proportional to the reference power.
    """
    _check_indices(d, r, i, j)
    output = _stage_three_matrix(*_stages_one_two(d, r, i, j, f), d, r, i, j)
    return _proportionality(output, BinaryForm.of_linear_power(f, 4 * (d - r)))


def verify_theta(
    d: int, r: int, i: int, j: int, f: LinearSymbol = DEFAULT_SYMBOL
) -> Fraction:
    """Chain eigenvalue for (d, r, i, j); raises unless it matches `theta`."""
    ratio = omega_chain(d, r, i, j, f)
    expected = theta(d, r, i, j)
    if ratio != expected:
        raise FormulaViolationError(
            f"chain eigenvalue {ratio} != closed form {expected} "
            f"at d={d}, r={r}, (i,j)=({i},{j})"
        )
    return ratio
