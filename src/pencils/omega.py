"""Independent verification of the syzygy coefficients by differential operators.

The coefficient theta_{i,j} is, by Schur's lemma, the eigenvalue of a chain
of equivariant maps acting on a single explicitly constructed alternating
quadrihomogeneous form (`zeta_image`).  This module builds that form,
pushes it through the chain (`beta_chain`) using the second-order operator

    omega_{pq} = d^2/(dp1 dq2) - d^2/(dq1 dp2)

implemented by formal differentiation on sparse MultiForms, and reads off
the eigenvalue as an exact rational.  Agreement with `syzygy.theta` is a
genuinely independent check: nothing here shares code with the factorial
formula.

Each of the six summands of `zeta_image` is the product of two forms over
disjoint pairs, G(a, b) = (ab) f_a^(d-1) f_b^(d-1) and
H(c, e) = (ce)^(2r-1) f_c^(d-2r+1) f_e^(d-2r+1).  G and H are built once,
on the pairs x and y, each with at most (d+1)^2 terms, and moved onto the
pairs a summand needs by shifting their packed 32-bit pair fields; the
image is one signed accumulation of the six outer products, in which only
different summands share monomials.  The two terms of omega commute, so

    omega^n = sum_k (-1)^k C(n,k) (d_p1 d_q2)^(n-k) (d_q1 d_p2)^k,

and `omega(form, p, q, n)` maps each monomial straight to its n+1 images
with falling factorials of its four exponents in p and q.  The chain
follows every operator power by merging p and q into one pair t, and the
k-th image of p1^a1 p2^a2 q1^b1 q2^b2 has p1 and q1 exponents that sum to
a1+b1-n and p2 and q2 exponents that sum to a2+b2-n, whatever k is.  So
after the merge all n+1 images land on the one monomial
t1^(a1+b1-n) t2^(a2+b2-n), and the power and the merge together map each
monomial to one image whose factor is the sum of the n+1 factors.
`beta_chain` makes one such pass (`_contracted`) per operator power,
three in all, and never builds the larger form omega alone would return.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, perm

from .errors import FormulaViolationError
from .forms import (
    _MAX_EXPONENT,
    _WIDTH,
    BinaryForm,
    LinearSymbol,
    MultiForm,
    _merged_degrees,
    _shift,
    check_pair,
    linear_power,
)
from .syzygy import theta

DEFAULT_SYMBOL = LinearSymbol(1, 2)


def bracket(pair1: str, pair2: str) -> MultiForm:
    """The determinant form p1*q2 - q1*p2 of two distinct pairs."""
    check_pair(pair1)
    check_pair(pair2)
    if pair1 == pair2:
        raise ValueError("bracket needs two distinct pairs")
    plus = (1 << _shift(pair1, 1)) + (1 << _shift(pair2, 2))
    minus = (1 << _shift(pair2, 1)) + (1 << _shift(pair1, 2))
    return MultiForm._raw({pair1: 1, pair2: 1}, {plus: 1, minus: -1}, 1, 1)


def _check_operator(pair1: str, pair2: str, n: int) -> None:
    check_pair(pair1)
    check_pair(pair2)
    if pair1 == pair2:
        raise ValueError("operator needs two distinct pairs")
    if n < 0:
        raise ValueError(f"operator power must be nonnegative, got {n}")


def _lowered_degrees(degrees: dict, pair1: str, pair2: str, n: int) -> dict:
    deg = dict(degrees)
    for pair in (pair1, pair2):
        old = deg.pop(pair, 0)
        if old > n:
            deg[pair] = old - n
    return deg


def _power_terms(fields: int, n: int) -> list:
    """(k, integer factor) of each term of omega^n that survives on one monomial.

    `fields` holds the monomial's two 2 * _WIDTH-bit pair fields, the first
    pair's in the low half, so its exponents p1, p2, q1, q2.  The m-th
    derivative maps an exponent e to perm(e, m), so the k-th term,
    (-1)^k C(n,k) (d_p1 d_q2)^(n-k) (d_q1 d_p2)^k, survives when
    n - k <= min(p1, q2) and k <= min(q1, p2).
    """
    width = 2 * _WIDTH
    mask = _MAX_EXPONENT
    p1, p2 = fields & mask, (fields >> _WIDTH) & mask
    q1, q2 = (fields >> width) & mask, fields >> (width + _WIDTH)
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
    _check_operator(pair1, pair2, n)
    a1, b1 = _shift(pair1, 1), _shift(pair2, 1)
    step_ab = (1 << a1) + (1 << _shift(pair2, 2))
    step_ba = (1 << b1) + (1 << _shift(pair1, 2))
    # A monomial's image depends only on its two pair fields: `images` keeps,
    # per such pair of fields, the (key offset, integer factor) of each term.
    width = 2 * _WIDTH
    field = (1 << width) - 1
    images: dict = {}
    out: dict = {}
    get = out.get
    for mono, coeff in form._terms.items():
        fields = (((mono >> b1) & field) << width) + ((mono >> a1) & field)
        image = images.get(fields)
        if image is None:
            image = images[fields] = [
                (-(n - k) * step_ab - k * step_ba, factor)
                for k, factor in _power_terms(fields, n)
            ]
        for offset, factor in image:
            key = mono + offset
            out[key] = get(key, 0) + coeff * factor
    deg = _lowered_degrees(form.degrees, pair1, pair2, n)
    return MultiForm._raw(deg, {m: c for m, c in out.items() if c}, form._den, form._top)


def _contracted(form: MultiForm, pair1: str, pair2: str, n: int, to: str) -> MultiForm:
    """omega(form, pair1, pair2, n).substituted(pair1, pair2, to) in one pass.

    Merging the pairs sends the image of the k-th term of omega^n of
    p1^a1 p2^a2 q1^b1 q2^b2 to t1^(a1+b1-n) t2^(a2+b2-n), whatever k is,
    so each monomial has one image, and its factor is the sum of the
    factors `omega` lists for it.
    """
    _check_operator(pair1, pair2, n)
    deg = _merged_degrees(_lowered_degrees(form.degrees, pair1, pair2, n), pair1, pair2, to)
    top = 2 * form._top
    if top > _MAX_EXPONENT:
        # Past the slot limit `substituted` reads the merged exponents of
        # omega's output term by term; take that route, so as to refuse
        # exactly what it refuses.
        return omega(form, pair1, pair2, n).substituted(pair1, pair2, to)
    width = 2 * _WIDTH
    field = (1 << width) - 1
    sa, sb, st = _shift(pair1, 1), _shift(pair2, 1), _shift(to, 1)
    merged = (field << sa) | (field << sb) | (field << st)
    keep = ~merged
    drop = n + (n << _WIDTH)
    # Per value of the three pair fields, the merged field shifted onto `to`
    # and the weight.  A nonzero weight has a surviving term, so a1+b1 >= n
    # and a2+b2 >= n, and with every merged exponent within `top` no slot
    # borrows or carries.
    images: dict = {}
    out: dict = {}
    get = out.get
    for mono, coeff in form._terms.items():
        part = mono & merged
        image = images.get(part)
        if image is None:
            fields = (((part >> sb) & field) << width) + ((part >> sa) & field)
            weight = sum(factor for _, factor in _power_terms(fields, n))
            image = images[part] = (((fields & field) + (fields >> width) - drop) << st, weight)
        offset, weight = image
        if weight:
            key = (mono & keep) + offset
            out[key] = get(key, 0) + coeff * weight
    return MultiForm._raw(deg, {m: c for m, c in out.items() if c}, form._den, top)


def h_factor(m: int, n: int, q: int) -> Fraction:
    """(m + n - 2q + 1)! / ((m + n - q + 1)! * q!)."""
    if not 0 <= q <= min(m, n):
        raise ValueError(f"h factor needs 0 <= q <= min(m, n), got m={m}, n={n}, q={q}")
    return Fraction(
        factorial(m + n - 2 * q + 1), factorial(m + n - q + 1) * factorial(q)
    )


def mu_factor(p: int, q: int, ell: int, m: int) -> Fraction:
    """ell!/(ell-m)! * (p+q-ell+2m+1)!/(p+q-ell+m+1)! for ell >= m >= 0.

    The complementary case ell < m corresponds to a map that is identically
    zero after substitution; callers handle that branch themselves.
    """
    if m < 0 or ell < m:
        raise ValueError(f"mu factor needs ell >= m >= 0, got ell={ell}, m={m}")
    if p + q - ell + m + 1 < 0:
        raise ValueError(
            f"mu factor undefined: operator power ell={ell} exceeds the orders p={p}, q={q}"
        )
    return Fraction(
        factorial(ell) * factorial(p + q - ell + 2 * m + 1),
        factorial(ell - m) * factorial(p + q - ell + m + 1),
    )


def _factors(d: int, r: int, f: LinearSymbol) -> tuple:
    """G = (xy) f_x^(d-1) f_y^(d-1) and H = (xy)^(2r-1) f_x^(d-2r+1) f_y^(d-2r+1).

    Every zeta summand is G on one pair of pairs times H on the other two.
    """
    xy = bracket("x", "y")
    g = xy * linear_power(f, "x", d - 1) * linear_power(f, "y", d - 1)
    e = d - 2 * r + 1
    h = xy ** (2 * r - 1) * linear_power(f, "x", e) * linear_power(f, "y", e)
    return g, h


def _moved(form: MultiForm, pair1: str, pair2: str) -> list:
    """(key, numerator) of a form over x, y with x moved to pair1 and y to pair2.

    A pair's two slots make one 2 * _WIDTH-bit field, so a move is a shift.
    """
    width = 2 * _WIDTH
    field = (1 << width) - 1
    s1, s2 = _shift(pair1, 1), _shift(pair2, 1)
    return [(((m & field) << s1) + ((m >> width) << s2), c) for m, c in form._terms.items()]


def _outer_sum(d: int, g: MultiForm, h: MultiForm, summands) -> MultiForm:
    """sum of sign * G(a, b) * H(c, e) over the (sign, (a, b, c, e)) summands.

    The pairs of one summand are distinct, so its product has one term per
    pair of terms of G and H, and only different summands share monomials.
    """
    out: dict = {}
    get = out.get
    for sign, (a, b, c, e) in summands:
        moved_h = _moved(h, c, e)
        for mg, cg in _moved(g, a, b):
            cg *= sign
            for mh, ch in moved_h:
                key = mg + mh
                out[key] = get(key, 0) + cg * ch
    degrees = dict.fromkeys(summands[0][1], d)
    terms = {m: c for m, c in out.items() if c}
    return MultiForm._raw(degrees, terms, g._den * h._den, max(g._top, h._top))


def zeta_summand(
    d: int, r: int, pair_a: str, pair_b: str, pair_c: str, pair_e: str, f: LinearSymbol
) -> MultiForm:
    """(ab) * (ce)^(2r-1) * f_a^(d-1) * f_b^(d-1) * f_c^(d-2r+1) * f_e^(d-2r+1).

    The four pairs must be distinct.
    """
    pairs = (pair_a, pair_b, pair_c, pair_e)
    if len(set(pairs)) != 4:
        raise ValueError(f"a zeta summand needs four distinct pairs, got {pairs}")
    return _outer_sum(d, *_factors(d, r, f), [(1, pairs)])


def zeta_image(d: int, r: int, f: LinearSymbol = DEFAULT_SYMBOL) -> MultiForm:
    """The alternating six-term quadrihomogeneous form of order d in x, y, z, w.

    This is the image of f_t^(4(d-r)) under the specific equivariant map
    whose chain eigenvalues are the syzygy coefficients.  Alternating in all
    four pairs by construction.
    """
    if r < 3 or 2 * r > d + 1:
        raise ValueError(f"weight index r={r} outside 3..floor((d+1)/2) for d={d}")
    summands = (
        (1, "xyzw"), (-1, "xzyw"), (1, "xwyz"), (-1, "ywxz"), (1, "zwxy"), (-1, "zyxw"),
    )
    return _outer_sum(d, *_factors(d, r, f), summands)


def beta_chain(q_form: MultiForm, d: int, r: int, i: int, j: int) -> BinaryForm:
    """Project a quadrihomogeneous form of order d in x, y, z, w down to the t pair.

    Stage one applies omega_{xy}^(2i-1) * omega_{zw}^(2j-1), merges x,y into
    u and z,w into v, and scales by h(d,d;2i-1)*h(d,d;2j-1).  Stage two
    applies omega_{uv}^(2(r-i-j+1)), merges u,v into t, and scales by the
    matching h factor.  The result is a binary form of order 4(d-r).
    """
    if r < 3 or 2 * r > d + 1:
        raise ValueError(f"weight index r={r} outside 3..floor((d+1)/2) for d={d}")
    if not (1 <= i <= r and 1 <= j <= r and i + j <= r + 1):
        raise ValueError(f"projection indices (i,j)=({i},{j}) out of range for r={r}")
    for pair in ("x", "y", "z", "w"):
        if q_form.degree(pair) != d:
            raise ValueError(
                f"input must have degree {d} in pair {pair!r}, got {q_form.degree(pair)}"
            )
    out = _contracted(q_form, "x", "y", 2 * i - 1, "u")
    out = _contracted(out, "z", "w", 2 * j - 1, "v")
    out = out * (h_factor(d, d, 2 * i - 1) * h_factor(d, d, 2 * j - 1))
    q3 = 2 * (r - i - j + 1)
    out = _contracted(out, "u", "v", q3, "t")
    out = out * h_factor(2 * d - 4 * i + 2, 2 * d - 4 * j + 2, q3)
    return out.as_binary_form("t")


class CConstants(namedtuple("CConstants", "c1 c1p c2 c2p c3 c3p c3pp")):
    """The seven contraction constants of the two-stage evaluation of one
    zeta summand; primes mark the second stage, with the last two in their
    boundary-safe unconditional forms."""

    __slots__ = ()

    def __repr__(self):
        body = ", ".join(f"{n}={v}" for n, v in zip(self._fields, self))
        return f"CConstants({body})"


def c_constants(d: int, r: int, i: int, j: int) -> CConstants:
    """Closed-form contraction constants for one summand's two-stage collapse."""
    if r < 3 or 2 * r > d + 1:
        raise ValueError(f"weight index r={r} outside 3..floor((d+1)/2) for d={d}")
    if not (1 <= i <= r and 1 <= j <= r and i + j <= r + 1):
        raise ValueError(f"indices (i,j)=({i},{j}) out of range for r={r}")
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


class OmegaChainResult(namedtuple("OmegaChainResult", "d r i j f output ratio")):
    """Outcome of one full chain evaluation: the output form and its ratio
    against the reference power f_t^(4(d-r))."""

    __slots__ = ()

    def __repr__(self):
        return (
            f"OmegaChainResult(d={self.d}, r={self.r}, i={self.i}, j={self.j}, "
            f"ratio={self.ratio})"
        )


def _proportionality(output: BinaryForm, reference: BinaryForm) -> Fraction:
    pivot = next(k for k, c in enumerate(reference.coeffs) if c)
    ratio = output.coeffs[pivot] / reference.coeffs[pivot]
    if output != ratio * reference:
        raise FormulaViolationError("chain output is not proportional to the reference power")
    return ratio


def omega_chain(
    d: int, r: int, i: int, j: int, f: LinearSymbol = DEFAULT_SYMBOL
) -> OmegaChainResult:
    """Run the full chain on the constructed alternating form and read the ratio."""
    output = beta_chain(zeta_image(d, r, f), d, r, i, j)
    reference = BinaryForm.of_linear_power(f, 4 * (d - r))
    ratio = _proportionality(output, reference)
    return OmegaChainResult(d, r, i, j, f, output, ratio)


def verify_theta(
    d: int, r: int, i: int, j: int, f: LinearSymbol = DEFAULT_SYMBOL
) -> Fraction:
    """Chain eigenvalue for (d, r, i, j); raises unless it matches `theta`."""
    result = omega_chain(d, r, i, j, f)
    expected = theta(d, r, i, j)
    if result.ratio != expected:
        raise FormulaViolationError(
            f"chain eigenvalue {result.ratio} != closed form {expected} "
            f"at d={d}, r={r}, (i,j)=({i},{j})"
        )
    return result.ratio
