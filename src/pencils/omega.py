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
image is one signed accumulation of the six outer products.  The two terms
of omega commute, so

    omega^n = sum_k (-1)^k C(n,k) (d_p1 d_q2)^(n-k) (d_q1 d_p2)^k,

and `omega(form, p, q, n)` maps each monomial straight to its n+1 images
with falling factorials of its four exponents in p and q.  The chain
follows every operator power by merging p and q into one pair t, and the
k-th image of p1^a1 p2^a2 q1^b1 q2^b2 lands on t1^(a1+b1-n) t2^(a2+b2-n)
whatever k is, so the power and the merge together map each monomial to
one image weighted by the sum of the n+1 factors (`_contracted`).
`beta_chain` makes one such pass per operator power, three in all.

`omega_chain`, behind `verify_theta`, never builds the image.  Stage one
(omega_{xy}^(2i-1), then x,y merged into u) differentiates only in x and
y, and stage two (omega_{zw}^(2j-1), then z,w merged into v) only in z and
w, so on a summand G(a, b) * H(c, e) both stages see a pair of terms, one
of G and one of H, through the exponents of its own two pairs alone.
`_stages_one_two` therefore runs both stages on the factors, in three
parts.  In G(x, y) * H(z, w) and G(z, w) * H(x, y) each factor holds both
pairs of one stage, is contracted on its own, and the summand is the outer
product of two small forms.  The other four summands each hold one pair of
each stage in each factor, and after the two stages they are one form over
u and v: G and H are odd in their two pairs, and so are omega_{xy}^(2i-1)
and omega_{zw}^(2j-1), while the merges are symmetric, so relabelling x,y
or z,w carries each of them, times its sign, onto -G(x, z) * H(y, w).
That one is walked pair of terms by pair of terms, each weighted by the
stage-one factor of its x and y exponents times the stage-two factor of
its z and w exponents, and counted four times.  With n = 2i-1 and
m = 2j-1 the output over u and v has at most (2d-2n+1)(2d-2m+1) terms,
against about (d+1)^4 in the image.  Stage three is shared with
`beta_chain`, and `beta_chain(zeta_image(...))` is the reference the
tests hold it to.
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


def _check_weight(d: int, r: int) -> None:
    if r < 3 or 2 * r > d + 1:
        raise ValueError(f"weight index r={r} outside 3..floor((d+1)/2) for d={d}")


def _check_indices(d: int, r: int, i: int, j: int) -> None:
    _check_weight(d, r)
    if not (1 <= i <= r and 1 <= j <= r and i + j <= r + 1):
        raise ValueError(f"projection indices (i,j)=({i},{j}) out of range for r={r}")


# (sign, pairs a, b, c, e) of each summand sign * G(a, b) * H(c, e) of zeta_image.
_SUMMANDS = ((1, "xyzw"), (-1, "xzyw"), (1, "xwyz"), (-1, "ywxz"), (1, "zwxy"), (-1, "zyxw"))


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
    _check_weight(d, r)
    return _outer_sum(d, *_factors(d, r, f), _SUMMANDS)


def beta_chain(q_form: MultiForm, d: int, r: int, i: int, j: int) -> BinaryForm:
    """Project a quadrihomogeneous form of order d in x, y, z, w down to the t pair.

    Stage one applies omega_{xy}^(2i-1) * omega_{zw}^(2j-1), merges x,y into
    u and z,w into v, and scales by h(d,d;2i-1)*h(d,d;2j-1).  Stage two
    applies omega_{uv}^(2(r-i-j+1)), merges u,v into t, and scales by the
    matching h factor.  The result is a binary form of order 4(d-r).
    """
    _check_indices(d, r, i, j)
    for pair in ("x", "y", "z", "w"):
        if q_form.degree(pair) != d:
            raise ValueError(
                f"input must have degree {d} in pair {pair!r}, got {q_form.degree(pair)}"
            )
    out = _contracted(q_form, "x", "y", 2 * i - 1, "u")
    out = _contracted(out, "z", "w", 2 * j - 1, "v")
    return _stage_three(out, d, r, i, j)


def _stage_three(uv_form: MultiForm, d: int, r: int, i: int, j: int) -> BinaryForm:
    """Scale a form over u, v by h(d,d;2i-1)*h(d,d;2j-1), apply
    omega_{uv}^(2(r-i-j+1)), merge u,v into t and scale by the matching h factor."""
    out = uv_form * (h_factor(d, d, 2 * i - 1) * h_factor(d, d, 2 * j - 1))
    q3 = 2 * (r - i - j + 1)
    out = _contracted(out, "u", "v", q3, "t")
    out = out * h_factor(2 * d - 4 * i + 2, 2 * d - 4 * j + 2, q3)
    return out.as_binary_form("t")


def _matrix(form: MultiForm, d: int) -> list:
    """m[k][l]: the numerator of x1^(d-k) x2^k y1^(d-l) y2^l in a form of degree d in x and y."""
    m = [[0] * (d + 1) for _ in range(d + 1)]
    sx, sy = _shift("x", 2), _shift("y", 2)
    for mono, c in form._terms.items():
        m[(mono >> sx) & _MAX_EXPONENT][(mono >> sy) & _MAX_EXPONENT] = c
    return m


def _weights(d: int, n: int) -> list:
    """w[k][l]: the factor `_contracted(form, p, q, n, t)` gives p1^(d-k) p2^k q1^(d-l) q2^l."""
    width = 2 * _WIDTH
    return [
        [
            sum(
                factor
                for _, factor in _power_terms(
                    (d - k) + (k << _WIDTH) + ((d - l) << width) + (l << (width + _WIDTH)), n
                )
            )
            for l in range(d + 1)
        ]
        for k in range(d + 1)
    ]


def _pair_contracted(m: list, w: list, n: int) -> list:
    """v[s]: the numerator of t1^(2d-2n-s) t2^s in `_contracted` of the form m of `_matrix`."""
    d = len(m) - 1
    v = [0] * (2 * (d - n) + 1)
    for k, (row, w_row) in enumerate(zip(m, w)):
        for l, (c, weight) in enumerate(zip(row, w_row)):
            if c and weight:
                v[k + l - n] += c * weight
    return v


def _stages_one_two(d: int, r: int, i: int, j: int, f: LinearSymbol) -> MultiForm:
    """Stages one and two of `beta_chain` on `zeta_image(d, r, f)`, a form over u and v.

    Equal to the two `_contracted` calls of `beta_chain` on the image, but
    no product of G and H is built (see the module docstring).
    """
    n, m = 2 * i - 1, 2 * j - 1
    g, h = _factors(d, r, f)
    g_mat, h_mat = _matrix(g, d), _matrix(h, d)
    w1 = _weights(d, n)
    w2 = w1 if m == n else _weights(d, m)
    out = [[0] * (2 * (d - m) + 1) for _ in range(2 * (d - n) + 1)]
    # G(x, y) * H(z, w) and G(z, w) * H(x, y): each factor holds both pairs
    # of one stage and is contracted on its own.
    for u_side, v_side in (
        (_pair_contracted(g_mat, w1, n), _pair_contracted(h_mat, w2, m)),
        (_pair_contracted(h_mat, w1, n), _pair_contracted(g_mat, w2, m)),
    ):
        for row, cu in zip(out, u_side):
            if cu:
                for col, cv in enumerate(v_side):
                    row[col] += cu * cv
    # The four split summands, each -G(x, z) * H(y, w).  G's rows and
    # columns are its x and z exponents and H's its y and w exponents, so
    # both weight tables are read as stored.  h_weighted[l1][k2]: row l1 of
    # H weighted for G's z exponent k2, as (column of `out`, numerator); a
    # nonzero weight keeps k2 + l2 >= m.
    h_weighted = [
        [
            [(k2 + l2 - m, hv * weight)
             for l2, (hv, weight) in enumerate(zip(h_row, w2_row)) if hv and weight]
            for k2, w2_row in enumerate(w2)
        ]
        for h_row in h_mat
    ]
    for k1, (g_row, w1_row) in enumerate(zip(g_mat, w1)):
        g_terms = [(k2, -4 * gv) for k2, gv in enumerate(g_row) if gv]
        for l1, weight in enumerate(w1_row):
            if weight:
                row, h_row = out[k1 + l1 - n], h_weighted[l1]
                for k2, gv in g_terms:
                    cg = weight * gv
                    for col, hv in h_row[k2]:
                        row[col] += cg * hv
    du, dv = 2 * (d - n), 2 * (d - m)
    su1, su2, sv1, sv2 = _shift("u", 1), _shift("u", 2), _shift("v", 1), _shift("v", 2)
    terms = {
        ((du - s) << su1) + (s << su2) + ((dv - t) << sv1) + (t << sv2): c
        for s, row in enumerate(out)
        for t, c in enumerate(row)
        if c
    }
    degrees = {pair: deg for pair, deg in (("u", du), ("v", dv)) if deg}
    return MultiForm._raw(degrees, terms, g._den * h._den, 2 * d)


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
    """Run the full chain on the constructed alternating form and read the ratio.

    The output equals `beta_chain(zeta_image(d, r, f), d, r, i, j)`; stages
    one and two run on the factors G and H (`_stages_one_two`).
    """
    _check_indices(d, r, i, j)
    output = _stage_three(_stages_one_two(d, r, i, j, f), d, r, i, j)
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
