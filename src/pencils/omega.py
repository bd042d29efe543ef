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
`MultiForm`s: `zeta_summand` multiplies out its brackets and linear
powers, `zeta_image` sums the six signed summands, and `beta_chain` makes
three passes of `omega` then `MultiForm.substituted`, each scaled by its
`h_factor`.  It shares no kernel with the fused route, which the tests
hold to it.

The fused route, `omega_chain` behind `verify_theta`, never builds the
image.  Each summand is G(a, b) * H(c, e) over disjoint pairs, with
G(a, b) = (ab) f_a^(d-1) f_b^(d-1) and H(c, e) = (ce)^(2r-1) f_c^(d-2r+1)
f_e^(d-2r+1), held as integer matrices over x and y (`_factor_matrices`).
After omega^n the k-th image of p1^a1 p2^a2 q1^b1 q2^b2 merges onto
t1^(a1+b1-n) t2^(a2+b2-n) whatever k is, so a power and its merge weight
each monomial by the sum of its n+1 factors: one cell of a table per
(degrees, power) (`_weights`), built as n+1 outer products of integer
vectors, since each factor is a part in the p exponents times a part in
the q exponents.  Stage one (omega_{xy}^(2i-1), x,y into u) and stage two
(omega_{zw}^(2j-1), z,w into v) each see only their own pairs, so
`_stages_one_two` runs them on the factors, in three parts.  In
G(x, y) * H(z, w) and G(z, w) * H(x, y) each factor holds both pairs of
one stage and is contracted on its own.  The other four summands give one
form over u and v: G, H, omega_{xy}^(2i-1) and omega_{zw}^(2j-1) are odd
in their two pairs and the merges are symmetric, so relabelling carries
each, times its sign, onto -G(x, z) * H(y, w).  That one is walked pair
of terms by pair of terms, weighted by both stages' (d, d) tables, and
counted four times.  The result is a (2d-4i+3) x (2d-4j+3) matrix of
integer numerators, against about (d+1)^4 terms in the image;
`_stage_three_matrix` weights it by one more table onto the numerators
over t and applies the three h factors as one fraction, and the ratio to
the reference power is read by cross-multiplying integer numerators.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, perm

from .errors import FormulaViolationError
from .forms import (
    _MAX_EXPONENT,
    _WIDTH,
    BinaryForm,
    LinearSymbol,
    MultiForm,
    _linear_pow_ints,
    _shift,
    check_pair,
    linear_power,
)
from .syzygy import _check_indices, _check_weight, theta

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


# (sign, pairs a, b, c, e) of each summand sign * G(a, b) * H(c, e) of zeta_image.
_SUMMANDS = ((1, "xyzw"), (-1, "xzyw"), (1, "xwyz"), (-1, "ywxz"), (1, "zwxy"), (-1, "zyxw"))


def _reduced(matrix: list, den: int) -> tuple:
    """(matrix, den) divided by the gcd of den and every entry."""
    common = gcd(den, *chain.from_iterable(matrix))
    if common == 1:
        return matrix, den
    return [[c // common for c in row] for row in matrix], den // common


def _factor_matrices(d: int, r: int, f: LinearSymbol) -> tuple:
    """(G, its denominator) and (H, its denominator) on the pairs x and y, in integers.

    Entry [k][l] of a matrix is the numerator of x1^(d-k) x2^k y1^(d-l) y2^l.
    With a_k the numerators of f^(d-1), (xy) = x1 y2 - y1 x2 gives
    g[k][l] = a_k a_(l-1) - a_(k-1) a_l.  H is the outer product of the
    numerators of f^(d-2r+1) with themselves, convolved with the row
    (-1)^c C(2r-1, c) x2^c y2^(2r-1-c) of (xy)^(2r-1).  Each matrix is
    reduced by one gcd with its denominator, as `MultiForm` stores G and H.
    """
    a, den = _linear_pow_ints(f, d - 1)
    a = [0, *a, 0]  # a[k + 1] is a_k, and a_(-1) = a_d = 0
    g = [[a[k + 1] * a[l] - a[k] * a[l + 1] for l in range(d + 1)] for k in range(d + 1)]
    b, den_b = _linear_pow_ints(f, d - 2 * r + 1)
    b = [(k, c) for k, c in enumerate(b) if c]
    m = 2 * r - 1
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for c in range(m + 1):
        scale = (-1) ** c * comb(m, c)
        for k, bk in b:
            row, x = h[k + c], scale * bk
            for l, bl in b:
                row[l + m - c] += x * bl
    return _reduced(g, den * den), _reduced(h, den_b * den_b)


def zeta_summand(
    d: int, r: int, pair_a: str, pair_b: str, pair_c: str, pair_e: str, f: LinearSymbol
) -> MultiForm:
    """(ab) * (ce)^(2r-1) * f_a^(d-1) * f_b^(d-1) * f_c^(d-2r+1) * f_e^(d-2r+1).

    The four pairs must be distinct.
    """
    pairs = (pair_a, pair_b, pair_c, pair_e)
    if len(set(pairs)) != 4:
        raise ValueError(f"a zeta summand needs four distinct pairs, got {pairs}")
    e = d - 2 * r + 1
    return (
        bracket(pair_a, pair_b) * bracket(pair_c, pair_e) ** (2 * r - 1)
        * linear_power(f, pair_a, d - 1) * linear_power(f, pair_b, d - 1)
        * linear_power(f, pair_c, e) * linear_power(f, pair_e, e)
    )


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
                f"input must have degree {d} in pair {pair!r}, got {q_form.degree(pair)}"
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
    nums = _pair_contracted(out, _weights(du, dv, q3), q3)
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


def _pair_contracted(m: list, w: tuple, n: int) -> list:
    """v[s]: the numerator of t1^(dp+dq-2n-s) t2^s after omega^n and the merge
    into t of the form over p and q whose numerators m[k][l] sit where
    w = `_weights(dp, dq, n)` puts its cells."""
    v = [0] * (len(w) + len(w[0]) - 2 * n - 1)
    for k, (row, w_row) in enumerate(zip(m, w)):
        for l, (c, weight) in enumerate(zip(row, w_row)):
            if c and weight:
                v[k + l - n] += c * weight
    return v


def _stages_one_two(d: int, r: int, i: int, j: int, f: LinearSymbol) -> tuple:
    """Stages one and two of `beta_chain` on `zeta_image(d, r, f)`: (out, den).

    out[s][t] / den is the coefficient of u1^(du-s) u2^s v1^(dv-t) v2^t after
    those two stages, but no product of G and H is built (see the module
    docstring).
    """
    n, m = 2 * i - 1, 2 * j - 1
    (g_mat, g_den), (h_mat, h_den) = _factor_matrices(d, r, f)
    w1, w2 = _weights(d, d, n), _weights(d, d, m)
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
    return out, g_den * h_den


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


def omega_chain(
    d: int, r: int, i: int, j: int, f: LinearSymbol = DEFAULT_SYMBOL
) -> OmegaChainResult:
    """Run the full chain on the constructed alternating form and read the ratio.

    The output equals `beta_chain(zeta_image(d, r, f), d, r, i, j)`; stages
    one and two run on the factors G and H (`_stages_one_two`), and stage
    three takes their matrix of numerators.
    """
    _check_indices(d, r, i, j)
    output = _stage_three_matrix(*_stages_one_two(d, r, i, j, f), d, r, i, j)
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
