"""The q-th transvectant of two binary forms, as one integer computation.

Each input form is stored as integer numerators over one denominator D.
Coefficient a_k of the order-m form is scaled by k!(m-k)!, divided by the
content m!/L_m of those factorials, where L_m = lcm_k C(m,k): so
a'_k = a_k L_m / C(m,k), the smallest integer weights proportional to
k!(m-k)!.  Entry u of the (q-s, s) mixed partial of f is then
P_s[u] = C(m-q,u) a'_{u+s} times m! / (L_m (m-q)!), a factor free of s
and u.  With Q_s[v] = C(n-q,v) b'_{v+s} likewise for g, the whole
alternating derivative sum is

    (f, g)_q = sum_s (-1)^s C(q,s) P_s(x) Q_{q-s}(x)   over L_m L_n D_f D_g.

Each polynomial product runs as one `int` product (Kronecker
substitution, as in FLINT's fmpz_poly_mul; D. Harvey, J. Symbolic Comput.
44, 2009): P_s and Q_s are evaluated at x = 2^k, slot u of the packed
integer holding P_s[u], and the q+1 signed products go into one `int`
S = sum_w out[w] 2^(kw).  When f is g, the terms s and q-s are equal up
to the sign (-1)^q, so an odd q gives zero and an even q needs only the
products with s <= q/2.

The packs of one form at every order come from one another (`_packs`).
The top order asked for is packed by Horner's rule; Pascal's rule
C(m-q,u) = C(m-q-1,u) + C(m-q-1,u-1) then gives each lower level as

    P_s^(q) = P_s^(q+1) + (P_{s+1}^(q+1) << k),

one shift and one add per pack.  So a caller that needs several orders
of one form, such as the combinants (A, B)_{2r-1} of a pencil or the
terms of a syzygy sum, packs each form once.

The slot width k comes from a bound on the output.  C(m-q,u) <= C(m,u+s)
(Vandermonde), so |P_s[u]| <= L_m max|a|, the form's `_height`; at most
min(m,n)-q+1 pairs (u, v) meet in an output slot, and the C(q,s) sum to
2^q, so

    |out[w]| <= (min(m,n)-q+1) * L_m max|a| * L_n max|b| * 2^q  <  2^(k-1),

with k the bound's bit length plus a sign bit, rounded up to whole bytes.
The unpack is then exact: adding H = 2^(k-1) to every slot makes each
digit out[w] + H lie in [0, 2^k), so the one `int` addition
S + H sum_w 2^(kw) carries every borrow between slots, and its bytes read
off in k-bit slots are the out[w] + H.  The packs themselves are exact at
any k, being values of integer polynomials at 2^k, so levels that share
one width are unpacked exactly whenever that width is the largest of
their bounds: a wider slot only leaves more room for each digit.  The
result is stored as a form over the denominator L_m L_n D_f D_g, reduced
by one gcd.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .forms import BinaryForm


@lru_cache(maxsize=None)
def _row(n: int) -> tuple:
    """The binomial row C(n, 0), ..., C(n, n), kept for every n met; n never
    exceeds the largest order transvected."""
    return tuple(math.comb(n, k) for k in range(n + 1))


@lru_cache(maxsize=None)
def _weights(m: int) -> tuple[tuple, int]:
    """The weights L_m / C(m,k), k = 0..m, and L_m = lcm of the C(m,k), kept
    for every order m met, as `_row` is."""
    binomials = _row(m)
    top = math.lcm(*binomials)
    return tuple(top // c for c in binomials), top


def _height(f: BinaryForm) -> int:
    """L_m max|a|, a bound on every packed entry |P_s[u]| of f at every order."""
    return _weights(f.order)[1] * max(map(abs, f._nums))


def _bound(height: int, low: int, q: int) -> int:
    """The bound on every |out[w]| of (f, g)_q, from the product `height` of
    the two forms' heights and the lower order `low` of the two."""
    return height * (low - q + 1) << q


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for outputs bounded by `bound`: its bits and a sign bit."""
    return (bound.bit_length() + 8) // 8


def _packs(f: BinaryForm, k: int, orders) -> dict:
    """{q: [P_0, ..., P_q]} for each q in `orders`, packed in k-bit slots.

    P_s = sum_u C(m-q,u) a'_{u+s} 2^(ku) at order q.  The top order is
    packed by Horner's rule, and each lower order down to the lowest one
    asked for by Pascal's rule from the order above it.
    """
    m = f.order
    a = [x * w for w, x in zip(_weights(m)[0], f._nums)]
    top, low = max(orders), min(orders)
    row = _row(m - top)
    level = []
    for s in range(top + 1):
        # Horner from the top slot down; C(m-q,u) = C(m-q,m-q-u) pairs the
        # row with the reversed window.
        p = 0
        for c, x in zip(row, a[s + m - top :: -1]):
            p = (p << k) + c * x
        level.append(p)
    packs = {top: level}
    for q in range(top - 1, low - 1, -1):
        level = [p + (p1 << k) for p, p1 in zip(level, level[1:])]
        if q in orders:
            packs[q] = level
    return packs


def _product_sum(p: list, r: list, q: int) -> int:
    """sum_s (-1)^s C(q,s) p[s] r[q-s]; when p is r, s is paired with q-s."""
    row = _row(q)
    if p is r:
        if q % 2:
            return 0
        half = q // 2
        total = 0
        for s in range(half):
            t = row[s] * p[s] * p[q - s]
            total = total - t if s % 2 else total + t
        t = row[half] * p[half] * p[half]
        return 2 * total - t if half % 2 else 2 * total + t
    total = 0
    for s, c in enumerate(row):
        t = c * p[s] * r[q - s]
        total = total - t if s % 2 else total + t
    return total


def _slots(total: int, kb: int, size: int) -> list:
    """The `size` signed kb-byte slots of `total`, lowest first."""
    half = 1 << (8 * kb - 1)
    offset = int.from_bytes(half.to_bytes(kb, "little") * size, "little")
    raw = (total + offset).to_bytes(kb * size, "little")
    read = int.from_bytes
    return [read(raw[j : j + kb], "little") - half for j in range(0, kb * size, kb)]


def _transvectants(f: BinaryForm, g: BinaryForm, orders) -> dict:
    """{q: (f, g)_q} for each q in `orders`, each 0 <= q <= min of the orders, unchecked.

    f and g are each packed once, at one slot width for every order.
    """
    m, n = f.order, g.order
    height = _height(f) * _height(g)
    kb = _slot_bytes(max(_bound(height, min(m, n), q) for q in orders))
    pf = _packs(f, 8 * kb, orders)
    pg = pf if g is f else _packs(g, 8 * kb, orders)
    den = _weights(m)[1] * _weights(n)[1] * f._den * g._den
    return {
        q: BinaryForm._raw(_slots(_product_sum(pf[q], pg[q], q), kb, m + n - 2 * q + 1), den)
        for q in orders
    }


def _transvectant(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """(f, g)_q for 0 <= q <= min of the orders, unchecked."""
    return _transvectants(f, g, (q,))[q]


def transvectant(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """The q-th transvectant of f (order m) and g (order n).

    Result has order m + n - 2q, possibly as the zero form.  Requires
    0 <= q <= min(m, n); out-of-range q is an error rather than a silent
    zero, so caller bugs do not vanish into selection rules.
    """
    m, n = f.order, g.order
    if not 0 <= q <= min(m, n):
        raise ValueError(f"transvectant index {q} outside 0..min({m},{n})")
    return _transvectant(f, g, q)
