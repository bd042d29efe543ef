"""The q-th transvectant of two binary forms, as one integer computation.

Each input form is stored as integer numerators over one denominator D.
Coefficient a_k of the order-m form is scaled by k!(m-k)!, divided by the
content m!/L_m of those factorials, where L_m = lcm_k C(m,k): so
a'_k = a_k L_m / C(m,k), the smallest integer weights proportional to
k!(m-k)!.  Entry u of the (q-i, i) mixed partial of f is then
P_i[u] = C(m-q,u) a'_{u+i} times m! / (L_m (m-q)!), a factor free of i
and u.  With Q_i[v] = C(n-q,v) b'_{v+q-i} likewise, the whole alternating
derivative sum is

    (f, g)_q = sum_i (-1)^i C(q,i) P_i(x) Q_i(x)   over L_m L_n D_f D_g.

Each polynomial product runs as one `int` product (Kronecker
substitution, as in FLINT's fmpz_poly_mul; D. Harvey, J. Symbolic Comput.
44, 2009): P_i and Q_i are evaluated at x = 2^k, slot u of the packed
integer holding P_i[u], and the q+1 signed products go into one `int`
S = sum_w out[w] 2^(kw).  The slot width k comes from a bound on the
output.  C(m-q,u) <= C(m,u+i) (Vandermonde), so |P_i[u]| <= L_m max|a|;
at most min(m,n)-q+1 pairs (u, v) meet in an output slot, and the
C(q,i) sum to 2^q, so

    |out[w]| <= (min(m,n)-q+1) * L_m max|a| * L_n max|b| * 2^q  <  2^(k-1),

with k the bound's bit length plus a sign bit, rounded up to whole bytes.
The unpack is then exact: adding H = 2^(k-1) to every slot makes each
digit out[w] + H lie in [0, 2^k), so the one `int` addition
S + H sum_w 2^(kw) carries every borrow between slots, and its bytes read
off in k-bit slots are the out[w] + H.  The result is stored as a form
over the denominator L_m L_n D_f D_g, reduced by one gcd.
"""
from __future__ import annotations

import math

from .forms import BinaryForm


def _weights(m: int, table: dict) -> tuple[list, int]:
    """The weights L_m / C(m,k), k = 0..m, and L_m = lcm of the C(m,k).

    They are computed once per order m and kept in `table`.
    """
    weights = table.get(m)
    if weights is None:
        binomials = [math.comb(m, k) for k in range(m + 1)]
        top = math.lcm(*binomials)
        weights = table[m] = ([top // c for c in binomials], top)
    return weights


def _transvectant(f: BinaryForm, g: BinaryForm, q: int, table: dict) -> BinaryForm:
    """(f, g)_q for 0 <= q <= min of the orders, unchecked.

    `table` holds the `_weights` of each order met so far; a caller that
    runs many transvectants passes the same dict to every call.
    """
    a, b = f._nums, g._nums
    m, n = f.order, g.order
    mq, nq = m - q, n - q
    wa, la = _weights(m, table)
    wb, lb = _weights(n, table)
    bound = la * max(map(abs, a)) * lb * max(map(abs, b)) * (min(mq, nq) + 1) << q
    kb = (bound.bit_length() + 8) // 8
    k = 8 * kb
    a = [x * w for w, x in zip(wa, a)]
    b = [y * w for w, y in zip(wb, b)]
    cm = [math.comb(mq, u) for u in range(mq + 1)]
    cn = [math.comb(nq, v) for v in range(nq + 1)]
    total = 0
    for i in range(q + 1):
        # Horner from the top slot down; C(m-q,u) = C(m-q,m-q-u) pairs cm
        # with the reversed window.
        p = 0
        for c, x in zip(cm, a[i + mq :: -1]):
            p = (p << k) + c * x
        r = 0
        for c, y in zip(cn, b[n - i :: -1]):
            r = (r << k) + c * y
        total += (-1) ** i * math.comb(q, i) * p * r
    size = mq + nq + 1
    half = 1 << (k - 1)
    offset = int.from_bytes(half.to_bytes(kb, "little") * size, "little")
    raw = (total + offset).to_bytes(kb * size, "little")
    out = [int.from_bytes(raw[j : j + kb], "little") - half for j in range(0, kb * size, kb)]
    return BinaryForm._raw(out, la * lb * f._den * g._den)


def transvectant(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """The q-th transvectant of f (order m) and g (order n).

    Result has order m + n - 2q, possibly as the zero form.  Requires
    0 <= q <= min(m, n); out-of-range q is an error rather than a silent
    zero, so caller bugs do not vanish into selection rules.
    """
    m, n = f.order, g.order
    if not 0 <= q <= min(m, n):
        raise ValueError(f"transvectant index {q} outside 0..min({m},{n})")
    return _transvectant(f, g, q, {})
