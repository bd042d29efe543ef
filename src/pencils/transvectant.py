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

one shift and one add per pack.

Every transvectant in the package is a term of one kernel call,
`_transvectants(forms, sums)`, which packs each form once for every order
its terms meet.  Its unit of work is a weighted sum: the terms
(a, b, q, p, d) of one sum share an output order, and the kernel returns
sum (p/d) (forms[a], forms[b])_q.  `transvectant` is a one-term sum of
weight 1/1, the combinants of a pencil are the one-term sums
(0, 1, 2r-1, 1, 1) of (A, B), and a syzygy is one sum with a term per
alpha (C_{2i-1}, C_{2j-1})_q.

The slot width k comes from a bound on the output.  As
a'_k = a_k L_m / C(m,k), |P_s[u]| <= H_f C(m-q,u) / C(m,u+s), where
H_f = L_m max|a| is the form's height; likewise for g, and that ratio of
binomials is at most 1 (Vandermonde), so |Q_t[v]| <= H_g.  By the exact
identity

    sum_s C(q,s) C(m-q,u) / C(m,u+s)  =  (m+1) / (m-q+1)   for every u

(each summand is C(u+s,u) C(m-u-s,q-s) / C(m,q), and those numerators sum
to C(m+1,q)), the q+1 terms C(q,s) P_s[u] Q_{q-s}[v] of one pair (u, v)
add up in size to at most H_f H_g (m+1)/(m-q+1).  The identity holds on
either side, so it is taken on the larger order M = max(m, n), where the
factor is smallest; at most min(m,n)-q+1 pairs (u, v) meet in an output
slot, so

    |out[w]| <= (min(m,n)-q+1) H_f H_g (M+1)/(M-q+1)  <  2^(k-1),

with k the bound's bit length plus a sign bit, rounded up to whole bytes;
one k, the largest of the call's term bounds, serves every pack.  An
unpack is then exact: adding H = 2^(k-1) to every slot makes each digit
out[w] + H lie in [0, 2^k), so the one `int` addition S + H sum_w 2^(kw)
carries every borrow between slots, and its bytes read off in k-bit slots
are the out[w] + H.  The packs themselves are exact at any k, being values
of integer polynomials at 2^k, and a wider slot only leaves more room for
each digit.

A one-term sum unpacks its product S at once and comes back over
d L_m L_n D_f D_g (D_f, D_g the inputs' denominators).  A longer sum runs
over the lcm L of its terms' denominators d_t L_m L_n D_f D_g, and term t
enters with the integer weight c_t = p_t L / (d_t L_m L_n D_f D_g).  Every
product keeps the call's width k, and the sum's digits are bounded by
sum |c_t| bound_t.  If that fits in k bits, the c_t S_t go into one `int`
as they are.  Otherwise each product moves to the wider layout that bound
needs: S_t + H sum_w 2^(kw) holds the nonnegative digits out[w] + H, whose
bytes are copied, one byte of every slot at a time, into the wider slots;
c_t times that value goes into one `int`, and the offsets sum_t c_t H are
taken off once.  Either way each sum is unpacked once.  Nothing is
reduced, so a caller reduces once; `transvectant` reduces by one gcd.
"""
from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache

from .forms import BinaryForm, _check_range


# The two caches' bounds, set from measured working sets: one kernel call
# meets at most 76 rows and 31 orders up to the top-weight syzygy at
# d = 60, and 61 rows and one order for `combinants` at its cap; a round of
# the syzygy-large benchmark meets 24 rows and 18 orders.  A call that needs
# more recomputes some.
@lru_cache(maxsize=128)
def _row(n: int) -> tuple:
    """The binomial row C(n, 0), ..., C(n, n); n never exceeds the largest
    order transvected.

    A row holds about 0.1 n^2 bytes (0.45 MB at n = 2,000, 10 MB at
    n = 10,000), so the cache keeps at most 128 times that of the largest n
    met: 2.4 MB for orders up to 300, 58 MB up to 2,000.
    """
    return tuple(math.comb(n, k) for k in range(n + 1))


@lru_cache(maxsize=64)
def _weights(m: int) -> tuple[tuple, int]:
    """The weights L_m / C(m,k), k = 0..m, and L_m = lcm of the C(m,k).

    A table is as large as `_row(m)`, so the cache keeps at most 64 times
    that of the largest m met: 1.2 MB for orders up to 300, 29 MB up to
    2,000.
    """
    binomials = _row(m)
    top = math.lcm(*binomials)
    return tuple(top // c for c in binomials), top


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


def _transvectants(forms, sums) -> list:
    """For each nonempty sum of terms (a, b, q, p, d), all of one output
    order, sum (p/d) (forms[a], forms[b])_q as an unreduced (numerators,
    denominator) pair; each 0 <= q <= min of the two orders and each d > 0,
    unchecked.

    The one pack width is the largest of the terms' output bounds, and a
    sum of several terms is re-laid in slots of that width or of the wider
    one its weighted bound needs, so every unpack is exact; a term (a, a, q)
    pairs s with q-s in `_product_sum`.
    """
    orders = defaultdict(set)
    for terms in sums:
        for a, b, q, _, _ in terms:
            orders[a].add(q)
            orders[b].add(q)
    size, height, scale = {}, {}, {}
    for a in orders:
        f = forms[a]
        size[a] = f.order
        top = _weights(f.order)[1]
        height[a] = top * max(map(abs, f._nums))
        scale[a] = top * f._den

    def bound(a, b, q):
        m, n = size[a], size[b]
        top = max(m, n)
        return (min(m, n) - q + 1) * height[a] * height[b] * (top + 1) // (top - q + 1)

    bounds = [[bound(a, b, q) for a, b, q, _, _ in terms] for terms in sums]
    kb = (max(map(max, bounds), default=0).bit_length() + 8) // 8  # a sign bit, whole bytes
    packs = {a: _packs(forms[a], 8 * kb, qs) for a, qs in orders.items()}
    results = []
    for terms, term_bounds in zip(sums, bounds):
        a, b, q, p, d = terms[0]
        width = size[a] + size[b] - 2 * q + 1
        products = [_product_sum(packs[a][q], packs[b][q], q) for a, b, q, _, _ in terms]
        if len(terms) == 1:
            nums = _slots(products[0], kb, width)
            results.append((nums if p == 1 else [p * x for x in nums], d * scale[a] * scale[b]))
            continue
        dens = [d * scale[a] * scale[b] for a, b, _, _, d in terms]
        lcm = math.lcm(*dens)
        weights = [p * (lcm // den) for (_, _, _, p, _), den in zip(terms, dens)]
        wide = sum(abs(c) * x for c, x in zip(weights, term_bounds))
        wb = max(kb, (wide.bit_length() + 8) // 8)
        half = 1 << (8 * kb - 1)
        offset = int.from_bytes(half.to_bytes(kb, "little") * width, "little")
        total = 0
        for c, x in zip(weights, products):
            raw = (x + offset).to_bytes(kb * width, "little")
            slots = bytearray(wb * width)
            for j in range(kb):
                slots[j::wb] = raw[j::kb]
            total += c * int.from_bytes(slots, "little")
        ones = int.from_bytes((b"\1" + bytes(wb - 1)) * width, "little")
        total -= sum(weights) * half * ones
        results.append((_slots(total, wb, width), lcm))
    return results


def transvectant(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """The q-th transvectant of f (order m) and g (order n).

    Result has order m + n - 2q, possibly as the zero form.  Requires an int
    0 <= q <= min(m, n); out-of-range q is an error rather than a silent
    zero, so caller bugs do not vanish into selection rules.
    """
    _check_range("q", q, 0, min(f.order, g.order))
    return BinaryForm._raw(*_transvectants((f, g), (((0, 0 if g is f else 1, q, 1, 1),),))[0])
