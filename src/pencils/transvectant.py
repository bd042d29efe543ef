"""The q-th transvectant of two binary forms, as one integer computation.

Each input is a form given as integer numerators over one denominator D.
Coefficient a_k is scaled by k!(m-k)!, so entry u of the (q-i, i) mixed
partial is a'_{u+i} / (u!(m-q-u)!), a denominator free of i, and the whole
alternating derivative sum

    sum_{u,v} C(m-q,u) C(n-q,v) sum_i (-1)^i C(q,i) a'_{u+i} b'_{v+q-i}

runs in `int` over the single denominator m! n! D_f D_g.  This is the
content-times-primitive-part layout of FLINT's fmpq_poly.  Callers that
chain transvectants (the combinants and the syzygy sums) stay in integers
and build `Fraction`s only for the form they return.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .forms import BinaryForm


def _transvectant_ints(a: list, da: int, b: list, db: int, q: int) -> tuple[list, int]:
    """(numerators, denominator) of (f, g)_q for f = a / da and g = b / db.

    The orders are ``len(a) - 1`` and ``len(b) - 1``, da and db are
    positive, and 0 <= q <= min of the orders.  The result is reduced:
    gcd(denominator, *numerators) == 1, with denominator 1 for the zero form.
    """
    m, n = len(a) - 1, len(b) - 1
    fm = [math.factorial(k) for k in range(max(m, n) + 1)]
    a = [x * fm[k] * fm[m - k] for k, x in enumerate(a)]
    b = [y * fm[k] * fm[n - k] for k, y in enumerate(b)]
    signs = [(-1) ** i * math.comb(q, i) for i in range(q + 1)]
    # left[u][i] = C(m-q,u) (-1)^i C(q,i) a'_{u+i}; right[v][i] = C(n-q,v) b'_{v+q-i}.
    left = [
        [math.comb(m - q, u) * s * x for s, x in zip(signs, a[u : u + q + 1])]
        for u in range(m - q + 1)
    ]
    right = [
        [math.comb(n - q, v) * y for y in reversed(b[v : v + q + 1])]
        for v in range(n - q + 1)
    ]
    out = [0] * (m + n - 2 * q + 1)
    for u, lu in enumerate(left):
        for v, rv in enumerate(right):
            out[u + v] += sum(map(int.__mul__, lu, rv))
    den = fm[m] * fm[n] * da * db
    g = math.gcd(den, *out)
    if g != 1:
        out = [c // g for c in out]
        den //= g
    return out, den


def transvectant(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """The q-th transvectant of f (order m) and g (order n).

    Result has order m + n - 2q, possibly as the zero form.  Requires
    0 <= q <= min(m, n); out-of-range q is an error rather than a silent
    zero, so caller bugs do not vanish into selection rules.
    """
    m, n = f.order, g.order
    if not 0 <= q <= min(m, n):
        raise ValueError(f"transvectant index {q} outside 0..min({m},{n})")
    nums, den = _transvectant_ints(*f.as_integers(), *g.as_integers(), q)
    return BinaryForm.from_integers(nums, Fraction(1, den))
