"""The q-th transvectant of two binary forms, as one integer computation.

Each input is brought to integers once: its denominators are cleared by
their lcm D, and coefficient a_k is scaled by k!(m-k)!.  Entry u of the
(q-i, i) mixed partial is then a'_{u+i} / (u!(m-q-u)!), a denominator free
of i, so the whole alternating derivative sum

    sum_{u,v} C(m-q,u) C(n-q,v) sum_i (-1)^i C(q,i) a'_{u+i} b'_{v+q-i}

runs in `int`, and one rational scale 1/(m! n! D_f D_g) ends it.  This is
the content-times-primitive-part layout of FLINT's fmpq_poly.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .forms import BinaryForm


def _scaled_integers(form: BinaryForm) -> tuple[list[int], int]:
    """(a'_k, D): a'_k = a_k * D * k!(m-k)! with D the lcm of the denominators."""
    m = form.order
    denom = math.lcm(*(c.denominator for c in form.coeffs))
    fact = [math.factorial(k) for k in range(m + 1)]
    return [
        c.numerator * (denom // c.denominator) * fact[k] * fact[m - k]
        for k, c in enumerate(form.coeffs)
    ], denom


def transvectant(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """The q-th transvectant of f (order m) and g (order n).

    Result has order m + n - 2q, possibly as the zero form.  Requires
    0 <= q <= min(m, n); out-of-range q is an error rather than a silent
    zero, so caller bugs do not vanish into selection rules.
    """
    m, n = f.order, g.order
    if not 0 <= q <= min(m, n):
        raise ValueError(f"transvectant index {q} outside 0..min({m},{n})")
    a, denom_f = _scaled_integers(f)
    b, denom_g = _scaled_integers(g)
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
    scale = math.factorial(m) * math.factorial(n) * denom_f * denom_g
    return BinaryForm(m + n - 2 * q, [Fraction(c, scale) for c in out])
