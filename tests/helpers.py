"""Shared deterministic generators and small oracles for the test suite."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from pencils.angular import NineJArray, SurdSum, _delta_squared, _squarefree_split, _triangle_ok
from pencils.errors import DegreeMismatchError, FormulaViolationError, NotDivisibleError
from pencils.forms import BinaryForm, LinearSymbol
from pencils.omega import (
    ZERO_MONOMIAL,
    MultiForm,
    bracket,
    h_factor,
    linear_power,
    omega,
    slot_index,
)
from pencils.syzygy import syzygy_table
from pencils.transvectant import transvectant


def random_multiform(pair_degrees: dict, seed: int, bound: int = 4) -> MultiForm:
    """Dense random multihomogeneous form with the given degree per pair."""
    rng = random.Random(seed)
    terms = {}

    def fill(pairs, mono):
        if not pairs:
            c = rng.randint(-bound, bound)
            if c:
                terms[tuple(mono)] = Fraction(c)
            return
        (pair, degree), rest = pairs[0], pairs[1:]
        s = slot_index(pair, 1)
        for k in range(degree + 1):
            nxt = list(mono)
            nxt[s] = degree - k
            nxt[s + 1] = k
            fill(rest, nxt)

    fill(list(pair_degrees.items()), [0] * len(ZERO_MONOMIAL))
    return MultiForm(pair_degrees, terms)


def random_unimodular(seed: int, shears: int = 4):
    """Random integer 2x2 matrix of determinant 1, as nested tuples."""
    rng = random.Random(seed)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(shears):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            # multiply by [[1, k], [0, 1]]
            a, b = a, a * k + b
            c, d = c, c * k + d
        else:
            a, b = a + b * k, b
            c, d = c + d * k, d
    assert a * d - b * c == 1
    return ((a, b), (c, d))


def coefficient_rank(forms) -> int:
    """Rank of the coefficient matrix of the given equal-order forms."""
    rows = [list(f.coeffs) for f in forms]
    rank = 0
    cols = len(rows[0]) if rows else 0
    row_idx = 0
    for col in range(cols):
        pivot = None
        for k in range(row_idx, len(rows)):
            if rows[k][col]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        lead = rows[row_idx][col]
        for k in range(len(rows)):
            if k != row_idx and rows[k][col]:
                factor = rows[k][col] / lead
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[row_idx])]
        row_idx += 1
        rank += 1
        if row_idx == len(rows):
            break
    return rank


# Oracle for BinaryForm arithmetic: the `Fraction` coefficient arithmetic
# that the integer layout replaced.  Each op reads `.coeffs` and builds its
# result from a `Fraction` list.


def fraction_add(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if f.order != g.order:
        raise DegreeMismatchError(f"cannot add forms of orders {f.order} and {g.order}")
    return BinaryForm(f.order, [a + b for a, b in zip(f.coeffs, g.coeffs)])


def fraction_scale(f: BinaryForm, q) -> BinaryForm:
    q = Fraction(q)
    return BinaryForm(f.order, [c * q for c in f.coeffs])


def fraction_mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    n = f.order + g.order
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if b:
                out[i + j] += a * b
    return BinaryForm(n, out)


def fraction_diff(f: BinaryForm, component: int) -> BinaryForm:
    d, coeffs = f.order, f.coeffs
    if d == 0:
        return BinaryForm.zero(0)
    if component == 1:
        new = [(d - k) * coeffs[k] for k in range(d)]
    else:
        new = [k * coeffs[k] for k in range(1, d + 1)]
    return BinaryForm(d - 1, new)


def _linear_pow_coeffs(c1: Fraction, c2: Fraction, n: int) -> list[Fraction]:
    """Coefficient list of (c1*s1 + c2*s2)^n, indexed by the s2 exponent."""
    return [math.comb(n, k) * c1 ** (n - k) * c2**k for k in range(n + 1)]


def compose(form: BinaryForm, g) -> BinaryForm:
    """Substitute x1 -> a*x1 + b*x2, x2 -> c*x1 + d*x2 for g = ((a,b),(c,d))."""
    (a, b), (c, d) = g
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    n = form.order
    out = [Fraction(0)] * (n + 1)
    for k, coeff in enumerate(form.coeffs):
        if not coeff:
            continue
        left = _linear_pow_coeffs(a, b, n - k)
        right = _linear_pow_coeffs(c, d, k)
        for i, ci in enumerate(left):
            for j, cj in enumerate(right):
                out[i + j] += coeff * ci * cj
    return BinaryForm(n, out)


def _diff_mixed(form: BinaryForm, d1: int, d2: int) -> BinaryForm:
    out = form
    for _ in range(d1):
        out = fraction_diff(out, 1)
    for _ in range(d2):
        out = fraction_diff(out, 2)
    return out


def transvectant_by_derivatives(f: BinaryForm, g: BinaryForm, q: int) -> BinaryForm:
    """Oracle: the alternating derivative sum with its factorial prefactor.

    (f, g)_q = (m-q)!(n-q)!/(m! n!) * sum_i (-1)^i C(q,i)
    * d^q f/(dx1^(q-i) dx2^i) * d^q g/(dx1^i dx2^(q-i)),
    with each mixed partial built by chained `fraction_diff`.
    """
    m, n = f.order, g.order
    if not 0 <= q <= min(m, n):
        raise ValueError(f"transvectant index {q} outside 0..min({m},{n})")
    prefactor = Fraction(
        math.factorial(m - q) * math.factorial(n - q),
        math.factorial(m) * math.factorial(n),
    )
    total = BinaryForm.zero(m + n - 2 * q)
    for i in range(q + 1):
        left = _diff_mixed(f, q - i, i)
        right = _diff_mixed(g, i, q - i)
        sign = -1 if i % 2 else 1
        term = fraction_scale(fraction_mul(left, right), sign * math.comb(q, i))
        total = fraction_add(total, term)
    return fraction_scale(total, prefactor)


def transvectant_ints_by_dot_products(a: list, da: int, b: list, db: int, q: int) -> tuple[list, int]:
    """Oracle for the kernel `_transvectants`: one Python dot product per output pair.

    Coefficient a_k is scaled by k!(m-k)!, and every (u, v) pair adds
    C(m-q,u) C(n-q,v) sum_i (-1)^i C(q,i) a'_{u+i} b'_{v+q-i} to out[u+v],
    over the denominator m! n! da db, reduced by one gcd.
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


def exact_divide_by_fractions(numerator: BinaryForm, denominator: BinaryForm) -> BinaryForm:
    """Oracle for `exact_divide`: univariate long division over the rationals.

    Strips the common x1/x2 powers of the denominator, dehomogenizes,
    divides coefficient by coefficient in `Fraction`s and rehomogenizes.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if numerator.order < denominator.order:
        raise DegreeMismatchError(
            f"cannot divide order {numerator.order} by order {denominator.order}"
        )
    nz = [k for k, c in enumerate(denominator.coeffs) if c]
    x2_mult = nz[0]
    x1_mult = denominator.order - nz[-1]
    n, e = numerator.order, denominator.order
    for k, c in enumerate(numerator.coeffs):
        if c and not x2_mult <= k <= n - x1_mult:
            raise NotDivisibleError("numerator lacks the denominator's monomial factors")
    den0 = list(denominator.coeffs[x2_mult : nz[-1] + 1])
    num0 = list(numerator.coeffs[x2_mult : n - x1_mult + 1])
    e0 = len(den0) - 1
    n0 = len(num0) - 1
    lead = den0[e0]
    quot = [Fraction(0)] * (n0 - e0 + 1)
    rem = list(num0)
    for k in range(n0 - e0, -1, -1):
        c = rem[e0 + k] / lead
        quot[k] = c
        if c:
            for idx in range(e0 + 1):
                rem[k + idx] -= c * den0[idx]
    if any(rem):
        raise NotDivisibleError("division left a nonzero remainder")
    return BinaryForm(n - e, quot)


def syzygy_sum_by_fractions(seq, table, skip=None) -> BinaryForm:
    """Oracle: sum of alpha * transvectant(C_{2i-1}, C_{2j-1}) in `Fraction` arithmetic.

    `seq[i-1]` is C_{2i-1}, as `combinant_sequence` returns it.
    """
    r = table.r
    total = BinaryForm.zero(4 * (table.d - r))
    for (i, j), alpha in table.items():
        if (i, j) != skip:
            term = transvectant(seq[i - 1], seq[j - 1], 2 * (r - i - j + 1))
            total = fraction_add(total, fraction_scale(term, alpha))
    return total


def syzygy_sum_by_terms(table, combinants, skip=None) -> BinaryForm:
    """Oracle for `syzygy._syzygy_sum`: one kernel call per term, nothing shared.

    `combinants[i-1]` is C_{2i-1}.  Each term comes out of one public
    `transvectant` call as v / s, packed and unpacked on its own; with alpha = p / a and
    L = lcm of the a*s, it adds p * (L // (a*s)) * v to one integer
    accumulator, and the sum is that accumulator over L.
    """
    r = table.r
    terms = []
    for (i, j), alpha in table.items():
        if alpha and (i, j) != skip:
            q = 2 * (r - i - j + 1)
            v = transvectant(combinants[i - 1], combinants[j - 1], q)
            terms.append((alpha.numerator, alpha.denominator * v._den, v._nums))
    lcm = math.lcm(*(q for _, q, _ in terms))
    total = [0] * (4 * (table.d - r) + 1)
    for p, q, v in terms:
        f = p * (lcm // q)
        total = [t + f * x for t, x in zip(total, v)]
    return BinaryForm._raw(total, lcm)


def theta_by_factorials(d: int, r: int, i: int, j: int) -> Fraction:
    """Oracle for `theta`: the paper's quotient N1/N2 of factorials, as printed.

    No binomial and no falling factorial; each factorial is `math.factorial`.
    """
    head = 2 * d * i + 2 * d * j - d * r - 2 * i * i - 2 * j * j - 2 * d + 3 * i + 3 * j - 2
    n1 = (
        head
        * factorial(d)
        * factorial(d - 1)
        * factorial(2 * r - 1)
        * factorial(2 * d - 4 * i + 3)
        * factorial(2 * d - 4 * j + 3)
    )
    n2 = (
        factorial(2 * i - 1)
        * factorial(2 * j - 1)
        * factorial(d - 2 * i + 1)
        * factorial(d - 2 * j + 1)
        * factorial(2 * d - 2 * i + 2)
        * factorial(2 * d - 2 * j + 2)
        * factorial(2 * r - 2 * i - 2 * j + 2)
    )
    delta = int(i == 1 and j == r) + int(i == r and j == 1)
    return delta - Fraction(8 * n1, n2)


def _pencil_order(seq) -> int:
    # C_1 has order 2d - 2.
    return seq[0].order // 2 + 1


def evaluate_syzygy_by_fractions(seq, r: int) -> BinaryForm:
    """Oracle for `evaluate_syzygy`, from the combinant sequence."""
    return syzygy_sum_by_fractions(seq, syzygy_table(_pencil_order(seq), r))


def recover_by_fractions(seq, r: int) -> BinaryForm:
    """Oracle for the recovery: the sum without its (1, r) term, divided by -alpha_{1,r} C1."""
    table = syzygy_table(_pencil_order(seq), r)
    partial = syzygy_sum_by_fractions(seq, table, skip=(1, r))
    quotient = exact_divide_by_fractions(fraction_scale(partial, -1), seq[0])
    return fraction_scale(quotient, Fraction(1) / table.alpha(1, r))


def enumerated_syzygy_dims(d: int) -> list[int]:
    """Oracle: syzygy_space_dim(d, r) for r = 1..floor((d+1)/2), by enumeration.

    Counts the 4-element subsets of {0..d} with index sum 2r, minus those
    with sum 2r-1, over every subset.
    """
    sums = [0] * (4 * d)
    for subset in combinations(range(d + 1), 4):
        sums[sum(subset)] += 1
    return [sums[2 * r] - sums[2 * r - 1] for r in range(1, (d + 1) // 2 + 1)]


def gaussian_binomial_head(n: int, k: int, top: int) -> list[int]:
    """Oracle: coefficients of q^0 .. q^top of [n choose k]_q.

    [n choose k]_q = prod_i (1-q^(n-k+i))/(1-q^i), each factor applied to
    the truncated power series in place: O(k * top) integer additions.
    """
    coeffs = [1] + [0] * top
    for i in range(1, k + 1):
        step = n - k + i
        for t in range(top, step - 1, -1):
            coeffs[t] -= coeffs[t - step]
        for t in range(i, top + 1):
            coeffs[t] += coeffs[t - i]
    return coeffs


# Oracle for MultiForm arithmetic: sparse {exponent tuple: Fraction} maps
# with no zero values, one tuple entry per slot x1, x2, ..., t1, t2.


def _accumulate(out: dict, key: tuple, value) -> None:
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def tuple_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for mono, coeff in g.items():
        _accumulate(out, mono, coeff)
    return out


def tuple_neg(f: dict) -> dict:
    return {mono: -coeff for mono, coeff in f.items()}


def tuple_scale(f: dict, q) -> dict:
    q = Fraction(q)
    return {mono: coeff * q for mono, coeff in f.items()} if q else {}


def tuple_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            _accumulate(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
    return out


def tuple_diff(f: dict, pair: str, component: int) -> dict:
    s = slot_index(pair, component)
    out: dict = {}
    for mono, coeff in f.items():
        if mono[s]:
            _accumulate(out, mono[:s] + (mono[s] - 1,) + mono[s + 1 :], coeff * mono[s])
    return out


def tuple_substituted(f: dict, from1: str, from2: str, to: str) -> dict:
    sa, sb, st = (slot_index(p, 1) for p in (from1, from2, to))
    out: dict = {}
    for mono, coeff in f.items():
        lst = list(mono)
        a1, a2, b1, b2 = lst[sa], lst[sa + 1], lst[sb], lst[sb + 1]
        lst[sa] = lst[sa + 1] = lst[sb] = lst[sb + 1] = 0
        lst[st], lst[st + 1] = a1 + b1, a2 + b2
        _accumulate(out, tuple(lst), coeff)
    return out


def tuple_omega(f: dict, pair1: str, pair2: str) -> dict:
    """d^2/(dp1 dq2) - d^2/(dq1 dp2) for p = pair1, q = pair2."""
    first = tuple_diff(tuple_diff(f, pair1, 1), pair2, 2)
    second = tuple_diff(tuple_diff(f, pair2, 1), pair1, 2)
    return tuple_add(first, tuple_neg(second))


def _tuple_monomial(exponents: dict) -> tuple:
    mono = [0] * len(ZERO_MONOMIAL)
    for (pair, component), e in exponents.items():
        mono[slot_index(pair, component)] = e
    return tuple(mono)


def tuple_bracket(pair1: str, pair2: str) -> dict:
    return {
        _tuple_monomial({(pair1, 1): 1, (pair2, 2): 1}): Fraction(1),
        _tuple_monomial({(pair2, 1): 1, (pair1, 2): 1}): Fraction(-1),
    }


def tuple_linear_power(f, pair: str, n: int) -> dict:
    out: dict = {_tuple_monomial({}): Fraction(1)}
    linear = {
        _tuple_monomial({(pair, 1): 1}): f.f1,
        _tuple_monomial({(pair, 2): 1}): f.f2,
    }
    linear = {mono: coeff for mono, coeff in linear.items() if coeff}
    for _ in range(n):
        out = tuple_mul(out, linear)
    return out


def tuple_zeta_summand(d: int, r: int, a: str, b: str, c: str, e: str, f) -> dict:
    """Oracle for `omega.zeta_summand`: the product of its brackets and powers."""
    form = tuple_bracket(a, b)
    for _ in range(2 * r - 1):
        form = tuple_mul(form, tuple_bracket(c, e))
    for pair, n in ((a, d - 1), (b, d - 1), (c, d - 2 * r + 1), (e, d - 2 * r + 1)):
        form = tuple_mul(form, tuple_linear_power(f, pair, n))
    return form


def tuple_zeta_image(d: int, r: int, f) -> dict:
    """Oracle for `omega.zeta_image`: the same six signed summands."""
    total: dict = {}
    for sign, pairs in (
        (1, "xyzw"), (-1, "xzyw"), (1, "xwyz"), (-1, "ywxz"), (1, "zwxy"), (-1, "zyxw"),
    ):
        term = tuple_zeta_summand(d, r, *pairs, f)
        total = tuple_add(total, term if sign > 0 else tuple_neg(term))
    return total


def stage_three_by_omega(uv_form: MultiForm, d: int, r: int, i: int, j: int) -> BinaryForm:
    """Oracle for `omega._stage_three_matrix`: omega_uv^q3 on the form over u
    and v, the merge into t, the three h factors, and `as_binary_form`."""
    q3 = 2 * (r - i - j + 1)
    h = h_factor(d, d, 2 * i - 1) * h_factor(d, d, 2 * j - 1)
    h *= h_factor(2 * d - 4 * i + 2, 2 * d - 4 * j + 2, q3)
    return (omega(uv_form, "u", "v", q3).substituted("u", "v", "t") * h).as_binary_form("t")


def factors_by_products(d: int, r: int, f: LinearSymbol) -> tuple:
    """Oracle for `omega._factor_terms`: G = (xy) f_x^(d-1) f_y^(d-1) and
    H = (xy)^(2r-1) f_x^(d-2r+1) f_y^(d-2r+1) as `MultiForm` products."""
    xy = bracket("x", "y")
    g = xy * linear_power(f, "x", d - 1) * linear_power(f, "y", d - 1)
    e = d - 2 * r + 1
    h = xy ** (2 * r - 1) * linear_power(f, "x", e) * linear_power(f, "y", e)
    return g, h


def pair_matrix(form: MultiForm, p: str, q: str) -> list:
    """m[k][l]: the numerator of p1^(dp-k) p2^k q1^(dq-l) q2^l in a form of
    degree dp in p and dq in q."""
    m = [[0] * (form.degree(q) + 1) for _ in range(form.degree(p) + 1)]
    sp, sq = slot_index(p, 2), slot_index(q, 2)
    for mono, c in form._terms.items():
        m[mono[sp]][mono[sq]] = c
    return m


def uv_form_of(matrix: list, den: int) -> MultiForm:
    """The form over u and v whose coefficient of u1^(du-s) u2^s v1^(dv-t) v2^t
    is matrix[s][t] / den, with du + 1 rows and dv + 1 columns."""
    du, dv = len(matrix) - 1, len(matrix[0]) - 1
    terms = {}
    for s, row in enumerate(matrix):
        for t, c in enumerate(row):
            mono = list(ZERO_MONOMIAL)
            for pair, e1, e2 in (("u", du - s, s), ("v", dv - t, t)):
                mono[slot_index(pair, 1)], mono[slot_index(pair, 2)] = e1, e2
            terms[tuple(mono)] = Fraction(c, den)
    return MultiForm({"u": du, "v": dv}, terms)


def proportionality_by_fractions(output: BinaryForm, reference: BinaryForm) -> Fraction:
    """Oracle for `omega._proportionality`: the ratio at the reference's first
    nonzero coefficient, then `Fraction` form equality with ratio * reference."""
    pivot = next(k for k, c in enumerate(reference.coeffs) if c)
    ratio = output.coeffs[pivot] / reference.coeffs[pivot]
    if output != ratio * reference:
        raise FormulaViolationError("chain output is not proportional to the reference power")
    return ratio


@lru_cache(maxsize=None)
def fraction_racah_sum(ta, tb, tc, td, te, tf) -> Fraction:
    """Oracle for the Racah sum of the 6j symbol {a b c; d e f}, each term a
    `Fraction`; 0 when a triad fails the triangle condition."""
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    if not all(_triangle_ok(*triad) for triad in triads):
        return Fraction(0)
    t_floor = max((x + y + z) // 2 for x, y, z in triads)
    caps = (
        (ta + tb + td + te) // 2,
        (tb + tc + te + tf) // 2,
        (ta + tc + td + tf) // 2,
    )
    total = Fraction(0)
    for t in range(t_floor, min(caps) + 1):
        denom = 1
        for cap in caps:
            denom *= factorial(cap - t)
        for x, y, z in triads:
            denom *= factorial(t - (x + y + z) // 2)
        total += Fraction((-1 if t % 2 else 1) * factorial(t + 1), denom)
    return total


@lru_cache(maxsize=None)
def surd_wigner6j_tw(ta, tb, tc, td, te, tf) -> SurdSum:
    """Oracle for the 6j symbol: square root of the four Delta^2 times the
    Racah sum, as a `SurdSum`."""
    total = fraction_racah_sum(ta, tb, tc, td, te, tf)
    if not total:
        return SurdSum.zero()
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    radicand = Fraction(1)
    for triad in triads:
        radicand *= _delta_squared(*triad)
    return SurdSum.sqrt(radicand) * total


def delta_root_by_product_split(triads) -> tuple[int, int, int]:
    """Oracle for `angular._delta_root`: (outer, radicand, den) from one
    squarefree split of the whole product num * den of the triads' reduced
    Delta^2, so that the root is outer * sqrt(radicand) / den."""
    num = den = 1
    for triad in triads:
        value = _delta_squared(*triad)
        num *= value.numerator
        den *= value.denominator
    outer, radicand = _squarefree_split(num * den)
    return outer, radicand, den


def _ninej_triads(array: NineJArray):
    """The six row and column triads of the array, and the three pairs that
    bound x, or None when a triangle or the pairs' common parity fails."""
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = rows = array.twice_rows()
    triads = (*rows, *zip(*rows))
    if any(not _triangle_ok(*t) for t in triads):
        return None
    pairs = ((tj1, tj9), (tj4, tj8), (tj2, tj6))
    if len({(a + b) % 2 for a, b in pairs}) != 1:
        return None
    return triads, pairs


def wigner9j_by_6j_products(array: NineJArray) -> SurdSum:
    """Oracle for `wigner9j`: the x-sum of products of three `SurdSum` 6j
    symbols from `surd_wigner6j_tw`."""
    checked = _ninej_triads(array)
    if checked is None:
        return SurdSum.zero()
    _, pairs = checked
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = array.twice_rows()
    total = SurdSum.zero()
    for tx in range(max(abs(a - b) for a, b in pairs), min(a + b for a, b in pairs) + 1, 2):
        term = (
            surd_wigner6j_tw(tj1, tj4, tj7, tj8, tj9, tx)
            * surd_wigner6j_tw(tj2, tj5, tj8, tj4, tx, tj6)
            * surd_wigner6j_tw(tj3, tj6, tj9, tx, tj1, tj2)
        )
        sign = -1 if tx % 2 else 1
        total = total + term * (sign * (tx + 1))
    return total


def _product(factors, scale: int = 1) -> Fraction:
    """scale times the product of the given Fractions, reduced once."""
    num, den = scale, 1
    for f in factors:
        num *= f.numerator
        den *= f.denominator
    return Fraction(num, den)


def wigner9j_by_fraction_xsum(array: NineJArray) -> SurdSum:
    """Oracle for `wigner9j`: one square root of the six fixed Delta^2 times
    a `Fraction` x-sum of Racah sums and x-dependent Delta^2, each term
    built by `_product` (the `Fraction` contraction `wigner9j` used before
    it ran in `int`)."""
    checked = _ninej_triads(array)
    if checked is None:
        return SurdSum.zero()
    triads, pairs = checked
    (tj1, tj2, tj3), (tj4, tj5, tj6), (tj7, tj8, tj9) = array.twice_rows()
    total = Fraction(0)
    for tx in range(max(abs(a - b) for a, b in pairs), min(a + b for a, b in pairs) + 1, 2):
        total += _product(
            (
                fraction_racah_sum(tj1, tj4, tj7, tj8, tj9, tx),
                fraction_racah_sum(tj2, tj5, tj8, tj4, tx, tj6),
                fraction_racah_sum(tj3, tj6, tj9, tx, tj1, tj2),
                _delta_squared(tj1, tj9, tx),
                _delta_squared(tj4, tj8, tx),
                _delta_squared(tj2, tj6, tx),
            ),
            -(tx + 1) if tx % 2 else tx + 1,
        )
    if not total:
        return SurdSum.zero()
    return SurdSum.sqrt(_product(_delta_squared(*t) for t in triads)) * total


def transposed(array: NineJArray) -> NineJArray:
    return NineJArray.from_twice(tuple(zip(*array.twice_rows())))


def swapped_rows(array: NineJArray, a: int, b: int) -> NineJArray:
    rows = list(array.twice_rows())
    rows[a], rows[b] = rows[b], rows[a]
    return NineJArray.from_twice(rows)


def swapped_cols(array: NineJArray, a: int, b: int) -> NineJArray:
    return transposed(swapped_rows(transposed(array), a, b))


def entry_sum_twice(array: NineJArray) -> int:
    """The sum of the array's nine doubled entries."""
    return sum(map(sum, array.twice_rows()))
