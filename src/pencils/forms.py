"""Exact rational arithmetic on homogeneous forms in binary variable pairs.

Two value types live here.  `BinaryForm` is a homogeneous form of declared
order in a single variable pair, stored densely: coefficient k belongs to
``x1^(order-k) * x2^k``.  `MultiForm` is a sparse multihomogeneous form
over several named pairs, used by the textbook reference route of the
differential-operator oracle (`omega.beta_chain`); the fused route,
`omega.omega_chain`, never builds one.

Both keep `int` numerators over one positive denominator, reduced so that
the gcd of the denominator and all numerators is 1 (the content-times-
primitive-part layout of FLINT's fmpq_poly).  So their arithmetic, the
transvectant kernel, the syzygy sums and `exact_divide` all run in `int`,
and `Fraction`s are built only at the public surface: `BinaryForm.coeffs`,
and `MultiForm(degrees, terms)` and `.terms`, which speak in 14-slot
exponent tuples.

Pairs are named by single letters from `PAIRS`; pair ``"x"`` stands for the
scalar variables x1, x2, and so on.  A MultiForm monomial is its exponent
tuple over the fixed ordering x1,x2,y1,y2,...,t1,t2, stored as the public
surface gives it.

Every size and index argument in the package passes `_check_range`: a
non-int or a bool raises TypeError, a value out of range ValueError, and a
long value is named by its digit count.

All coefficients are exact rationals, so every operation is exact and
equality is decisive.  Values are immutable once constructed; operations
return new objects and are safe to share between threads.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from operator import add

from .errors import DegreeMismatchError, NotDivisibleError

PAIRS = ("x", "y", "z", "w", "u", "v", "t")
_PAIR_INDEX = {pair: k for k, pair in enumerate(PAIRS)}
_NSLOTS = 2 * len(PAIRS)
ZERO_MONOMIAL = (0,) * _NSLOTS

_SCALARS = (int, Fraction)


def _shown(value: int, cap: int) -> str:
    """`value` for an error line, or its digit count once it has more digits than `cap`."""
    digits = len(str(abs(value)))
    if digits <= len(str(cap)):
        return str(value)
    return f"a {'negative ' if value < 0 else ''}number of {digits} digits"


_LONG = 10**20 - 1  # the widest number an error line names in full
_LONG_REPR = 40  # the longest repr of a non-int that an error line shows


def _check_range(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Refuse `value` unless it is an int, not a bool, in low..high.

    A non-int or a bool raises TypeError; a value below `low` or above
    `high` raises ValueError.  Without `low` only the type is checked.  The
    message names the value by its digit count once it has more digits
    than `high` (than 20 digits where there is no `high`), and a bound once
    it has more than 20; a non-int whose repr is longer than 40 characters
    is named by its type alone.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        shown = repr(value)
        if len(shown) > _LONG_REPR:
            shown = f"a value of type {type(value).__name__}"
        raise TypeError(f"{name} must be an int, got {shown}")
    if low is None or low <= value and (high is None or value <= high):
        return
    if high is None:
        raise ValueError(f"{name} must be at least {_shown(low, _LONG)}, got {_shown(value, _LONG)}")
    span = f"{_shown(low, _LONG)}..{_shown(high, _LONG)}"
    raise ValueError(f"{name} must be in {span}, got {_shown(value, min(abs(high), _LONG))}")


def check_pair(pair: str) -> str:
    if pair not in _PAIR_INDEX:
        raise ValueError(f"unknown variable pair {pair!r}; expected one of {PAIRS}")
    return pair


def slot_index(pair: str, component: int) -> int:
    """Flat slot of scalar variable `component` (1 or 2) of `pair`."""
    check_pair(pair)
    _check_range("component", component, 1, 2)
    return 2 * _PAIR_INDEX[pair] + component - 1


def _monomial(*slots: int) -> tuple:
    """The exponent tuple of the product of the scalar variables in `slots`."""
    mono = [0] * _NSLOTS
    for k in slots:
        mono[k] += 1
    return tuple(mono)


# The one accepted spelling of an unsigned rational in text: digits[/digits],
# ASCII digits only.  The expression grammar of `parsing` and the integer
# options of `cli` build on it too.
DIGITS = "[0-9]+"
RATIONAL = f"{DIGITS}(?:/{DIGITS})?"
_RATIONAL = re.compile(f"-?{RATIONAL}")


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions and '[-]p[/q]' strings; floats and bools are
    rejected.

    Strings are read strictly: no exponent, decimal point, sign '+',
    underscore or surrounding space, so a short string cannot stand for a
    huge number.  A zero denominator, or a part longer than Python's
    int-string limit, raises ValueError.
    """
    if isinstance(value, float):
        raise TypeError(
            "floating-point coefficients are not supported; use Fraction or 'p/q'"
        )
    if isinstance(value, bool):
        raise TypeError(f"bool coefficients are not supported, got {value!r}")
    if not isinstance(value, str):
        return Fraction(value)
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"expected an integer or 'p/q' rational, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except ValueError:  # more digits than int() reads, sys.get_int_max_str_digits()
        raise ValueError(f"numeral of {len(value)} characters is too long") from None


def _linear_pow_ints(f: LinearSymbol, n: int) -> tuple[list, int]:
    """(numerators, D) of (f1*s1 + f2*s2)^n, indexed by the s2 exponent."""
    # f1*s1 + f2*s2 = (a*s1 + b*s2) / (D1*D2) with integers a, b.
    a = f.f1.numerator * f.f2.denominator
    b = f.f2.numerator * f.f1.denominator
    nums = [0] * (n + 1)
    for k in range(n + 1) if a and b else (n,) if b else (0,):
        nums[k] = math.comb(n, k) * a ** (n - k) * b**k
    return nums, (f.f1.denominator * f.f2.denominator) ** n


class LinearSymbol:
    """A linear form f1*p1 + f2*p2 attachable to any variable pair."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1, f2):
        self.f1 = to_fraction(f1)
        self.f2 = to_fraction(f2)
        if not self.f1 and not self.f2:
            raise ValueError("linear symbol must not be identically zero")

    @classmethod
    def parse(cls, text: str) -> "LinearSymbol":
        """Parse 'a,b' with rational components, e.g. '1,2' or '1/2,-3'."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected two comma-separated rationals, got {text!r}")
        return cls(parts[0].strip(), parts[1].strip())

    def __eq__(self, other):
        if not isinstance(other, LinearSymbol):
            return NotImplemented
        return (self.f1, self.f2) == (other.f1, other.f2)

    def __hash__(self):
        return hash((self.f1, self.f2))

    def __repr__(self):
        return f"LinearSymbol({self.f1}, {self.f2})"


class BinaryForm:
    """Homogeneous form of fixed order in one variable pair.

    Stored as `int` numerators `_nums` over one positive denominator `_den`,
    reduced so that ``gcd(_den, *_nums) == 1`` and ``_den == 1`` for the
    zero form; equal forms therefore store equal values.  `coeffs` is the
    `Fraction` view.  The zero form keeps its declared order as metadata,
    so degree bookkeeping survives operations whose result happens to
    vanish.
    """

    __slots__ = ("order", "_nums", "_den")

    def __init__(self, order: int, coeffs):
        _check_range("order", order, 0)
        coeffs = [to_fraction(c) for c in coeffs]
        if len(coeffs) != order + 1:
            raise DegreeMismatchError(
                f"order {_shown(order, _LONG)} needs {_shown(order + 1, _LONG)} coefficients, "
                f"got {len(coeffs)}"
            )
        # Over the lcm of reduced denominators, gcd(den, *numerators) is 1.
        den = math.lcm(*(c.denominator for c in coeffs))
        self.order = order
        self._nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den = den

    @classmethod
    def _raw(cls, nums, den: int) -> "BinaryForm":
        # Internal fast path: a nonempty sequence of int numerators over
        # den > 0, of order len(nums) - 1; only the reduction by the gcd is left.
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [c // g for c in nums]
        obj = object.__new__(cls)
        obj.order = len(nums) - 1
        obj._nums = tuple(nums)
        obj._den = den
        return obj

    @property
    def coeffs(self) -> tuple:
        """``coeffs[k]`` is the coefficient of ``x1^(order-k) * x2^k``, built on each call."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @classmethod
    def zero(cls, order: int) -> "BinaryForm":
        return cls(order, [0] * (order + 1))

    @classmethod
    def monomial(cls, order: int, x2_exponent: int, coeff=1) -> "BinaryForm":
        """The form coeff * x1^(order - x2_exponent) * x2^x2_exponent."""
        _check_range("order", order)
        _check_range("x2_exponent", x2_exponent, 0, order)
        coeff = to_fraction(coeff)
        nums = [0] * (order + 1)
        nums[x2_exponent] = coeff.numerator
        return cls._raw(nums, coeff.denominator)

    @classmethod
    def of_linear_power(cls, f: LinearSymbol, n: int) -> "BinaryForm":
        """(f1*x1 + f2*x2)^n expanded with binomial coefficients."""
        _check_range("n", n, 0)
        return cls._raw(*_linear_pow_ints(f, n))

    def is_zero(self) -> bool:
        return not any(self._nums)

    def diff(self, component: int) -> "BinaryForm":
        """Formal partial derivative with respect to x1 or x2."""
        _check_range("component", component, 1, 2)
        d, nums = self.order, self._nums
        if d == 0:
            return BinaryForm.zero(0)
        if component == 1:
            new = [(d - k) * nums[k] for k in range(d)]
        else:
            new = [k * nums[k] for k in range(1, d + 1)]
        return BinaryForm._raw(new, self._den)

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.order != other.order:
            raise DegreeMismatchError(
                f"cannot add forms of orders {self.order} and {other.order}"
            )
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        return BinaryForm._raw([a * s + b * t for a, b in zip(self._nums, other._nums)], den)

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BinaryForm._raw([-c for c in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            q = Fraction(other)
            n = q.numerator
            return BinaryForm._raw([c * n for c in self._nums], self._den * q.denominator)
        if not isinstance(other, BinaryForm):
            return NotImplemented
        out = [0] * (self.order + other.order + 1)
        inner = [(j, b) for j, b in enumerate(other._nums) if b]
        for i, a in enumerate(self._nums):
            if a:
                for j, b in inner:
                    out[i + j] += a * b
        return BinaryForm._raw(out, self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return (self.order, self._den, self._nums) == (other.order, other._den, other._nums)

    def __hash__(self):
        return hash((self.order, self._den, self._nums))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"BinaryForm({self.order}, [{body}])"


def _merged_degrees(degrees: dict, from1: str, from2: str, to: str) -> dict:
    """The degrees after merging pairs from1 and from2 into the inactive pair to."""
    check_pair(from1)
    check_pair(from2)
    check_pair(to)
    if len({from1, from2, to}) != 3:
        raise ValueError("substitution pairs must be three distinct pairs")
    if to in degrees:
        raise ValueError(f"target pair {to!r} is already active")
    deg = dict(degrees)
    merged_degree = deg.pop(from1, 0) + deg.pop(from2, 0)
    if merged_degree:
        deg[to] = merged_degree
    return deg


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
            check_pair(pair)
            _check_range(f"degree of pair {pair!r}", n, 0)
            if n:
                clean_deg[pair] = n
        fracs = {}
        for mono, coeff in terms.items():
            coeff = to_fraction(coeff)
            if not coeff:
                continue
            mono = tuple(mono)
            for e in mono:
                _check_range("exponent", e)
            if len(mono) != _NSLOTS or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r}")
            fracs[mono] = coeff
        # Over the lcm of reduced denominators, gcd(den, *numerators) is 1.
        den = math.lcm(*(c.denominator for c in fracs.values()))
        clean_terms = {m: c.numerator * (den // c.denominator) for m, c in fracs.items()}
        self._degrees = clean_deg
        self._terms = clean_terms
        self._den = den
        if not self.is_homogeneous():
            raise DegreeMismatchError(f"a term does not have the declared degrees {clean_deg}")

    @classmethod
    def _raw(cls, degrees: dict, terms: dict, den: int) -> "MultiForm":
        # Internal fast path: `terms` maps exponent tuples to int numerators
        # over den > 0 and becomes the form's own dict.  Zero numerators are
        # deleted in place, which hashes no other key again.
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
        if den != 1:
            g = math.gcd(den, *terms.values())
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
        check_pair(pair)
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
            f"cannot add multidegrees {self._degrees} and {other._degrees}"
        )

    def __add__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        deg = self._merged_add_degrees(other)
        den = math.lcm(self._den, other._den)
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
            q = Fraction(other)
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
        deg = _merged_degrees(self._degrees, from1, from2, to)
        sa, sb, st = slot_index(from1, 1), slot_index(from2, 1), slot_index(to, 1)
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
        check_pair(pair)
        stray = [p for p in self._degrees if p != pair]
        if stray:
            raise ValueError(f"form still involves pairs {stray}")
        order = self._degrees.get(pair, 0)
        s = slot_index(pair, 1)
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
    check_pair(pair)
    _check_range("n", n, 0)
    nums, den = _linear_pow_ints(f, n)
    s = slot_index(pair, 1)
    head, tail = ZERO_MONOMIAL[:s], ZERO_MONOMIAL[s + 2 :]
    terms = {(*head, n - k, k, *tail): c for k, c in enumerate(nums) if c}
    return MultiForm._raw({pair: n} if n else {}, terms, den)


def exact_divide(numerator: BinaryForm, denominator: BinaryForm) -> BinaryForm:
    """Exact quotient of homogeneous forms; raises if division leaves a remainder.

    The common x1/x2 powers of the divisor are stripped, and the integer
    numerators of `numerator` are divided by the primitive part of the
    divisor's.  By Gauss's lemma an integer numerator divisible by a
    primitive divisor over the rationals has an integer quotient, so every
    step of the long division is an exact ``//``; a step with a nonzero
    ``divmod`` remainder, or a nonzero final remainder, means the numerator
    is not divisible and raises `NotDivisibleError`.  That signals corrupted
    input or a bug in the caller, never a rounding artifact.  The divisor's
    content and the two denominators make up the quotient's denominator.
    """
    divisor = denominator._nums
    if not any(divisor):
        raise ZeroDivisionError("division by the zero form")
    n, e = numerator.order, denominator.order
    if n < e:
        raise DegreeMismatchError(f"cannot divide order {n} by order {e}")
    nz = [k for k, c in enumerate(divisor) if c]
    x2_mult = nz[0]
    x1_mult = e - nz[-1]
    # N must carry at least the same x1/x2 powers as D.
    for k, c in enumerate(numerator._nums):
        if c and not x2_mult <= k <= n - x1_mult:
            raise NotDivisibleError("numerator lacks the denominator's monomial factors")
    content = math.gcd(*divisor)
    den0 = [c // content for c in divisor[x2_mult : nz[-1] + 1]]
    rem = list(numerator._nums[x2_mult : n - x1_mult + 1])
    e0 = len(den0) - 1
    lead = den0[e0]
    scale = denominator._den
    quot = [0] * (n - e + 1)
    for k in range(n - e, -1, -1):
        c, r = divmod(rem[e0 + k], lead)
        if r:
            raise NotDivisibleError("division left a nonzero remainder")
        if c:
            quot[k] = c * scale
            for idx in range(e0):
                rem[k + idx] -= c * den0[idx]
    if any(rem[:e0]):
        raise NotDivisibleError("division left a nonzero remainder")
    return BinaryForm._raw(quot, numerator._den * content)


def random_form(order: int, seed: int, coefficient_bound: int = 10) -> BinaryForm:
    """Deterministic nonzero form with integer coefficients in [-bound, bound]."""
    _check_range("order", order, 0)
    _check_range("coefficient_bound", coefficient_bound, 1)
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-coefficient_bound, coefficient_bound) for _ in range(order + 1)]
        if any(coeffs):
            return BinaryForm(order, coeffs)
