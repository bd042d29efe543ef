"""Exact rational arithmetic on homogeneous binary forms.

`BinaryForm` is a homogeneous form of declared order in a single variable
pair, stored densely: coefficient k belongs to ``x1^(order-k) * x2^k``.
It keeps `int` numerators over one positive denominator, reduced so that
the gcd of the denominator and all numerators is 1 (the content-times-
primitive-part layout of FLINT's fmpq_poly).  So its arithmetic, the
transvectant kernel, the syzygy sums and `exact_divide` all run in `int`,
and `Fraction`s are built only at the public surface, `BinaryForm.coeffs`.
`to_fraction` is the one coercion of a coefficient, and `LinearSymbol` is
the linear form f1*p1 + f2*p2 whose powers the operator chain expands.
The sparse forms over several pairs of the textbook reference route live
with that route, in `omega`.

Every size and index argument in the package passes `_check_range`: a
non-int or a bool raises TypeError, and a value out of range ValueError.
Every error line of the package names a refused value by one rule,
`_shown`: an int in full up to 20 digits, else by its exact digit count;
any other value by its repr if that prints within 40 characters, else by
its type (a str also by its length).  So no message echoes a long value.

All coefficients are exact rationals, so every operation is exact and
equality is decisive.  Values are immutable once constructed; operations
return new objects and are safe to share between threads.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from .errors import DegreeMismatchError, NotDivisibleError

_SCALARS = (int, Fraction)


_SHORT_INT = 10**20  # ints below it in magnitude are named in full
_SHORT_REPR = 40  # the longest repr of any other value that is named in full


def _shown(value) -> str:
    """`value` as an error line names it, by the rule of the module docstring."""
    if isinstance(value, int):
        n = abs(value)
        if n < _SHORT_INT:
            return str(value)
        # At most two below the digit count, which str() refuses past 4,300 digits.
        digits = int((n.bit_length() - 1) * math.log10(2))
        while n >= 10**digits:
            digits += 1
        return f"a {'negative ' if value < 0 else ''}number of {digits} digits"
    try:
        if len(shown := repr(value)) <= _SHORT_REPR:
            return shown
    except ValueError:  # it holds an int of more digits than Python prints
        pass
    if isinstance(value, str):
        return f"a str of {len(value)} characters"
    return f"a value of type {type(value).__name__}"


def _check_range(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Refuse `value` unless it is an int, not a bool, in low..high.

    A non-int or a bool raises TypeError; a value below `low` or above
    `high` raises ValueError.  Without `low` only the type is checked.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {_shown(value)}")
    if low is None or low <= value and (high is None or value <= high):
        return
    if high is None:
        raise ValueError(f"{name} must be at least {_shown(low)}, got {_shown(value)}")
    raise ValueError(f"{name} must be in {_shown(low)}..{_shown(high)}, got {_shown(value)}")


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
        raise TypeError(f"bool coefficients are not supported, got {_shown(value)}")
    if not isinstance(value, str):
        return Fraction(value)
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"expected an integer or 'p/q' rational, got {_shown(value)}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(value)}") from None
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
            raise ValueError(f"expected two comma-separated rationals, got {_shown(text)}")
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
                f"order {_shown(order)} needs {_shown(order + 1)} coefficients, "
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
            q = to_fraction(other)  # refuses a bool
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
    for name, form in (("numerator", numerator), ("denominator", denominator)):
        if not isinstance(form, BinaryForm):
            raise TypeError(f"{name} must be a BinaryForm, got {_shown(form)}")
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
