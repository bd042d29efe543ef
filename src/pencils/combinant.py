"""Pencils of binary forms and their linear combinant sequence.

A pencil is spanned by two linearly independent forms A, B of the same
order d.  Its combinants are the odd transvectants C_{2r-1} = (A, B)_{2r-1}
for r = 1 .. floor((d+1)/2); up to scalar they depend only on span{A, B}.
The module also provides the Wronskian membership test for the pencil and
the equivalent defect expression built from C1 and C3 alone.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DegeneratePencilError, DegreeMismatchError
from .forms import BinaryForm, random_form
from .transvectant import _transvectant_ints, transvectant


class Pencil:
    """Two linearly independent binary forms of equal order d >= 2.

    Independence is detected via the first combinant: C1 = (A, B)_1 is a
    scalar multiple of the Jacobian and vanishes exactly when A, B are
    dependent.  The combinants are kept as integer numerators over one
    denominator once computed, starting with the C1 of that check, so
    every weight evaluated on one pencil shares them.
    """

    __slots__ = ("a", "b", "order", "_ints")

    def __init__(self, a: BinaryForm, b: BinaryForm):
        if a.order != b.order:
            raise DegreeMismatchError(
                f"pencil members must have equal orders, got {a.order} and {b.order}"
            )
        if a.order < 2:
            raise ValueError("pencil order must be at least 2")
        nums, den = _transvectant_ints(*a.as_integers(), *b.as_integers(), 1, {})
        if not any(nums):
            raise DegeneratePencilError("the two forms are linearly dependent")
        self.a = a
        self.b = b
        self.order = a.order
        self._ints = ((tuple(nums), den),)

    def max_combinant_index(self) -> int:
        return (self.order + 1) // 2

    def integer_combinants(self, count: int) -> tuple:
        """C_1, C_3, ..., C_{2count-1} as (integer numerators, denominator) pairs.

        The numerators are tuples, and each pair is reduced as
        `_transvectant_ints` returns it.  Every combinant is computed once
        per pencil; a longer list extends the kept one, which is replaced
        whole so that concurrent callers never see a partial list.
        """
        if not 1 <= count <= self.max_combinant_index():
            raise ValueError(
                f"combinant count {count} outside 1..{self.max_combinant_index()}"
            )
        ints = self._ints
        if len(ints) < count:
            a, da = self.a.as_integers()
            b, db = self.b.as_integers()
            weights: dict = {}
            for r in range(len(ints) + 1, count + 1):
                nums, den = _transvectant_ints(a, da, b, db, 2 * r - 1, weights)
                ints += ((tuple(nums), den),)
            self._ints = ints
        return ints[:count]

    def combinant(self, r: int) -> BinaryForm:
        """C_{2r-1} = (A, B)_{2r-1}, of order 2d - 4r + 2."""
        if not 1 <= r <= self.max_combinant_index():
            raise ValueError(f"combinant index r={r} outside 1..{self.max_combinant_index()}")
        nums, den = self.integer_combinants(r)[r - 1]
        return BinaryForm.from_integers(nums, Fraction(1, den))

    def __repr__(self):
        return f"Pencil(order={self.order})"


class CombinantSequence:
    """The full combinant list of a pencil: entries[r-1] is C_{2r-1}."""

    __slots__ = ("order", "entries")

    def __init__(self, order: int, entries):
        entries = tuple(entries)
        if len(entries) != (order + 1) // 2:
            raise DegreeMismatchError("wrong number of combinants for this order")
        for r, c in enumerate(entries, start=1):
            if c.order != 2 * order - 4 * r + 2:
                raise DegreeMismatchError(
                    f"C_{2 * r - 1} must have order {2 * order - 4 * r + 2}, got {c.order}"
                )
        self.order = order
        self.entries = entries

    def c(self, r: int) -> BinaryForm:
        if not 1 <= r <= len(self.entries):
            raise ValueError(f"combinant index r={r} outside 1..{len(self.entries)}")
        return self.entries[r - 1]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def combinant_sequence(pencil: Pencil) -> CombinantSequence:
    """All combinants C_1, C_3, ..., C_{2*floor((d+1)/2)-1} of the pencil."""
    entries = [pencil.combinant(r) for r in range(1, pencil.max_combinant_index() + 1)]
    return CombinantSequence(pencil.order, entries)


def wronskian(pencil: Pencil, form: BinaryForm) -> BinaryForm:
    """Determinant of the 3x3 matrix of second partials of A, B and `form`.

    Vanishes identically exactly when `form` lies in the pencil's span.
    Second partials are raw derivatives; only the vanishing locus matters.
    """
    if form.order != pencil.order:
        raise DegreeMismatchError(
            f"membership test needs a form of order {pencil.order}, got {form.order}"
        )
    rows = []
    for g in (pencil.a, pencil.b, form):
        rows.append((g.diff(1).diff(1), g.diff(1).diff(2), g.diff(2).diff(2)))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def membership_defect(pencil: Pencil, form: BinaryForm) -> BinaryForm:
    """(C1, F)_2 - (d-2)/(4d-6) * F * C3; the zero form iff F is in the pencil.

    The sign makes the expression vanish on members: for F = A at d = 3 one
    gets (C1, A)_2 = A*C3/6 by direct expansion, so the C3 term must be
    subtracted.  Needs d >= 3 so that C3 exists; at d = 2 only the Wronskian
    test applies.
    """
    d = pencil.order
    if d < 3:
        raise ValueError("defect expression needs order at least 3")
    if form.order != d:
        raise DegreeMismatchError(
            f"membership test needs a form of order {d}, got {form.order}"
        )
    c1 = pencil.combinant(1)
    c3 = pencil.combinant(2)
    return transvectant(c1, form, 2) - Fraction(d - 2, 4 * d - 6) * (form * c3)


def random_pencil(order: int, seed: int, coefficient_bound: int = 10) -> Pencil:
    """Deterministic random pencil; retries derived seeds until independent."""
    base = seed * 1_000_003
    attempt = 0
    while True:
        a = random_form(order, base + 2 * attempt, coefficient_bound)
        b = random_form(order, base + 2 * attempt + 1, coefficient_bound)
        try:
            return Pencil(a, b)
        except DegeneratePencilError:
            attempt += 1
